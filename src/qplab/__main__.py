"""``python -m qplab``: the command line of the ``qplab`` script."""
from .expcli import main

if __name__ == "__main__":
    raise SystemExit(main())
