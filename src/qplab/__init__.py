"""qplab: a numerical laboratory for discrete 1D Schrodinger operators
with dynamically defined potentials.

The package computes transfer-matrix products, Lyapunov exponents,
integrated densities of states, large-deviation statistics, Green's
functions, and complex zero counts of Dirichlet determinants for
operators of the form

    (H_x psi)_n = -psi_{n-1} - psi_{n+1} + lambda * V(T^n x) psi_n

where T is an ergodic torus map (irrational shift, skew-shift, or
doubling) and V is a real trigonometric polynomial.

``import qplab`` loads ``dynamics`` and ``potential`` only.  Every other
submodule loads on first use, as ``qplab.spectrum`` or ``import
qplab.spectrum``, so a run pays start-up only for the numerics it calls.
"""

__version__ = "0.1.0"

from . import dynamics, potential
from .dynamics import Doubling, Shift, SkewShift
from .potential import ComplexPhase, Potential

_LAZY = ("cocycle", "deviations", "expcli", "experiments", "lyapunov", "spectrum", "zeros")


def __getattr__(name):
    if name in _LAZY:
        # through the import statement's machinery, which -X importtime reports
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "cocycle",
    "deviations",
    "dynamics",
    "expcli",
    "experiments",
    "lyapunov",
    "potential",
    "spectrum",
    "zeros",
    "Shift",
    "SkewShift",
    "Doubling",
    "Potential",
    "ComplexPhase",
    "__version__",
]
