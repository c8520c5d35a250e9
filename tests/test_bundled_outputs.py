"""The 16 bundled configs' outputs, frozen under ``tests/oracles/bundled``.

All 16 run in one process, as ``qplab run src/qplab/configs/*.yaml``
does, and each CSV is compared with its frozen copy cell by cell:

* a column whose frozen cells are all integers (counts, flags, sizes,
  integer grid values), or that holds text, must match exactly;
* every other column is compared to a relative tolerance of
  ``RTOL`` = 1e-9 of the larger of the cell and the column's largest
  finite magnitude, so a cell that is rounding noise next to its column
  (a Fourier amplitude of 1e-14 beside 0.58) is held to the column's
  scale;
* NaN must stay NaN, and infinities must match exactly.

Last-bit moves of the site stream (up to about 3e-15 per site) move the
float columns by at most 1.5e-13 relative, except the two columns that
difference eigenvalues over a phase step of 1e-6, in ``LOOSE``, and
avalanche_fuzz's ``discrepancy``.  That column is a cancellation: about
120 log norms of size about 9 sum to values of at most 7.5e-8, whose
rounding floor is near 1e-11.  Against it the tolerance of 1e-9 of the
column scale (7.5e-17 absolute) is in effect a bitwise comparison, so
the avalanche path keeps the operation order of every value.  A PR
that changes bundled values updates the frozen copies and says why.
"""

import csv
import math
from functools import partial
from pathlib import Path


import qplab.expcli as cli

ORACLES = Path(__file__).parent / "oracles" / "bundled"
CONFIGS = sorted((Path(cli.__file__).parent / "configs").glob("*.yaml"))
RTOL = 1e-9
# (experiment, column) -> (rtol, atol).  hellmann_feynman's fd is a
# central difference over 2h = 2e-6, so eigenvalue rounding near 1e-15
# reaches it at about 1e-9; rel_err = |analytic - fd| / |analytic| is
# that rounding floor itself (1e-9 to 4e-8 here) and moves by its size.
LOOSE = {("hellmann_feynman", "fd"): (1e-7, 0.0),
         ("hellmann_feynman", "rel_err"): (0.0, 1e-7)}


def read(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def parses(kind, cell):
    try:
        kind(cell)
    except ValueError:
        return False
    return True


def mismatches(name, want, got):
    """(column, row, frozen, produced) of every cell out of tolerance."""
    if got[0] != want[0] or len(got) != len(want):
        return [("header or row count", None, want[0], got[0])]
    bad = []
    for j, column in enumerate(want[0]):
        cells = [(r, row[j], new[j]) for r, (row, new) in enumerate(zip(want[1:], got[1:]))]
        frozen = [w for _, w, _ in cells]
        if all(map(partial(parses, int), frozen)) or not all(map(partial(parses, float), frozen)):
            bad += [(column, r, w, g) for r, w, g in cells if w != g]
            continue
        rtol, atol = LOOSE.get((name, column), (RTOL, 0.0))
        scale = max((abs(float(w)) for _, w, _ in cells if math.isfinite(float(w))), default=0.0)
        for r, w, g in cells:
            w, g = float(w), float(g)
            if math.isnan(w) or not math.isfinite(w):
                ok = math.isnan(g) if math.isnan(w) else g == w
            else:
                ok = abs(g - w) <= rtol * max(abs(w), scale) + atol
            if not ok:
                bad.append((column, r, w, g))
    return bad


def test_bundled_configs_reproduce_their_frozen_outputs(tmp_path, monkeypatch):
    assert len(CONFIGS) == 16
    assert sorted(p.stem for p in ORACLES.glob("*.csv")) == [p.stem for p in CONFIGS]
    # each config writes results/<name>/ under the working directory
    monkeypatch.chdir(tmp_path)
    assert cli.run_configs(CONFIGS, threads=1) == 0
    bad = {}
    for cfg in CONFIGS:
        name = cfg.stem
        got = read(tmp_path / "results" / name / f"{name}.csv")
        if found := mismatches(name, read(ORACLES / f"{name}.csv"), got):
            bad[name] = found[:5]
    assert not bad, bad
