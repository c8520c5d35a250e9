"""Zero counting for determinants on the complexified phase annulus.

Everything works through log-evaluable handles: a handle maps an array
of complex points z to (phase, log|f|) arrays, so quadrature on log|f|
and winding numbers on the phase never touch raw magnitudes that would
overflow for long windows.  Handles, as built by :func:`determinant_handle`,
:func:`polynomial_handle` and :func:`rotated_handle`, expose the
vectorized ``eval_many`` (phases and logs) that windings go through,
``eval_logs`` (logs alone; a polynomial's skips its phase product, a
determinant's the phase normalisation) that Jensen averages and circle
means read, and ``zeros()``, all their zeros at once, computed on first
use and kept.  A determinant handle keeps the Laurent coefficient table
of its window, built once with the handle and read-only: every
evaluation and the eigensolve read it.  Its zeros are the eigenvalues of
one block-companion matrix, so a handle shared across disks solves for
them once.

The counting tools are the Jensen circle mean, the nested-disk Jensen
average J (whose scaled value sandwiches the zero count between the
counts at radii r1 - r2 and r1 + r2), boundary winding numbers, and a
zero locator that certifies the handle's zeros in a disk by windings.
Windings sample nested grids, theta_i = 2 pi i / (2m): the m-point
estimate reads the even samples of one 2m-point evaluation, and each
further doubling evaluates only the new midpoints.  Circle means keep
two offset grids that share no sample, so that their Richardson gap
still bounds the error when a zero sits on the circle.  Every grid is
checked for a zero on the circle.  The unit-circle samples of a grid
are formed once per (size, offset) and kept, read-only, in a bounded
cache.  J is computed as one radial
integral: circle means of log|f| about the centre, weighted by the
zero-mass kernel of the double disk average.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cocycle import (NEG_INF, _laurent_sites, _laurent_table, _op_norms, _recur,
                      complex_det_grid)
from .dynamics import fracmul
from .potential import ComplexPhase, Potential

ANNULUS_HALF_WIDTH = 0.05
M_POINTS_DEFAULT = 1024
QUAD_POINTS_DEFAULT = 16
WINDING_AGREE = 0.05
WINDING_INT_TOL = 0.1
SANDWICH_SLACK = 0.1
DIP_THRESHOLD = 25.0
NEAR_CIRCLE_GAP = 1e-4
MAX_M_POINTS = 1 << 17
_UNIT_CIRCLES = 16
_CACHED_POINTS = 1 << 14


class NearCircleZero(ArithmeticError):
    """A zero sits (numerically) on an integration circle.

    ``suggested_radius`` is a nearby radius to retry with.
    """

    def __init__(self, msg: str, suggested_radius: float):
        super().__init__(msg)
        self.suggested_radius = suggested_radius


class CenterIsZero(ZeroDivisionError):
    """Jensen count requested at a point where the function vanishes."""


class WindingUnstable(ArithmeticError):
    """Boundary winding failed to settle on an integer under refinement."""


@dataclass(frozen=True)
class Disk:
    """A disk D(center, radius) in the annulus coordinate z."""

    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("disk radius must be positive")


@dataclass(frozen=True)
class ZeroSet:
    """Located zeros with the worst log-residual and the search disk."""

    zeros: tuple
    residual: float
    disk: Disk

    @property
    def count(self) -> int:
        return len(self.zeros)


@dataclass(frozen=True)
class SeparationStats:
    """Per-disk zero counts and separations for determinant zeros."""

    n_probes: int
    radius: float
    counts: tuple
    max_per_disk: int
    min_pairwise_distance: float
    per_disk_ceiling: int
    annulus_count: int
    annulus_ceiling: int


@dataclass(frozen=True)
class AdditivityReport:
    """Zero counts of the two half-window determinants and the doubled one."""

    count_left: int
    count_shifted: int
    count_doubled: int

    @property
    def defect(self) -> int:
        return self.count_doubled - self.count_left - self.count_shifted


# ---------------------------------------------------------------------------
# handles


class _Handle:
    """A vectorized (phases, log_mags) evaluator, its log|f| alone, and its zeros.

    ``fn`` maps an array of points to (phases, log_mags) arrays, and
    ``logs`` to log|f| alone, for reads that never look at the phase.
    ``zeros_of()`` lists every zero of the function in C minus {0}, with
    multiplicity; :meth:`zeros` calls it once and keeps the array.
    """

    __slots__ = ("_fn", "_zeros_of", "_zeros", "_logs")

    def __init__(self, fn, zeros_of, logs):
        self._fn = fn
        self._zeros_of = zeros_of
        self._zeros = None
        self._logs = logs

    def zeros(self) -> np.ndarray:
        if self._zeros is None:
            self._zeros = np.asarray(self._zeros_of(), dtype=complex)
        return self._zeros

    def eval_many(self, zs):
        return self._fn(np.asarray(zs, dtype=complex))

    def eval_logs(self, zs) -> np.ndarray:
        return self._logs(np.asarray(zs, dtype=complex))


def polynomial_handle(roots, leading=1.0) -> _Handle:
    """Log-evaluable handle for leading * prod (z - root); its zeros are the roots.

    Its logs-only read is lead + sum_j log|z - root_j|, with -inf at an
    exact root, and skips the phase product.
    """
    rts = np.asarray(list(roots), dtype=complex)
    lead = complex(leading)
    if lead == 0:
        raise ValueError("leading coefficient must be nonzero")
    lead_log = math.log(abs(lead))
    lead_ph = lead / abs(lead)

    def diffs(zs):
        diff = zs[:, None] - rts[None, :] if rts.size else np.ones((zs.size, 0))
        return diff, np.abs(diff)

    def log_sum(mags):
        with np.errstate(divide="ignore"):
            logs = lead_log + np.sum(np.log(np.where(mags > 0, mags, 1.0)), axis=1)
        return np.where(np.any(mags == 0.0, axis=1), NEG_INF, logs)

    def fn(zs):
        diff, mags = diffs(zs)
        logs = log_sum(mags)
        phases = lead_ph * np.prod(np.where(mags > 0, diff / np.where(mags > 0, mags, 1.0), 1.0),
                                   axis=1)
        return np.where(logs == NEG_INF, 0j, phases), logs

    return _Handle(fn, lambda: rts, lambda zs: log_sum(diffs(zs)[1]))


def _companion_zeros(p: Potential, omega: float, E, a: int, b: int,
                     table=None) -> np.ndarray:
    """The zeros of f_[a,b](z) in C minus {0}: eigenvalues of one matrix.

    With v(k, z) = sum_{|j| <= d} c_kj z^j from :func:`_laurent_table`
    (``table``, if the caller already holds it for sites a..b),
    z^d (H(z) - E) = sum_{i <= 2d} z^i A_i is a matrix polynomial with
    determinant z^(n d) f(z): A_i = diag(c_k,i-d), plus -E and the unit
    off-diagonals in A_d.  Its 2 d n roots are the eigenvalues of the
    monic block-companion matrix, whose first block row is -A_i / A_2d
    in block 2d-1-i (Tisseur and Meerbergen, SIAM Review 43, 2001).
    """
    ks, vs, coef = _laurent_table(p, omega, a, b) if table is None else table
    live = vs != 0
    d = int(np.max(np.abs(ks[live]), initial=0))
    if d == 0:
        return np.empty(0, complex)
    n, size = len(coef), 2 * d * len(coef)
    table = np.zeros((n, 2 * d + 1), complex)
    table[:, ks[live] + d] = coef[:, live]
    table[:, d] -= E
    lead = table[:, 2 * d]
    rows = np.arange(n)
    comp = np.zeros((size, size), complex)
    comp[rows[:, None], rows[:, None] + n * np.arange(2 * d)] = \
        -table[:, 2 * d - 1::-1] / lead[:, None]
    comp[rows[:-1], n * (d - 1) + rows[1:]] = -1.0 / lead[:-1]
    comp[rows[1:], n * (d - 1) + rows[:-1]] = -1.0 / lead[1:]
    comp[np.arange(n, size), np.arange(size - n)] = 1.0
    return np.linalg.eigvals(comp)


def determinant_handle(p: Potential, omega: float, E, n: int) -> _Handle:
    """Log-evaluable handle for z -> f_n(z, omega, E) (shift dynamics).

    The Laurent coefficient table of sites 1..n is built once, here, and
    kept read-only: every evaluation and the eigensolve read it, so a
    handle shared across threads shares it too.  Its logs-only read skips
    the phase normalisation.  Its zeros are the eigenvalues of the
    block-companion matrix of z^k0 (H_n(z) - E), the z at which E is an
    eigenvalue of H_n(z).
    """
    table = _laurent_table(p, omega, 1, n)
    # ks is the potential's own array; the coefficients are the handle's
    table[1].flags.writeable = table[2].flags.writeable = False

    def fn(zs):
        return complex_det_grid(p, omega, zs, E, n, table=table)

    def logs(zs):
        return complex_det_grid(p, omega, zs, E, n, table=table, logs_only=True)

    return _Handle(fn, lambda: _companion_zeros(p, omega, E, 1, n, table), logs)


def rotated_handle(f, rot: complex) -> _Handle:
    """The handle z -> f(z * rot); its zeros are those of f divided by rot."""
    def fn(zs):
        return f.eval_many(zs * rot)
    return _Handle(fn, lambda: f.zeros() / rot, lambda zs: f.eval_logs(zs * rot))


# ---------------------------------------------------------------------------
# circle quadrature


def _unit_circle(m: int, offset: float) -> np.ndarray:
    """e^(i theta) at theta = 2 pi (i + offset) / m, read-only."""
    angles = 2.0 * np.pi * (np.arange(m) + offset) / m
    unit = np.exp(1j * angles)
    unit.flags.writeable = False
    return unit


# the grids of up to _CACHED_POINTS samples, shared by every handle and
# thread: at most _UNIT_CIRCLES * 256 KiB
_cached_unit_circle = functools.lru_cache(maxsize=_UNIT_CIRCLES)(_unit_circle)


def _circle_points(z0: complex, R: float, m: int, offset: float = 0.0) -> np.ndarray:
    """m points z0 + R e^(i theta) at theta = 2 pi (i + offset) / m."""
    unit = (_cached_unit_circle if m <= _CACHED_POINTS else _unit_circle)(m, offset)
    return z0 + R * unit


def _check_circle(logs: np.ndarray, z0: complex, R: float) -> None:
    """Raise NearCircleZero if the samples of an m-point grid see a zero on it."""
    m = logs.size
    if not np.all(np.isfinite(logs)):
        raise NearCircleZero(
            f"zero on the circle |z - {z0}| = {R} (non-finite log sample)",
            suggested_radius=R * (1.0 + 3.0 / m))
    # np.median's value from one partition that also puts the minimum first:
    # the middle sample, or the mean of the two middle samples
    lo, hi = (m - 1) // 2, m // 2
    part = np.partition(logs, (0, lo, hi))
    median = part[hi] if lo == hi else (part[lo] + part[hi]) / 2.0
    dip = float(median - part[0])
    if dip > DIP_THRESHOLD:
        raise NearCircleZero(
            f"modulus dips {dip:.1f} logs below the median on |z - {z0}| = {R}",
            suggested_radius=R * (1.0 + 3.0 / m))


def _scan_nested(f, z0: complex, R: float, m: int):
    """Phases and logs on the 2m-point grid; its even samples are the m-point grid.

    Both grids are checked for a zero on the circle, the coarse one first.
    """
    phases, logs = f.eval_many(_circle_points(z0, R, 2 * m))
    _check_circle(logs[::2], z0, R)
    _check_circle(logs, z0, R)
    return phases, logs


def _refine(f, z0: complex, R: float, phases: np.ndarray, logs: np.ndarray):
    """Double an m-point grid: evaluate its m midpoints, interleave, check."""
    m = logs.size
    new_phases, new_logs = f.eval_many(_circle_points(z0, R, m, 0.5))
    phases2, logs2 = np.empty(2 * m, complex), np.empty(2 * m)
    phases2[0::2], phases2[1::2] = phases, new_phases
    logs2[0::2], logs2[1::2] = logs, new_logs
    _check_circle(logs2, z0, R)
    return phases2, logs2


def _offset_mean_log(f, z0: complex, R: float, m: int) -> float:
    logs = f.eval_logs(_circle_points(z0, R, m, 0.5))
    _check_circle(logs, z0, R)
    return float(np.mean(logs))


def circle_mean_log(f, z0, R: float, M_points: int = M_POINTS_DEFAULT,
                    with_error: bool = False):
    """Average of log|f| over the circle |z - z0| = R.

    Trapezoidal rule on M_points and 2*M_points samples at theta_i =
    2 pi (i + 1/2) / m, two grids that share no sample (on nested grids
    a zero midway between two fine samples leaves both means equally
    wrong); the returned value is the finer one and ``with_error=True``
    additionally returns the Richardson gap |mean_2M - mean_M| as the
    quadrature error bound.
    """
    if M_points < 256:
        raise ValueError("M_points must be at least 256")
    z0 = complex(z0)
    coarse, fine = (_offset_mean_log(f, z0, R, m) for m in (M_points, 2 * M_points))
    gap = abs(fine - coarse)
    # a zero within ~R/M of the circle never dips at a sample point, but
    # it destroys the trapezoid rule's exponential convergence; an O(1/M)
    # Richardson gap is its fingerprint
    if gap > NEAR_CIRCLE_GAP * max(1.0, abs(fine)):
        raise NearCircleZero(
            f"trapezoid means on |z - {z0}| = {R} disagree by {gap:.2e}: "
            "a zero sits essentially on the circle",
            suggested_radius=R * (1.0 + 3.0 / M_points))
    if with_error:
        return fine, gap
    return fine


def jensen_count(f, z0, R: float, M_points: int = M_POINTS_DEFAULT) -> float:
    """Sum of log(R / |zeta - z0|) over zeros zeta in D(z0, R).

    Jensen's identity: circle mean of log|f| minus log|f(z0)|.  Zero
    when the disk is zero-free, and each zero contributes positively,
    growing as it approaches the center.
    """
    center_log = float(f.eval_logs(np.array([complex(z0)]))[0])
    if center_log == NEG_INF or not np.isfinite(center_log):
        raise CenterIsZero(f"f vanishes at the Jensen center {z0}")
    return circle_mean_log(f, z0, R, M_points) - center_log


# ---------------------------------------------------------------------------
# nested disk averages


def _u_values(u, zs):
    flat = np.asarray(zs, dtype=complex).ravel()
    if hasattr(u, "eval_logs"):
        vals = u.eval_logs(flat)
    else:
        vals = np.fromiter((float(u(z)) for z in flat), dtype=float, count=flat.size)
    return vals.reshape(np.shape(zs))


def _jensen_J_once(u, z0: complex, r1: float, r2: float, q: int) -> float:
    # J = int w(s) M(s) ds over r1 - r2 < s < r1 + r2, with M(s) the circle
    # mean of u at radius s about z0; q Gauss-Legendre nodes on each side
    # of the jump of w at s = r1, 32 q trapezoid points per circle
    t, gw = np.polynomial.legendre.leggauss(q)
    s = np.concatenate([r1 + 0.5 * r2 * (t - 1.0), r1 + 0.5 * r2 * (t + 1.0)])
    a1 = np.arccos(np.clip((s * s + r1 * r1 - r2 * r2) / (2.0 * s * r1), -1.0, 1.0))
    a2 = np.arccos(np.clip((s * s + r2 * r2 - r1 * r1) / (2.0 * s * r2), -1.0, 1.0))
    heron = np.maximum((r1 + r2 - s) * (s + r1 - r2) * (s - r1 + r2) * (s + r1 + r2), 0.0)
    lens = r1 * r1 * a1 + r2 * r2 * a2 - 0.5 * np.sqrt(heron)
    kernel = 2.0 * s * (lens / (math.pi * r1 * r1 * r2 * r2) - (s < r1) / (r1 * r1))
    wts = 0.5 * r2 * np.concatenate([gw, gw]) * kernel
    # the kernel has zero mass, so harmonic u averages to exactly zero
    wts -= wts.mean()
    vals = _u_values(u, z0 + s[:, None] * _circle_points(0j, 1.0, 32 * q, 0.5)[None, :])
    if not np.all(np.isfinite(vals)):
        raise ArithmeticError("non-finite subharmonic sample in the disk average")
    return float(wts @ vals.mean(axis=1))


def jensen_average_J(u, z0, r1: float, r2: float,
                     quad_points: int = QUAD_POINTS_DEFAULT,
                     with_error: bool = False):
    """Nested disk average J(u, z0, r1, r2) of u(zeta) - u(z).

    Outer average over z in D(z0, r1), inner over zeta in D(z, r2).  The
    double average depends on zeta only through s = |zeta - z0|, so J is
    one radial integral of the circle means M(s) of u about z0 against
    the zero-mass kernel w(s) = 2 s [A(s) / (pi r1^2 r2^2) - 1{s < r1} / r1^2],
    where A(s) is the area of D(z0, r1) cut with a disk of radius r2 at
    distance s; w vanishes outside r1 - r2 < s < r1 + r2.  Gauss-Legendre
    in s on both sides of r1, trapezoid on each circle.  Evaluated at
    2*quad_points nodes per side, which is returned; ``with_error=True``
    also evaluates quad_points and returns the doubling gap.  Exactly zero
    for harmonic u up to roundoff; for u = log|f| the value scaled by
    4 r1^2 / r2^2 counts zeros between radii r1 - r2 and r1 + r2.
    """
    if not 0.0 < r2 < r1:
        raise ValueError("need 0 < r2 < r1")
    z0 = complex(z0)
    fine = _jensen_J_once(u, z0, r1, r2, 2 * quad_points)
    if with_error:
        return fine, abs(fine - _jensen_J_once(u, z0, r1, r2, quad_points))
    return fine


# ---------------------------------------------------------------------------
# winding numbers and zero location


def _winding(phases: np.ndarray) -> float:
    # the array np.roll(phases, 1) builds, conjugated in place
    prev = np.empty_like(phases)
    prev[1:], prev[0] = phases[:-1], phases[-1]
    rot = phases * np.conj(prev, out=prev)
    return float(np.sum(np.arctan2(rot.imag, rot.real))) / (2.0 * math.pi)


def boundary_winding(f, z0, R: float, m_points: int = M_POINTS_DEFAULT) -> float:
    """Winding number of f around the circle |z - z0| = R.

    Sums principal-branch phase increments on nested grids, theta_i =
    2 pi i / (2m): one evaluation of 2m points gives the estimates at m
    (the even samples) and 2m, and each further doubling evaluates only
    the m new midpoints.  Doubles until two successive estimates agree
    within WINDING_AGREE; raises WindingUnstable if they never do or the
    result is not close to an integer or m_points exceeds MAX_M_POINTS,
    and NearCircleZero if a grid sees a zero on the circle.
    """
    z0 = complex(z0)
    m = max(256, m_points)
    if m > MAX_M_POINTS:
        raise WindingUnstable(f"m_points {m} exceeds MAX_M_POINTS = {MAX_M_POINTS}")
    phases, logs = _scan_nested(f, z0, R, m)
    prev, cur = _winding(phases[::2]), _winding(phases)
    while abs(cur - prev) > WINDING_AGREE:
        m *= 2
        if m > MAX_M_POINTS:
            raise WindingUnstable(
                f"winding estimates on |z - {z0}| = {R} never stabilized (last {cur:.3f})")
        phases, logs = _refine(f, z0, R, phases, logs)
        prev, cur = cur, _winding(phases)
    if abs(cur - round(cur)) > WINDING_INT_TOL:
        raise WindingUnstable(f"winding {cur:.3f} on |z - {z0}| = {R} is not near an integer")
    return cur


_JITTERS = (1.0, 1.031, 0.967, 1.062, 0.941, 1.094)


def _winding_jittered(f, z0: complex, R: float, m_points: int):
    """Winding with a few deterministic radius retries on boundary zeros."""
    last = None
    for jig in _JITTERS:
        try:
            r = R * jig
            return int(round(boundary_winding(f, z0, r, m_points))), r
        except NearCircleZero as exc:
            last = exc
    raise last


def locate_zeros(f, disk: Disk, tol: float = 1e-10) -> ZeroSet:
    """All zeros of f inside the disk, with multiplicity.

    The candidates are the handle's own ``zeros()`` in the disk, and they
    are certified, not trusted: their number must equal the boundary
    winding, candidates closer than sqrt(tol) (eigenvalues split a double
    zero by about sqrt(eps)) merge into one zero at their mean, and each
    merged zero's small-circle winding must equal its candidate count.
    Any disagreement raises WindingUnstable.
    """
    c, R = complex(disk.center), float(disk.radius)
    total = int(round(boundary_winding(f, c, R, M_POINTS_DEFAULT)))
    if total < 0:
        raise WindingUnstable(f"negative winding {total}: handle is not analytic")
    if total == 0:
        return ZeroSet(zeros=(), residual=NEG_INF, disk=disk)
    inside = [complex(z) for z in f.zeros() if abs(z - c) <= R]
    if len(inside) != total:
        raise WindingUnstable(
            f"{len(inside)} candidate zeros in the disk but the boundary winding says {total}")
    clusters: list = []
    for z in inside:
        near = next((cl for cl in clusters if abs(z - cl[0]) < math.sqrt(tol)), None)
        if near is None:
            clusters.append([z])
        else:
            near.append(z)
    centres = [sum(cl) / len(cl) for cl in clusters]
    zeros: list = []
    for z, cl in zip(centres, clusters):
        others = [abs(z - u) for u in centres if u is not z]
        r_t = 0.5 * min(others) if others else 0.05 * R
        r_t = min(max(r_t, 25.0 * tol), 0.05 * R, 0.9 * (R - abs(z - c)) + 25.0 * tol)
        mult, _ = _winding_jittered(f, z, r_t, 512)
        if mult != len(cl):
            raise WindingUnstable(
                f"winding {mult} about the zero at {z} but {len(cl)} candidates there")
        zeros.extend([z] * mult)
    logs = f.eval_logs(np.array(zeros))
    zeros.sort(key=lambda p: (p.real, p.imag))
    return ZeroSet(zeros=tuple(zeros), residual=float(np.max(logs)), disk=disk)


def nu_sandwich(f, z0, r1: float, r2: float,
                quad_points: int = QUAD_POINTS_DEFAULT,
                tol: float = 1e-10):
    """(count at r1-r2, scaled Jensen average, count at r1+r2).

    The middle estimate is 4 (r1/r2)^2 J(log|f|, z0, r1, r2), which is
    pinched between the two zero counts; the triple is asserted to obey
    the sandwich up to SANDWICH_SLACK before being returned.
    """
    if not 0.0 < r2 < r1:
        raise ValueError("need 0 < r2 < r1")
    z0 = complex(z0)
    est = 4.0 * (r1 / r2) ** 2 * jensen_average_J(f, z0, r1, r2, quad_points)
    lower = locate_zeros(f, Disk(z0, r1 - r2), tol).count
    upper = locate_zeros(f, Disk(z0, r1 + r2), tol).count
    if not (lower - SANDWICH_SLACK <= est <= upper + SANDWICH_SLACK):
        raise ArithmeticError(
            f"zero-count sandwich violated: {lower} <= {est:.4f} <= {upper}")
    return lower, est, upper


# ---------------------------------------------------------------------------
# determinant-specific statistics


def annulus_zero_count(f, y_half: float = ANNULUS_HALF_WIDTH,
                       m_points: int = 4096) -> int:
    """Zeros of the handle between the circles |z| = e^(+-2 pi y_half)."""
    r_out = math.exp(2.0 * math.pi * y_half)
    r_in = math.exp(-2.0 * math.pi * y_half)
    w_out, _ = _winding_jittered(f, 0j, r_out, m_points)
    w_in, _ = _winding_jittered(f, 0j, r_in, m_points)
    return w_out - w_in


def zero_separation(p: Potential, omega: float, E, N: int,
                    annulus_y: float = ANNULUS_HALF_WIDTH,
                    n_probes: int = 20, radius: float = 0.01,
                    seed: int = 0, tol: float = 1e-9) -> SeparationStats:
    """Zero statistics of f_N over random probe disks in the annulus.

    Each probe disk sits at a random annulus point; the per-disk counts
    are reported against the ceiling 2 deg(V), and the total count over
    the whole annulus (by winding difference) against 2 N deg(V).
    """
    f = determinant_handle(p, omega, E, N)
    rng = np.random.default_rng(seed)
    counts = []
    all_zeros: list = []
    for _ in range(n_probes):
        # x is drawn before y: the seeded probe centres depend on the order
        center = ComplexPhase(rng.random(), (rng.random() - 0.5) * annulus_y).to_z()
        r_try = radius
        for attempt in range(5):
            try:
                zs = locate_zeros(f, Disk(center, r_try), tol)
                break
            except NearCircleZero:
                if attempt == 4:
                    raise
                r_try *= 0.963
        counts.append(zs.count)
        all_zeros.extend(zs.zeros)
    # Python's complex abs, not numpy's, which rounds apart in the last bit
    min_dist = min((d for a, b in itertools.combinations(all_zeros, 2)
                    if (d := abs(a - b)) > 0.0), default=math.inf)
    m_hint = max(4096, 4 * (2 * N * max(p.k0, 1) + 16))
    total = annulus_zero_count(f, annulus_y, m_hint)
    return SeparationStats(
        n_probes=n_probes, radius=radius, counts=tuple(counts),
        max_per_disk=max(counts) if counts else 0,
        min_pairwise_distance=min_dist,
        per_disk_ceiling=2 * p.k0,
        annulus_count=total,
        annulus_ceiling=2 * N * p.k0)


def _scaled_norm_logs(p: Potential, omega: float, zs: np.ndarray, E, n: int):
    """log||M_k(z)|| at k = n and k = 2n, plus log||M_n(z e(n omega))||.

    Sites n+1..2n at z are exactly sites 1..n at z e(n omega), so the
    two half-window products come from the complex site stream over
    1..n and n+1..2n, run through the recurrence core with both
    solutions, and M_2n is their product.
    """
    zs = np.asarray(zs, dtype=complex).ravel()

    def run(a: int, b: int):
        bound, blocks = _laurent_sites(p, omega, zs, a, b)
        top, bottom, acc = _recur(bound, E, blocks, zs.size, 2)
        return np.stack([top, bottom]), acc

    first, acc1 = run(1, n)
    shifted, acc2 = run(n + 1, 2 * n)
    full = np.einsum("ikm,kjm->ijm", shifted, first)
    log_n = acc1 + np.log(_op_norms(first))
    log_shift = acc2 + np.log(_op_norms(shifted))
    log_2n = acc1 + acc2 + np.log(_op_norms(full))
    return log_n, log_shift, log_2n


def concatenation_w_grid(p: Potential, omega: float, zs, E, m: int) -> np.ndarray:
    """w_m(z) = log ||M_2m(z)|| - log ||M_m(z e(m omega))|| - log ||M_m(z)||.

    Submultiplicativity of the operator norm makes w_m nonpositive; in
    scaled arithmetic it stays below 1e-9 for any window length.
    """
    log_n, log_shift, log_2n = _scaled_norm_logs(p, omega, np.asarray(zs, dtype=complex),
                                                 E, m)
    return log_2n - log_shift - log_n


def additivity_handles(p: Potential, omega: float, E, m: int) -> tuple:
    """The handles of f_m, its e(m omega)-shift, and f_2m.

    Sites m+1..2m at z are sites 1..m at z e(m omega), so the shifted
    window is f_m rotated, and its zeros come from f_m's eigensolve.
    """
    f_left = determinant_handle(p, omega, E, m)
    rot = cmath.exp(2j * math.pi * fracmul(m, omega))
    return f_left, rotated_handle(f_left, rot), determinant_handle(p, omega, E, 2 * m)


def zero_count_additivity(f_left, f_shift, f_double, disk: Disk,
                          tol: float = 1e-9) -> AdditivityReport:
    """Zero counts in one disk for f_m, its e(m omega)-shift, and f_2m.

    The three handles come from :func:`additivity_handles`; built once and
    shared over many disks, each window's zeros are solved for at most
    once.  The doubled-window count exceeds the sum of the two halves by a
    bounded defect; the triple is reported with no assertion since the
    bound's constant is instance-dependent.
    """
    k0 = locate_zeros(f_left, disk, tol).count
    k1 = locate_zeros(f_shift, disk, tol).count
    k = locate_zeros(f_double, disk, tol).count
    return AdditivityReport(count_left=k0, count_shifted=k1, count_doubled=k)
