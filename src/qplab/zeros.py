"""Zero counting for determinants on the complexified phase annulus.

Everything works through log-evaluable handles: a handle maps a complex
point z to a :class:`~qplab.cocycle.SignedLog`, so quadrature on log|f|
and winding numbers on the phase never touch raw magnitudes that would
overflow for long windows.  Handles, as built by :func:`determinant_handle`,
:func:`polynomial_handle` and :func:`rotated_handle`, also expose the
vectorized ``eval_many`` that every handle evaluation here goes through.

The counting tools are the Jensen circle mean, the nested-disk Jensen
average J (whose scaled value sandwiches the zero count between the
counts at radii r1 - r2 and r1 + r2), boundary winding numbers, and a
quadrisection zero locator cross-checked against the winding count.
J is computed as one radial integral: circle means of log|f| about the
centre, weighted by the zero-mass kernel of the double disk average.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cocycle import NEG_INF, SignedLog, _laurent_sites, _op_norms, _recur, complex_det_grid
from .potential import ComplexPhase, Potential

ANNULUS_HALF_WIDTH = 0.05
M_POINTS_DEFAULT = 1024
QUAD_POINTS_DEFAULT = 16
WINDING_AGREE = 0.05
WINDING_INT_TOL = 0.1
SANDWICH_SLACK = 0.1
SUBDISK_FACTOR = 1.0 / math.sqrt(2.0) + 0.1
DIP_THRESHOLD = 25.0
NEAR_CIRCLE_GAP = 1e-4
MAX_M_POINTS = 1 << 17


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
    """Wrap a vectorized (phases, log_mags) evaluator as a scalar handle."""

    __slots__ = ("_fn",)

    def __init__(self, fn):
        self._fn = fn

    def eval_many(self, zs):
        return self._fn(np.asarray(zs, dtype=complex))

    def __call__(self, z) -> SignedLog:
        phases, logs = self._fn(np.array([complex(z)]))
        if logs[0] == NEG_INF or not np.isfinite(logs[0]):
            return SignedLog.zero()
        return SignedLog(complex(phases[0]), float(logs[0]))


def polynomial_handle(roots, leading=1.0) -> _Handle:
    """Log-evaluable handle for leading * prod (z - root)."""
    rts = np.asarray(list(roots), dtype=complex)
    lead = complex(leading)
    if lead == 0:
        raise ValueError("leading coefficient must be nonzero")
    lead_log = math.log(abs(lead))
    lead_ph = lead / abs(lead)

    def fn(zs):
        diff = zs[:, None] - rts[None, :] if rts.size else np.ones((zs.size, 0))
        mags = np.abs(diff)
        zero_hit = np.any(mags == 0.0, axis=1)
        with np.errstate(divide="ignore"):
            logs = lead_log + np.sum(np.log(np.where(mags > 0, mags, 1.0)), axis=1)
        phases = lead_ph * np.prod(np.where(mags > 0, diff / np.where(mags > 0, mags, 1.0), 1.0),
                                   axis=1)
        logs = np.where(zero_hit, NEG_INF, logs)
        phases = np.where(zero_hit, 0j, phases)
        return phases, logs

    return _Handle(fn)


def determinant_handle(p: Potential, omega: float, E, n: int,
                       first_site: str = "Tx") -> _Handle:
    """Log-evaluable handle for z -> f_n(z, omega, E) (shift dynamics)."""
    def fn(zs):
        return complex_det_grid(p, omega, zs, E, n, first_site=first_site)
    return _Handle(fn)


def rotated_handle(f, rot: complex) -> _Handle:
    """The handle z -> f(z * rot)."""
    def fn(zs):
        return f.eval_many(zs * rot)
    return _Handle(fn)


# ---------------------------------------------------------------------------
# circle quadrature


def _circle_points(z0: complex, R: float, m: int) -> np.ndarray:
    angles = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    return z0 + R * np.exp(1j * angles)


def _scan_circle(f, z0: complex, R: float, m: int):
    """Evaluate on the circle and flag a zero sitting (nearly) on it."""
    phases, logs = f.eval_many(_circle_points(z0, R, m))
    finite = np.isfinite(logs)
    if not np.all(finite):
        raise NearCircleZero(
            f"zero on the circle |z - {z0}| = {R} (non-finite log sample)",
            suggested_radius=R * (1.0 + 3.0 / m))
    dip = float(np.median(logs) - np.min(logs))
    if dip > DIP_THRESHOLD:
        raise NearCircleZero(
            f"modulus dips {dip:.1f} logs below the median on |z - {z0}| = {R}",
            suggested_radius=R * (1.0 + 3.0 / m))
    return phases, logs


def circle_mean_log(f, z0, R: float, M_points: int = M_POINTS_DEFAULT,
                    with_error: bool = False):
    """Average of log|f| over the circle |z - z0| = R.

    Trapezoidal rule on M_points and 2*M_points samples; the returned
    value is the finer one and ``with_error=True`` additionally returns
    the Richardson gap |mean_2M - mean_M| as the quadrature error bound.
    """
    if M_points < 256:
        raise ValueError("M_points must be at least 256")
    z0 = complex(z0)
    _, logs1 = _scan_circle(f, z0, R, M_points)
    _, logs2 = _scan_circle(f, z0, R, 2 * M_points)
    coarse = float(np.mean(logs1))
    fine = float(np.mean(logs2))
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
    center_log = float(f.eval_many(np.array([complex(z0)]))[1][0])
    if center_log == NEG_INF or not np.isfinite(center_log):
        raise CenterIsZero(f"f vanishes at the Jensen center {z0}")
    return circle_mean_log(f, z0, R, M_points) - center_log


# ---------------------------------------------------------------------------
# nested disk averages


def _u_values(u, zs):
    flat = np.asarray(zs, dtype=complex).ravel()
    if hasattr(u, "eval_many"):
        vals = u.eval_many(flat)[1]
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
    vals = _u_values(u, z0 + s[:, None] * _circle_points(0j, 1.0, 32 * q)[None, :])
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


def _winding_once(f, z0: complex, R: float, m: int) -> float:
    phases, _ = _scan_circle(f, z0, R, m)
    rot = phases * np.conj(np.roll(phases, 1))
    return float(np.sum(np.angle(rot))) / (2.0 * math.pi)


def boundary_winding(f, z0, R: float, m_points: int = M_POINTS_DEFAULT) -> float:
    """Winding number of f around the circle |z - z0| = R.

    Sums principal-branch phase increments, doubling the sample count
    until two successive estimates agree within WINDING_AGREE; raises
    WindingUnstable if they never do or the result is not close to an
    integer.
    """
    z0 = complex(z0)
    m = max(256, m_points)
    prev = _winding_once(f, z0, R, m)
    while m <= MAX_M_POINTS:
        m *= 2
        cur = _winding_once(f, z0, R, m)
        if abs(cur - prev) <= WINDING_AGREE:
            if abs(cur - round(cur)) > WINDING_INT_TOL:
                raise WindingUnstable(
                    f"winding {cur:.3f} on |z - {z0}| = {R} is not near an integer")
            return cur
        prev = cur
    raise WindingUnstable(
        f"winding estimates on |z - {z0}| = {R} never stabilized (last {prev:.3f})")


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


def _secant_zero(f, z0: complex, r: float, tol: float):
    """Refine the single zero in D(z0, r) by secant iteration.

    Works on the determinant rescaled by its value at the start point,
    so the iteration sees O(1) numbers regardless of the window length.
    """
    za = z0
    zb = z0 + 0.25 * r
    pa, la = f.eval_many(np.array([za]))
    pb, lb = f.eval_many(np.array([zb]))
    ref = max(la[0], lb[0])
    if not np.isfinite(ref):
        ref = 0.0

    def val(ph, lg):
        if lg == NEG_INF:
            return 0j
        return ph * cmath.exp(min(lg - ref, 50.0))

    wa, wb = val(pa[0], la[0]), val(pb[0], lb[0])
    for _ in range(80):
        if wb == wa:
            break
        step = -wb * (zb - za) / (wb - wa)
        zc = zb + step
        if not (np.isfinite(zc.real) and np.isfinite(zc.imag)):
            break
        if abs(zc - z0) > 4.0 * r:
            break
        pc, lc = f.eval_many(np.array([zc]))
        za, wa = zb, wb
        zb, wb = zc, val(pc[0], lc[0])
        if abs(step) <= 0.5 * tol or wb == 0j:
            logs = f.eval_many(np.array([zb]))[1]
            return zb, float(logs[0])
    return None


def _collect_zeros(f, c: complex, r: float, tol: float, depth: int, found: list):
    """Append zeros of f in D(c, r) to found, which doubles as the claim list.

    Child disks of the quadrisection overlap, so a zero can lie in two of
    them; counting zeros already claimed by an earlier branch keeps each
    one from being located twice (and keeps the recursion linear).
    """
    w, r_used = _winding_jittered(f, c, r, M_POINTS_DEFAULT)
    w -= sum(1 for z in found if abs(z - c) < r_used)
    if w <= 0:
        return
    if r_used < tol or depth > 60:
        found.extend([c] * w)
        return
    if w == 1:
        hit = _secant_zero(f, c, r_used, tol)
        # the secant can escape to a different zero just outside the
        # winding circle; such a hit must not claim this disk's count
        if hit is not None and abs(hit[0] - c) <= r_used * (1.0 + 1e-9) \
                and all(abs(hit[0] - z) > 5.0 * tol for z in found):
            found.append(hit[0])
            return
    sub_r = SUBDISK_FACTOR * r_used
    for dx, dy in ((0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)):
        _collect_zeros(f, c + r_used * complex(dx, dy), sub_r, tol, depth + 1, found)


def _dedupe(points, tol: float):
    uniq = []
    for z in sorted(points, key=lambda p: (p.real, p.imag)):
        if all(abs(z - u) > tol for u in uniq):
            uniq.append(z)
    return uniq


def locate_zeros(f, disk: Disk, tol: float = 1e-10) -> ZeroSet:
    """All zeros of f inside the disk, located to tol, with multiplicity.

    The top-level boundary winding fixes the total count; quadrisection
    splits the disk until each piece holds at most one zero, which a
    secant iteration then refines.  Every located zero is assigned its
    own multiplicity by a small-circle winding, and the multiplicities
    must add back up to the boundary count or WindingUnstable is raised.
    """
    c, R = complex(disk.center), float(disk.radius)
    total = int(round(boundary_winding(f, c, R, M_POINTS_DEFAULT)))
    if total < 0:
        raise WindingUnstable(f"negative winding {total}: handle is not analytic")
    if total == 0:
        return ZeroSet(zeros=(), residual=NEG_INF, disk=disk)
    raw: list = []
    _collect_zeros(f, c, R, tol, 0, raw)
    inside = [z for z in raw if abs(z - c) <= R * (1.0 + 1e-12)]
    uniq = _dedupe(inside, tol)
    zeros: list = []
    for z in uniq:
        others = [abs(z - u) for u in uniq if u is not z]
        r_t = 0.5 * min(others) if others else 0.05 * R
        r_t = min(max(r_t, 25.0 * tol), 0.05 * R, 0.9 * (R - abs(z - c)) + 25.0 * tol)
        mult, _ = _winding_jittered(f, z, r_t, 512)
        zeros.extend([z] * max(mult, 0))
    if len(zeros) != total:
        raise WindingUnstable(
            f"located {len(zeros)} zeros but the boundary winding says {total}")
    logs = f.eval_many(np.array(zeros))[1] if zeros else np.array([NEG_INF])
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
                    seed: int = 0, tol: float = 1e-9,
                    first_site: str = "Tx") -> SeparationStats:
    """Zero statistics of f_N over random probe disks in the annulus.

    Each probe disk sits at a random annulus point; the per-disk counts
    are reported against the ceiling 2 deg(V), and the total count over
    the whole annulus (by winding difference) against 2 N deg(V).
    """
    f = determinant_handle(p, omega, E, N, first_site)
    rng = np.random.default_rng(seed)
    counts = []
    all_zeros: list = []
    for _ in range(n_probes):
        x = rng.random()
        y = (rng.random() - 0.5) * annulus_y
        center = cmath.exp(complex(2.0 * math.pi * y, 2.0 * math.pi * x))
        r_try = radius
        for attempt in range(4):
            try:
                zs = locate_zeros(f, Disk(center, r_try), tol)
                break
            except NearCircleZero:
                r_try *= 0.963
        else:
            zs = locate_zeros(f, Disk(center, r_try), tol)
        counts.append(zs.count)
        all_zeros.extend(zs.zeros)
    min_dist = math.inf
    for i in range(len(all_zeros)):
        for j in range(i + 1, len(all_zeros)):
            d = abs(all_zeros[i] - all_zeros[j])
            if 0.0 < d < min_dist:
                min_dist = d
    m_hint = max(4096, 4 * (2 * N * max(p.k0, 1) + 16))
    total = annulus_zero_count(f, annulus_y, m_hint)
    return SeparationStats(
        n_probes=n_probes, radius=radius, counts=tuple(counts),
        max_per_disk=max(counts) if counts else 0,
        min_pairwise_distance=min_dist,
        per_disk_ceiling=2 * p.k0,
        annulus_count=total,
        annulus_ceiling=2 * N * p.k0)


def _scaled_norm_logs(p: Potential, omega: float, zs: np.ndarray, E, n: int,
                      first_site: str = "Tx"):
    """log||M_k(z)|| at k = n and k = 2n, plus log||M_n(z e(n omega))||.

    Sites n+1..2n at z are exactly sites 1..n at z e(n omega), so the
    two half-window products come from the complex site stream over
    1..n and n+1..2n, run through the recurrence core with both
    solutions, and M_2n is their product.
    """
    zs = np.asarray(zs, dtype=complex).ravel()

    def run(a: int, b: int):
        bound, blocks = _laurent_sites(p, omega, zs, a, b, first_site)
        top, bottom, acc = _recur(bound, E, blocks, zs.size, 2)
        return np.stack([top, bottom]), acc

    first, acc1 = run(1, n)
    shifted, acc2 = run(n + 1, 2 * n)
    full = np.einsum("ikm,kjm->ijm", shifted, first)
    log_n = acc1 + np.log(_op_norms(first))
    log_shift = acc2 + np.log(_op_norms(shifted))
    log_2n = acc1 + acc2 + np.log(_op_norms(full))
    return log_n, log_shift, log_2n


def concatenation_w_grid(p: Potential, omega: float, zs, E, m: int,
                         first_site: str = "Tx") -> np.ndarray:
    """w_m(z) = log ||M_2m(z)|| - log ||M_m(z e(m omega))|| - log ||M_m(z)||."""
    log_n, log_shift, log_2n = _scaled_norm_logs(p, omega, np.asarray(zs, dtype=complex),
                                                 E, m, first_site)
    return log_2n - log_shift - log_n


def concatenation_w(p: Potential, omega: float, z: ComplexPhase, E, m: int,
                    first_site: str = "Tx") -> float:
    """The concatenation defect at one complexified phase.

    Submultiplicativity of the operator norm makes this nonpositive; in
    scaled arithmetic it stays below 1e-9 for any window length.
    """
    return float(concatenation_w_grid(p, omega, np.array([z.to_z()]), E, m,
                                      first_site)[0])


def zero_count_additivity(p: Potential, omega: float, E, m: int, disk: Disk,
                          tol: float = 1e-9,
                          first_site: str = "Tx") -> AdditivityReport:
    """Zero counts in one disk for f_m, its e(m omega)-shift, and f_2m.

    The doubled-window count exceeds the sum of the two halves by a
    bounded defect; the triple is reported with no assertion since the
    bound's constant is instance-dependent.
    """
    f_left = determinant_handle(p, omega, E, m, first_site)
    rot = cmath.exp(2j * math.pi * ((m * omega) % 1.0))
    f_shift = rotated_handle(f_left, rot)
    f_double = determinant_handle(p, omega, E, 2 * m, first_site)
    k0 = locate_zeros(f_left, disk, tol).count
    k1 = locate_zeros(f_shift, disk, tol).count
    k = locate_zeros(f_double, disk, tol).count
    return AdditivityReport(count_left=k0, count_shifted=k1, count_doubled=k)
