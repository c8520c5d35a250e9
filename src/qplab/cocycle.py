"""Overflow-safe transfer-matrix products and Dirichlet-determinant
recurrences.

The transfer (monodromy) matrix over the window [a, b] is

    M_[a,b](x, E) = prod_{k=b..a} [[v(k,x) - E, -1], [1, 0]],

where v(k, x) = lam * V(T^k x) under the default ``first_site="Tx"``
convention (site k reads the k-th iterate; ``first_site="x"`` shifts
everything back one step so site 1 reads x itself).  The Dirichlet
determinant f_[a,b] = det(H_[a,b] - E) obeys

    f_[a,k] = (v(k,x) - E) f_[a,k-1] - f_[a,k-2],
    f_[a,a-1] = 1,  f_[a,a-2] = 0,

and the two are linked entrywise:

    M_[a,N] = [[ f_[a,N],   -f_[a+1,N]   ],
               [ f_[a,N-1], -f_[a+1,N-1] ]].

Everything here is carried in log scale.  A :class:`ScaledProduct` keeps
a residual 2x2 matrix with operator norm in [1/2, 2] plus the
accumulated log of factored-out norms; a :class:`SignedLog` keeps a
phase (sign, in the real case) and a log magnitude.  Long products never
overflow, and log-norms are exact up to accumulated rounding.

Batched kernels (``batched_log_norms``, ``batched_log_absdet``) run the
same recurrences vectorized over arrays of starting phases; they are the
hot path for Lyapunov and large-deviation statistics.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn_mod
from . import potential as pot_mod
from .dynamics import Dynamics, Shift
from .potential import ComplexPhase, Potential

NORM_LO = 0.5   # renormalize when the residual norm leaves [NORM_LO, NORM_HI]
NORM_HI = 2.0

NEG_INF = float("-inf")


class SingularEnergy(ZeroDivisionError):
    """A determinant in a denominator is exactly zero (E hit an eigenvalue)."""


class NumericOverflow(FloatingPointError):
    """A matrix entry became non-finite despite renormalization."""


def op_norm_2x2(m) -> float:
    """Largest singular value of a 2x2 matrix, by the closed form.

    Works for real and complex entries: with F the squared Frobenius norm
    and D = |det|, the top singular value is sqrt((F + sqrt(F^2-4D^2))/2).
    """
    a, b = m[0, 0], m[0, 1]
    c, d = m[1, 0], m[1, 1]
    fro2 = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    det = abs(a * d - b * c)
    gap = fro2 * fro2 - 4.0 * det * det
    if gap < 0.0:
        gap = 0.0
    return math.sqrt(0.5 * (fro2 + math.sqrt(gap)))


# ---------------------------------------------------------------------------
# signed-log scalars


@dataclass(frozen=True)
class SignedLog:
    """A scalar phase * exp(log_mag), with phase of unit modulus.

    The exact zero is the marker (phase=0, log_mag=-inf); it absorbs
    through multiplication and only a division by it raises.  For real
    quantities the phase is +-1 (as a complex number).
    """

    phase: complex
    log_mag: float

    @staticmethod
    def of(value) -> "SignedLog":
        value = complex(value)
        if value == 0:
            return SignedLog(0j, NEG_INF)
        mag = abs(value)
        return SignedLog(value / mag, math.log(mag))

    @staticmethod
    def one() -> "SignedLog":
        return SignedLog(1.0 + 0j, 0.0)

    @staticmethod
    def zero() -> "SignedLog":
        return SignedLog(0j, NEG_INF)

    @property
    def is_zero(self) -> bool:
        return self.log_mag == NEG_INF

    def value(self) -> complex:
        """Collapse back to an ordinary complex number (may over/underflow)."""
        if self.is_zero:
            return 0j
        return self.phase * cmath.exp(self.log_mag)

    def __mul__(self, other: "SignedLog") -> "SignedLog":
        if self.is_zero or other.is_zero:
            return SignedLog.zero()
        ph = self.phase * other.phase
        ph /= abs(ph)
        return SignedLog(ph, self.log_mag + other.log_mag)

    def __neg__(self) -> "SignedLog":
        if self.is_zero:
            return self
        return SignedLog(-self.phase, self.log_mag)

    def __add__(self, other: "SignedLog") -> "SignedLog":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        m = max(self.log_mag, other.log_mag)
        s = self.phase * math.exp(self.log_mag - m) \
            + other.phase * math.exp(other.log_mag - m)
        if s == 0:
            return SignedLog.zero()
        mag = abs(s)
        return SignedLog(s / mag, m + math.log(mag))

    def __sub__(self, other: "SignedLog") -> "SignedLog":
        return self + (-other)

    def __truediv__(self, other: "SignedLog") -> "SignedLog":
        if other.is_zero:
            raise SingularEnergy("division by an exactly-zero determinant")
        if self.is_zero:
            return self
        ph = self.phase / other.phase
        ph /= abs(ph)
        return SignedLog(ph, self.log_mag - other.log_mag)


@dataclass(frozen=True)
class DetWindow:
    """The Dirichlet determinant f_[a,b] over the window [a, b]."""

    a: int
    b: int
    value: SignedLog


# ---------------------------------------------------------------------------
# scaled 2x2 products


class ScaledProduct:
    """A 2x2 product carried as exp(log_scale) * mat with ||mat|| in [1/2, 2].

    ``det`` tracks the determinant of the reconstructed product in
    signed-log form, updated from each pushed factor's determinant (the
    factor is small and well conditioned, so its determinant is computed
    reliably from its entries; the determinant of the long product itself
    is far below float resolution once the top singular value dominates).
    """

    __slots__ = ("log_scale", "mat", "det")

    def __init__(self, mat=None, log_scale: float = 0.0, det: SignedLog = None):
        if mat is None:
            mat = np.eye(2)
            det = SignedLog.one()
        self.mat = np.array(mat, copy=True)
        self.log_scale = float(log_scale)
        self.det = det if det is not None else SignedLog.of(
            mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])
        self._renormalize()

    @staticmethod
    def identity() -> "ScaledProduct":
        return ScaledProduct()

    def _renormalize(self):
        nrm = op_norm_2x2(self.mat)
        if not math.isfinite(nrm):
            raise NumericOverflow("non-finite entries in scaled product")
        if nrm == 0.0:
            return
        if nrm < NORM_LO or nrm > NORM_HI:
            self.log_scale += math.log(nrm)
            self.mat = self.mat / nrm

    def push_left(self, factor) -> "ScaledProduct":
        """Multiply by one more factor on the left: M <- factor @ M."""
        factor = np.asarray(factor)
        fdet = factor[0, 0] * factor[1, 1] - factor[0, 1] * factor[1, 0]
        self.mat = factor @ self.mat
        self.det = self.det * SignedLog.of(fdet)
        self._renormalize()
        return self

    @property
    def log_norm(self) -> float:
        """log of the operator norm of the full product."""
        return self.log_scale + math.log(op_norm_2x2(self.mat))

    def reconstruct(self) -> np.ndarray:
        """exp(log_scale) * mat as a dense matrix (overflows for long products)."""
        return math.exp(self.log_scale) * self.mat

    def det_value(self) -> complex:
        """Determinant of the reconstructed product (tracked, scaled form)."""
        return self.det.value()

    def residual_det_scaled(self) -> SignedLog:
        """det(mat) * exp(2 log_scale) computed from the residual entries.

        Meaningful only while 2*log_scale stays within float resolution of
        the residual entries (roughly log_scale < 17); beyond that the
        small singular value is lost to rounding and ``det`` (the tracked
        form) is the honest quantity.
        """
        d = self.mat[0, 0] * self.mat[1, 1] - self.mat[0, 1] * self.mat[1, 0]
        entry = SignedLog.of(d)
        return SignedLog(entry.phase, entry.log_mag + 2.0 * self.log_scale)


# ---------------------------------------------------------------------------
# site values


def _site_values(p: Potential, dyn: Dynamics, x, a: int, b: int,
                 first_site: str = "Tx") -> np.ndarray:
    """lam*V at sites a..b (inclusive) of the potential sequence.

    Site k reads V(T^k x) when first_site="Tx" (the default) and
    V(T^{k-1} x) when first_site="x".  Sites below the reachable range
    need an invertible map; the doubling map only supports windows whose
    sites stay nonnegative in dynamical time.
    """
    if first_site not in ("Tx", "x"):
        raise ValueError(f"first_site must be 'Tx' or 'x', got {first_site!r}")
    if b < a:
        return np.empty(0)
    offset = 0 if first_site == "Tx" else -1
    times = np.arange(a, b + 1) + offset
    if isinstance(dyn, dyn_mod.Doubling) and times[0] < 0:
        raise ValueError("doubling map is not invertible; window starts too early")
    if times[0] >= 1 and isinstance(dyn, (Shift, dyn_mod.SkewShift, dyn_mod.Doubling)):
        # forward orbit, vectorized
        coords = dyn_mod.orbit_first_coord(dyn, x, int(times[-1]))
        sel = coords[times - 1]
    else:
        sel = np.array([dyn_mod.iterate(dyn, x, int(t))[0] if t >= 0
                        else _iterate_back(dyn, x, int(-t))[0]
                        for t in times])
    return pot_mod.eval_real_many(p, sel)


def _iterate_back(dyn: Dynamics, x, n: int):
    """T^{-n} x for the invertible maps."""
    if isinstance(dyn, Shift):
        return dyn_mod.mod1(np.atleast_1d(np.asarray(x, float)) - n * np.asarray(dyn.omega))
    if isinstance(dyn, dyn_mod.SkewShift):
        # the closed form is valid for all integer n
        p = np.atleast_1d(np.asarray(x, float))
        xx, yy = p
        m = -n
        quad = (m * (m - 1) // 2) * dyn.omega
        return dyn_mod.phase(xx + m * yy + quad, yy + m * dyn.omega)
    raise ValueError("dynamics is not invertible")


# ---------------------------------------------------------------------------
# products and determinants at a single phase


def transfer_product(p: Potential, dyn: Dynamics, x, E: float, n: int,
                     first_site: str = "Tx") -> ScaledProduct:
    """M_n(x, E) = M_[1,n] as a scaled product.

    The log of the operator norm of the true product is
    ``result.log_scale + log ||result.mat||``, exact up to accumulated
    rounding; renormalization fires whenever the residual norm leaves
    [1/2, 2].
    """
    if n < 1:
        raise ValueError("transfer_product needs n >= 1")
    return transfer_product_window(p, dyn, x, E, 1, n, first_site)


def transfer_product_window(p: Potential, dyn: Dynamics, x, E, a: int, b: int,
                            first_site: str = "Tx") -> ScaledProduct:
    """M_[a,b](x, E); the empty window (b = a-1) gives the identity."""
    if b < a - 1:
        raise ValueError("window must satisfy b >= a-1")
    if b < a:
        return ScaledProduct.identity()
    vs = _site_values(p, dyn, x, a, b, first_site)
    E = complex(E) if isinstance(E, complex) else float(E)
    # unrolled push_left: each factor has determinant exactly 1
    log_scale = 0.0
    one = 1.0 + 0j if isinstance(E, complex) else 1.0
    m00, m11 = one, one
    m01, m10 = 0.0 * one, 0.0 * one
    for v in vs:
        t = v - E
        n00 = t * m00 - m10
        n01 = t * m01 - m11
        m10, m11 = m00, m01
        m00, m01 = n00, n01
        fro2 = abs(m00) ** 2 + abs(m01) ** 2 + abs(m10) ** 2 + abs(m11) ** 2
        det = abs(m00 * m11 - m01 * m10)
        gap = fro2 * fro2 - 4.0 * det * det
        nrm = math.sqrt(0.5 * (fro2 + math.sqrt(gap if gap > 0.0 else 0.0)))
        if not math.isfinite(nrm):
            raise NumericOverflow("transfer product overflowed despite scaling")
        if nrm < NORM_LO or nrm > NORM_HI:
            log_scale += math.log(nrm)
            m00 /= nrm
            m01 /= nrm
            m10 /= nrm
            m11 /= nrm
    out = ScaledProduct.identity()
    out.mat = np.array([[m00, m01], [m10, m11]])
    out.log_scale = log_scale
    out.det = SignedLog.one()  # every transfer factor has determinant 1 exactly
    return out


def det_sequence(p: Potential, dyn: Dynamics, x, E, n: int,
                 first_site: str = "Tx") -> list:
    """Dirichlet determinants f_1 .. f_n as SignedLog values.

    Conventions f_0 = 1 and f_{-1} = 0 seed the recurrence; exact zeros
    come back with the -inf marker.
    """
    if n < 1:
        raise ValueError("det_sequence needs n >= 1")
    vs = _site_values(p, dyn, x, 1, n, first_site)
    out = []
    f_prev2 = SignedLog.zero()   # f_{-1}
    f_prev = SignedLog.one()     # f_0
    for v in vs:
        f = SignedLog.of(v - E) * f_prev - f_prev2
        out.append(f)
        f_prev2, f_prev = f_prev, f
    return out


def det_window(p: Potential, dyn: Dynamics, x, E, a: int, b: int,
               first_site: str = "Tx") -> DetWindow:
    """f_[a,b] with the window conventions f_[a,a-1]=1, f_[a,a-2]=0."""
    if b < a - 2:
        raise ValueError("window must satisfy b >= a-2")
    if b == a - 2:
        return DetWindow(a, b, SignedLog.zero())
    if b == a - 1:
        return DetWindow(a, b, SignedLog.one())
    vs = _site_values(p, dyn, x, a, b, first_site)
    f_prev2 = SignedLog.zero()
    f_prev = SignedLog.one()
    for v in vs:
        f = SignedLog.of(v - E) * f_prev - f_prev2
        f_prev2, f_prev = f_prev, f
    return DetWindow(a, b, f_prev)


def monodromy_from_dets(p: Potential, dyn: Dynamics, x, E, a: int, n_prime: int,
                        first_site: str = "Tx"):
    """M_[a, n_prime] assembled from four determinant windows.

    Returns a 2x2 nested list of SignedLog:
    [[f_[a,N'], -f_[a+1,N']], [f_[a,N'-1], -f_[a+1,N'-1]]].
    """
    if n_prime < a:
        raise ValueError("monodromy window needs n_prime >= a")
    f_a = det_window(p, dyn, x, E, a, n_prime, first_site).value
    f_a1 = det_window(p, dyn, x, E, a + 1, n_prime, first_site).value
    f_a_m = det_window(p, dyn, x, E, a, n_prime - 1, first_site).value
    f_a1_m = det_window(p, dyn, x, E, a + 1, n_prime - 1, first_site).value
    return [[f_a, -f_a1], [f_a_m, -f_a1_m]]


def log_norm_signedlog_matrix(rows) -> float:
    """log of the operator norm of a 2x2 matrix given as SignedLog entries."""
    logs = [rows[i][j].log_mag for i in range(2) for j in range(2)]
    m = max(logs)
    if m == NEG_INF:
        return NEG_INF
    resid = np.array(
        [[rows[i][j].phase * math.exp(rows[i][j].log_mag - m)
          if not rows[i][j].is_zero else 0j
          for j in range(2)] for i in range(2)])
    return m + math.log(op_norm_2x2(resid))


def green_entry(p: Potential, dyn: Dynamics, x, E, j: int, k: int, N: int,
                first_site: str = "Tx") -> SignedLog:
    """(H_[1,N] - E)^{-1}(j, k) for j <= k, by Cramer's rule.

    The magnitude is the ratio |f_[1,j-1]| |f_[k+1,N]| / |f_[1,N]|; no
    dense inversion is ever performed.  E may be complex (eta >= 0); at a
    real eigenvalue the denominator is exactly zero and SingularEnergy is
    raised.
    """
    if not (1 <= j <= k <= N):
        raise ValueError("green_entry needs 1 <= j <= k <= N")
    top_left = det_window(p, dyn, x, E, 1, j - 1, first_site).value
    top_right = det_window(p, dyn, x, E, k + 1, N, first_site).value
    bottom = det_window(p, dyn, x, E, 1, N, first_site).value
    if bottom.is_zero:
        raise SingularEnergy("E is an eigenvalue of the finite window")
    return (top_left * top_right) / bottom


def complex_det(p: Potential, omega: float, z: ComplexPhase, E, n: int,
                rho0: float = pot_mod.RHO0_DEFAULT,
                first_site: str = "Tx") -> SignedLog:
    """f_n at a complexified phase (shift dynamics only).

    The determinant is evaluated with V at z e(k omega) for the window
    sites k; analyticity in z is what the zero-counting module exploits.
    """
    if abs(z.y) > rho0:
        raise ValueError(f"complex phase leaves the strip: |y|={abs(z.y)} > {rho0}")
    phases, logs = complex_det_grid(p, omega, np.array([z.to_z()]), E, n,
                                    first_site=first_site)
    return SignedLog(complex(phases[0]), float(logs[0])) if logs[0] != NEG_INF \
        else SignedLog.zero()


def complex_det_grid(p: Potential, omega: float, zs: np.ndarray, E, n: int,
                     first_site: str = "Tx"):
    """f_n(z) on an array of annulus points z, in signed-log pieces.

    Returns (phases, log_mags) arrays; exact zeros give (0, -inf).  This
    is the vectorized backbone for boundary quadrature in the zeros
    module and is restricted to shift dynamics, where f_n is analytic in z.
    The pair (f_k, f_{k-1}) is renormalized every r sites and after site
    n, with r = max(1, floor(600 / log B)) and B the bound on the
    transfer factors' norms given in :func:`_laurent_sweep`.
    """
    if n < 1:
        raise ValueError("complex_det_grid needs n >= 1")
    zs = np.asarray(zs, dtype=complex)
    pts = zs.ravel()
    f, _, log_acc = _laurent_sweep(p, omega, pts, E, 1, n,
                                   np.ones((1, pts.size), complex),
                                   np.zeros((1, pts.size), complex), first_site)
    f = f[0]
    mag = np.abs(f)
    with np.errstate(divide="ignore"):
        log_mags = np.where(mag > 0.0, log_acc + np.log(np.where(mag > 0, mag, 1.0)),
                            NEG_INF)
    phases = np.where(mag > 0.0, f / np.where(mag > 0, mag, 1.0), 0j)
    return phases.reshape(zs.shape), log_mags.reshape(zs.shape)


def _laurent_sweep(p: Potential, omega: float, zs: np.ndarray, E, a: int, b: int,
                   cur: np.ndarray, prev: np.ndarray, first_site: str = "Tx"):
    """Run x_k = (v(k, z) - E) x_{k-1} - x_{k-2} over sites a..b at complex phases.

    This is the one site stream of the complex phase (shift dynamics).
    Site k reads lam * V at z e((k-1+offset) omega), so
    v(k, z) = sum_j c_kj z^j with c_kj = lam v_j e(j (k-1+offset) omega):
    the powers z^j are formed once per point and the c_kj once per call.
    ``zs`` is a 1-d array of m points; ``cur`` and ``prev`` hold x_{a-1}
    and x_{a-2} with shape (s, m), s independent solutions per point
    (s = 2 carries the two columns of a transfer product).  Returns
    (x_b, x_{b-1}, log_scale): the true values are exp(log_scale) times
    the arrays, with one log_scale per point.

    The pair is rescaled by its largest modulus every
    r = max(1, floor(600 / log B)) sites and after site b, where
    B = max_z sum_j |lam v_j| |z|^j + |E| + 2 bounds every transfer
    factor's norm.  Between rescalings a solution grows by at most
    B^r <= e^600, and since every factor has determinant 1 it shrinks by
    at most as much, so neither overflow nor underflow can occur.
    """
    if np.any(zs == 0):
        raise ZeroDivisionError("Laurent evaluation needs z != 0")
    offset = 1 if first_site == "Tx" else 0
    nonzero = p._ks != 0
    ks = p._ks[nonzero]
    vs = p.lam * p._vs[nonzero]
    v0 = p.lam * p.coeff(0)
    rows = [zs ** int(j) for j in ks]
    frac = (np.arange(a - 1 + offset, b + offset) * omega) % 1.0
    coef = (vs * np.exp(2j * math.pi * frac[:, None] * ks)).tolist()
    bound = abs(v0) + abs(E) + 2.0 + float(np.max(
        sum(abs(v) * np.abs(r) for v, r in zip(vs, rows)), initial=0.0))
    every = max(1, int(600.0 / math.log(bound)))
    cur = np.array(cur, dtype=complex)
    prev = np.array(prev, dtype=complex)
    nxt = np.empty_like(cur)
    t = np.empty(zs.size, dtype=complex)
    term = np.empty(zs.size, dtype=complex)
    log_acc = np.zeros(zs.size)
    c0 = v0 - E
    # elementwise sums, not a BLAS matrix-vector product: a threaded BLAS
    # stalls badly on small products when other threads compete for cores
    for i, c in enumerate(coef):
        t.fill(c0)
        for row, cj in zip(rows, c):
            np.multiply(row, cj, out=term)
            t += term
        np.multiply(t, cur, out=nxt)
        nxt -= prev
        prev, cur, nxt = cur, nxt, prev
        if (i + 1) % every == 0 or i == b - a:
            scale = np.maximum(np.abs(cur).max(axis=0), np.abs(prev).max(axis=0))
            scale[scale == 0.0] = 1.0
            cur /= scale
            prev /= scale
            log_acc += np.log(scale)
    return cur, prev, log_acc


# ---------------------------------------------------------------------------
# batched kernels over many starting phases


def _phase_batch(dyn: Dynamics, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    if xs.shape[1] != dyn.d:
        raise ValueError(f"batch phases have d={xs.shape[1]}, dynamics needs {dyn.d}")
    return dyn_mod.mod1(xs)


def _advance(dyn: Dynamics, cur: np.ndarray, rng) -> np.ndarray:
    """One dynamics step for a batch; optional low-bit replenishment.

    Every float is a dyadic rational, so a float orbit of the doubling
    map reaches the fixed point 0 within about 52 steps.  When an rng is
    supplied, each doubling step appends a fresh uniform low-order bit
    block (scale 2^-52), which reproduces the map's Lebesgue statistics:
    for a Lebesgue-typical point the incoming binary digits are fair
    independent bits.  Other dynamics ignore the rng.
    """
    cur = dyn_mod.step_batch(dyn, cur)
    if rng is not None and isinstance(dyn, dyn_mod.Doubling):
        cur = dyn_mod.mod1(cur + rng.random(cur.shape) * 2.0 ** -52)
    return cur


def batched_log_norms(p: Potential, dyn: Dynamics, xs, E: float, n: int,
                      checkpoints=None, first_site: str = "Tx", rng=None) -> dict:
    """log ||M_k(x_i, E)|| for every starting phase, at chosen checkpoints.

    Returns a dict {k: array of shape (m,)} for each requested k
    (default: only k = n).  The residual matrix is renormalized to unit
    operator norm at every step, so the running log-norm is just the
    accumulated log.
    """
    cur = _phase_batch(dyn, xs)
    m = cur.shape[0]
    want = sorted(set(checkpoints)) if checkpoints is not None else [n]
    if want and (want[0] < 1 or want[-1] > n):
        raise ValueError("checkpoints must lie in [1, n]")
    a = np.ones(m)
    b = np.zeros(m)
    c = np.zeros(m)
    d = np.ones(m)
    log_acc = np.zeros(m)
    out = {}
    if first_site == "x":
        coords = cur[:, 0]
    for k in range(1, n + 1):
        if first_site == "Tx":
            cur = _advance(dyn, cur, rng)
            coords = cur[:, 0]
        t = pot_mod.eval_real_many(p, coords) - E
        a1 = t * a - c
        b1 = t * b - d
        c, d = a, b
        a, b = a1, b1
        fro2 = a * a + b * b + c * c + d * d
        det = np.abs(a * d - b * c)
        gap = fro2 * fro2 - 4.0 * det * det
        np.maximum(gap, 0.0, out=gap)
        nrm = np.sqrt(0.5 * (fro2 + np.sqrt(gap)))
        log_acc += np.log(nrm)
        a /= nrm
        b /= nrm
        c /= nrm
        d /= nrm
        if k in want:
            out[k] = log_acc.copy()
        if first_site == "x" and k < n:
            cur = _advance(dyn, cur, rng)
            coords = cur[:, 0]
    return out


def batched_sup_rate(p: Potential, dyn: Dynamics, xs, E: float, n: int,
                     first_site: str = "Tx", rng=None) -> np.ndarray:
    """sup over 1 <= k <= n of (1/k) log ||M_k(x_i, E)||, per phase."""
    cur = _phase_batch(dyn, xs)
    m = cur.shape[0]
    a = np.ones(m)
    b = np.zeros(m)
    c = np.zeros(m)
    d = np.ones(m)
    log_acc = np.zeros(m)
    best = np.full(m, NEG_INF)
    if first_site == "x":
        coords = cur[:, 0]
    for k in range(1, n + 1):
        if first_site == "Tx":
            cur = _advance(dyn, cur, rng)
            coords = cur[:, 0]
        t = pot_mod.eval_real_many(p, coords) - E
        a1 = t * a - c
        b1 = t * b - d
        c, d = a, b
        a, b = a1, b1
        fro2 = a * a + b * b + c * c + d * d
        det = np.abs(a * d - b * c)
        gap = fro2 * fro2 - 4.0 * det * det
        np.maximum(gap, 0.0, out=gap)
        nrm = np.sqrt(0.5 * (fro2 + np.sqrt(gap)))
        log_acc += np.log(nrm)
        a /= nrm
        b /= nrm
        c /= nrm
        d /= nrm
        np.maximum(best, log_acc / k, out=best)
        if first_site == "x" and k < n:
            cur = _advance(dyn, cur, rng)
            coords = cur[:, 0]
    return best


def batched_log_absdet(p: Potential, dyn: Dynamics, xs, E, n: int,
                       checkpoints=None, first_site: str = "Tx", rng=None) -> dict:
    """log |f_k(x_i, E)| vectorized over starting phases.

    Same checkpoint contract as batched_log_norms.  E may be complex.
    Exact zeros return -inf for that phase and scale.
    """
    cur = _phase_batch(dyn, xs)
    m = cur.shape[0]
    want = sorted(set(checkpoints)) if checkpoints is not None else [n]
    if want and (want[0] < 1 or want[-1] > n):
        raise ValueError("checkpoints must lie in [1, n]")
    dtype = complex if isinstance(E, complex) else float
    f_prev2 = np.zeros(m, dtype=dtype)
    f_prev = np.ones(m, dtype=dtype)
    log_acc = np.zeros(m)
    out = {}
    if first_site == "x":
        coords = cur[:, 0]
    for k in range(1, n + 1):
        if first_site == "Tx":
            cur = _advance(dyn, cur, rng)
            coords = cur[:, 0]
        t = pot_mod.eval_real_many(p, coords) - E
        f = t * f_prev - f_prev2
        scale = np.maximum(np.abs(f), np.abs(f_prev))
        scale = np.where(scale == 0.0, 1.0, scale)
        f_prev2 = f_prev / scale
        f_prev = f / scale
        log_acc += np.log(scale)
        if k in want:
            mag = np.abs(f_prev)
            with np.errstate(divide="ignore"):
                out[k] = np.where(mag > 0.0, log_acc + np.log(np.where(mag > 0, mag, 1.0)),
                                  NEG_INF)
        if first_site == "x" and k < n:
            cur = _advance(dyn, cur, rng)
            coords = cur[:, 0]
    return out
