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

Everything here is carried in log scale.  A :class:`ScaledProduct` is
the record of one transfer product from the recurrence core, a residual
2x2 matrix and the log of the scale factored out of it; a
:class:`SignedLog` keeps a phase (sign, in the real case) and a log
magnitude.  Long products never overflow, and log-norms are exact up to
accumulated rounding.

Real phases have one site stream, :func:`_sites`, exact to rounding for
all three maps; complex phases of a shift have :func:`_laurent_sites`,
which reads the same exact frac(t omega) from :func:`_laurent_table`.
Both run through one recurrence core, :func:`_recur`, vectorized over
starting phases.  The batched kernels (``batched_log_norms``,
``batched_log_absdet``, ``batched_sup_rate``), the single-phase products
and determinants, the Green entries and rows, and ``complex_det_grid``
under the zeros module are thin wrappers over it.  The zeros module's
block-companion matrix reads the same table.  The core rescales only every
r = max(1, floor(600 / log(sup|v| + |E| + 2))) sites and at checkpoints,
and each column on its own.  So a window and its reversal run as two
columns of one pass: :func:`_det_profile` gives both Cramer families
f_[1,k] and f_[k+1,N] of the Green rows and the eigenvector's determinant
formula, and the eigenvalue-count bound reads its prefix and suffix norms
the same way.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn_mod
from . import potential as pot_mod
from .dynamics import Dynamics, Shift
from .potential import ComplexPhase, Potential

NEG_INF = float("-inf")


class SingularEnergy(ZeroDivisionError):
    """A determinant in a denominator is exactly zero (E hit an eigenvalue)."""


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


@dataclass(frozen=True, eq=False)
class ScaledProduct:
    """A 2x2 transfer product M = exp(log_scale) * mat, as :func:`_recur` leaves it."""

    mat: np.ndarray
    log_scale: float

    @property
    def det(self) -> SignedLog:
        """det M, which is 1: every transfer factor has determinant 1 exactly."""
        return SignedLog.one()

    @property
    def log_norm(self) -> float:
        """log of the operator norm of the full product."""
        return self.log_scale + math.log(op_norm_2x2(self.mat))

    def reconstruct(self) -> np.ndarray:
        """exp(log_scale) * mat as a dense matrix (overflows for long products)."""
        return math.exp(self.log_scale) * self.mat

    def det_value(self) -> complex:
        """det M as a complex number."""
        return self.det.value()

    def residual_det_scaled(self) -> SignedLog:
        """det(mat) * exp(2 log_scale) computed from the residual entries.

        Meaningful only while 2*log_scale stays within float resolution of
        the residual entries (roughly log_scale < 17); beyond that the
        small singular value is lost to rounding and ``det`` is the honest
        quantity.
        """
        d = self.mat[0, 0] * self.mat[1, 1] - self.mat[0, 1] * self.mat[1, 0]
        entry = SignedLog.of(d)
        return SignedLog(entry.phase, entry.log_mag + 2.0 * self.log_scale)


# ---------------------------------------------------------------------------
# the real-phase site stream

# sites x phases per block of the site stream: 128 KiB of float64, so the
# evaluation temporaries of a block stay in cache
_BLOCK_ELEMENTS = 1 << 14


def _start_time(first_site: str, k: int) -> int:
    """The dynamical time that site k reads under the ``first_site`` convention."""
    if first_site not in ("Tx", "x"):
        raise ValueError(f"first_site must be 'Tx' or 'x', got {first_site!r}")
    return k if first_site == "Tx" else k - 1


def _sites(p: Potential, dyn: Dynamics, xs: np.ndarray, k0: int, k1: int,
           first_site: str = "Tx", rng=None):
    """Yield lam*V(T^t x_i) for sites k0..k1 in blocks of shape (B, m).

    This is the one site stream of the real phase.  ``xs`` is an (m, d)
    batch of reduced phases, site k reads time t = k (``first_site="Tx"``)
    or t = k - 1 (``"x"``), B*m is at most 2^14 (or B = 1), and site k
    equals ``eval_real(p, iterate(dyn, x, t)[0])`` to rounding:

    * shift: frac(t omega) is exact per site, from the integer ratio of
      omega as in ``fracmul``; V is summed by angle addition, with e(j x_i)
      once per call and e(j frac(t omega)) once per site;
    * skew shift: the closed form x + t y + t(t-1)/2 omega (valid for
      t < 0 too), with frac(t(t-1)/2 omega) exact per site and t y exact
      up to one rounding: frac(start y) per block, then j y split in two;
    * doubling: sequential steps from t = 0; with an ``rng`` each step
      adds one ``rng.random((m, d))`` draw scaled by 2^-52.  Negative
      times raise ValueError.
    """
    t0 = _start_time(first_site, k0)
    if k1 < k0:
        return
    t1 = t0 + (k1 - k0) + 1
    m = xs.shape[0]
    size = max(1, _BLOCK_ELEMENTS // m)
    if isinstance(dyn, Shift):
        pos = (p._ks > 0) & (p._vs != 0)
        ks, coef = p._ks[pos], 2.0 * p.lam * p._vs[pos]
        ux = np.exp(2j * math.pi * ks[:, None] * xs[None, :, 0])
        # one buffer for the complex terms: a fresh 256 KiB temporary per
        # harmonic and block can make malloc map and unmap pages each time
        term = np.empty((min(size, t1 - t0), m), complex)
        for start in range(t0, t1, size):
            frac = dyn_mod._fracmuls(range(start, min(start + size, t1)), dyn.omega[0])
            out = np.full((frac.size, m), p.lam * p.coeff(0).real)
            for k, c, u in zip(ks, coef, ux):
                out += np.multiply.outer(c * np.exp(2j * math.pi * k * frac), u,
                                         out=term[:frac.size]).real
            yield out
    elif isinstance(dyn, dyn_mod.SkewShift):
        # y_hi has at most 27 bits, so j * y_hi is exact for j < size <= 2^14
        y_hi = np.round(xs[:, 1] * 2.0 ** 26) / 2.0 ** 26
        steps = np.arange(min(size, t1 - t0))[:, None]
        for start in range(t0, t1, size):
            j = steps[:t1 - start]
            lin = np.array([dyn_mod.fracmul(start, y) for y in xs[:, 1]])
            quad = dyn_mod._fracmuls([t * (t - 1) // 2 for t in range(start, start + len(j))],
                                     dyn.omega)[:, None]
            yield pot_mod.eval_real_many(p, dyn_mod.mod1(
                xs[:, 0] + lin + dyn_mod.mod1(j * y_hi) + j * (xs[:, 1] - y_hi) + quad))
    elif isinstance(dyn, dyn_mod.Doubling):
        if t0 < 0:
            raise ValueError("doubling map is not invertible; window starts too early")
        cur, rows = xs, []
        for t in range(t1):
            if t > 0:
                cur = dyn_mod.mod1(2.0 * cur)
                if rng is not None:
                    cur = dyn_mod.mod1(cur + rng.random(cur.shape) * 2.0 ** -52)
            if t >= t0:
                rows.append(cur[:, 0])
            if len(rows) == size or t == t1 - 1:
                yield pot_mod.eval_real_many(p, np.array(rows))
                rows = []
    else:
        raise TypeError(f"unknown dynamics {dyn!r}")


def _site_values(p: Potential, dyn: Dynamics, x, a: int, b: int,
                 first_site: str = "Tx") -> np.ndarray:
    """lam*V at sites a..b (inclusive) of the potential sequence.

    Site k reads V(T^k x) when first_site="Tx" (the default) and
    V(T^{k-1} x) when first_site="x".  Sites below the reachable range
    need an invertible map; the doubling map only supports windows whose
    sites stay nonnegative in dynamical time.
    """
    blocks = _sites(p, dyn, _one_phase(dyn, x), a, b, first_site)
    return np.concatenate([np.empty(0)] + [blk[:, 0] for blk in blocks])


def _laurent_table(p: Potential, omega: float, a: int, b: int, first_site: str = "Tx"):
    """(ks, vs, coef): the Laurent coefficients of v(k, z) at sites a..b of a shift.

    Site k reads lam V at z e(t omega), t as in :func:`_sites`, so
    v(k, z) = sum_j coef[k - a, i] z^ks[i] with coef[:, i] = lam v_j
    e(j frac(t omega)), j = ks[i], and vs = lam v_j; frac is exact.
    """
    t0 = _start_time(first_site, a)
    # V = 0 stores no harmonic; one zero term gives the table a first column
    ks, vs = (p._ks, p.lam * p._vs) if p._ks.size else (np.zeros(1, int), np.zeros(1))
    frac = dyn_mod._fracmuls(range(t0, t0 + b - a + 1), omega)
    return ks, vs, vs * np.exp(2j * math.pi * frac[:, None] * ks)


def _laurent_sites(p: Potential, omega: float, zs: np.ndarray, a: int, b: int,
                   first_site: str = "Tx"):
    """(bound, blocks): v(k, z) at sites a..b for the m complex phases zs of a shift.

    The complex-phase site stream: the rows of :func:`_laurent_table`
    summed against z^j, formed once per call.  ``blocks`` yields (B, m)
    complex arrays in one reused buffer, each valid until the next is
    drawn; ``bound`` = max_z sum_j |lam v_j| |z|^j is at least sup|v|.
    """
    if np.any(zs == 0):
        raise ZeroDivisionError("Laurent evaluation needs z != 0")
    # one coefficient table per call, so no block makes a fresh temporary
    ks, vs, coef = _laurent_table(p, omega, a, b, first_site)
    rows = [zs ** int(j) for j in ks]
    bound = float(np.max(sum(abs(v) * np.abs(r) for v, r in zip(vs, rows))))

    def blocks():
        # 64 KiB complex buffers, here and in _recur: malloc maps larger ones afresh per call
        size = max(1, _BLOCK_ELEMENTS // 4 // zs.size)
        out = np.empty((min(size, len(coef)), zs.size), complex)
        term = np.empty_like(out)
        for start in range(0, len(coef), size):
            c = coef[start:start + size]
            blk, tmp = out[:len(c)], term[:len(c)]
            # elementwise sums, not a BLAS product: a threaded BLAS stalls
            # badly on small products when other threads compete for cores
            np.multiply(c[:, :1], rows[0], out=blk)
            for i in range(1, len(rows)):
                blk += np.multiply(c[:, i:i + 1], rows[i], out=tmp)
            yield blk

    return bound, blocks()


# ---------------------------------------------------------------------------
# products and determinants at a single phase


def transfer_product(p: Potential, dyn: Dynamics, x, E: float, n: int,
                     first_site: str = "Tx") -> ScaledProduct:
    """M_n(x, E) = M_[1,n] as a scaled product.

    The log of the operator norm of the true product is
    ``result.log_scale + log ||result.mat||``, exact up to accumulated
    rounding; the product runs in :func:`_recur`, which rescales every r
    sites and leaves the residual with operator norm in [1, 2].
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
        return ScaledProduct(np.eye(2), 0.0)
    blocks = _sites(p, dyn, _one_phase(dyn, x), a, b, first_site)
    cur, prev, log_scale = _recur(p.sup_bound(), E, blocks, 1, 2)
    return ScaledProduct(np.array([cur[:, 0], prev[:, 0]]), float(log_scale[0]))


def det_sequence(p: Potential, dyn: Dynamics, x, E, n: int,
                 first_site: str = "Tx") -> list:
    """Dirichlet determinants f_1 .. f_n as SignedLog values.

    Conventions f_0 = 1 and f_{-1} = 0 seed the recurrence; exact zeros
    come back with the -inf marker.
    """
    if n < 1:
        raise ValueError("det_sequence needs n >= 1")
    phases, logs = _det_profile(_site_values(p, dyn, x, 1, n, first_site), E)
    return [SignedLog(complex(ph), float(lg)) for ph, lg in zip(phases[1:, 0], logs[1:, 0])]


def det_window(p: Potential, dyn: Dynamics, x, E, a: int, b: int,
               first_site: str = "Tx") -> DetWindow:
    """f_[a,b] with the window conventions f_[a,a-1]=1, f_[a,a-2]=0."""
    if b < a - 2:
        raise ValueError("window must satisfy b >= a-2")
    if b == a - 2:
        return DetWindow(a, b, SignedLog.zero())
    if b == a - 1:
        return DetWindow(a, b, SignedLog.one())
    blocks = _sites(p, dyn, _one_phase(dyn, x), a, b, first_site)
    cur, _, log_scale = _recur(p.sup_bound(), E, blocks, 1, 1)
    phase, log_mag = _read_det(cur[0], log_scale)
    return DetWindow(a, b, SignedLog(complex(phase[0]), float(log_mag[0])))


def _det_profile(vs: np.ndarray, E) -> tuple:
    """(phases, log|f|) of both Cramer determinant families over the sites vs.

    Arrays of shape (n+1, 2): row k of column 0 is f_[1,k], the
    determinant over the first k sites, and row i of column 1 is
    f_[n-i+1,n], over the last i; row 0 is 1 in both.  A tridiagonal
    determinant does not change when its sites are reversed, so the two
    columns are one :func:`_recur` pass over vs and vs[::-1], every site
    a stop.  Phases are f/|f| (signs, for real E); exact zeros give
    (0, -inf).
    """
    n = vs.size
    resid = np.ones((n + 1, 2), np.result_type(vs, E))
    logs = np.zeros((n + 1, 2))

    def visit(k, lg, f):
        logs[k] = lg
        resid[k] = f

    _recur(float(np.max(np.abs(vs), initial=0.0)), E, [np.stack([vs, vs[::-1]], axis=1)],
           2, 1, range(1, n + 1), visit)
    return _read_det(resid, 0.0)[0], logs


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


def green_row(p: Potential, dyn: Dynamics, x, E, j: int, N: int,
              first_site: str = "Tx") -> tuple:
    """(H_[1,N] - E)^{-1}(j, k) for k = j..N as (phases, log_mags) arrays.

    The Cramer ratios of :func:`green_entry` in O(N) sites: one two-sided
    :func:`_det_profile` of sites 1..N gives f_[1,j-1] and f_[1,N] from its
    first column and every f_[k+1,N] from its second.  Exact zeros give
    (0, -inf); f_[1,N] = 0 raises SingularEnergy.
    """
    if not 1 <= j <= N:
        raise ValueError("green_row needs 1 <= j <= N")
    ph, logs = _det_profile(_site_values(p, dyn, x, 1, N, first_site), E)
    if logs[N, 0] == NEG_INF:
        raise SingularEnergy("E is an eigenvalue of the finite window")
    # row i of the second column is f_[N-i+1,N]: k = j..N reads i = N-j..0
    right = slice(N - j, None, -1)
    return (ph[j - 1, 0] * ph[right, 1] / ph[N, 0],
            logs[j - 1, 0] + logs[right, 1] - logs[N, 0])


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
    return SignedLog(complex(phases[0]), float(logs[0]))


def complex_det_grid(p: Potential, omega: float, zs: np.ndarray, E, n: int,
                     first_site: str = "Tx"):
    """f_n(z) on an array of annulus points z, in signed-log pieces.

    Returns (phases, log_mags) arrays; exact zeros give (0, -inf).  This
    is the vectorized backbone for boundary quadrature in the zeros
    module and is restricted to shift dynamics, where f_n is analytic in z.
    Sites come from :func:`_laurent_sites` and run through :func:`_recur`.
    """
    if n < 1:
        raise ValueError("complex_det_grid needs n >= 1")
    zs = np.asarray(zs, dtype=complex)
    pts = zs.ravel()
    bound, blocks = _laurent_sites(p, omega, pts, 1, n, first_site)
    f, _, log_acc = _recur(bound, E, blocks, pts.size, 1)
    phases, log_mags = _read_det(f[0], log_acc)
    return phases.reshape(zs.shape), log_mags.reshape(zs.shape)


# ---------------------------------------------------------------------------
# batched kernels over many starting phases


def _phase_batch(dyn: Dynamics, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    if xs.shape[1] != dyn.d:
        raise ValueError(f"batch phases have d={xs.shape[1]}, dynamics needs {dyn.d}")
    return dyn_mod.mod1(xs)


def _op_norms(mats: np.ndarray) -> np.ndarray:
    """op_norm_2x2 over a stack of matrices of shape (2, 2, m)."""
    fro2 = np.sum(np.abs(mats) ** 2, axis=(0, 1))
    det = np.abs(mats[0, 0] * mats[1, 1] - mats[0, 1] * mats[1, 0])
    gap = np.maximum(fro2 * fro2 - 4.0 * det * det, 0.0)
    return np.sqrt(0.5 * (fro2 + np.sqrt(gap)))


def _rescale(cur: np.ndarray, prev: np.ndarray, log_acc: np.ndarray) -> None:
    """Divide the pair by its largest modulus per column, in place."""
    scale = np.maximum(np.abs(cur).max(axis=0), np.abs(prev).max(axis=0))
    scale[scale == 0.0] = 1.0
    cur /= scale
    prev /= scale
    log_acc += np.log(scale)


def _one_phase(dyn: Dynamics, x) -> np.ndarray:
    return _phase_batch(dyn, np.reshape(np.asarray(x, dtype=float), (1, -1)))


def _read_det(f: np.ndarray, log_scale) -> tuple:
    """(f/|f|, log_scale + log|f|) entrywise: signs for real f, (0, -inf) at zeros."""
    with np.errstate(divide="ignore"):
        logs = log_scale + np.log(np.abs(f))
    if not np.iscomplexobj(f):
        return np.sign(f), logs
    # divide the parts by the larger one first: for subnormal f the complex
    # division f / |f| overflows
    big = np.maximum(np.abs(f.real), np.abs(f.imag))
    big[big == 0.0] = 1.0
    f = f.real / big + 1j * (f.imag / big)
    mag = np.abs(f)
    return np.where(mag > 0.0, f / np.where(mag > 0, mag, 1.0), 0j), logs


def _recur(bound: float, E, blocks, m: int, solutions: int, stops=(), visit=None):
    """Run x_k = (v_k - E) x_{k-1} - x_{k-2} over the site rows of ``blocks``.

    This is the one recurrence core of both phases.  ``blocks`` yields
    site values in arrays of shape (B, m), one column per phase, none
    longer than the first, as :func:`_sites` and :func:`_laurent_sites`
    do; ``bound`` is at least their sup|v|, and the dtype follows E and
    the blocks.
    ``solutions=1`` carries f_k from (f_0, f_{-1}) = (1, 0);
    ``solutions=2`` carries M_k, whose rows are (x_k, x_{k-1}) for the two
    solutions started from the identity.  Each step is an in-place
    multiply-subtract.  At every site k (counted from 1) in ``stops``,
    ``visit(k, logs, resid)`` receives log|f_k| (exact zeros as -inf) and
    the rescaled residual f_k, or ``visit(k, logs)`` receives log||M_k||,
    one value per phase.  Returns (x_n, x_{n-1}, log_scale), arrays of
    shape (solutions, m) scaled by exp(log_scale).

    The pair is rescaled by its largest modulus every
    r = max(1, floor(600 / log B)) sites, at every stop and after the
    last site, with B = bound + |E| + 2 bounding every transfer factor's
    norm.  Between rescalings a solution grows by at most
    B^r <= e^600, and since every factor has determinant 1 it shrinks by
    at most as much, so neither overflow nor underflow can occur.  The
    op-norm closed form is taken only after a rescale, where its squares
    cannot overflow.
    """
    every = max(1, int(600.0 / math.log(bound + abs(E) + 2.0)))
    blocks = iter(blocks)
    first = next(blocks, np.empty((0, m)))
    cur = np.zeros((solutions, m), np.result_type(first, E))
    prev = np.zeros_like(cur)
    nxt = np.empty_like(cur)
    shifted = np.empty(first.shape, cur.dtype)
    log_acc = np.zeros(m)
    cur[0] = 1.0
    if solutions == 2:
        prev[1] = 1.0
    k = 0
    for block in itertools.chain([first], blocks):
        for t in np.subtract(block, E, out=shifted[:len(block)]):
            np.multiply(t, cur, out=nxt)
            nxt -= prev
            prev, cur, nxt = cur, nxt, prev
            k += 1
            if k % every and k not in stops:
                continue
            _rescale(cur, prev, log_acc)
            if k not in stops:
                continue
            if solutions == 1:
                with np.errstate(divide="ignore"):
                    visit(k, log_acc + np.log(np.abs(cur[0])), cur[0])
            else:
                visit(k, log_acc + np.log(_op_norms(np.stack([cur, prev]))))
    _rescale(cur, prev, log_acc)
    return cur, prev, log_acc


def _sweep(p: Potential, dyn: Dynamics, xs, E, n: int, checkpoints, first_site: str,
           rng, solutions: int) -> dict:
    """{k: logs} at the checkpoints, from :func:`_recur` over sites 1..n."""
    want = set(checkpoints) if checkpoints is not None else {n}
    if want and (min(want) < 1 or max(want) > n):
        raise ValueError("checkpoints must lie in [1, n]")
    xs = _phase_batch(dyn, xs)
    out = {}
    _recur(p.sup_bound(), E, _sites(p, dyn, xs, 1, n, first_site, rng), xs.shape[0],
           solutions, want, lambda k, logs, *_: out.__setitem__(k, logs))
    return out


def batched_log_norms(p: Potential, dyn: Dynamics, xs, E: float, n: int,
                      checkpoints=None, first_site: str = "Tx", rng=None) -> dict:
    """log ||M_k(x_i, E)|| for every starting phase, at chosen checkpoints.

    Returns a dict {k: array of shape (m,)} for each requested k
    (default: only k = n).  Sites come from the blocked stream
    :func:`_sites`; the product is rescaled by its largest entry every r
    sites (see :func:`_recur`) and at each checkpoint, where the log-norm
    is read off.

    A float orbit of the doubling map reaches the fixed point 0 within
    about 52 steps, since every float is dyadic.  With an rng, each
    doubling step appends fresh uniform low-order bits (scale 2^-52), the
    fair digits a Lebesgue-typical orbit brings in.  Other dynamics
    ignore the rng.
    """
    return _sweep(p, dyn, xs, E, n, checkpoints, first_site, rng, 2)


def batched_sup_rate(p: Potential, dyn: Dynamics, xs, E: float, n: int,
                     first_site: str = "Tx", rng=None) -> np.ndarray:
    """sup over 1 <= k <= n of (1/k) log ||M_k(x_i, E)||, per phase.

    Every site is a stop of :func:`_recur`, so the product is rescaled at
    every site; the rng contract is that of :func:`batched_log_norms`.
    """
    xs = _phase_batch(dyn, xs)
    best = np.full(xs.shape[0], NEG_INF)
    _recur(p.sup_bound(), E, _sites(p, dyn, xs, 1, n, first_site, rng), xs.shape[0], 2,
           range(1, n + 1), lambda k, logs: np.maximum(best, logs / k, out=best))
    return best


def batched_log_absdet(p: Potential, dyn: Dynamics, xs, E, n: int,
                       checkpoints=None, first_site: str = "Tx", rng=None) -> dict:
    """log |f_k(x_i, E)| vectorized over starting phases.

    Same checkpoint, rescaling and rng contract as batched_log_norms.  E
    may be complex.  Exact zeros return -inf for that phase and scale.
    """
    return _sweep(p, dyn, xs, E, n, checkpoints, first_site, rng, 1)
