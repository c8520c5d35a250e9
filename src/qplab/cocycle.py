"""Overflow-safe transfer-matrix products and Dirichlet-determinant
recurrences.

The transfer (monodromy) matrix over the window [a, b] is

    M_[a,b](x, E) = prod_{k=b..a} [[v(k,x) - E, -1], [1, 0]],

where v(k, x) = lam * V(T^k x): site k reads the k-th iterate, so the
window [0, n-1] starts at x itself.  The Dirichlet determinant
f_[a,b] = det(H_[a,b] - E) obeys

    f_[a,k] = (v(k,x) - E) f_[a,k-1] - f_[a,k-2],
    f_[a,a-1] = 1,  f_[a,a-2] = 0,

and the two are linked entrywise:

    M_[a,N] = [[ f_[a,N],   -f_[a+1,N]   ],
               [ f_[a,N-1], -f_[a+1,N-1] ]].

Everything here is carried in log scale.  A :class:`ScaledProduct` is
the record of one transfer product from the recurrence core, a residual
2x2 matrix and the log of the scale factored out of it.  Determinants
come back as (phase, log|f|): arrays from :func:`_det_profile`,
:func:`green_row` and :func:`complex_det_grid`, one :class:`SignedLog`
record from :func:`det_window`.  The phase is f/|f| (the sign, for real
f), and an exact zero is (0, -inf).  Long products never overflow, and
log-norms are exact up to accumulated rounding.

Real phases have one site stream, :func:`_sites`, exact to rounding for
all three maps; complex phases of a shift have :func:`_laurent_sites`.
Both shift streams read their per-site coefficients, built on the exact
frac(t omega), from one table, :func:`_laurent_table`: the real stream
as one BLAS product per block, the complex one as elementwise sums.
Both run through one recurrence core, :func:`_recur`, vectorized over
starting phases.  The batched kernels (``batched_log_norms``,
``batched_log_absdet``), the single-phase products and determinants, the
Green rows, and ``complex_det_grid`` under the zeros module are thin
wrappers over it, and the zeros module's block-companion matrix reads
the same table.  The core rescales only every
r = max(1, floor(600 / log(sup|v| + max|E| + 2))) sites and at checkpoints,
and each column on its own.  So a window and its reversal run as two
columns of one pass: :func:`_det_profile` gives both Cramer families
f_[1,k] and f_[k+1,N] of the Green rows and the eigenvector's determinant
formula, and the eigenvalue-count bound reads its prefix and suffix norms
the same way.  The site stream does not depend on E either, so a pass
takes an array of energies as energy-major column groups over one stream
(the Lyapunov scans of a phase grid), and
:func:`batched_log_absdet_and_norm` reads log|f_n| and log||M_n|| from one
pass, f_n being the (0, 0) entry of M_n.

The same move makes few phases cheap.  A step costs numpy's per-call
overhead whatever the number of columns m, so with m <= 128 the core
cuts each block of R >= 64 sites into g consecutive column segments: at
most 256 / m of them, and fewer where that would leave a segment shorter
than sqrt(3 R) sites.  Their 2x2 products, each started from the
identity, run as 2 g m columns of one multiply-subtract loop that keeps
every partial product, and are then applied to the carried pair in site
order, vectorized over the m phases.  A stop is the partial product up
to it times the pair carried into its segment, so the stops of a block,
a stop at every site included (the determinant profiles, the sup-rate
scan, the eigenvalue-count bound), are read in one batch without a
rescale.  With m > 128 (the phase sweeps), or a block of fewer
than 64 sites, each site is one step, rescaled and read at each stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn_mod
from . import potential as pot_mod
from .dynamics import Dynamics, Shift
from .potential import Potential

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
# determinant and product records


@dataclass(frozen=True)
class SignedLog:
    """A scalar phase * exp(log_mag), as :func:`det_window` returns it.

    The phase has unit modulus (+-1 for real values); the exact zero is
    (0, -inf).
    """

    phase: complex
    log_mag: float


@dataclass(frozen=True)
class DetWindow:
    """The Dirichlet determinant f_[a,b] over the window [a, b]."""

    a: int
    b: int
    value: SignedLog


@dataclass(frozen=True, eq=False)
class ScaledProduct:
    """A 2x2 transfer product M = exp(log_scale) * mat, as :func:`_recur` leaves it."""

    mat: np.ndarray
    log_scale: float

    @property
    def log_norm(self) -> float:
        """log of the operator norm of the full product."""
        return self.log_scale + math.log(op_norm_2x2(self.mat))

    def reconstruct(self) -> np.ndarray:
        """exp(log_scale) * mat as a dense matrix (overflows for long products)."""
        return math.exp(self.log_scale) * self.mat

    def det_value(self) -> complex:
        """det M, which is 1: every transfer factor has determinant 1 exactly.

        det(mat) * exp(2 log_scale) from the residual entries resolves it
        only while 2 log_scale stays within float resolution of them
        (roughly log_scale < 17); past that the small singular value is
        lost to rounding.
        """
        return 1 + 0j


# ---------------------------------------------------------------------------
# the real-phase site stream

# sites x phases per block of the site stream: 128 KiB of float64, so the
# evaluation temporaries of a block stay in cache
_BLOCK_ELEMENTS = 1 << 14

# width of a folded _recur pass: with m phases, a block of at least
# _MIN_FOLD sites runs as at most _SEGMENT_COLUMNS / m segments (see _recur)
_SEGMENT_COLUMNS = 256
_MIN_FOLD = 64


def _sites(p: Potential, dyn: Dynamics, xs: np.ndarray, k0: int, k1: int, rng=None):
    """Yield lam*V(T^k x_i) for sites k = k0..k1 in blocks of shape (B, m).

    This is the one site stream of the real phase, and site k reads time
    t = k.  ``xs`` is an (m, d) batch of reduced phases, B*m is at most
    2^14 (or B = 1), and site k equals ``eval_real(p, iterate(dyn, x, k)[0])``
    to rounding:

    * shift: V is summed by angle addition, each block one real matrix
      product of the rows of :func:`_laurent_table` (built once per run
      of whole blocks of at most 2^12 sites, or one longer block) with
      [1, Re e(j x_i), Im e(j x_i)], formed once per call; frac(t omega)
      is exact, from the integer ratio of omega as in ``fracmul``.  Each
      block is fresh, and its last bits depend on its shape;
    * skew shift: the closed form x + t y + t(t-1)/2 omega (valid for
      t < 0 too), with frac(t(t-1)/2 omega) exact per site and t y exact
      up to one rounding: frac(start y) per block, exact and vectorized
      over the phases (``_fracmul_each``), then j y split in two;
    * doubling: sequential steps from t = 0; with an ``rng`` each step
      adds one (m, d) uniform draw scaled by 2^-52, the same numbers as
      one ``rng.random((m, d))`` per step, drawn as one
      ``rng.random((B', m, d))`` for the B' steps each block takes.
      Negative times raise ValueError.
    """
    if k1 < k0:
        return
    t0, t1 = k0, k1 + 1
    m = xs.shape[0]
    size = max(1, _BLOCK_ELEMENTS // m)
    if isinstance(dyn, Shift):
        # P's rows [1, Re e(k x), Im e(k x)], k from a table of no sites
        ks = _laurent_table(p, dyn.omega, t0, t0 - 1, real=True)[0]
        ux = np.exp(2j * math.pi * ks[:, None] * xs[None, :, 0])
        P = np.concatenate([np.ones((1, m)), ux.real, ux.imag])
        # a table per run of whole blocks (2^12 sites or one block), fresh blocks
        run = size * max(1, _BLOCK_ELEMENTS // 4 // size)
        for lo in range(t0, t1, run):
            table = _laurent_table(p, dyn.omega, lo, min(lo + run, t1) - 1, real=True)[2]
            for i in range(0, len(table), size):
                # a lone phase or site makes a matrix-vector product, which
                # OpenBLAS rounds apart with its thread count: numpy's loop forms it
                A = table[i:i + size]
                yield A @ P if min(len(A), m) > 1 else np.einsum("ij,jk->ik", A, P)
    elif isinstance(dyn, dyn_mod.SkewShift):
        # y_hi has at most 27 bits, so j * y_hi is exact for j < size <= 2^14
        y_hi = np.round(xs[:, 1] * 2.0 ** 26) / 2.0 ** 26
        steps = np.arange(min(size, t1 - t0))[:, None]
        frac_y = dyn_mod._fracmul_each(xs[:, 1])
        for start in range(t0, t1, size):
            j = steps[:t1 - start]
            lin = frac_y(start)
            quad = dyn_mod._fracmuls(range(start, start + len(j)), dyn.omega,
                                     triangular=True)[:, None]
            yield pot_mod.eval_real_many(p, dyn_mod.mod1(
                xs[:, 0] + lin + dyn_mod.mod1(j * y_hi) + j * (xs[:, 1] - y_hi) + quad))
    elif isinstance(dyn, dyn_mod.Doubling):
        if t0 < 0:
            raise ValueError("doubling map is not invertible; window starts too early")
        # the orbit is cur at time t; each block steps it on to the block's
        # last time, drawing the noise of all those steps at once
        t, cur = 0, xs
        for start in range(t0, t1, size):
            stop = min(start + size, t1)
            orbit = np.empty((stop - start,) + cur.shape)
            if start == t:
                orbit[0] = cur
            if rng is not None:
                noise = rng.random((stop - 1 - t,) + cur.shape) * 2.0 ** -52
            for i in range(stop - 1 - t):
                t += 1
                cur = dyn_mod.mod1(2.0 * cur)
                if rng is not None:
                    cur = dyn_mod.mod1(cur + noise[i])
                if t >= start:
                    orbit[t - start] = cur
            yield pot_mod.eval_real_many(p, orbit[:, :, 0])
    else:
        raise TypeError(f"unknown dynamics {dyn!r}")


def _site_values(p: Potential, dyn: Dynamics, xs, a: int, b: int, rng=None) -> np.ndarray:
    """lam*V(T^k x_i) at sites k = a..b (inclusive), shape (m, b - a + 1).

    ``xs`` is an (m, d) batch of phases; anything of fewer dimensions is
    one phase x, whose values are row 0.  The stream of :func:`_sites`,
    with its rng contract, is copied into one (b - a + 1, m) array and
    returned transposed: the layout the Sturm sweep reads, with no further
    copy.  Negative sites need an invertible map; the doubling map only
    supports windows from site 0.
    """
    xs = np.asarray(xs, dtype=float)
    xs = _phase_batch(dyn, xs) if xs.ndim == 2 else _one_phase(dyn, xs)
    out = np.empty((max(0, b - a + 1), xs.shape[0]))
    k = 0
    for block in _sites(p, dyn, xs, a, b, rng):
        out[k:k + len(block)] = block
        k += len(block)
    return out.T


def _laurent_table(p: Potential, omega: float, a: int, b: int, real: bool = False):
    """(ks, vs, coef): the Laurent coefficients of v(k, z) at sites a..b of a shift.

    Site k reads lam V at z e(k omega), as in :func:`_sites`, so
    v(k, z) = sum_j coef[k - a, i] z^ks[i] with coef[:, i] = lam v_j
    e(j frac(k omega)), j = ks[i], and vs = lam v_j; frac is exact.  With
    ``real`` only the h harmonics j > 0 with v_j != 0 are kept, vs =
    2 lam v_j, and the table is the real (b - a + 1, 2h + 1) array of
    columns [lam v_0, Re c, -Im c], c = vs[i] e(j frac(k omega)): v(k, e(x))
    is its row k - a times [1, Re e(ks x), Im e(ks x)].  This is the one
    place that forms e(j frac(k omega)).
    """
    if real:
        pos = (p._ks > 0) & (p._vs != 0)
        ks, vs = p._ks[pos], 2.0 * p.lam * p._vs[pos]
    elif p._ks.size:
        ks, vs = p._ks, p.lam * p._vs
    else:
        # V = 0 stores no harmonic; one zero term gives the table a first column
        ks, vs = np.zeros(1, int), np.zeros(1)
    frac = dyn_mod._fracmuls(range(a, b + 1), omega)
    if real:
        table = np.full((frac.size, 2 * ks.size + 1), p.lam * p.coeff(0).real)
        # Re c = v_r cos - v_i sin and -Im c = -v_r sin - v_i cos, in two buffers
        for re, im, k, v in zip(table[:, 1:].T, table[:, ks.size + 1:].T, ks, vs):
            cos = np.multiply(2.0 * math.pi * k, frac)
            sin = np.sin(cos)
            np.cos(cos, out=cos)
            np.multiply(-v.real, sin, out=im)
            np.multiply(v.real, cos, out=re)
            re -= np.multiply(v.imag, sin, out=sin)
            im -= np.multiply(v.imag, cos, out=cos)
        return ks, vs, table
    # one contiguous row per harmonic, the exponent as (2 pi i j) frac and
    # v times the row into the table: numpy's fused complex multiply rounds
    # other orders and layouts apart in the last bit
    rows = np.empty((ks.size, frac.size), complex)
    for row, k, v in zip(rows, ks, vs):
        e = 2j * math.pi * k * frac
        np.multiply(v, np.exp(e, out=e), out=row)
    return ks, vs, rows.T


def _laurent_sites(p: Potential, omega: float, zs: np.ndarray, a: int, b: int,
                   table=None):
    """(bound, blocks): v(k, z) at sites a..b for the m complex phases zs of a shift.

    The complex-phase site stream: the rows of :func:`_laurent_table`
    summed against z^j.  ``table`` is that table for sites a..b, built
    once by a caller that draws many streams from it; without one it is
    formed here, once per call.  ``blocks`` yields (B, m) complex arrays
    in one reused buffer, each valid until the next is drawn; ``bound`` =
    max_z sum_j |lam v_j| |z|^j is at least sup|v|.
    """
    if np.any(zs == 0):
        raise ZeroDivisionError("Laurent evaluation needs z != 0")
    # one coefficient table per stream at most, so no block makes a fresh temporary
    ks, vs, coef = _laurent_table(p, omega, a, b) if table is None else table
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
            # elementwise sums: a complex BLAS product measured level on the almost
            # Mathieu grids the zeros items run (faster only with several harmonics)
            np.multiply(c[:, :1], rows[0], out=blk)
            for i in range(1, len(rows)):
                blk += np.multiply(c[:, i:i + 1], rows[i], out=tmp)
            yield blk

    return bound, blocks()


# ---------------------------------------------------------------------------
# products and determinants at a single phase


def transfer_product_window(p: Potential, dyn: Dynamics, x, E, a: int, b: int) -> ScaledProduct:
    """M_[a,b](x, E) as a scaled product; the empty window (b = a-1) gives the identity.

    M_n(x, E) is the window [1, n].  The log of the operator norm of the
    true product is ``result.log_norm``, exact up to accumulated rounding;
    the product runs in :func:`_recur`, which rescales every r sites and
    leaves the residual with operator norm in [1, 2].
    """
    if b < a - 1:
        raise ValueError("window must satisfy b >= a-1")
    if b < a:
        return ScaledProduct(np.eye(2), 0.0)
    blocks = _sites(p, dyn, _one_phase(dyn, x), a, b)
    cur, prev, log_scale = _recur(p.sup_bound(), E, blocks, 1, 2)
    return ScaledProduct(np.array([cur[:, 0], prev[:, 0]]), float(log_scale[0]))


def det_window(p: Potential, dyn: Dynamics, x, E, a: int, b: int) -> DetWindow:
    """f_[a,b] with the window conventions f_[a,a-1]=1, f_[a,a-2]=0."""
    if b < a - 2:
        raise ValueError("window must satisfy b >= a-2")
    if b == a - 2:
        return DetWindow(a, b, SignedLog(0j, NEG_INF))
    if b == a - 1:
        return DetWindow(a, b, SignedLog(1 + 0j, 0.0))
    blocks = _sites(p, dyn, _one_phase(dyn, x), a, b)
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
    a stop, read in batches.  Phases are f/|f| (signs, for real E); exact
    zeros give (0, -inf).
    """
    n = vs.size
    resid = np.ones((n + 1, 2), np.result_type(vs, E))
    logs = np.zeros((n + 1, 2))

    def visit(ks, lg, f):
        logs[ks] = lg
        resid[ks] = f

    _recur(float(np.max(np.abs(vs), initial=0.0)), E, [np.stack([vs, vs[::-1]], axis=1)],
           2, 1, range(1, n + 1), visit)
    return _read_det(resid, 0.0)[0], logs


def green_row(p: Potential, dyn: Dynamics, x, E, j: int, N: int) -> tuple:
    """(H_[1,N] - E)^{-1}(j, k) for k = j..N as (phases, log_mags) arrays.

    Cramer's rule gives G(j, k) = f_[1,j-1] f_[k+1,N] / f_[1,N]; no dense
    inversion is performed.  One two-sided :func:`_det_profile` of sites
    1..N gives f_[1,j-1] and f_[1,N] from its first column and every
    f_[k+1,N] from its second.  E may be complex.  Exact zeros give
    (0, -inf); f_[1,N] = 0 (E a real eigenvalue) raises SingularEnergy.
    """
    if not 1 <= j <= N:
        raise ValueError("green_row needs 1 <= j <= N")
    ph, logs = _det_profile(_site_values(p, dyn, x, 1, N)[0], E)
    if logs[N, 0] == NEG_INF:
        raise SingularEnergy("E is an eigenvalue of the finite window")
    # row i of the second column is f_[N-i+1,N]: k = j..N reads i = N-j..0
    right = slice(N - j, None, -1)
    return (ph[j - 1, 0] * ph[right, 1] / ph[N, 0],
            logs[j - 1, 0] + logs[right, 1] - logs[N, 0])


def complex_det_grid(p: Potential, omega: float, zs: np.ndarray, E, n: int, *,
                     table=None, logs_only: bool = False):
    """f_n(z) on an array of annulus points z, in signed-log pieces.

    Returns (phases, log_mags) arrays; exact zeros give (0, -inf).  This
    is the vectorized backbone for boundary quadrature in the zeros
    module and is restricted to shift dynamics, where f_n is analytic in z.
    Sites come from :func:`_laurent_sites` and run through :func:`_recur`.

    ``table`` is ``_laurent_table(p, omega, 1, n)``, passed by a caller
    that evaluates the same f_n many times (a determinant handle) so the
    table is built once; without it each call builds its own.  With
    ``logs_only`` the call returns log_mags alone, the same floats,
    without normalising the phases: Jensen averages and circle means read
    only log|f_n|, windings need the phases.
    """
    if n < 1:
        raise ValueError("complex_det_grid needs n >= 1")
    zs = np.asarray(zs, dtype=complex)
    pts = zs.ravel()
    bound, blocks = _laurent_sites(p, omega, pts, 1, n, table)
    f, _, log_acc = _recur(bound, E, blocks, pts.size, 1)
    if logs_only:
        # the logs of _read_det, without its phases
        with np.errstate(divide="ignore"):
            return (log_acc + np.log(np.abs(f[0]))).reshape(zs.shape)
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
    # squared in place and dropped before the determinant's temporaries
    sq = np.abs(mats)
    fro2 = np.sum(np.square(sq, out=sq), axis=(0, 1))
    del sq
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
    the blocks.  E is a scalar or a 1-D array of e energies.  An array
    makes energy-major column groups over the one site stream: column
    i m + j carries energy i at phase j, each block is written as
    block[:, None] - E into one reused (B, e, m) buffer and run as e m
    columns, and every read and return below has e m columns in place of m.
    ``solutions=1`` carries f_k from (f_0, f_{-1}) = (1, 0);
    ``solutions=2`` carries M_k, whose rows are (x_k, x_{k-1}) for the two
    solutions started from the identity.  Each step is an in-place
    multiply-subtract.  The sites k (counted from 1) in ``stops`` are
    handed to ``visit`` in batches, in site order: ``visit(ks, logs,
    resid)`` receives an int array ks, log|f_k| (exact zeros as -inf) and
    f_k times a positive factor, or ``visit(ks, logs)`` receives
    log||M_k||, each of shape (len(ks), m) and valid during the call.
    Returns (x_n, x_{n-1}, log_scale), arrays of shape (solutions, m)
    scaled by exp(log_scale).

    The pair is rescaled by its largest modulus every
    r = max(1, floor(600 / log B)) sites and after the last site, with
    B = bound + max|E| + 2 bounding every transfer factor's norm: the
    largest |E| sets one cadence for all energy groups.  Between
    rescalings a solution grows by at most B^r <= e^600, and since every
    factor has determinant 1 it shrinks by at most as much, so neither
    overflow nor underflow can occur.

    Few phases leave each step to numpy's per-call cost, so with
    m <= ``_SEGMENT_COLUMNS`` / 2 a block of R >= ``_MIN_FOLD`` sites is
    folded (:func:`_fold`), stops or not.  It is cut into g consecutive
    segments of at most

        L = min(r, max(ceil(R / floor(_SEGMENT_COLUMNS / m)), sqrt(3 R)))

    sites, whose 2x2 partial products, each from the identity, run as
    2 g m columns of one multiply-subtract loop.  So g m stays within
    ``_SEGMENT_COLUMNS`` unless r caps L, and no product grows past
    e^600.  The sqrt(3 R) floor balances the loop's L steps against the g
    products, each of which costs about three steps to apply: they are
    applied to the carried pair in site order, vectorized over the m
    phases, with a rescale before any product that would take the pair
    more than r sites past its last rescale, and after the block.  A stop
    inside segment s is its partial product times the pair carried into
    s, read for all of the block's stops at once and without a rescale.
    With m > ``_SEGMENT_COLUMNS`` / 2, or a block of fewer than
    ``_MIN_FOLD`` sites, each site is one step of the pair, which is also
    rescaled at every stop and read there.
    """
    # one row per energy group: (1, 1) for a scalar E, else (e, 1)
    es = np.asarray(E).reshape(-1, 1)
    every = max(1, int(600.0 / math.log(bound + float(np.max(np.abs(es))) + 2.0)))
    cols = es.size * m
    blocks = iter(blocks)
    block = next(blocks, np.empty((0, m)))
    cur = np.zeros((solutions, cols), np.result_type(block, es))
    prev = np.zeros_like(cur)
    nxt = np.empty_like(cur)
    shifted = np.empty((len(block), es.size, m), cur.dtype)
    flat = shifted.reshape(len(block), cols)
    log_acc = np.zeros(cols)
    cur[0] = 1.0
    if solutions == 2:
        prev[1] = 1.0
    width = _SEGMENT_COLUMNS // cols
    marks = np.array(sorted(stops), int) if width > 1 else None
    k = 0
    while block is not None:
        n = len(block)
        if es.size == 1:
            # no broadcast: complex grids of many points draw one site per block
            ts = np.subtract(block, E, out=flat[:n])
        else:
            np.subtract(block[:, None], es, out=shifted[:n])
            ts = flat[:n]
        # drawn now, so no block is held past its copy into ts
        block = next(blocks, None)
        if width > 1 and n >= _MIN_FOLD:
            ks = marks[np.searchsorted(marks, k, "right"):np.searchsorted(marks, k + n, "right")]
            length = min(every, max(-(-n // width), math.isqrt(3 * n)))
            reads = _fold(ts, length, cur, prev, log_acc, every, ks - k - 1)
            if ks.size:
                visit(ks, *reads)
            k += n
            continue
        got = []
        for t in ts:
            np.multiply(t, cur, out=nxt)
            nxt -= prev
            prev, cur, nxt = cur, nxt, prev
            k += 1
            if k % every and k not in stops:
                continue
            _rescale(cur, prev, log_acc)
            if k in stops:
                got.append((k,) + _read(cur, prev, log_acc))
        if got:
            ks, *reads = zip(*got)
            visit(np.array(ks), *map(np.stack, reads))
    _rescale(cur, prev, log_acc)
    return cur, prev, log_acc


def _read(cur: np.ndarray, prev: np.ndarray, log_acc: np.ndarray) -> tuple:
    """The reads of :func:`_recur` at one stop, from the just-rescaled pair."""
    if len(cur) == 1:
        with np.errstate(divide="ignore"):
            return log_acc + np.log(np.abs(cur[0])), cur[0].copy()
    return log_acc + np.log(_op_norms(np.stack([cur, prev]))),


def _fold(ts: np.ndarray, L: int, cur: np.ndarray, prev: np.ndarray, log_acc: np.ndarray,
          every: int, at: np.ndarray) -> tuple:
    """Advance the pair (cur, prev) in place over the site rows ts, in segments.

    ts holds t = v - E for a block, shape (R, m).  The block is cut into
    g = ceil(R / L) consecutive segments of ceil(R / g) <= L sites or one
    fewer.  Each segment's 2x2 product, from the identity, is one set of
    2 m columns of a single multiply-subtract loop, which keeps every
    partial product in one record if the block has stops; a short
    segment gets one step with t = 0 in front and starts from that step's
    inverse factor, so the step brings it to the identity exactly.  The
    products are then applied to the pair in site order, rescaling it
    before any product that would take it more than ``every`` sites past
    its last rescale, and after the block.  Returns the reads of
    :func:`_recur` at the rows ``at`` (0-based, sorted), each the partial
    product up to that row times the pair carried into its segment; their
    entries stay below e^600, so an op-norm is taken of a copy scaled by
    its largest entry.
    """
    R, m = ts.shape
    g = -(-R // L)
    L = -(-R // g)
    short = g * L - R
    seg = np.zeros((L, g, m), ts.dtype)
    cut = short * (L - 1)
    seg[1:, :short] = ts[:cut].reshape(short, L - 1, m).transpose(1, 0, 2)
    seg[:, short:] = ts[cut:].reshape(g - short, L, m).transpose(1, 0, 2)
    # rows[j + 2] is (x_j, x'_j) after step j of every segment, the two
    # solutions of each, and rows[j + 1] their previous values: a record of
    # every step when the block has stops, else three buffers in turn
    rec = np.empty((L + 2 if at.size else 3, 2, g, m), ts.dtype)
    rec[:2] = 0.0
    rec[1, 0, short:] = rec[0, 1, short:] = 1.0
    rec[1, 1, :short], rec[0, 0, :short] = 1.0, -1.0
    rows = list(rec.reshape(len(rec), 2, g * m))
    rows = [rows[i % len(rows)] for i in range(L + 2)]
    for t, before, now, nxt in zip(seg.reshape(L, g * m), rows, rows[1:], rows[2:]):
        np.multiply(t, now, out=nxt)
        nxt -= before
    # cols[j][s] is column j of segment s's product, shape (2, 1, m)
    cols = np.stack(rows[:-3:-1]).reshape(2, 2, g, 1, m).transpose(1, 2, 0, 3, 4)
    # carried[s] is the pair (now, before) that segment s is applied to,
    # accs[s] the log-scale it carries
    carried = np.empty((g + 1, 2) + cur.shape, cur.dtype)
    carried[0, 0], carried[0, 1] = cur, prev
    accs = []
    left, right = np.empty_like(carried[0]), np.empty_like(carried[0])
    since = every
    for c0, c1, now, before, out in zip(*cols, carried[:-1, 0], carried[:-1, 1], carried[1:]):
        if since + L > every:
            _rescale(now, before, log_acc)
            since = 0
            acc = log_acc.copy()
        accs.append(acc)
        np.multiply(c0, now, out=left)
        np.multiply(c1, before, out=right)
        np.add(left, right, out=out)
        since += L
    _rescale(*carried[g], log_acc)
    cur[...], prev[...] = carried[g]
    if not at.size:
        return ()
    accs = np.array(accs)
    # row i of the block is step j of segment s, counting each short
    # segment's t = 0 step
    if short:
        at = at + np.minimum(at // (L - 1) + 1, short)
    s, j = np.divmod(at, L)
    now, before = carried[s, 0], carried[s, 1]
    top = rec[j + 2, :1, s] * now + rec[j + 2, 1:, s] * before
    if len(cur) == 1:
        with np.errstate(divide="ignore"):
            return accs[s] + np.log(np.abs(top[:, 0])), top[:, 0]
    bottom = rec[j + 1, :1, s] * now + rec[j + 1, 1:, s] * before
    # axes (row, stop, column, phase); the squares in _op_norms need a scaled copy
    mats = np.stack([top, bottom])
    scale = np.abs(mats).max(axis=(0, 2))
    norms = _op_norms((mats / scale[:, None]).transpose(0, 2, 1, 3))
    return accs[s] + np.log(scale) + np.log(norms),


def _sweep(p: Potential, dyn: Dynamics, xs, E, n: int, checkpoints, rng,
           solutions: int) -> dict:
    """{k: logs} at the checkpoints, from :func:`_recur` over sites 1..n.

    logs has shape (m,) for a scalar E and (e, m) for an array of e
    energies, all of them run over one site stream.
    """
    want = set(checkpoints) if checkpoints is not None else {n}
    if want and (min(want) < 1 or max(want) > n):
        raise ValueError("checkpoints must lie in [1, n]")
    xs = _phase_batch(dyn, xs)
    shape = np.shape(E) + xs.shape[:1]
    out = {}
    _recur(p.sup_bound(), E, _sites(p, dyn, xs, 1, n, rng), xs.shape[0],
           solutions, want,
           lambda ks, logs, *_: out.update(zip(ks.tolist(), logs.reshape((len(ks),) + shape))))
    return out


def batched_log_norms(p: Potential, dyn: Dynamics, xs, E: float, n: int,
                      checkpoints=None, rng=None) -> dict:
    """log ||M_k(x_i, E)|| for every starting phase, at chosen checkpoints.

    Returns a dict {k: array of shape (m,)} for each requested k
    (default: only k = n).  Sites come from the blocked stream
    :func:`_sites`; the product is rescaled by its largest entry every r
    sites (see :func:`_recur`) and at each checkpoint, where the log-norm
    is read off.  E may be a 1-D array of e energies: they then run as
    column groups of one pass over the same site stream, and each
    checkpoint holds an array of shape (e, m).

    A float orbit of the doubling map reaches the fixed point 0 within
    about 52 steps, since every float is dyadic.  With an rng, each
    doubling step appends fresh uniform low-order bits (scale 2^-52), the
    fair digits a Lebesgue-typical orbit brings in.  Other dynamics
    ignore the rng.
    """
    if n < 1:
        raise ValueError("batched_log_norms needs n >= 1")
    return _sweep(p, dyn, xs, E, n, checkpoints, rng, 2)


def batched_log_absdet(p: Potential, dyn: Dynamics, xs, E, n: int,
                       checkpoints=None, rng=None) -> dict:
    """log |f_k(x_i, E)| vectorized over starting phases.

    Same checkpoint, rescaling, energy-array and rng contract as
    batched_log_norms.  E may be complex.  Exact zeros return -inf for
    that phase and scale.
    """
    if n < 1:
        raise ValueError("batched_log_absdet needs n >= 1")
    return _sweep(p, dyn, xs, E, n, checkpoints, rng, 1)


def batched_log_absdet_and_norm(p: Potential, dyn: Dynamics, xs, E, n: int,
                                rng=None) -> tuple:
    """(log |f_n(x_i, E)|, log ||M_n(x_i, E)||) per phase, from one pass.

    Both are read from one ``solutions=2`` :func:`_recur` pass, whose
    (0, 0) entry is f_n.  The log-norm is read at the stop n, so it is
    batched_log_norms' bit for bit; log|f_n| comes from the pass's end,
    which rescales with both solutions and so agrees with
    batched_log_absdet to rounding, exact zeros as -inf.  The rng
    contract is that of batched_log_norms.
    """
    if n < 1:
        raise ValueError("batched_log_absdet_and_norm needs n >= 1")
    xs = _phase_batch(dyn, xs)
    norms = []
    cur, _, log_acc = _recur(p.sup_bound(), E, _sites(p, dyn, xs, 1, n, rng),
                             xs.shape[0], 2, {n}, lambda ks, logs: norms.append(logs[0]))
    return _read_det(cur[0], log_acc)[1], norms[0]
