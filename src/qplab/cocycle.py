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
frac(t omega), from one table, :func:`_laurent_table`, and make each
block with one real BLAS product: the real stream against
[1, Re e(jx), Im e(jx)], the complex one as (Re c, Im c) pairs against
z^j and i z^j, viewed as interleaved float pairs.
Both run through one recurrence core, :func:`_recur`, vectorized over
starting phases.  The batched kernels (``batched_log_norms``,
``batched_log_absdet``), the single-phase products and determinants, the
Green rows, and ``complex_det_grid`` under the zeros module are thin
wrappers over it, and the zeros module's block-companion matrix reads
the same table.  The core divides each column by its own scale, at
rescales it takes only when growth requires them: site by site every
r = max(1, floor(600 / log(sup|v| + max|E| + 2))) sites and at
checkpoints, folded (below) as the norms of the applied products
require.  So a window and its reversal run as two columns of one pass:
:func:`_det_profile` gives both Cramer families f_[1,k] and f_[k+1,N] of
the Green rows and the eigenvector's determinant formula, and the
eigenvalue-count bound reads its prefix and suffix norms the same way.
The site stream does not depend on E either, so a pass takes an array
of energies as energy-major column groups over one stream (the Lyapunov
scans of a phase grid), each block offset by one scalar subtraction per
energy, and :func:`batched_log_absdet_and_norm` reads log|f_n| and
log||M_n|| from one pass, f_n being the (0, 0) entry of M_n.

The same move makes few phases cheap.  A step costs numpy's per-call
overhead whatever the number of columns, so a pass of at most 512
columns (phases x energies, half of ``_SEGMENT_COLUMNS`` = 1024) reads
consecutive stream blocks into spans of up to 2^15 sites x columns and
cuts each span of R >= 64 sites into g consecutive column segments: at
most 1024 / columns of them, and fewer where that would leave a segment
shorter than sqrt(3 R) sites.  Their 2x2 products, each started from
the identity, run as 2 g times the pass's columns in one
multiply-subtract loop that keeps every partial product, and are then
applied to the carried pair in site order, vectorized over the columns.
The pair is rescaled only before a product that would take the sum of
log(2 max|entry|) over the products (and, with stops, their partial
products) applied since its last rescale past 600.  A stop is the
partial product up to it times the pair carried into its segment, so
the stops of a span, a stop at every site included (the determinant
profiles, the sup-rate scan, the eigenvalue-count bound), are read in
one batch without a rescale.  Wider passes, or a span of fewer than 64
sites, take each site as one step, rescaled every r sites and read at
each stop.
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
        return self.log_scale + math.log(_op_norms(self.mat))

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

# width of a folded _recur pass: a pass of cols columns folds if
# _SEGMENT_COLUMNS / cols >= 2, and a span of at least _MIN_FOLD sites
# runs as at most _SEGMENT_COLUMNS / cols segments (see _recur)
_SEGMENT_COLUMNS = 1024
_MIN_FOLD = 64

# the log of the growth a rescaled pair may take before its next rescale
_LOG_RANGE = 600.0

# A(0)^-j for j = 0..3, A(0) = [[0, -1], [1, 0]] the transfer factor at t = 0
_TURNS_BACK = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]],
                        [[-1.0, 0.0], [0.0, -1.0]], [[0.0, -1.0], [1.0, 0.0]]])


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

    Every yielded block is a fresh array; the skew-shift and doubling
    branches form their phases in buffers that every block reuses.
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
        y_lo = xs[:, 1] - y_hi
        steps = np.arange(min(size, t1 - t0))[:, None]
        frac_y = dyn_mod._fracmul_each(xs[:, 1])
        # the phases of a block and one work array, reused by every block
        phases, work = np.empty((2, len(steps), m))
        for start in range(t0, t1, size):
            j = steps[:t1 - start]
            lin = frac_y(start)
            quad = dyn_mod._fracmuls(range(start, start + len(j)), dyn.omega,
                                     triangular=True)[:, None]
            # mod1(((x + lin) + mod1(j y_hi)) + j y_lo + quad), mod1 in place
            ph, tmp = phases[:len(j)], work[:len(j)]
            np.multiply(j, y_hi, out=ph)
            ph -= np.floor(ph, out=tmp)
            ph += xs[:, 0] + lin
            ph += np.multiply(j, y_lo, out=tmp)
            ph += quad
            ph -= np.floor(ph, out=tmp)
            yield pot_mod.eval_real_many(p, ph)
    elif isinstance(dyn, dyn_mod.Doubling):
        if t0 < 0:
            raise ValueError("doubling map is not invertible; window starts too early")
        # the orbit is cur at time t; each block steps it on to the block's
        # last time, drawing the noise of all those steps at once, into
        # orbit and noise buffers that every block reuses
        t, cur, work = 0, xs.copy(), np.empty_like(xs)
        orbits = np.empty((min(size, t1 - t0),) + xs.shape)
        # the first block also draws the steps from time 0 to t0
        draws = max(min(t0 + size, t1) - 1, min(size, t1 - t0))
        noises = np.empty((draws,) + xs.shape) if rng is not None else None
        for start in range(t0, t1, size):
            stop = min(start + size, t1)
            orbit = orbits[:stop - start]
            if start == t:
                orbit[0] = cur
            if rng is not None:
                noise = rng.random(out=noises[:stop - 1 - t])
                noise *= 2.0 ** -52
            for i in range(stop - 1 - t):
                t += 1
                # mod1(2 cur), then mod1(cur + noise), in place
                cur *= 2.0
                cur -= np.floor(cur, out=work)
                if rng is not None:
                    cur += noise[i]
                    cur -= np.floor(cur, out=work)
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
    # other orders and layouts apart in the last bit; the table is then
    # copied site-major, so a block's rows view as real (Re c, Im c) pairs
    rows = np.empty((ks.size, frac.size), complex)
    for row, k, v in zip(rows, ks, vs):
        e = 2j * math.pi * k * frac
        np.multiply(v, np.exp(e, out=e), out=row)
    return ks, vs, np.ascontiguousarray(rows.T)


def _laurent_sites(p: Potential, omega: float, zs: np.ndarray, a: int, b: int,
                   table=None):
    """(bound, blocks): v(k, z) at sites a..b for the m complex phases zs of a shift.

    The complex-phase site stream: the rows of :func:`_laurent_table`
    summed against z^j.  ``table`` is that table for sites a..b, built
    once by a caller that draws many streams from it; without one it is
    formed here, once per call.  ``blocks`` yields (B, m) complex arrays
    in one reused buffer, each valid until the next is drawn; ``bound`` =
    max_z sum_j |lam v_j| |z|^j is at least sup|v|.

    Each block is one real matrix product: the table's rows, viewed as
    the real pairs (Re c_kj, Im c_kj), times the (2h, 2m) rows z^j and
    i z^j viewed as interleaved float pairs, whose float (B, 2m) output
    is the complex block.  Blocks hold at least two sites (a lone last
    site joins the first block), so every product is a matrix-matrix
    product, whose sums OpenBLAS does not split across threads: the
    stream has the same bits at one and two BLAS threads.  A one-site
    window is formed by numpy's own loop, as the real stream forms a lone
    phase.  Each entry is v(k, z) to a few eps sum_j |c_kj| |z|^j (an
    mpmath test holds a degree-3 potential to 16); its last bits may
    depend on the block's shape, as the real stream's do, since the
    kernel a BLAS picks for a shape sets the order of the 2h-term sum.
    """
    if np.any(zs == 0):
        raise ZeroDivisionError("Laurent evaluation needs z != 0")
    # one coefficient table per stream at most, so no block makes a fresh temporary
    ks, vs, coef = _laurent_table(p, omega, a, b) if table is None else table
    m, n = zs.size, len(coef)
    # the rows z^j and i z^j (exact: a product with 0 and 1 per part)
    powers = np.empty((2 * ks.size, m), complex)
    for row, j in zip(powers[::2], ks):
        row[...] = zs ** int(j)
    np.multiply(powers[::2], 1j, out=powers[1::2])
    mags = np.abs(zs)
    bound = float(np.max(sum(abs(v) * mags ** int(j) for v, j in zip(vs, ks))))
    left, right = coef.view(float), powers.view(float)

    def blocks():
        # 64 KiB complex buffers, here and in _recur, where m allows: malloc
        # maps larger ones afresh per call
        size = max(2, _BLOCK_ELEMENTS // 4 // m)
        # the first block takes the site that would be a lone last block
        hi = size + 1 if n > size and n % size == 1 else min(size, n)
        out = np.empty((hi, m), complex)
        flat = out.view(float)
        lo = 0
        while lo < n:
            blk = flat[:hi - lo]
            if hi - lo > 1:
                np.matmul(left[lo:hi], right, out=blk)
            else:
                np.einsum("ij,jk->ik", left[lo:hi], right, out=blk)
            yield out[:hi - lo]
            lo, hi = hi, min(n, hi + size)

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

    A point's bits depend on the grid it sits in, though not beyond
    rounding: the grid's size decides whether and in which segments
    :func:`_recur` folds, and its largest |z| sets the rescale cadence.
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
    """Top singular values of the 2x2 matrices mats[:, :, ...], real or complex:
    sqrt((F + sqrt(F^2 - 4D^2)) / 2), F the squared Frobenius norm, D = |det|."""
    # squared in place and dropped before the determinant's temporaries
    sq = np.abs(mats)
    fro2 = np.sum(np.square(sq, out=sq), axis=(0, 1))
    del sq
    det = np.abs(mats[0, 0] * mats[1, 1] - mats[0, 1] * mats[1, 0])
    gap = np.maximum(fro2 * fro2 - 4.0 * det * det, 0.0)
    return np.sqrt(0.5 * (fro2 + np.sqrt(gap)))


def _rescale(log_acc: np.ndarray, *parts: np.ndarray) -> None:
    """Divide a pair by its largest modulus per column, in place.

    The parts hold the pair's entries with the columns last: the stepped
    pass hands (cur, prev), a fold its stacked (2, solutions, m) pair.
    """
    scale = np.abs(parts[0]).reshape(-1, log_acc.size).max(axis=0)
    for part in parts[1:]:
        np.maximum(scale, np.abs(part).max(axis=0), out=scale)
    scale[scale == 0.0] = 1.0
    for part in parts:
        part /= scale
    log_acc += np.log(scale)


def _one_phase(dyn: Dynamics, x) -> np.ndarray:
    return _phase_batch(dyn, np.reshape(np.asarray(x, dtype=float), (1, -1)))


def _read_det(f: np.ndarray, log_scale) -> tuple:
    """(f/|f|, log_scale + log|f|) entrywise: signs for real f, (0, -inf) at zeros."""
    with np.errstate(divide="ignore"):
        logs = log_scale + np.log(np.abs(f))
    if not np.iscomplexobj(f):
        return np.sign(f), logs
    # divide the parts by the larger one first: a subnormal |f| has too few
    # bits to divide by, the scaled parts' modulus has all of them
    big = np.maximum(np.abs(f.real), np.abs(f.imag))
    big[big == 0.0] = 1.0
    phases = np.empty_like(f)
    np.divide(f.real, big, out=phases.real)
    np.divide(f.imag, big, out=phases.imag)
    # an exact zero has parts 0 / 1 = 0, and keeps phase 0
    mag = np.abs(phases)
    mag[mag == 0.0] = 1.0
    phases.real /= mag
    phases.imag /= mag
    return phases, logs


def _recur(bound: float, E, blocks, m: int, solutions: int, stops=(), visit=None):
    """Run x_k = (v_k - E) x_{k-1} - x_{k-2} over the site rows of ``blocks``.

    This is the one recurrence core of both phases.  ``blocks`` yields
    site values in arrays of shape (B, m), one column per phase, none
    longer than the first, as :func:`_sites` and :func:`_laurent_sites`
    do; ``bound`` is at least their sup|v|, and the dtype follows E and
    the blocks.  E is a scalar or a 1-D array of e energies.  An array
    makes energy-major column groups over the one site stream: column
    i m + j carries energy i at phase j, each block is written as
    block - E_i into slice i of one reused (B, e, m) buffer, one scalar
    subtraction per energy, and run as e m columns; every read and
    return below has e m columns in place of m.
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

    Few phases leave each step to numpy's per-call cost, so a pass of at
    most ``_SEGMENT_COLUMNS`` / 2 columns folds (:func:`_fold`).  It reads
    consecutive blocks into one span buffer of up to twice
    ``_BLOCK_ELEMENTS`` sites x columns (or the first block, if longer:
    so energy groups take one block per span), behind L - 1 zero rows
    that pad a span's first segment, each block's t = v - E rows written
    there straight from the stream (the buffer holds the first block
    until a second one comes, then grows to a whole span once, copying
    that block), and folds each span of
    R >= ``_MIN_FOLD`` sites as a whole, stops or not.  The spans live
    here and not in the stream: a shift block's last bits depend on its
    shape, so the stream keeps its blocks.  A span is cut into g
    consecutive segments of at most

        L = min(r, max(ceil(R / floor(_SEGMENT_COLUMNS / cols)), sqrt(3 R)))

    sites, r = max(1, floor(600 / log B)) with B = bound + max|E| + 2
    bounding every transfer factor's norm, whose 2x2 partial products,
    each from the identity, run as 2 g cols columns of one
    multiply-subtract loop.  So g cols stays within ``_SEGMENT_COLUMNS``
    unless r caps L, and no product grows past B^r <= e^600.  The
    sqrt(3 R) floor balances the loop's L steps against the g products,
    each of which costs about three steps to apply: they are applied to
    the carried pair in site order, rescaled by the products' own norms
    (see :func:`_fold`), and the pair is rescaled after the span.  A stop
    inside segment s is its partial product times the pair carried into
    s, read for all of the span's stops at once and without a rescale.

    Wider passes, and spans of fewer than ``_MIN_FOLD`` sites, step site
    by site, and the pair is rescaled by its largest modulus every r
    sites, at every stop (where it is read) and after the last site: the
    largest |E| sets one cadence for all energy groups.  Between
    rescalings a solution grows by at most B^r <= e^600, and since every
    factor has determinant 1 it shrinks by at most as much, so neither
    overflow nor underflow can occur.
    """
    # one row per energy group: (1, 1) for a scalar E, else (e, 1)
    es = np.asarray(E).reshape(-1, 1)
    every = max(1, int(_LOG_RANGE / math.log(bound + float(np.max(np.abs(es))) + 2.0)))
    cols = es.size * m
    blocks = iter(blocks)
    block = next(blocks, np.empty((0, m)))
    cur = np.zeros((solutions, cols), np.result_type(block, es))
    prev = np.zeros_like(cur)
    nxt = np.empty_like(cur)
    log_acc = np.zeros(cols)
    cur[0] = 1.0
    if solutions == 2:
        prev[1] = 1.0
    width = _SEGMENT_COLUMNS // cols
    most = max(len(block), 2 * _BLOCK_ELEMENTS // cols) if width > 1 else len(block)

    def buffer(rows):
        # zero rows of t in front of the span pad its first segment: fewer
        # than the longest segment a span of this many sites can take
        lead = min(every, max(-(-rows // width), math.isqrt(3 * rows), 1)) - 1 if width > 1 else 0
        span = np.empty((lead + rows, es.size, m), cur.dtype)
        span[:lead] = 0.0
        return span, lead

    # the first block's length, grown to a whole span once a second block
    # comes: a one-block pass (a determinant profile) maps no span it leaves idle
    span, lead = buffer(len(block))
    marks = np.array(sorted(stops), int) if width > 1 else None
    # whether the pair is as a rescale leaves it: at the start and after a fold
    fresh = True
    k = 0
    while block is not None:
        n = 0
        while block is not None and (n == 0 or n + len(block) <= most):
            if lead + n + len(block) > len(span):
                grown, top = buffer(most)
                grown[top:top + n] = span[lead:lead + n]
                span, lead = grown, top
            flat = span.reshape(len(span), cols)
            at = slice(lead + n, lead + n + len(block))
            if es.size == 1:
                # no broadcast: complex grids of many points draw one site per block
                np.subtract(block, E, out=flat[at])
            else:
                # a broadcast block[:, None] - es runs on numpy's slow path
                # below about 8192 elements per energy group
                for i, e in enumerate(es[:, 0]):
                    np.subtract(block, e, out=span[at, i])
            n += len(block)
            # drawn now, so no block is held past its copy into the span
            block = next(blocks, None)
        if width > 1 and n >= _MIN_FOLD:
            ks = marks[np.searchsorted(marks, k, "right"):np.searchsorted(marks, k + n, "right")]
            length = min(every, max(-(-n // width), math.isqrt(3 * n)))
            reads = _fold(flat[:lead + n], n, length, cur, prev, log_acc, ks - k - 1, fresh)
            if ks.size:
                visit(ks, *reads)
            k += n
            fresh = True
            continue
        fresh = False
        got = []
        for t in flat[lead:lead + n]:
            np.multiply(t, cur, out=nxt)
            nxt -= prev
            prev, cur, nxt = cur, nxt, prev
            k += 1
            if k % every and k not in stops:
                continue
            _rescale(log_acc, cur, prev)
            if k in stops:
                got.append((k,) + _read(cur, prev, log_acc))
        if got:
            ks, *reads = zip(*got)
            visit(np.array(ks), *map(np.stack, reads))
    _rescale(log_acc, cur, prev)
    return cur, prev, log_acc


def _read(cur: np.ndarray, prev: np.ndarray, log_acc: np.ndarray) -> tuple:
    """The reads of :func:`_recur` at one stop, from the just-rescaled pair."""
    if len(cur) == 1:
        with np.errstate(divide="ignore"):
            return log_acc + np.log(np.abs(cur[0])), cur[0].copy()
    return log_acc + np.log(_op_norms(np.stack([cur, prev]))),


def _peaks(rec: np.ndarray) -> np.ndarray:
    """An upper bound on max|entry| per segment of a (rows, 2, g, m) record.

    Read from the largest and smallest real and imaginary parts, so no
    |rec| copy is made; sqrt 2 times the larger part bounds a complex
    modulus.
    """
    parts = rec.view(float) if np.iscomplexobj(rec) else rec
    top = np.maximum(parts.max(axis=0), -parts.min(axis=0)).max(axis=(0, 2))
    return top * math.sqrt(2.0) if parts is not rec else top


def _fold(ts: np.ndarray, R: int, L: int, cur: np.ndarray, prev: np.ndarray,
          log_acc: np.ndarray, at: np.ndarray, fresh: bool) -> tuple:
    """Advance the pair (cur, prev) in place over the site rows ts, in segments.

    The last R rows of ts hold t = v - E for a span, shape (R, m), and at
    least L - 1 zero rows precede them.  The span is cut into
    g = ceil(R / L) consecutive segments of L sites, read in place; the
    first is short by pad = g L - R sites, so it takes the pad zero rows
    in front of it and starts from A(0)^-pad, which those steps bring to
    the identity exactly.  Each segment's 2x2 product, from the identity,
    is one set of 2 m columns of a single multiply-subtract loop, which
    keeps every partial product in one record if the span has stops.

    The products are then applied to the pair in site order.  A 2x2
    matrix has norm at most 2 max|entry|, so the pair, stacked as one
    (2, solutions, m) array, is rescaled by its largest modulus per
    column only before a product that would take the running sum of
    log(2 max|entry|) since its last rescale past 600: the sum runs over
    the products applied since then, and over their partial products
    too when the span has stops, the max taken over all m columns.  The
    pair is rescaled before the first product, unless ``fresh`` says a
    rescale left it so, and after the last.  Every
    value the fold forms, each stop's read included, so stays within
    about e^+-600 of the rescaled pair, as the per-site cadence keeps
    the stepped pass (determinants are 1).

    Returns the reads of :func:`_recur` at the rows ``at`` (0-based,
    sorted), each the partial product up to that row times the pair
    carried into its segment; an op-norm is taken of a copy scaled by its
    largest entry, since the squares in :func:`_op_norms` would overflow.
    """
    m = ts.shape[1]
    g = -(-R // L)
    pad = g * L - R
    # segment s is rows s L .. s L + L - 1 of the padded span, read in place
    seg = ts[len(ts) - R - pad:].reshape(g, L, m)
    # rows[j + 2] is (x_j, x'_j) after step j of every segment, the two
    # solutions of each, and rows[j + 1] their previous values: a record of
    # every step when the span has stops, else three buffers in turn
    rec = np.empty((L + 2 if at.size else 3, 2, g, m), ts.dtype)
    rec[:2] = 0.0
    rec[1, 0] = rec[0, 1] = 1.0
    # the first segment starts from A(0)^-pad, rows (x_0, x'_0) and
    # (x_-1, x'_-1), so its pad steps at t = 0 bring it to the identity
    start = _TURNS_BACK[pad % 4]
    rec[1, :, 0], rec[0, :, 0] = start[0, :, None], start[1, :, None]
    rows = list(rec)
    rows = [rows[i % len(rows)] for i in range(L + 2)]
    for j, (before, now, nxt) in enumerate(zip(rows, rows[1:], rows[2:])):
        np.multiply(seg[:, j], now, out=nxt)
        nxt -= before
    last = np.stack(rows[:-3:-1])
    # log(2 max|entry|) of each product, and of its partial products at stops
    grow = np.log(2.0 * _peaks(rec if at.size else last)).tolist()
    # cols[j][s] is column j of segment s's product, shape (2, 1, m)
    cols = last.reshape(2, 2, g, 1, m).transpose(1, 2, 0, 3, 4)
    # carried[s] is the pair (now, before) that segment s is applied to,
    # accs[s] the log-scale it carries
    carried = np.empty((g + 1, 2) + cur.shape, cur.dtype)
    carried[0, 0], carried[0, 1] = cur, prev
    accs = []
    left, right = np.empty_like(carried[0]), np.empty_like(carried[0])
    total = 0.0 if fresh else math.inf
    acc = log_acc.copy()
    for c0, c1, pair, out, up in zip(*cols, carried[:-1], carried[1:], grow):
        if total + up > _LOG_RANGE:
            _rescale(log_acc, pair)
            total = 0.0
            acc = log_acc.copy()
        accs.append(acc)
        np.multiply(c0, pair[0], out=left)
        np.multiply(c1, pair[1], out=right)
        np.add(left, right, out=out)
        total += up
    _rescale(log_acc, carried[g])
    cur[...], prev[...] = carried[g]
    if not at.size:
        return ()
    # row i of the span is step j of segment s, counting the first
    # segment's pad steps
    s, j = np.divmod(at + pad, L)
    # rows of the record are row (2 r + c) g + s of flat, solution c after
    # step r - 2 of segment s
    flat = rec.reshape(-1, m)
    accs = np.array(accs)
    # stops in batches of up to _BLOCK_ELEMENTS / 4 / m, so each (K, 2, 2, m)
    # temporary stays within a stream block's size
    batch = max(1, _BLOCK_ELEMENTS // 4 // m)
    reads = [_stop_reads(flat, carried, accs, s[i:i + batch], j[i:i + batch], g)
             for i in range(0, len(at), batch)]
    return tuple(np.concatenate(r) for r in zip(*reads))


def _stop_reads(flat: np.ndarray, carried: np.ndarray, accs: np.ndarray, s: np.ndarray,
                j: np.ndarray, g: int) -> tuple:
    """The reads of :func:`_fold` at the stops after step j of segments s."""
    pairs = np.take(carried, s, axis=0)
    acc = np.take(accs, s, axis=0)

    def read(r):
        """x_r and x'_r of each stop's segment times its pair, (stops, solutions, m)."""
        row = np.take(flat, (2 * r[:, None] + [0, 1]) * g + s[:, None], axis=0)
        return row[:, :1] * pairs[:, 0] + row[:, 1:] * pairs[:, 1]

    top = read(j + 2)
    if top.shape[1] == 1:
        with np.errstate(divide="ignore"):
            return acc + np.log(np.abs(top[:, 0])), top[:, 0]
    # axes (stop, row, column, phase); the squares in _op_norms need a scaled copy
    mats = np.stack([top, read(j + 1)], axis=1)
    scale = np.abs(mats).reshape(len(s), 4, -1).max(axis=1)
    mats /= scale[:, None, None]
    return acc + np.log(scale) + np.log(_op_norms(mats.transpose(1, 2, 0, 3))),


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
