"""Finite-volume Hamiltonians: eigenvalue counting, IDS, Wegner-type
measures, gaps, eigenvectors, and trace-based counting inequalities.

The operator on the window [1, N] with Dirichlet boundary is the
symmetric tridiagonal matrix with diagonal lam*V(T^k x) (k = 1..N) and
off-diagonal -1.  Counting is done by Sturm pivots

    p_k = (d_k - E) - 1/p_{k-1},

whose signs reproduce the signs of the determinant ratios f_k/f_{k-1};
the number of negative pivots equals the number of eigenvalues strictly
below E.  IEEE infinities carry an exact zero pivot (1/+0 = +inf, so the
next pivot is -inf and the one after reads d - E again): this is the
exception-handling count of Demmel & Li (1994), the left limit in E, so
an eigenvalue at E is not counted and the count is monotone in E.  IDS
tables, Wegner fractions and window counts take one sweep over all
sampled phases and energies of a call, reading the site stream of
:func:`cocycle._sites` block by block with no (N, phases) table; wegner
sweeps its narrower pairs only over the phases its widest pair caught
when the map is the shift.  The sweep cuts the blocks into records of up
to 255 sites, with at most 2^17 pivots per record: one subtraction
writes d_k - E for a record, each site then costs two in-place ufuncs,
and one pass adds the record's negative pivots to the counts.
Eigenvalues come from LAPACK (``stemr`` for all, ``dstebz`` bisection
for a window), and so do eigenvectors (``stebz`` bisection, then
``stein`` inverse iteration), checked against the determinant profile.
``scipy.linalg`` is imported inside the three functions that call it,
since importing it costs more than most experiments' compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cocycle
from . import dynamics as dyn_mod
from .cocycle import _site_values
from .dynamics import Dynamics, Shift
from .potential import Potential

DELTA_GAP_DEFAULT = 0.5     # exponent in the min-gap diagnostic e^(-N^delta)
EIG_TOL_DEFAULT = 1e-10


class AmbiguousEigenvalue(ValueError):
    """The requested energy does not isolate a single eigenvalue."""


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Symmetric tridiagonal H with constant off-diagonal -1."""

    diag: np.ndarray

    def __init__(self, diag):
        object.__setattr__(self, "diag", np.asarray(diag, dtype=float))
        if self.diag.ndim != 1 or self.diag.size < 1:
            raise ValueError("diag must be a nonempty 1d array")

    @property
    def N(self) -> int:
        return self.diag.size

    def gershgorin(self) -> tuple:
        lo = float(np.min(self.diag)) - 2.0
        hi = float(np.max(self.diag)) + 2.0
        return lo, hi

    def dense(self) -> np.ndarray:
        h = np.diag(self.diag)
        off = -np.ones(self.N - 1)
        h += np.diag(off, 1) + np.diag(off, -1)
        return h

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] -= v[1:]
        out[1:] -= v[:-1]
        return out


def hamiltonian(p: Potential, dyn: Dynamics, x, N: int) -> TridiagonalHamiltonian:
    """H_[1,N](x): diagonal lam*V at the orbit sites, off-diagonal -1."""
    if N < 1:
        raise ValueError("hamiltonian needs N >= 1")
    return TridiagonalHamiltonian(_site_values(p, dyn, x, 1, N)[0])


@dataclass(frozen=True)
class IdsTable:
    energies: np.ndarray
    values: np.ndarray
    N: int
    x_samples: int


@dataclass(frozen=True)
class EigPair:
    """An eigenvalue with its unit eigenvector and quality diagnostics.

    ``det_vector`` is the Cramer-formula vector (leading and trailing
    window determinants joined at the profile peak), kept in log scale
    internally; ``collinearity`` is 1 - |<v, det_vector>| for the unit
    vectors, checked against 1e-6.
    """

    value: float
    vector: np.ndarray
    residual: float
    det_vector: np.ndarray
    collinearity: float


# pivots per record of the blocked Sturm sweep (1 MiB of float64): a
# record holds K sites with K * windows * energies at most this, and
# K <= 255 so that a record's negative pivots add up in uint8
_PIVOT_ELEMENTS = 1 << 17


def _sturm_counts(sites, energies) -> np.ndarray:
    """Negative-pivot counts, vectorized over windows and energies.

    sites: an iterable of (B, m) site blocks (at least one), B sites of
    m windows, as :func:`cocycle._sites` yields them; one window's (N,)
    sites are the one block ``[d[:, None]]``.  energies: (g,), no NaN.
    Returns (m, g) integer counts of eigenvalues strictly below each
    energy.

    The pivots run with division by zero and overflow quiet.  A zero
    pivot +0 gives 1/p = +inf, the next pivot is -inf (counted) and the
    one after reads d - E exactly: the left limit E -> E0-, monotone in E
    under monotone rounding (Demmel, Dhillon & Ren, ETNA 3, 1995).  A
    subnormal pivot's 1/p overflows to +-inf, its limit too.  A pivot
    -0.0 would flip the tie through 1/(-0.0) = -inf, and none occurs: a
    zero difference is +0 in round-to-nearest, and so is +0 - (+-0),
    except d = -0.0 at E = +0.0, which is why an energy +0.0 is swept as
    -0.0.

    Each block is cut into records of at most K <= 255 sites, with K
    times the m*g pivots of a site at most ``_PIVOT_ELEMENTS`` and K at
    most the first block's length (the longest block of a stream).  One
    broadcast subtraction writes d_k - E for a record, each site then
    takes ``q -= inv`` and ``inv = 1/q`` in place, and one ``less`` and
    a uint8 sum along the record add its negatives to the counts.  One
    record buffer serves every record, and ``inv`` carries 1/p of the
    last pivot into the next.  Only the pivot steps run with the quiet
    errstate: the blocks are drawn outside it.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    if np.isnan(energies).any():
        raise ValueError("Sturm counts need energies that are not NaN")
    energies = np.where(energies == 0.0, -0.0, energies)
    counts = None
    for block in sites:
        if counts is None:
            # the pivots are laid out (g, m) for many windows and (m, g) for
            # many energies, so each record's broadcast d - E has the longer
            # inner loop
            m, g = block.shape[1], energies.size
            by_energy = m >= g
            es = energies[:, None] if by_energy else energies
            shape = (g, m) if by_energy else (m, g)
            K = max(1, min(255, len(block), _PIVOT_ELEMENTS // max(1, m * g)))
            counts = np.zeros(shape, dtype=np.int64)
            record, neg = np.empty((K,) + shape), np.empty((K,) + shape, bool)
            # 1/p_0 = 1/inf: the first pivot is d_1 - E exactly; an empty window counts 0
            inv = np.zeros(shape)
        view = block[:, None, :] if by_energy else block[:, :, None]
        for k in range(0, len(block), K):
            chunk = view[k:k + K]
            r = record[:len(chunk)]
            np.subtract(chunk, es, out=r)
            with np.errstate(divide="ignore", over="ignore"):
                for q in r:
                    q -= inv
                    np.divide(1.0, q, out=inv)
            if len(r) == 1:
                # a one-site record (a shape wider than the budget): no reduction
                counts += np.less(r[0], 0.0, out=neg[0])
            else:
                counts += np.add.reduce(np.less(r, 0.0, out=neg[:len(r)]),
                                        axis=0, dtype=np.uint8)
    return counts.T if by_energy else counts


def sturm_count(H: TridiagonalHamiltonian, E: float) -> int:
    """Number of eigenvalues of H strictly below E."""
    return int(_sturm_counts([H.diag[:, None]], E)[0, 0])


def eigenvalues(H: TridiagonalHamiltonian, window=None,
                tol: float = EIG_TOL_DEFAULT) -> np.ndarray:
    """Eigenvalues of H in ascending order: all of them, or those in (lo, hi].

    Without a window, LAPACK's MRRR driver (``stemr``) returns the whole
    spectrum to working accuracy in one call, and tol is not used.  With
    a window, LAPACK's Sturm bisection (``dstebz``) brackets every
    eigenvalue in it to width <= tol and returns the bracket midpoints;
    an eigenvalue exactly at lo is left out and one exactly at hi is kept.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    from scipy.linalg import eigvalsh_tridiagonal
    if window is None:
        return eigvalsh_tridiagonal(H.diag, -np.ones(H.N - 1), select="a")
    lo, hi = float(window[0]), float(window[1])
    if hi <= lo:
        return np.empty(0)
    return eigvalsh_tridiagonal(H.diag, -np.ones(H.N - 1), select="v",
                                select_range=(lo, hi), tol=tol)


def _det_formula_vector(H: TridiagonalHamiltonian, E: float) -> np.ndarray:
    """Unit vector assembled from the two Cramer determinant pieces.

    At an exact eigenvalue the sequences f_[1,k-1] and f_[k+1,N] are
    both proportional to the eigenvector; numerically each is reliable
    only on its own side of the localization peak (past the peak, the
    window determinant is exponentially sensitive to the residual error
    in E).  The pieces are therefore joined at the site where their
    product, which tracks the eigenvector profile itself, is largest.
    """
    # site k reads f_[1,k-1] from the first column and f_[k+1,N] from the second
    phases, profile = cocycle._det_profile(H.diag, E)
    sign_l, log_l = phases[:-1, 0], profile[:-1, 0]
    sign_r, log_r = phases[-2::-1, 1], profile[-2::-1, 1]
    joint = log_l + log_r
    if not np.any(np.isfinite(joint)):
        raise ArithmeticError("determinant-formula vector vanished")
    c = int(np.argmax(np.where(np.isfinite(joint), joint, -math.inf)))
    shift = log_l[c] - log_r[c]
    sign_shift = sign_l[c] * sign_r[c]
    logs = np.where(np.arange(H.N) <= c, log_l, log_r + shift)
    signs = np.where(np.arange(H.N) <= c, sign_l, sign_r * sign_shift)
    top = float(np.max(logs[np.isfinite(logs)]))
    with np.errstate(under="ignore"):
        vec = signs * np.exp(np.clip(logs - top, -745.0, 0.0))
    vec[~np.isfinite(logs)] = 0.0
    nrm = np.linalg.norm(vec)
    if nrm == 0.0:
        raise ArithmeticError("determinant-formula vector vanished")
    return vec / nrm


def eigenvector(H: TridiagonalHamiltonian, E_j: float,
                tol: float = EIG_TOL_DEFAULT) -> EigPair:
    """Eigenvector for the eigenvalue within 10*tol of E_j.

    LAPACK's bisection (``stebz``) finds the eigenvalues in
    (E_j - 10 tol, E_j + 10 tol] and its inverse iteration (``stein``)
    their eigenvectors; the result is authoritative, and the
    determinant-formula vector is computed alongside and the two must
    agree in direction to 1e-6.  Raises AmbiguousEigenvalue unless
    exactly one eigenvalue lies in that window.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    from scipy.linalg import eigh_tridiagonal
    gap = 10.0 * tol
    evs, vecs = eigh_tridiagonal(H.diag, -np.ones(H.N - 1), select="v",
                                 select_range=(E_j - gap, E_j + gap))
    if evs.size > 1:
        raise AmbiguousEigenvalue(
            f"{evs.size} eigenvalues within {gap:g} of E={E_j}")
    if evs.size == 0:
        raise AmbiguousEigenvalue(f"no eigenvalue within {gap:g} of E={E_j}")
    v = vecs[:, 0]
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    resid = float(np.linalg.norm(H.apply(v) - E_j * v))
    det_vec = _det_formula_vector(H, E_j)
    if det_vec[np.argmax(np.abs(det_vec))] < 0:
        det_vec = -det_vec
    coll = 1.0 - abs(float(np.dot(v, det_vec)))
    if coll > 1e-6:
        raise ArithmeticError(
            f"determinant-formula vector deviates from the LAPACK eigenvector "
            f"(collinearity defect {coll:.3e})")
    return EigPair(value=float(E_j), vector=v, residual=resid,
                   det_vector=det_vec, collinearity=coll)


def _phases(dyn: Dynamics, N: int, x_samples: int, seed: int) -> tuple:
    """x_samples phases drawn by the seed, and the rng that goes on to
    supply the doubling noise of their site stream."""
    if N < 1 or x_samples < 1:
        raise ValueError("sampled counts need N >= 1 and x_samples >= 1")
    rng = np.random.default_rng(seed)
    return rng.random((x_samples, dyn.d)), rng


def _sampled_counts(p: Potential, dyn: Dynamics, energies, N: int,
                    x_samples: int, seed: int) -> np.ndarray:
    """Sturm counts (x_samples, g) of H_[1,N](x) at the energies, x drawn
    by the seed, from the site stream read block by block."""
    xs, rng = _phases(dyn, N, x_samples, seed)
    return _sturm_counts(cocycle._sites(p, dyn, xs, 1, N, rng), energies)


def ids(p: Potential, dyn: Dynamics, E_grid, N: int, x_samples: int,
        seed: int = 0) -> IdsTable:
    """Integrated density of states: x-averaged count/N per grid energy.

    Counts for all sampled phases and all energies come from one
    vectorized pivot sweep, so the table is monotone in E exactly
    (each per-sample count is) and no value depends on the other energies.
    """
    energies = np.asarray(E_grid, dtype=float)
    if energies.ndim != 1 or np.any(np.diff(energies) < 0):
        raise ValueError("E_grid must be a sorted 1d grid")
    counts = _sampled_counts(p, dyn, energies, N, x_samples, seed)
    values = counts.mean(axis=0) / N
    return IdsTable(energies=energies, values=values, N=N, x_samples=x_samples)


def window_count(p: Potential, dyn: Dynamics, E: float, eta: float, N: int,
                 x_samples: int, seed: int = 0) -> float:
    """Mean number of eigenvalues in (E-eta, E+eta) over sampled phases.

    The companion quantity eta*N is what a Lipschitz IDS would predict
    up to a constant; callers form the ratio.
    """
    if not eta > 0:  # a NaN fails too
        raise ValueError("eta must be positive")
    counts = _sampled_counts(p, dyn, np.array([E - eta, E + eta]), N, x_samples, seed)
    return float(np.mean(counts[:, 1] - counts[:, 0]))


def wegner_measure(p: Potential, dyn: Dynamics, E: float, H_param,
                   N: int, x_samples: int, seed: int = 0):
    """Fraction of phases whose spectrum comes within exp(-H_param) of E.

    The indicator "dist(sp H(x), E) < h" is decided by two pivot counts
    at E-h and E+h; this resolves the distance to one ulp, sharper than
    any fixed bisection depth, and differs only on the measure-zero
    event of an eigenvalue landing exactly at E+-h.  A 1d sequence of
    H_param gives an array of measures over one phase set.

    The widest pair is swept over every phase.  Counts are monotone in
    E, so a narrower pair catches only phases the widest pair caught, and
    for the shift it is swept over those alone, as the caught columns of
    a second draw of the same stream (a sub-batch's blocks could round
    apart: a product's last bits depend on its shape).  The skew shift's
    second draw would cost a cosine per site and the doubling map's its
    rng noise again, so those maps sweep every pair over every phase once.
    """
    params = np.asarray(H_param, dtype=float)
    if params.ndim > 1 or not np.all(params >= 1):  # a NaN fails too
        raise ValueError("H_param must be >= 1, or a 1d sequence of such")
    hs = np.array([math.exp(-H) for H in params.ravel()])
    pairs = np.stack([E - hs, E + hs], axis=1)
    xs, rng = _phases(dyn, N, x_samples, seed)

    def caught(pairs, cols=None):
        blocks = cocycle._sites(p, dyn, xs, 1, N, rng)
        counts = _sturm_counts(blocks if cols is None else (
            np.take(block, cols, axis=1) for block in blocks), pairs.ravel())
        return (counts[:, 1::2] - counts[:, ::2]) > 0

    if isinstance(dyn, Shift):
        wide = int(np.argmax(hs))
        rest = np.arange(hs.size) != wide
        hit = caught(pairs[[wide]])[:, 0]
        within = np.zeros((x_samples, hs.size), bool)
        within[:, wide] = hit
        if hit.any() and rest.any():
            within[np.ix_(hit, rest)] = caught(pairs[rest], np.flatnonzero(hit))
    else:
        within = caught(pairs)
    measures = np.mean(within, axis=0)
    return float(measures[0]) if params.ndim == 0 else measures


def min_gap(p: Potential, dyn: Dynamics, x, N: int, window=None,
            tol: float = 1e-13) -> float:
    """Smallest spacing between consecutive eigenvalues of H_[1,N](x).

    Returns +inf when fewer than two eigenvalues fall in the window
    (in particular for N = 1).  The e^(-N^delta) reference line for the
    default delta is left to callers plotting the diagnostics.
    """
    H = hamiltonian(p, dyn, x, N)
    evs = eigenvalues(H, window=window, tol=tol)
    if evs.size < 2:
        return math.inf
    return float(np.min(np.diff(evs)))


def hellmann_feynman(p: Potential, dyn: Dynamics, x, j: int, N: int,
                     h: float = 1e-6) -> tuple:
    """Phase derivative of the j-th eigenvalue, two independent ways.

    analytic: sum over sites of (lam V)'(x + k omega) |psi_j(k)|^2 with
    (lam V)' the potential ``p.derivative()`` and psi_j from
    :func:`eigenvector`; fd: central difference of the index-j eigenvalue
    under x -> x +- h, with h cut to 1% of the neighbour gap over
    sup|(lam V)'| (that potential's ``sup_bound``) when that is smaller.
    Shift dynamics only (skew-shift and doubling phases do not translate
    linearly).
    """
    if not isinstance(dyn, Shift):
        raise ValueError("hellmann_feynman needs the shift")
    if not (0 <= j < N):
        raise ValueError("eigenvalue index out of range")
    H = hamiltonian(p, dyn, x, N)
    evs = eigenvalues(H)
    E_j = float(evs[j])
    neighbor_gap = min(
        E_j - evs[j - 1] if j > 0 else math.inf,
        evs[j + 1] - E_j if j + 1 < N else math.inf)
    if neighbor_gap < 1e-8:
        raise AmbiguousEigenvalue(
            f"eigenvalue {j} is {neighbor_gap:.2e} from its neighbor")
    pair = eigenvector(H, E_j)
    dp = p.derivative()
    analytic = float(np.sum(_site_values(dp, dyn, x, 1, N)[0] * pair.vector ** 2))
    x0 = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
    # every eigenvalue moves at most sup|(lam V)'| per unit of phase; keep
    # that move within 1% of the neighbour gap so the index-j branch
    # cannot swap inside the difference
    slope = dp.sup_bound()
    if slope > 0.0:
        h = min(h, 1e-2 * neighbor_gap / slope)

    from scipy.linalg import eigvalsh_tridiagonal

    def ej_at(xs: float) -> float:
        Hs = hamiltonian(p, dyn, dyn_mod.phase(xs), N)
        return float(eigvalsh_tridiagonal(Hs.diag, -np.ones(N - 1), select="i",
                                          select_range=(j, j))[0])

    fd = (ej_at(x0 + h) - ej_at(x0 - h)) / (2.0 * h)
    return analytic, fd


# ---------------------------------------------------------------------------
# trace-based counting inequalities


@dataclass(frozen=True)
class ConcatenationReport:
    """Outcome of the norm-ratio counting bound on one instance.

    ``bound`` is 4*eta*sum_k W_k with W_k the window norm ratio
    ||M_[1,k]|| ||M_[k+1,N]|| / ||M_[1,N]|| at E+i*eta.  The count over
    the maximizing determinant window must not exceed it at all; the
    count over the full window gets slack 2 from eigenvalue
    interlacing.
    """

    N: int
    eta: float
    window: tuple
    count_window: int
    count_full: int
    bound: float
    ok_window: bool
    ok_full: bool
    trace_lhs: float | None
    trace_rhs: float | None
    ok_trace: bool | None


def trace_moment_lower_bound(A: np.ndarray, E: float, eta: float,
                             basis: np.ndarray | None = None) -> tuple:
    """Both sides of the diagonal-Green moment inequality.

    For Hermitian A with spectral data (E_j, Psi_j) and any orthonormal
    basis e_k, the sum of |((A-E-i eta)^{-1} e_k, e_k)|^2 dominates
    sum_j (sum_k |<e_k, Psi_j>|^4) * (Im (E_j - E - i eta)^{-1})^2.
    Returns (lhs, rhs).
    """
    A = np.asarray(A)
    n = A.shape[0]
    evals, evecs = np.linalg.eigh(A)
    G = np.linalg.inv(A - (E + 1j * eta) * np.eye(n))
    if basis is None:
        diag = np.abs(np.diag(G)) ** 2
        overlap4 = np.sum(np.abs(evecs) ** 4, axis=0)
    else:
        diag = np.abs(np.einsum("ki,ij,jk->k", basis.conj().T, G, basis)) ** 2
        ov = np.abs(basis.conj().T @ evecs) ** 2
        overlap4 = np.sum(ov ** 2, axis=0)
    lhs = float(np.sum(diag))
    im_inv = eta / ((evals - E) ** 2 + eta ** 2)
    rhs = float(np.sum(overlap4 * im_inv ** 2))
    return lhs, rhs


def concatenation_bound_check(p: Potential, dyn: Dynamics, x, E: float,
                              eta: float, N: int) -> ConcatenationReport:
    """Check the eigenvalue-count bound 4*eta*sum W_k on one instance.

    One two-column :func:`cocycle._recur` pass at E+i*eta, over the sites
    and their reversal, gives every prefix norm ||M_[1,k]|| and suffix
    norm ||M_[k+1,N]||: transfer factors satisfy A^T = P A P with
    P = diag(1, -1), so ||M_[k+1,N]|| = ||A_{k+1} ... A_N|| is a prefix
    norm of the reversed sites.  Its final product
    M_[1,N] = [[f_[1,N], -f_[2,N]], [f_[1,N-1], -f_[2,N-1]]] holds the
    four candidate determinant windows [a, N-b+1], a, b in {1, 2}; the one
    maximizing |f| is chosen (ties to the larger (a, b)).  The count of
    its eigenvalues in (E-eta, E+eta) must be at most the W-sum bound
    with no slack, and the full-window count at most bound + 2.  For
    N <= 200 the dense trace inequality is evaluated as well.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    diag_full = _site_values(p, dyn, x, 1, N)[0]
    prefix = np.zeros(N + 1)
    suffix = np.zeros(N + 1)

    def visit(ks, logs):
        prefix[ks], suffix[N - ks] = logs.T

    cur, prev, log_acc = cocycle._recur(
        p.sup_bound(), complex(E, eta), [np.stack([diag_full, diag_full[::-1]], axis=1)],
        2, 2, range(1, N + 1), visit)
    log_w = prefix[1:] + suffix[1:] - prefix[N]         # k = 1..N
    top = float(np.max(log_w))
    bound = 4.0 * eta * math.exp(top) * float(np.sum(np.exp(log_w - top)))

    # f_[a,N-b+1] for (a, b) = (1, 1), (2, 1), (1, 2), (2, 2), from column 0
    dets = [cur[0, 0], -cur[1, 0], prev[0, 0], -prev[1, 0]]
    with np.errstate(divide="ignore"):
        log_f = log_acc[0] + np.log(np.abs(dets))
    _, a_best, b_best = max(zip(log_f, (1, 2, 1, 2), (1, 1, 2, 2)))
    sub = diag_full[a_best - 1: N - b_best + 1]
    cw = _sturm_counts([sub[:, None]], [E - eta, E + eta])[0]
    count_window = int(cw[1] - cw[0])
    cf = _sturm_counts([diag_full[:, None]], [E - eta, E + eta])[0]
    count_full = int(cf[1] - cf[0])

    trace_lhs = trace_rhs = ok_trace = None
    if N <= 200:
        H = TridiagonalHamiltonian(diag_full)
        trace_lhs, trace_rhs = trace_moment_lower_bound(H.dense(), E, eta)
        ok_trace = trace_lhs >= trace_rhs * (1.0 - 1e-12) - 1e-300
    return ConcatenationReport(
        N=N, eta=eta, window=(a_best, N - b_best + 1),
        count_window=count_window, count_full=count_full, bound=bound,
        ok_window=count_window <= bound + 1e-9,
        ok_full=count_full <= bound + 2.0 + 1e-9,
        trace_lhs=trace_lhs, trace_rhs=trace_rhs, ok_trace=ok_trace)
