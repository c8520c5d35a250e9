"""Finite-volume Hamiltonians: eigenvalue counting, IDS, Wegner-type
measures, gaps, eigenvectors, and trace-based counting inequalities.

The operator on the window [1, N] with Dirichlet boundary is the
symmetric tridiagonal matrix with diagonal lam*V(T^k x) (k = 1..N) and
off-diagonal -1.  Counting is done by Sturm pivots

    p_k = (d_k - E) - 1/p_{k-1},

whose signs reproduce the signs of the determinant ratios f_k/f_{k-1};
the number of negative pivots equals the number of eigenvalues strictly
below E.  IDS tables, Wegner fractions and window counts take one sweep
over all sampled phases and energies of a call.  The sweep runs the
sites in blocks of up to 255, with at most 2^17 pivots per block: one
subtraction writes d_k - E for a whole block into a reused record, each
site then costs two in-place ufuncs, and one pass adds the block's
negative pivots to the counts.  The sweep runs with division by zero
raising, so the first division by an exact zero pivot flags its block,
which is rerun with the zero nudged at every site; the nudge is one
value per table, read from max(max d, -min d).  The counts equal those
of a per-site sweep.  Eigenvalues come from
LAPACK (``stemr`` for all, ``dstebz`` bisection for a window).
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

    def norm_bound(self) -> float:
        """Gershgorin bound on the spectral radius."""
        return float(np.max(np.abs(self.diag))) + 2.0

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
# block holds K sites with K * windows * energies at most this, and
# K <= 255 so that a block's negative pivots add up in uint8
_PIVOT_ELEMENTS = 1 << 17


def _sturm_counts(diags: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Negative-pivot counts, vectorized over rows of diags and energies.

    diags: (m, N); energies: (g,).  Returns (m, g) integer counts of
    eigenvalues strictly below each energy.  Exact zero pivots are
    nudged to +(max|d| + 2)*2^-52, one value for the whole table, which
    resolves the tie the same way for every window (an eigenvalue
    exactly at E is not counted); max|d| is read as max(max d, -min d),
    with no |d| copy of the table.

    The sites run in blocks of K <= 255, with K times the m*g pivots of a
    site at most ``_PIVOT_ELEMENTS``.  One broadcast subtraction writes
    d_k - E for the whole block into a (K, ...) record, each site then
    takes ``q -= 1/p`` in place, and one ``less`` and a uint8 sum along
    the block add the block's negatives to the counts.  The sweep runs
    with division by zero raising: an exact zero pivot is divided by at
    the next site, in its own block or as the next block's start pivot,
    so the block that divides by it is written again and rerun with the
    zero start pivot nudged and the nudge at every site.  The counts are
    then those of a per-site sweep that nudges as it goes (a zero on the
    window's last site counts the same either way).  Two records
    alternate, and a block starts from the last pivot of the other one.
    """
    diags = np.atleast_2d(np.asarray(diags, dtype=float))
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    top = np.maximum(np.max(diags, initial=0.0), -np.min(diags, initial=0.0))
    pivmin = (float(top) + 2.0) * 2.0 ** -52
    # the pivots are laid out (g, m) for many windows and (m, g) for many
    # energies, so each block's broadcast d - E has the longer inner loop
    by_energy = diags.shape[0] >= energies.size
    sites = diags.T[:, None, :] if by_energy else diags.T[:, :, None]
    energies = energies[:, None] if by_energy else energies
    shape = np.broadcast_shapes(sites.shape[1:], energies.shape)
    K = max(1, min(255, sites.shape[0], _PIVOT_ELEMENTS // max(1, math.prod(shape))))
    counts = np.zeros(shape, dtype=np.int64)
    records = np.empty((2, K) + shape)
    # p_0 = inf makes the first pivot d_1 - E exactly; an empty window counts 0
    records[1, -1] = np.inf
    inv, neg = np.empty(shape), np.empty((K,) + shape, bool)

    def sweep(r, p, block, exact):
        np.subtract(block, energies, out=r)
        for q in r:
            q -= np.divide(1.0, p, out=inv)
            if exact:
                q[q == 0.0] = pivmin
            p = q

    # 1/p of a subnormal pivot overflows to inf, the recurrence's limit
    with np.errstate(divide="raise", over="ignore"):
        for b, k in enumerate(range(0, sites.shape[0], K)):
            block = sites[k:k + K]
            r, start = records[b % 2, :len(block)], records[1 - b % 2, -1]
            try:
                sweep(r, start, block, False)
            except FloatingPointError:
                start[start == 0.0] = pivmin
                sweep(r, start, block, True)
            if K == 1:
                # a shape wider than the budget: no reduction per site
                counts += np.less(r[0], 0.0, out=neg[0])
            else:
                counts += np.add.reduce(np.less(r, 0.0, out=neg[:len(r)]),
                                        axis=0, dtype=np.uint8)
    return counts.T if by_energy else counts


def sturm_count(H: TridiagonalHamiltonian, E: float) -> int:
    """Number of eigenvalues of H strictly below E."""
    return int(_sturm_counts(H.diag[None, :], np.array([E]))[0, 0])


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
                tol: float = EIG_TOL_DEFAULT, seed: int = 0) -> EigPair:
    """Eigenvector for the eigenvalue within tol of E_j.

    Inverse iteration (three banded solves from a seeded random start)
    is the authoritative result; the determinant-formula vector is
    computed alongside and the two must agree in direction to 1e-6.
    Raises AmbiguousEigenvalue when more than one eigenvalue lives
    within 10*tol of E_j, or none does.
    """
    gap = 10.0 * tol
    ends = _sturm_counts(H.diag[None, :], np.array([E_j - gap, E_j + gap]))[0]
    inside = int(ends[1] - ends[0])
    if inside > 1:
        raise AmbiguousEigenvalue(
            f"{inside} eigenvalues within {gap:g} of E={E_j}")
    if inside == 0:
        raise AmbiguousEigenvalue(f"no eigenvalue within {gap:g} of E={E_j}")
    from scipy.linalg import solve_banded
    N = H.N
    ab = np.zeros((3, N))
    ab[0, 1:] = -1.0
    ab[1, :] = H.diag - E_j
    ab[2, :-1] = -1.0
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(N)
    v /= np.linalg.norm(v)
    # N = 1: v = +-1 already; solve_banded would divide by the zero pivot
    for _ in range(3 if N > 1 else 0):
        try:
            v = solve_banded((1, 1), ab, v)
        except np.linalg.LinAlgError:
            # exactly singular shift: nudge by one ulp of the norm scale
            ab[1, :] += H.norm_bound() * 2.0 ** -50
            v = solve_banded((1, 1), ab, v)
        v /= np.linalg.norm(v)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    resid = float(np.linalg.norm(H.apply(v) - E_j * v))
    det_vec = _det_formula_vector(H, E_j)
    if det_vec[np.argmax(np.abs(det_vec))] < 0:
        det_vec = -det_vec
    coll = 1.0 - abs(float(np.dot(v, det_vec)))
    if coll > 1e-6:
        raise ArithmeticError(
            f"determinant-formula vector deviates from inverse iteration "
            f"(collinearity defect {coll:.3e})")
    return EigPair(value=float(E_j), vector=v, residual=resid,
                   det_vector=det_vec, collinearity=coll)


def _sampled_counts(p: Potential, dyn: Dynamics, energies: np.ndarray, N: int,
                    x_samples: int, seed: int) -> np.ndarray:
    """Sturm counts (x_samples, g) of H_[1,N](x) at the energies, x drawn by the seed.

    One rng draws the phases and then supplies the doubling noise.
    """
    if N < 1 or x_samples < 1:
        raise ValueError("sampled counts need N >= 1 and x_samples >= 1")
    rng = np.random.default_rng(seed)
    xs = rng.random((x_samples, dyn.d))
    return _sturm_counts(_site_values(p, dyn, xs, 1, N, rng), energies)


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
    if eta <= 0:
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
    H_param gives an array of measures over one phase set, in one sweep.

    Every pair is swept over every window.  A narrower pair cannot skip
    the windows a wider one missed: the nudge of an exact zero pivot
    makes the computed count non-monotone in E at that tie, so a
    narrower pair may catch a window the wider pair does not.
    """
    params = np.asarray(H_param, dtype=float)
    if params.ndim > 1 or not np.all(params >= 1):  # a NaN fails too
        raise ValueError("H_param must be >= 1, or a 1d sequence of such")
    hs = np.array([math.exp(-H) for H in params.ravel()])
    counts = _sampled_counts(p, dyn, np.stack([E - hs, E + hs], axis=1).ravel(),
                             N, x_samples, seed)
    measures = np.mean((counts[:, 1::2] - counts[:, ::2]) > 0, axis=0)
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
    the eigenvector from inverse iteration; fd: central difference of
    the index-j eigenvalue under x -> x +- h, with h cut to 1% of the
    neighbour gap over sup|(lam V)'| when that is smaller.  Shift
    dynamics only (skew-shift and doubling phases do not translate
    linearly).
    """
    if not isinstance(dyn, Shift) or dyn.d != 1:
        raise ValueError("hellmann_feynman needs the 1d shift")
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
    # (lam V)' is the trigonometric polynomial with coefficients 2 pi i k v(k)
    slopes = Potential({k: 2j * math.pi * k * v for k, v in p.coeffs}, lam=p.lam)
    analytic = float(np.sum(_site_values(slopes, dyn, x, 1, N)[0] * pair.vector ** 2))
    x0 = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
    # every eigenvalue moves at most sup|(lam V)'| per unit of phase; keep
    # that move within 1% of the neighbour gap so the index-j branch
    # cannot swap inside the difference
    slope = abs(p.lam) * 2.0 * math.pi * float(np.sum(np.abs(p._ks * p._vs)))
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
    cw = _sturm_counts(sub[None, :], np.array([E - eta, E + eta]))[0]
    count_window = int(cw[1] - cw[0])
    cf = _sturm_counts(diag_full[None, :], np.array([E - eta, E + eta]))[0]
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
