"""Finite-scale Lyapunov exponents, the avalanche principle, and the
positivity criterion.

The central quantity is L_n(E) = (1/n) * integral of log ||M_n(x, E)||
over the phase x.  Everything here estimates that integral by sampling
(grid, single orbit, or seeded random phases), checks the avalanche
principle on a stack of matrix sequences (..., n, 2, 2) in one array
pass (about three float arrays of 32 bytes per factor), and probes the
one-scale positivity criterion: if L_ell clears the a-priori growth rate
S by a factor ell^(-sigma/4) and the drop from L_ell to L_2ell is below
L_ell/8, the limiting exponent is at least L_ell/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cocycle
from . import dynamics as dyn_mod
from .dynamics import GOLDEN_MEAN, Doubling, Dynamics
from .potential import Potential

C_GATE_DEFAULT = 100.0   # avalanche-principle gate constant
C_SCAN_DEFAULT = 5.0     # convergence-scan gate on |L_2N - L_N| vs (log N)/N
SIGMA_DEFAULT = 0.5      # positivity-probe exponent
S_GRID_SIZE = 256        # phase grid for the sup-rate estimate


@dataclass(frozen=True)
class LyapunovEstimate:
    """Sampled estimate of L_n(E) with its statistical error."""

    n: int
    mean: float
    stderr: float
    samples: int
    sampler: str


@dataclass(frozen=True)
class ApReport:
    """Outcome of the avalanche-principle check on a stack of sequences.

    ``lhs_discrepancy`` is |log||A_n...A_1|| + sum_{j=2..n-1} log||A_j||
    - sum_{j=1..n-1} log||A_{j+1}A_j|||; the principle promises it stays
    below C*n/mu whenever the hypotheses hold.  All but n, mu and bound
    run over the stack's leading axes (numpy scalars for one sequence).
    """

    n: int
    mu: float
    hyp_det_ok: np.ndarray
    hyp_large_ok: np.ndarray
    hyp_diff_ok: np.ndarray
    lhs_discrepancy: np.ndarray
    bound: float

    @property
    def hypotheses_ok(self):
        return self.hyp_det_ok & self.hyp_large_ok & self.hyp_diff_ok

    @property
    def passes(self):
        """The verdict as 1.0 or 0.0, NaN where the hypotheses fail."""
        return np.where(self.hypotheses_ok, self.lhs_discrepancy <= self.bound, np.nan)[()]


@dataclass(frozen=True)
class ScanRow:
    n: int
    mean: float
    stderr: float
    diff_2n: float
    rate: float
    flagged: bool


@dataclass(frozen=True)
class PositivityReport:
    """One-scale positivity probe: S, the two finite scales, and the verdict."""

    S: float
    l_ell: LyapunovEstimate
    l_2ell: LyapunovEstimate
    cond_initial: bool
    cond_drop: bool
    predicted_lower_bound: float | None

    @property
    def positive(self) -> bool:
        return self.predicted_lower_bound is not None


def sample_phases(dyn: Dynamics, sampler: str, m: int, seed: int = 0,
                  block: int | None = None) -> np.ndarray:
    """Starting phases for Monte Carlo / quasi Monte Carlo averages.

    sampler:
      * "grid": equispaced points offset by a golden fraction of the
        step (a square lattice with per-axis offsets when d=2), so the
        grid never resonates with the frequency.
      * "orbit": block starts T^(j*block) of a single fixed orbit; for
        the doubling map this degrades to fresh seeded phases because a
        float orbit is dyadic and collapses.
      * "random": seeded uniform draws.

    Returns an (m_actual, d) array; the grid sampler on T^2 rounds m to
    the nearest square.
    """
    if m < 1:
        raise ValueError("need at least one sample")
    d = dyn.d
    if sampler == "grid":
        if d == 1:
            return ((np.arange(m) + GOLDEN_MEAN) / m)[:, None]
        g = max(1, round(math.sqrt(m)))
        i = np.arange(g)
        ax0 = (i + GOLDEN_MEAN) / g
        ax1 = (i + math.sqrt(2.0) - 1.0) / g
        xx, yy = np.meshgrid(ax0, ax1, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])
    if sampler == "random":
        rng = np.random.default_rng(seed)
        return rng.random((m, d))
    if sampler == "orbit":
        if block is None:
            raise ValueError("orbit sampler needs the block length n")
        if isinstance(dyn, Doubling):
            # dyadic float orbits die at the fixed point; fall back to
            # fresh phases per block, which is the honest orbit average
            # for Lebesgue-typical starting points
            rng = np.random.default_rng(seed)
            return rng.random((m, d))
        x0 = dyn_mod.phase(*([GOLDEN_MEAN / 2, 1.0 / math.pi][:d]))
        return np.array([dyn_mod.iterate(dyn, x0, j * block) for j in range(m)])
    raise ValueError(f"unknown sampler {sampler!r}")


def _doubling_rng(seed: int):
    """The rng that replenishes low-order bits of doubling orbits in the kernels.

    The shift and the skew shift ignore it.
    """
    return np.random.default_rng(seed ^ 0x9E3779B9)


def finite_lyapunov(p: Potential, dyn: Dynamics, E: float, n: int,
                    sampler: str = "grid", m_samples: int = 200,
                    seed: int = 0) -> LyapunovEstimate:
    """Estimate L_n(E) by averaging (1/n) log ||M_n(x, E)|| over phases.

    The standard error is the sample standard deviation over phases
    divided by sqrt(m); with the grid sampler it overstates the true
    quasi Monte Carlo error, which is the conservative direction.
    """
    if n < 1 or m_samples < 1:
        raise ValueError("finite_lyapunov needs n >= 1 and m_samples >= 1")
    xs = sample_phases(dyn, sampler, m_samples, seed=seed, block=n)
    logs = cocycle.batched_log_norms(p, dyn, xs, E, n, rng=_doubling_rng(seed))[n]
    per = logs / n
    m = per.size
    mean = float(np.mean(per))
    stderr = float(np.std(per, ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return LyapunovEstimate(n=n, mean=mean, stderr=stderr, samples=m,
                            sampler=sampler)


def _libm(f, x) -> np.ndarray:
    """libm's f (from ``math``) on each element of x: numpy's SIMD exp and log round apart."""
    return np.asarray(np.frompyfunc(f, 1, 1)(x), dtype=float)


def _norms_and_dets(arr, scales):
    """(log norms, log pair-product norms, log |dets|, full log norm, det slack).

    ``arr`` is a stack (..., n, 2, 2) of residual factors with log scales
    ``scales`` (..., n), None for dense input.  The logs come back with
    shapes (..., n), (..., n-1), (..., n) and (...).  The full products run
    one site at a time over the whole stack, each rescaled whenever its
    norm leaves [1/2, 2], and are -inf where they reach the zero matrix.
    """
    def norms(m):
        return cocycle._op_norms(np.moveaxis(m, (-2, -1), (0, 1)))

    dense = scales is None
    scales = np.zeros(arr.shape[-3]) if dense else scales
    log_norms = scales + np.log(norms(arr))
    log_pairs = scales[..., 1:] + scales[..., :-1] + np.log(
        norms(arr[..., 1:, :, :] @ arr[..., :-1, :, :]))
    total = np.broadcast_to(np.eye(2), arr.shape[:-3] + (2, 2)).copy()
    log_total, log_extra = np.zeros(arr.shape[:-3]), 0.0
    for j in range(arr.shape[-3]):
        total = arr[..., j, :, :] @ total
        log_extra = log_extra + scales[..., j]
        nrm = norms(total)
        out = (nrm > 0.0) & ((nrm < 0.5) | (nrm > 2.0))
        log_total[out] += _libm(math.log, nrm[out])
        total[out] /= nrm[out][:, None, None]
    log_full = log_total + _libm(lambda v: math.log(v) if v else -math.inf,
                                 norms(total)) + log_extra
    if not dense:
        # transfer products have determinant 1 exactly; a flat slack covers
        # families built to sit exactly on the |det| = 1 boundary
        return log_norms, log_pairs, np.zeros(scales.shape), log_full, 1e-9
    log_dets = np.log(np.abs(arr[..., 0, 0] * arr[..., 1, 1] - arr[..., 0, 1] * arr[..., 1, 0]))
    # ad - bc read off a dense matrix cancels down to eps * ||A||^2 in
    # absolute terms, so a unit det is only resolvable to that scale
    resolution = 2.0 * log_norms + math.log(64.0 * float(np.finfo(float).eps))
    det_slack = np.maximum(np.log1p(np.exp(np.minimum(resolution, 0.7))), 1e-9)
    return log_norms, log_pairs, log_dets, log_full, det_slack


def avalanche_check(mats, mu: float) -> ApReport:
    """Check the avalanche-principle hypotheses and discrepancy.

    Hypotheses: every |det A_j| <= 1, every ||A_j|| >= mu with mu > n,
    and no adjacent cancellation, meaning log||A_{j+1}|| + log||A_j|| -
    log||A_{j+1}A_j|| stays below (1/2) log mu.  When they hold the
    discrepancy must be below C_GATE_DEFAULT * n / mu.

    ``mats`` is a stack (..., n, 2, 2) of sequences, or nested sequences
    (..., n) of ScaledProduct for factors too large to store densely; a
    sequence's report has the same bits in any stack.  Besides its input
    the check holds about three float arrays of 32 bytes per factor.
    """
    first, scales = mats, None
    while isinstance(first, (list, tuple)) and first:
        first = first[0]
    if isinstance(first, cocycle.ScaledProduct):
        recs = np.asarray(mats, dtype=object)
        arr = np.array([sp.mat for sp in recs.flat]).reshape(recs.shape + (2, 2))
        scales = np.array([sp.log_scale for sp in recs.flat]).reshape(recs.shape)
    else:
        arr = np.asarray(mats, dtype=float)
        if arr.ndim < 3 or arr.shape[-2:] != (2, 2) or not np.all(np.isfinite(arr)):
            raise ValueError("expected a stack of finite 2x2 matrices, shape (..., n, 2, 2)")
    n = arr.shape[-3]
    if n < 2:
        raise ValueError("avalanche_check needs at least two factors")
    # a zero factor or adjacent product (log norm -inf) fails a hypothesis
    with np.errstate(divide="ignore", invalid="ignore"):
        log_norms, log_pairs, log_dets, log_full, det_slack = _norms_and_dets(arr, scales)
        # hypothesis comparisons get slack in log scale: families built to
        # sit exactly on the boundary (norm exactly mu, det exactly 1) land
        # a rounding error to either side of it in floats
        hyp_det_ok = np.all(log_dets <= det_slack, axis=-1)
        hyp_large_ok = (np.min(log_norms, axis=-1) >= math.log(mu) - 1e-9) & (mu > n)
        diffs = log_norms[..., 1:] + log_norms[..., :-1] - log_pairs
        hyp_diff_ok = np.max(diffs, axis=-1) < 0.5 * math.log(mu)
        lhs = np.abs(log_full + np.sum(log_norms[..., 1:-1], axis=-1)
                     - np.sum(log_pairs, axis=-1))
    return ApReport(n=n, mu=mu, hyp_det_ok=hyp_det_ok, hyp_large_ok=hyp_large_ok,
                    hyp_diff_ok=hyp_diff_ok, lhs_discrepancy=lhs, bound=C_GATE_DEFAULT * n / mu)


def ap_extrapolate(l_k: float, l_2k: float) -> float:
    """Length-doubling extrapolation 2*L_2k - L_k of the limiting exponent."""
    return 2.0 * l_2k - l_k


def convergence_scan(p: Potential, dyn: Dynamics, E, n_list,
                     sampler: str = "grid", m_samples: int = 500,
                     seed: int = 0) -> list:
    """Track |L_2N - L_N| along a doubling chain of scales.

    All scales are read off one batched run over the same phase set
    (checkpoints of the same products), so differences are free of
    independent sampling noise.  A row is flagged when the difference
    exceeds C_SCAN_DEFAULT * (log N)/N.  E may be a 1-D array of
    energies: they then run as column groups of that one run (see
    :func:`cocycle.batched_log_norms`), and one list of rows comes back
    per energy.
    """
    n_list = [int(n) for n in n_list]
    if not n_list or any(b != 2 * a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be a doubling chain")
    scales = sorted(set(n_list) | {2 * n for n in n_list})
    xs = sample_phases(dyn, sampler, m_samples, seed=seed, block=scales[-1])
    logs = cocycle.batched_log_norms(p, dyn, xs, E, scales[-1], checkpoints=scales,
                                     rng=_doubling_rng(seed))
    if np.ndim(E):
        return [_scan_rows({k: v[i] for k, v in logs.items()}, n_list)
                for i in range(len(E))]
    return _scan_rows(logs, n_list)


def _scan_rows(logs: dict, n_list: list) -> list:
    """The ScanRows of one energy, from its {scale: log-norms over phases}."""
    m = len(logs[n_list[0]])
    means = {k: float(np.mean(v / k)) for k, v in logs.items()}
    errs = {k: (float(np.std(v / k, ddof=1) / math.sqrt(m)) if m > 1 else 0.0)
            for k, v in logs.items()}
    rows = []
    for n in n_list:
        diff = abs(means[2 * n] - means[n])
        rate = math.log(n) / n
        rows.append(ScanRow(n=n, mean=means[n], stderr=errs[n], diff_2n=diff,
                            rate=rate, flagged=diff > C_SCAN_DEFAULT * rate))
    return rows


def sup_growth_rate(p: Potential, dyn: Dynamics, E: float, ell: int,
                    seed: int = 0) -> float:
    """Estimate S = sup over x and 1 <= n <= ell of (1/n) log ||M_n(x,E)||.

    The sup over x runs over an offset grid of S_GRID_SIZE phases, every
    n a checkpoint of one batched run; the true sup can only be larger,
    which makes the positivity condition harder to satisfy, never easier
    (the conservative direction).
    """
    if ell < 1:
        raise ValueError("sup_growth_rate needs ell >= 1")
    xs = sample_phases(dyn, "grid", S_GRID_SIZE)
    logs = cocycle.batched_log_norms(p, dyn, xs, E, ell, checkpoints=range(1, ell + 1),
                                     rng=_doubling_rng(seed))
    return float(np.max([v / k for k, v in logs.items()]))


def positivity_probe(p: Potential, dyn: Dynamics, E: float, ell: int,
                     sampler: str = "grid", m_samples: int = 500,
                     seed: int = 0, sigma: float = SIGMA_DEFAULT) -> PositivityReport:
    """One-scale criterion for a positive limiting exponent.

    Conditions checked: L_ell > S * ell^(-sigma/4), and the doubling
    drop L_ell - L_2ell < L_ell / 8.  When both hold the limit exceeds
    L_ell / 2, reported as predicted_lower_bound.
    """
    if ell < 1:
        raise ValueError("positivity_probe needs ell >= 1")
    s_val = sup_growth_rate(p, dyn, E, ell, seed=seed)
    l_ell = finite_lyapunov(p, dyn, E, ell, sampler, m_samples, seed)
    l_2ell = finite_lyapunov(p, dyn, E, 2 * ell, sampler, m_samples, seed)
    cond_initial = l_ell.mean > s_val * ell ** (-sigma / 4.0)
    cond_drop = (l_ell.mean - l_2ell.mean) < l_ell.mean / 8.0
    predicted = l_ell.mean / 2.0 if (cond_initial and cond_drop) else None
    return PositivityReport(S=s_val, l_ell=l_ell, l_2ell=l_2ell,
                            cond_initial=cond_initial, cond_drop=cond_drop,
                            predicted_lower_bound=predicted)
