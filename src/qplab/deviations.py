"""Large-deviation, oscillation, and Fourier statistics for log-norms.

The quantities under study are u_n(x) = log||M_n(x, E)|| and the
determinant variant log|f_n(x, E)|.  Everything here is empirical: the
functions draw (or accept) samples of u_n over the phase space and
report tail fractions, dyadic mean oscillation, Fourier magnitudes, and
deviations of ergodic shift sums.  Nothing fits decay exponents; the
callers get curves and decide what to read off them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cocycle
from .dynamics import Dynamics, _fracmuls, mod1
from .lyapunov import _doubling_rng, sample_phases
from .potential import Potential

C_RHO_DEFAULT = 10.0
MIN_BMO_GRID = 256
MIN_BMO_BLOCK = 8

STATISTICS = ("transfer_norm", "det")


@dataclass(frozen=True)
class DeviationProfile:
    """Tail fraction of |u_n - n*L_hat| above a threshold.

    ``measure`` is the empirical fraction over ``x_samples`` phases,
    with L_hat the sample mean of u_n/n from the same draw, so repeated
    calls with one seed and growing thresholds are exactly monotone.
    """

    n: int
    threshold: float
    measure: float
    x_samples: int
    statistic: str


@dataclass(frozen=True)
class BmoEstimate:
    """Dyadic mean-oscillation proxy for the BMO norm of a grid sample.

    value = max over dyadic subintervals (down to MIN_BMO_BLOCK points)
    of the mean absolute deviation from the interval mean.  The true
    BMO sup over arbitrary intervals exceeds this by at most a bounded
    factor, which is why it is reported as a proxy and never asserted
    against analytic BMO values.
    """

    value: float
    grid_size: int
    max_interval_level: int


@dataclass(frozen=True)
class FourierMode:
    """One reported mode: |u_hat(nu)| and the decay ratio |u_hat|*nu/n."""

    nu: int
    amplitude: float
    ratio: float


@dataclass(frozen=True)
class ShiftSumReport:
    """Deviation statistics for ergodic sums S_n(x) = sum u(x - k*omega)."""

    n: int
    x_samples: int
    rows: tuple
    mean_abs_dev: float


def _statistic_samples(p: Potential, dyn: Dynamics, E, n: int,
                       x_samples: int, statistic: str, seed: int) -> np.ndarray:
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    xs = sample_phases(dyn, "random", x_samples, seed)
    noise = _doubling_rng(seed)
    if statistic == "transfer_norm":
        out = cocycle.batched_log_norms(p, dyn, xs, E, n, (n,), rng=noise)
    else:
        out = cocycle.batched_log_absdet(p, dyn, xs, E, n, (n,), rng=noise)
    return out[n]


def deviation_curve(p: Potential, dyn: Dynamics, E, n: int,
                    thresholds: Sequence[float], x_samples: int,
                    statistic: str = "transfer_norm", seed: int = 0) -> list:
    """Empirical measures of {x : |u_n(x) - n*L_hat_n| > t}, one per threshold t.

    All thresholds read one shared sample set, and L_hat_n is
    self-normalized: the mean of u_n/n over those same phases.
    """
    for t in thresholds:
        if not t > 0.0:
            raise ValueError("thresholds must be positive")
    u = _statistic_samples(p, dyn, E, n, x_samples, statistic, seed)
    dev = np.abs(u - np.mean(u))
    return [DeviationProfile(n=n, threshold=float(t),
                             measure=float(np.mean(dev > t)),
                             x_samples=x_samples, statistic=statistic)
            for t in thresholds]


def _bmo_values(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 2 and arr.shape[1] == 2:
        xs = arr[:, 0]
        gaps = np.diff(xs)
        if gaps.size and (np.max(gaps) - np.min(gaps)) > 1e-9:
            raise ValueError("sample grid is not uniform")
        return np.ascontiguousarray(arr[:, 1])
    if arr.ndim != 1:
        raise ValueError("expected values on a grid or (x, u) pairs")
    return arr


def bmo_estimate(samples) -> BmoEstimate:
    """Max dyadic mean-oscillation of a uniform-grid sample.

    Accepts a 1-D array of values or an (M, 2) array of (x, u) pairs.
    The grid size must be a power of two, at least MIN_BMO_GRID, so the
    dyadic blocks tile it exactly at every level.
    """
    u = _bmo_values(samples)
    m = u.size
    if m < MIN_BMO_GRID or m & (m - 1):
        raise ValueError(f"grid size must be a power of two >= {MIN_BMO_GRID}, got {m}")
    if np.min(u) == np.max(u):
        levels = int(math.log2(m // MIN_BMO_BLOCK))
        return BmoEstimate(value=0.0, grid_size=m, max_interval_level=levels)
    best = 0.0
    level = 0
    block = m
    while block >= MIN_BMO_BLOCK:
        rows = u.reshape(m // block, block)
        osc = np.mean(np.abs(rows - np.mean(rows, axis=1, keepdims=True)), axis=1)
        best = max(best, float(np.max(osc)))
        level += 1
        block //= 2
    return BmoEstimate(value=best, grid_size=m, max_interval_level=level - 1)


def fourier_decay(samples, K: int, n: float = 1.0) -> list:
    """Magnitudes of the first K Fourier modes with decay ratios.

    samples: values of u on a uniform grid of size M >= 2K+2 (an offset
    grid is fine, magnitudes do not see it).  The coefficient convention
    is u_hat(nu) = (1/M) sum_j u(x_j) e(-nu x_j), so a pure cosine of
    unit height reports amplitude 1/2 at nu = 1.  ``ratio`` is
    |u_hat(nu)| * nu / n for the caller's scale n.
    """
    u = _bmo_values(samples)
    M = u.size
    if K < 1:
        raise ValueError("K must be >= 1")
    if M < 2 * K + 2:
        raise ValueError(f"grid of size {M} cannot resolve {K} modes; need >= {2 * K + 2}")
    coeffs = np.fft.rfft(u) / M
    out = []
    for nu in range(1, K + 1):
        amp = float(abs(coeffs[nu]))
        out.append(FourierMode(nu=nu, amplitude=amp, ratio=amp * nu / n))
    return out


def shift_sum_deviation(u_grid, omega: float, n: int, x_samples: int,
                        deltas: Sequence[float], seed: int = 0) -> ShiftSumReport:
    """Tail fractions of |S_n(x) - n<u>| for S_n(x) = sum_{k=1..n} u(x - k*omega).

    u_grid holds values of u on a uniform periodic grid (the caller is
    responsible for the grid being fine enough that linear interpolation
    is accurate); <u> is the grid mean, which on a uniform periodic grid
    is the trapezoid value.  Each delta reports the empirical measure of
    {x : |S_n(x) - n<u>| > delta * n} over seeded uniform phases.
    """
    u = np.asarray(u_grid, dtype=float)
    if u.ndim != 1 or u.size < 2:
        raise ValueError("u_grid must be a 1-D array of at least two values")
    M = u.size
    mean_u = float(np.mean(u))
    rng = np.random.default_rng(seed)
    xs = rng.random(x_samples)
    total = np.zeros(x_samples)
    chunk = 2048
    for k0 in range(1, n + 1, chunk):
        # x - k omega from the exact frac(k omega), as every site path forms it
        pos = mod1(xs[:, None] - _fracmuls(range(k0, min(k0 + chunk, n + 1)), omega))
        scaled = pos * M
        idx = scaled.astype(np.int64)
        frac = scaled - idx
        nxt = (idx + 1) % M
        total += np.sum(u[idx] * (1.0 - frac) + u[nxt] * frac, axis=1)
    dev = np.abs(total - n * mean_u)
    rows = tuple((float(d), float(np.mean(dev > d * n))) for d in deltas)
    return ShiftSumReport(n=n, x_samples=x_samples, rows=rows,
                          mean_abs_dev=float(np.mean(dev)))


def split_bound_check(eps0: float, eps1: float, n_riesz: float,
                      c_rho: float = C_RHO_DEFAULT) -> float:
    """BMO bound C_rho * (eps0 + sqrt(n_riesz * eps1)) for a split u = u0 + u1.

    eps0 bounds the sup deviation of the smooth part, eps1 the L1 norm
    of the singular part, n_riesz its Riesz mass.  The constant depends
    only on the harmonic-extension radius, collapsed here into c_rho.
    """
    if eps0 < 0 or eps1 < 0 or n_riesz < 0:
        raise ValueError("split bound inputs must be nonnegative")
    return c_rho * (eps0 + math.sqrt(n_riesz * eps1))
