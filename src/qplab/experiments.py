"""Named experiments behind the command-line runner.

Each experiment turns a parameter dictionary into an ordered list of
self-contained task closures.  The runner maps the tasks over a worker
pool and concatenates the returned row tuples in task order, so the
emitted table never depends on the thread count.  Randomness inside a
task comes only from a seed hashed out of (root seed, experiment name,
task index); parallel scheduling cannot reorder draws.

Tasks raise ValueError for parameter problems (a configuration error)
and let arithmetic failures from the library propagate (a numeric
error); the CLI maps the two onto different exit codes.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cocycle
from . import deviations as dv
from . import lyapunov as ly
from . import spectrum as sp
from . import zeros as zr
from .dynamics import Dynamics, Shift, SkewShift
from .potential import Potential

MAX_ZERO_RETRIES = 5


def task_seed(root_seed: int, experiment: str, index: int) -> int:
    """Per-task seed from hashing, stable across platforms and pools."""
    text = f"{root_seed}:{experiment}:{index}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: doc line, CSV columns, task builder."""

    doc: str
    columns: tuple
    prepare: Callable


_MISSING = object()


def _param(grid: dict, key: str, default=_MISSING):
    if key in grid:
        return grid[key]
    if default is _MISSING:
        raise ValueError(f"experiment parameter {key!r} is required")
    return default


def _check_keys(grid: dict, allowed: set) -> None:
    unknown = set(grid) - allowed
    if unknown:
        raise ValueError(
            f"unknown experiment parameters {sorted(unknown)}; "
            f"this experiment takes {sorted(allowed)}")


def _energy_grid(spec) -> np.ndarray:
    """Energy list, or a {start, stop, count} range, as a float array."""
    if isinstance(spec, dict):
        extra = set(spec) - {"start", "stop", "count"}
        if extra:
            raise ValueError(f"energy range takes start/stop/count, got {sorted(extra)}")
        grid = np.linspace(float(spec["start"]), float(spec["stop"]),
                           int(spec["count"]))
    else:
        grid = np.atleast_1d(np.asarray(spec, dtype=float))
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("energy grid must be a nonempty list or range")
    return grid


def _int_list(spec, name: str) -> list:
    values = [int(v) for v in np.atleast_1d(spec)]
    if not values or any(v < 1 for v in values):
        raise ValueError(f"{name} must be a nonempty list of positive integers")
    return values


def _require_positive(experiment: str, **counts) -> None:
    """Reject a count below 1, which would leave a grid or a sample set empty."""
    if any(v < 1 for v in counts.values()):
        raise ValueError(f"{experiment} needs " + " and ".join(f"{k} >= 1" for k in counts))


def _require_shift1(dyn: Dynamics, experiment: str) -> float:
    if not isinstance(dyn, Shift) or dyn.d != 1:
        raise ValueError(f"{experiment} needs one-dimensional shift dynamics")
    return float(dyn.omega[0])


def _phase_line(dyn: Dynamics, m: int) -> np.ndarray:
    if dyn.d != 1:
        raise ValueError("phase-grid statistics need one-dimensional dynamics")
    return np.arange(m, dtype=float) / m


def _grid_statistic(p: Potential, dyn: Dynamics, E: float, n: int, m: int,
                    statistic: str, seed: int) -> np.ndarray:
    """log|f_n| or log||M_n|| over the uniform phase grid of size m."""
    xs = _phase_line(dyn, m)
    rng = ly._doubling_rng(seed)
    if statistic == "det":
        return cocycle.batched_log_absdet(p, dyn, xs, E, n, rng=rng)[n]
    if statistic == "transfer_norm":
        return cocycle.batched_log_norms(p, dyn, xs, E, n, rng=rng)[n]
    raise ValueError(f"statistic must be one of {dv.STATISTICS}, got {statistic!r}")


# ---------------------------------------------------------------------------
# experiment preparers, one per registry entry


def _prep_lyapunov_scan(p, dyn, grid, seed):
    """One task per energy, or one task for all of them on a shared phase set.

    The grid sampler under a shift or skew shift gives every energy the
    same phases and no rng, so all energies then run as one
    ``convergence_scan`` pass.  The doubling map and the random and orbit
    samplers draw per-task phases or rng streams, so each energy keeps
    its own task and seed.
    """
    _check_keys(grid, {"E", "n_list", "m_samples", "sampler"})
    energies = _energy_grid(_param(grid, "E"))
    n_list = _int_list(_param(grid, "n_list", [250, 500, 1000, 2000]), "n_list")
    m_samples = int(_param(grid, "m_samples", 300))
    sampler = str(_param(grid, "sampler", "grid"))

    def make(i, Es):
        s = task_seed(seed, "lyapunov_scan", i)

        def task():
            scans = ly.convergence_scan(p, dyn, Es, n_list, sampler=sampler,
                                        m_samples=m_samples, seed=s)
            return [(r.n, float(E), r.mean, r.stderr, r.diff_2n, math.log(r.n) / r.n)
                    for E, scan in zip(Es, scans) for r in scan]
        return task

    if sampler == "grid" and isinstance(dyn, (Shift, SkewShift)):
        return [make(0, energies)]
    return [make(i, energies[i:i + 1]) for i in range(energies.size)]


def _prep_positivity_probe(p, dyn, grid, seed):
    _check_keys(grid, {"E", "ell", "m_samples", "sampler", "sigma"})
    energies = _energy_grid(_param(grid, "E"))
    ell = int(_param(grid, "ell", 32))
    m_samples = int(_param(grid, "m_samples", 500))
    sampler = str(_param(grid, "sampler", "grid"))
    sigma = float(_param(grid, "sigma", 0.5))

    def make(i, E):
        s = task_seed(seed, "positivity_probe", i)

        def task():
            rep = ly.positivity_probe(p, dyn, E, ell, sampler=sampler,
                                      m_samples=m_samples, seed=s, sigma=sigma)
            lower = rep.predicted_lower_bound
            return [(E, ell, rep.S, rep.l_ell.mean, rep.l_ell.stderr,
                     rep.l_2ell.mean, int(rep.cond_initial),
                     int(rep.cond_drop),
                     float("nan") if lower is None else lower)]
        return task

    return [make(i, float(E)) for i, E in enumerate(energies)]


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _prep_avalanche_fuzz(p, dyn, grid, seed):
    _check_keys(grid, {"trials", "n", "mu", "rot", "chunk"})
    trials = int(_param(grid, "trials", 200))
    n = int(_param(grid, "n", 50))
    mu = float(_param(grid, "mu", 1e4))
    rot = float(_param(grid, "rot", 0.1))
    chunk = int(_param(grid, "chunk", 50))
    if trials < 1 or n < 2 or chunk < 1:
        raise ValueError("avalanche_fuzz needs trials >= 1, n >= 2, chunk >= 1")

    def make(ci, lo, hi):
        s = task_seed(seed, "avalanche_fuzz", ci)

        def task():
            rng = np.random.default_rng(s)
            rows = []
            for trial in range(lo, hi):
                mats = []
                for _ in range(n):
                    stretch = mu * math.exp(rng.uniform(0.0, 0.5))
                    left = _rotation(2.0 * math.pi * rng.uniform(-rot, rot))
                    right = _rotation(2.0 * math.pi * rng.uniform(-rot, rot))
                    mats.append(left @ np.diag([stretch, 1.0 / stretch]) @ right)
                rep = ly.avalanche_check(mats, mu)
                verdict = float("nan") if rep.passes is None else int(rep.passes)
                rows.append((trial, n, mu, rep.lhs_discrepancy, rep.bound,
                             int(rep.hypotheses_ok), verdict))
            return rows
        return task

    starts = list(range(0, trials, chunk))
    return [make(ci, lo, min(lo + chunk, trials)) for ci, lo in enumerate(starts)]


def _prep_ids(p, dyn, grid, seed):
    """One task: one pivot sweep over the whole grid.  ``chunk`` (>= 1) is
    accepted but no longer splits the grid, which only repeated the sweep."""
    _check_keys(grid, {"E", "N", "x_samples", "chunk"})
    energies = _energy_grid(_param(grid, "E"))
    N = int(_param(grid, "N", 1000))
    x_samples = int(_param(grid, "x_samples", 8))
    if int(_param(grid, "chunk", 64)) < 1:
        raise ValueError("chunk must be >= 1")
    s = task_seed(seed, "ids", 0)

    def task():
        table = sp.ids(p, dyn, energies, N, x_samples, seed=s)
        return [(float(E), N, float(v), x_samples)
                for E, v in zip(table.energies, table.values)]

    return [task]


def _prep_holder_scan(p, dyn, grid, seed):
    _check_keys(grid, {"E", "h_list", "N", "x_samples"})
    energies = _energy_grid(_param(grid, "E"))
    h_list = sorted({float(h) for h in _param(grid, "h_list", [0.1, 0.03, 0.01])},
                    reverse=True)
    if not h_list or h_list[-1] <= 0:
        raise ValueError("h_list must contain positive widths")
    N = int(_param(grid, "N", 1000))
    x_samples = int(_param(grid, "x_samples", 8))
    s = task_seed(seed, "holder_scan", 0)

    def task():
        # every E +- h probe in one sweep; all energies share the seed's phases
        probe = np.unique([E + d for E in energies.tolist() for h in h_list for d in (-h, h)])
        values = sp.ids(p, dyn, probe, N, x_samples, seed=s).values
        rows = []
        for E in energies.tolist():
            for h in h_list:
                lo = float(values[np.searchsorted(probe, E - h)])
                hi = float(values[np.searchsorted(probe, E + h)])
                inc = hi - lo
                ratio = math.log(inc) / math.log(h) if inc > 0 else float("nan")
                rows.append((E, h, lo, hi, inc, ratio))
        return rows

    return [task]


def _prep_wegner(p, dyn, grid, seed):
    _check_keys(grid, {"E", "H_list", "N", "x_samples"})
    energies = _energy_grid(_param(grid, "E"))
    # wegner_measure rejects H < 1
    H_list = [float(h) for h in np.atleast_1d(_param(grid, "H_list", [5.0, 10.0]))]
    if not H_list:
        raise ValueError("H_list must be a nonempty list")
    N = int(_param(grid, "N", 200))
    x_samples = int(_param(grid, "x_samples", 2000))

    # one task per energy, all H from one sweep over one phase set: the
    # measure is then monotone in H by construction
    def make(i, E):
        s = task_seed(seed, "wegner", i)

        def task():
            measures = sp.wegner_measure(p, dyn, E, H_list, N, x_samples, seed=s)
            return [(E, H, N, float(m), x_samples) for H, m in zip(H_list, measures)]
        return task

    return [make(i, float(E)) for i, E in enumerate(energies)]


def _prep_min_gap(p, dyn, grid, seed):
    _check_keys(grid, {"N_list", "x_samples", "window"})
    N_list = _int_list(_param(grid, "N_list", [100, 200]), "N_list")
    x_samples = int(_param(grid, "x_samples", 5))
    _require_positive("min_gap", x_samples=x_samples)
    window = _param(grid, "window", None)
    if window is not None:
        window = (float(window[0]), float(window[1]))

    def make(idx, N):
        s = task_seed(seed, "min_gap", idx)

        def task():
            x = np.random.default_rng(s).random(dyn.d)
            gap = sp.min_gap(p, dyn, x, N, window=window)
            return [(N, float(x[0]), gap,
                     math.exp(-N ** sp.DELTA_GAP_DEFAULT))]
        return task

    return [make(i * x_samples + j, N)
            for i, N in enumerate(N_list) for j in range(x_samples)]


def _prep_ldt_decay(p, dyn, grid, seed):
    _check_keys(grid, {"E", "n_list", "exponent", "x_samples", "statistic"})
    E = float(_param(grid, "E"))
    n_list = _int_list(_param(grid, "n_list", [100, 400, 1600]), "n_list")
    exponent = float(_param(grid, "exponent", 0.9))
    x_samples = int(_param(grid, "x_samples", 2000))
    statistic = str(_param(grid, "statistic", "transfer_norm"))

    def make(i, n):
        s = task_seed(seed, "ldt_decay", i)

        def task():
            threshold = float(n) ** exponent
            prof = dv.deviation_curve(p, dyn, E, n, (threshold,), x_samples,
                                      statistic=statistic, seed=s)[0]
            return [(n, prof.threshold, prof.measure, prof.x_samples,
                     prof.statistic)]
        return task

    return [make(i, n) for i, n in enumerate(n_list)]


def _prep_bmo_trend(p, dyn, grid, seed):
    _check_keys(grid, {"E", "n_list", "grid_size", "statistic"})
    E = float(_param(grid, "E"))
    n_list = _int_list(_param(grid, "n_list", [100, 400, 1600]), "n_list")
    m = int(_param(grid, "grid_size", 1024))
    _require_positive("bmo_trend", grid_size=m)
    statistic = str(_param(grid, "statistic", "det"))

    def make(i, n):
        s = task_seed(seed, "bmo_trend", i)

        def task():
            u = _grid_statistic(p, dyn, E, n, m, statistic, s)
            est = dv.bmo_estimate(u)
            return [(statistic, n, est.grid_size, est.value,
                     est.max_interval_level)]
        return task

    return [make(i, n) for i, n in enumerate(n_list)]


def _prep_fourier_decay(p, dyn, grid, seed):
    _check_keys(grid, {"E", "n", "grid_size", "modes", "statistic"})
    E = float(_param(grid, "E"))
    n = int(_param(grid, "n", 200))
    m = int(_param(grid, "grid_size", 1024))
    _require_positive("fourier_decay", grid_size=m)
    K = int(_param(grid, "modes", 64))
    statistic = str(_param(grid, "statistic", "det"))
    s = task_seed(seed, "fourier_decay", 0)

    def task():
        u = _grid_statistic(p, dyn, E, n, m, statistic, s)
        return [(n, mode.nu, mode.amplitude, mode.ratio)
                for mode in dv.fourier_decay(u, K, n=float(n))]

    return [task]


def _prep_thouless_check(p, dyn, grid, seed):
    _check_keys(grid, {"E", "N", "x_samples"})
    energies = _energy_grid(_param(grid, "E"))
    N = int(_param(grid, "N", 3000))
    x_samples = int(_param(grid, "x_samples", 300))

    def make(i, E):
        s = task_seed(seed, "thouless_check", i)

        def task():
            xs = ly.sample_phases(dyn, "random", x_samples, seed=s)
            # both statistics from one pass over the same phases, so the
            # gap is free of independent sampling noise
            logdet, lognorm = cocycle.batched_log_absdet_and_norm(
                p, dyn, xs, E, N, rng=ly._doubling_rng(s))
            finite = np.isfinite(logdet)
            mean_det = float(np.mean(logdet[finite])) / N if finite.any() else float("nan")
            mean_norm = float(np.mean(lognorm)) / N
            return [(E, N, mean_det, mean_norm, abs(mean_det - mean_norm))]
        return task

    return [make(i, float(E)) for i, E in enumerate(energies)]


def _prep_green_decay(p, dyn, grid, seed):
    _check_keys(grid, {"E", "N", "eta", "j_site"})
    energies = _energy_grid(_param(grid, "E"))
    N = int(_param(grid, "N", 50))
    eta = float(_param(grid, "eta", 1e-3))
    j_site = int(_param(grid, "j_site", 1))
    if eta <= 0:
        raise ValueError("eta must be positive (the resolvent needs Im E > 0)")
    if not 1 <= j_site <= N:
        raise ValueError("j_site must lie in [1, N]")

    def make(i, E):
        s = task_seed(seed, "green_decay", i)

        def task():
            x = np.random.default_rng(s).random(dyn.d)
            _, logs = cocycle.green_row(p, dyn, x, complex(E, eta), j_site, N)
            return [(E, eta, N, k, float(g)) for k, g in enumerate(logs, start=j_site)]
        return task

    return [make(i, float(E)) for i, E in enumerate(energies)]


def _prep_hellmann_feynman(p, dyn, grid, seed):
    _check_keys(grid, {"N", "x_samples", "indices", "h"})
    N = int(_param(grid, "N", 60))
    x_samples = int(_param(grid, "x_samples", 3))
    default_idx = [0, N // 4, N // 2, (3 * N) // 4, N - 1]
    indices = [int(j) for j in _param(grid, "indices", default_idx)]
    if not indices:
        raise ValueError("indices must be a nonempty list")
    h = float(_param(grid, "h", 1e-6))
    _require_positive("hellmann_feynman", x_samples=x_samples)
    _require_shift1(dyn, "hellmann_feynman")

    def make(i):
        s = task_seed(seed, "hellmann_feynman", i)

        def task():
            x = float(np.random.default_rng(s).random())
            rows = []
            for j in indices:
                try:
                    analytic, fd = sp.hellmann_feynman(p, dyn, x, j, N, h=h)
                    scale = max(abs(analytic), abs(fd), 1e-300)
                    rows.append((x, j, N, analytic, fd,
                                 abs(analytic - fd) / scale))
                except sp.AmbiguousEigenvalue:
                    rows.append((x, j, N, float("nan"), float("nan"),
                                 float("nan")))
            return rows
        return task

    return [make(i) for i in range(x_samples)]


def _prep_concatenation_bound(p, dyn, grid, seed):
    _check_keys(grid, {"E", "N", "eta_list", "x_samples"})
    E = float(_param(grid, "E"))
    N = int(_param(grid, "N", 50))
    eta_list = [float(h) for h in np.atleast_1d(_param(grid, "eta_list", [0.05, 0.01]))]
    if not eta_list or any(h <= 0 for h in eta_list):
        raise ValueError("eta_list must be a nonempty list of positive half-widths")
    x_samples = int(_param(grid, "x_samples", 4))
    _require_positive("concatenation_bound", N=N, x_samples=x_samples)

    def make(i, xi, eta):
        s = task_seed(seed, "concatenation_bound", i)

        def task():
            x = np.random.default_rng(s).random(dyn.d)
            rep = sp.concatenation_bound_check(p, dyn, x, E, eta, N)
            # the dense trace check only runs for N <= 200
            ok_trace = float("nan") if rep.ok_trace is None else int(rep.ok_trace)
            return [(float(x[0]), E, N, eta, rep.count_window, rep.count_full,
                     rep.bound, int(rep.ok_window), int(rep.ok_full), ok_trace)]
        return task

    return [make(i * len(eta_list) + k, i, eta)
            for i in range(x_samples) for k, eta in enumerate(eta_list)]


def _nan_zero_row(index: int, center: complex, m: int) -> tuple:
    nan = float("nan")
    return (index, center.real, center.imag, nan, m, nan, nan, nan, nan)


def _prep_zero_additivity(p, dyn, grid, seed):
    """One task per random disk near the zero rings, all sharing one handle triple.

    The f_m, shifted and f_2m handles are built here, once per run, so
    every task and retry reads the same lazily computed zeros: each
    window's block-companion eigensolve runs at most once per run.  A disk
    whose windings see a zero on the circle, or do not settle, is retried
    with a smaller radius, and becomes a NaN row when the retries run out.
    """
    _check_keys(grid, {"E", "m", "n_disks", "radius", "y_scale"})
    E = float(_param(grid, "E"))
    m = int(_param(grid, "m", 16))
    n_disks = int(_param(grid, "n_disks", 6))
    _require_positive("zero_additivity", n_disks=n_disks)
    radius = float(_param(grid, "radius", 0.1))
    # determinant zeros cluster in rings near y = +-log(lam/2)/(4 pi),
    # about 0.03 at lam = 3; the default spread reaches |y| = 0.04
    y_scale = float(_param(grid, "y_scale", 0.08))
    omega = _require_shift1(dyn, "zero_additivity")
    # shared by every task: each window's eigensolve runs at most once per run
    handles = zr.additivity_handles(p, omega, E, m)

    def make(i):
        s = task_seed(seed, "zero_additivity", i)

        def task():
            rng = np.random.default_rng(s)
            angle = 2.0 * math.pi * rng.random()
            rho = math.exp(2.0 * math.pi * y_scale * (rng.random() - 0.5))
            center = rho * complex(math.cos(angle), math.sin(angle))
            r = radius
            for _ in range(MAX_ZERO_RETRIES):
                try:
                    rep = zr.zero_count_additivity(*handles, zr.Disk(center, r))
                except (zr.NearCircleZero, zr.WindingUnstable):
                    r *= 0.92
                    continue
                return [(i, center.real, center.imag, r, m, rep.count_left,
                         rep.count_shifted, rep.count_doubled, rep.defect)]
            return [_nan_zero_row(i, center, m)]
        return task

    return [make(i) for i in range(n_disks)]


def _prep_zeros_probe(p, dyn, grid, seed):
    _check_keys(grid, {"E", "N", "n_probes", "radius", "annulus_y"})
    E = float(_param(grid, "E"))
    N = int(_param(grid, "N", 32))
    n_probes = int(_param(grid, "n_probes", 8))
    _require_positive("zeros_probe", n_probes=n_probes)
    radius = float(_param(grid, "radius", 0.02))
    annulus_y = float(_param(grid, "annulus_y", zr.ANNULUS_HALF_WIDTH))
    omega = _require_shift1(dyn, "zeros_probe")
    s = task_seed(seed, "zeros_probe", 0)

    def task():
        stats = zr.zero_separation(p, omega, E, N, annulus_y=annulus_y,
                                   n_probes=n_probes, radius=radius, seed=s)
        return [(i, stats.radius, count, stats.per_disk_ceiling,
                 stats.min_pairwise_distance, stats.annulus_count,
                 stats.annulus_ceiling)
                for i, count in enumerate(stats.counts)]

    return [task]


EXPERIMENTS = {
    "avalanche_fuzz": ExperimentSpec(
        "Random hyperbolic sequences pushed through the avalanche-principle gate.",
        ("trial", "n", "mu", "discrepancy", "bound", "hypotheses_ok", "passes"),
        _prep_avalanche_fuzz),
    "bmo_trend": ExperimentSpec(
        "Dyadic oscillation estimate of the chosen log statistic as n grows.",
        ("statistic", "n", "grid_size", "bmo_value", "max_interval_level"),
        _prep_bmo_trend),
    "concatenation_bound": ExperimentSpec(
        "Eigenvalue counts near E against the concatenation window bound.",
        ("x", "E", "N", "eta", "count_window", "count_full", "bound",
         "ok_window", "ok_full", "ok_trace"),
        _prep_concatenation_bound),
    "fourier_decay": ExperimentSpec(
        "Fourier amplitudes of the log statistic over the phase circle.",
        ("n", "nu", "amplitude", "ratio"),
        _prep_fourier_decay),
    "green_decay": ExperimentSpec(
        "Off-diagonal decay of the finite-volume Green function at E + i eta.",
        ("E", "eta", "N", "k", "log_abs_green"),
        _prep_green_decay),
    "hellmann_feynman": ExperimentSpec(
        "Phase derivative of eigenvalues: analytic sum versus central difference.",
        ("x", "j", "N", "analytic", "fd", "rel_err"),
        _prep_hellmann_feynman),
    "holder_scan": ExperimentSpec(
        "Integrated-density increments over shrinking windows, with local ratios.",
        ("E", "h", "ids_minus", "ids_plus", "increment", "holder_ratio"),
        _prep_holder_scan),
    "ids": ExperimentSpec(
        "Integrated density of states on an energy grid by pivot counting.",
        ("E", "N", "ids", "x_samples"),
        _prep_ids),
    "ldt_decay": ExperimentSpec(
        "Measure of large deviations of the log statistic at a sublinear threshold.",
        ("n", "threshold", "measure", "x_samples", "statistic"),
        _prep_ldt_decay),
    "lyapunov_scan": ExperimentSpec(
        "Finite-scale Lyapunov means along a doubling chain of lengths.",
        ("N", "E", "L_N", "stderr", "diff2N", "logN_over_N"),
        _prep_lyapunov_scan),
    "min_gap": ExperimentSpec(
        "Smallest eigenvalue spacing of finite windows over random phases.",
        ("N", "x", "min_gap", "reference"),
        _prep_min_gap),
    "positivity_probe": ExperimentSpec(
        "One-scale positivity certificate for the Lyapunov exponent.",
        ("E", "ell", "S", "L_ell", "L_ell_stderr", "L_2ell",
         "cond_initial", "cond_drop", "predicted_lower_bound"),
        _prep_positivity_probe),
    "thouless_check": ExperimentSpec(
        "Mean log determinant against the Lyapunov mean over shared phases.",
        ("E", "N", "mean_logdet_over_N", "L_N", "gap"),
        _prep_thouless_check),
    "wegner": ExperimentSpec(
        "Measure of phases whose spectrum approaches E, at two resolutions.",
        ("E", "H", "N", "measure", "x_samples"),
        _prep_wegner),
    "zero_additivity": ExperimentSpec(
        "Zero counts of f_m, its shifted copy, and f_2m on probe disks.",
        ("disk", "center_re", "center_im", "radius", "m",
         "k_left", "k_shifted", "k_doubled", "defect"),
        _prep_zero_additivity),
    "zeros_probe": ExperimentSpec(
        "Determinant zeros in the annulus: probe-disk counts and spacings.",
        ("probe", "radius", "count", "per_disk_ceiling",
         "min_pairwise_distance", "annulus_count", "annulus_ceiling"),
        _prep_zeros_probe),
}


def run_experiment(name: str, p: Potential, dyn: Dynamics, grid: dict,
                   seed: int = 0, threads: int = 1) -> tuple:
    """Execute one named experiment; returns (columns, rows).

    Rows come back in task order whatever the thread count, so a fixed
    (config, seed) pair always produces the same table.
    """
    if name not in EXPERIMENTS:
        available = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {name!r}; available: {available}")
    spec = EXPERIMENTS[name]
    tasks = spec.prepare(p, dyn, dict(grid), seed)
    if threads <= 1:
        chunks = [task() for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(lambda task: task(), tasks))
    return spec.columns, [row for chunk in chunks for row in chunk]
