"""Named experiments behind the command-line runner.

Each experiment declares a table of its grid parameters and a builder
that turns their typed values into an ordered list of self-contained
tasks.  The table reads the grid, and the builder checks what involves
two parameters or the dynamics, so every config problem raises
``ConfigError`` before the first task starts; tasks raise only what the
library raises.  Tasks run over a worker pool and their row tuples are
concatenated in task order, so the table never depends on the thread
count.  Each task is called with its own seed, hashed out of (root
seed, experiment name, task index), the only randomness it reads.

Importing this module loads no numerics beyond ``dynamics`` and
``potential``: each builder imports the library modules its tasks call,
and the thread pool is imported only for a run on several threads.
"""

from __future__ import annotations

import ast
import hashlib
import math
import numbers
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .dynamics import Dynamics, Shift, SkewShift
from .potential import Potential

MAX_ZERO_RETRIES = 5


class ConfigError(ValueError):
    """A config problem, found before any task runs; maps to exit code 2."""


def task_seed(root_seed: int, experiment: str, index: int) -> int:
    """Per-task seed from hashing, stable across platforms and pools."""
    text = f"{root_seed}:{experiment}:{index}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


# ---------------------------------------------------------------------------
# value readers: every number, list and choice of a config is read by one


@dataclass(frozen=True)
class Kind:
    """How to read one config value: ``parse`` returns it typed, or raises
    TypeError, ValueError or ArithmeticError; ``what`` names what it accepts."""

    what: str
    parse: Callable

    def read(self, key: str, raw):
        try:
            return self.parse(raw)
        except (TypeError, ValueError, ArithmeticError):
            raise ConfigError(f"{key} must be {self.what}, got {raw!r}") from None

    def where(self, what: str, test: Callable) -> Kind:
        """This kind restricted to the values that pass ``test``."""
        def parse(raw):
            value = self.parse(raw)
            if not test(value):
                raise ValueError(what)
            return value
        return Kind(f"{self.what} {what}", parse)


def _real(raw) -> float:
    # a numeric string reads too: YAML 1.1 loads 1e-3 (no dot) as a string
    if isinstance(raw, bool) or not isinstance(raw, (numbers.Real, str)):
        raise TypeError(raw)
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _integer(raw) -> int:
    if isinstance(raw, numbers.Integral) and not isinstance(raw, bool):
        return int(raw)
    value = _real(raw)
    if not value.is_integer():
        raise ValueError(raw)
    return int(value)


REAL = Kind("a finite real", _real)
POSITIVE = REAL.where("> 0", lambda v: v > 0)
INTEGER = Kind("an integer", _integer)
COUNT = INTEGER.where(">= 1", lambda n: n >= 1)


def choice(*options) -> Kind:
    def parse(raw):
        if raw not in options:
            raise ValueError(raw)
        return raw
    return Kind("one of " + ", ".join(map(repr, options)), parse)


def listof(kind: Kind) -> Kind:
    """A nonempty list of one kind of value; a bare value is a list of one."""
    def parse(raw):
        items = list(raw) if isinstance(raw, (list, tuple, np.ndarray)) else [raw]
        if not items:
            raise ValueError(raw)
        return [kind.parse(v) for v in items]
    return Kind(f"a nonempty list, each {kind.what}", parse)


def _energies(raw) -> np.ndarray:
    if isinstance(raw, dict):
        if set(raw) != {"start", "stop", "count"}:
            raise ValueError(raw)
        start, stop = _real(raw["start"]), _real(raw["stop"])
        # linspace steps by stop - start, which overflows for ends near +-1.8e308
        if not math.isfinite(stop - start):
            raise ValueError(raw)
        return np.linspace(start, stop, COUNT.parse(raw["count"]))
    return np.array(listof(REAL).parse(raw))


ENERGIES = Kind("a nonempty list of finite reals or a {start, stop, count} range",
                _energies)


def _window(raw):
    if raw is None:
        return None
    lo, hi = listof(REAL).parse(raw)
    if not lo < hi:
        raise ValueError(raw)
    return (lo, hi)


WINDOW = Kind("null or a pair [lo, hi] of finite reals with lo < hi", _window)
REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One grid parameter.  ``default`` is REQUIRED, a value, or a function
    of the values read before this entry."""

    name: str
    kind: Kind
    default: object = REQUIRED


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: doc line, CSV columns, grid table, task builder.

    ``build(p, dyn, **values)`` returns the task list; the runner calls
    task i with its seed ``task_seed(root seed, name, i)``.  ``build`` raises
    ConfigError for a check on two parameters or the dynamics; tasks never do.
    """

    doc: str
    columns: tuple
    params: tuple
    build: Callable

    def resolve(self, grid) -> dict:
        """Every parameter's typed value, defaults included, or ConfigError."""
        names = [q.name for q in self.params]
        unknown = [key for key in grid if key not in names]
        if unknown:
            raise ConfigError(f"unknown grid parameters {unknown}; "
                              f"this experiment takes {names}")
        values = {}
        for q in self.params:
            if q.name in grid:
                values[q.name] = q.kind.read(f"grid.{q.name}", grid[q.name])
            elif q.default is REQUIRED:
                raise ConfigError(f"grid.{q.name} is required")
            else:
                values[q.name] = q.default(values) if callable(q.default) else q.default
        return values

    def prepare(self, p: Potential, dyn: Dynamics, grid: dict) -> list:
        """The task list for a raw grid; every config problem raises here."""
        return self.build(p, dyn, **self.resolve(grid))


def _require_shift(dyn: Dynamics, experiment: str) -> float:
    if not isinstance(dyn, Shift):
        raise ConfigError(f"{experiment} needs shift dynamics")
    return dyn.omega


def _require_line(dyn: Dynamics, experiment: str) -> None:
    if dyn.d != 1:
        raise ConfigError(f"{experiment} samples a phase grid on the line: "
                          "it needs one-dimensional dynamics")


def _require_off_the_pole(experiment: str, radius: float, key: str, y: float) -> None:
    """Probe disks must miss z = 0, where the determinant has its pole.

    Their centres are exp(2 pi (x + i y')) with |y'| <= |y| / 2, ``y`` the
    value of grid parameter ``key``, so the nearest lies exp(-pi |y|) from 0.
    """
    nearest = math.exp(-math.pi * abs(y))
    if not radius < nearest:
        raise ConfigError(
            f"{experiment} needs grid.radius < exp(-pi |grid.{key}|), the least |z| "
            f"of a probe centre, so that no disk reaches the determinant's pole at "
            f"z = 0; got radius = {radius!r} and exp(-pi |{y!r}|) = {nearest:.6g}")


def _grid_statistic(p: Potential, dyn: Dynamics, E: float, m: int,
                    statistic: str) -> Callable:
    """``u(n, seed)``: log|f_n| or log||M_n|| over the uniform phase grid of size m."""
    from . import cocycle, lyapunov as ly

    kernel = cocycle.batched_log_absdet if statistic == "det" else cocycle.batched_log_norms

    def u(n, seed):
        xs = np.arange(m, dtype=float) / m
        return kernel(p, dyn, xs, E, n, rng=ly._doubling_rng(seed))[n]

    return u


# ---------------------------------------------------------------------------
# experiment builders, one per registry entry; each task takes its seed.
# A builder imports the library modules its tasks call: the runner builds
# every task in the main thread before any task starts, and a run loads
# only the numerics it uses.


def _prep_lyapunov_scan(p, dyn, E, n_list, m_samples, sampler):
    """One task per energy, or one task for all of them on a shared phase set.

    The grid sampler under a shift or skew shift gives every energy the
    same phases and no rng, so all energies then run as one
    ``convergence_scan`` pass.  The doubling map and the random and orbit
    samplers draw per-task phases or rng streams, so each energy keeps
    its own task and seed.
    """
    # a check on the list rather than its table kind: perfbench's self-test
    # of lost rows passes a non-doubling chain through validate_config and
    # expects the run to exit 2
    if any(b != 2 * a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError(f"lyapunov_scan needs n_list to be a doubling chain, "
                          f"each entry twice the one before, got {n_list}")
    from . import lyapunov as ly

    def task(Es, s):
        scans = ly.convergence_scan(p, dyn, Es, n_list, sampler=sampler,
                                    m_samples=m_samples, seed=s)
        return [(r.n, float(e), r.mean, r.stderr, r.diff_2n, math.log(r.n) / r.n)
                for e, scan in zip(Es, scans) for r in scan]

    if sampler == "grid" and isinstance(dyn, (Shift, SkewShift)):
        return [partial(task, E)]
    return [partial(task, E[i:i + 1]) for i in range(E.size)]


def _prep_positivity_probe(p, dyn, E, ell, m_samples, sampler, sigma):
    # the threshold S ell^(-sigma / 4) is a float power, which raises on overflow
    try:
        ell ** (-sigma / 4.0)
    except OverflowError:
        raise ConfigError(f"positivity_probe needs ell ** (-sigma / 4) to be a finite "
                          f"float, got sigma = {sigma!r} at ell = {ell}") from None
    from . import lyapunov as ly

    def task(E, s):
        rep = ly.positivity_probe(p, dyn, E, ell, sampler=sampler,
                                  m_samples=m_samples, seed=s, sigma=sigma)
        lower = rep.predicted_lower_bound
        return [(E, ell, rep.S, rep.l_ell.mean, rep.l_ell.stderr,
                 rep.l_2ell.mean, int(rep.cond_initial),
                 int(rep.cond_drop),
                 float("nan") if lower is None else lower)]

    return [partial(task, e) for e in E.tolist()]


def _prep_avalanche_fuzz(p, dyn, trials, n, mu, rot, chunk):
    """Each task checks a chunk of trials as one stack of factors R(2 pi b) diag(s, 1/s)
    R(2 pi a), s = mu e^u, with (u, b, a) one uniform draw and libm's exp, cos and sin.
    A task peaks near 300 bytes per factor (libm's values pass through object arrays)."""
    from . import lyapunov as ly

    def task(lo, hi, s):
        u = np.random.default_rng(s).uniform([0.0, -rot, -rot], [0.5, rot, rot], (hi - lo, n, 3))
        stretch = mu * ly._libm(math.exp, u[..., 0])
        theta = 2.0 * math.pi * u[..., 1:]
        cos, sin = ly._libm(math.cos, theta), ly._libm(math.sin, theta)
        # axes (trial, factor, left/right, row, column)
        rotations = np.stack([cos, -sin, sin, cos], axis=-1).reshape(theta.shape + (2, 2))
        diag = np.stack([stretch, 1.0 / stretch], axis=-1)[..., None] * np.eye(2)
        rep = ly.avalanche_check((rotations[..., 0, :, :] @ diag) @ rotations[..., 1, :, :], mu)
        return [(trial, n, mu, lhs, rep.bound, ok, verdict) for trial, lhs, ok, verdict
                in zip(range(lo, hi), rep.lhs_discrepancy.tolist(),
                       rep.hypotheses_ok.astype(int).tolist(), rep.passes.tolist())]

    return [partial(task, lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]


def _prep_ids(p, dyn, E, N, x_samples, chunk):
    """One task: one pivot sweep over the whole grid."""
    from . import spectrum as sp

    def task(s):
        table = sp.ids(p, dyn, E, N, x_samples, seed=s)
        return [(float(e), N, float(v), x_samples)
                for e, v in zip(table.energies, table.values)]

    return [task]


def _prep_holder_scan(p, dyn, E, h_list, N, x_samples):
    from . import spectrum as sp

    h_list = sorted(set(h_list), reverse=True)

    def task(s):
        # every E +- h probe in one sweep; all energies share the seed's phases
        probe = np.unique([e + d for e in E.tolist() for h in h_list for d in (-h, h)])
        values = sp.ids(p, dyn, probe, N, x_samples, seed=s).values
        rows = []
        for e in E.tolist():
            for h in h_list:
                lo = float(values[np.searchsorted(probe, e - h)])
                hi = float(values[np.searchsorted(probe, e + h)])
                inc = hi - lo
                ratio = math.log(inc) / math.log(h) if inc > 0 else float("nan")
                rows.append((e, h, lo, hi, inc, ratio))
        return rows

    return [task]


def _prep_wegner(p, dyn, E, H_list, N, x_samples):
    from . import spectrum as sp

    # one task per energy, all H from one sweep over one phase set: the
    # measure is then monotone in H by construction
    def task(E, s):
        measures = sp.wegner_measure(p, dyn, E, H_list, N, x_samples, seed=s)
        return [(E, H, N, float(m), x_samples) for H, m in zip(H_list, measures)]

    return [partial(task, e) for e in E.tolist()]


def _prep_min_gap(p, dyn, N_list, x_samples, window):
    from . import spectrum as sp

    def task(N, s):
        x = np.random.default_rng(s).random(dyn.d)
        gap = sp.min_gap(p, dyn, x, N, window=window)
        return [(N, float(x[0]), gap, math.exp(-N ** sp.DELTA_GAP_DEFAULT))]

    return [partial(task, N) for N in N_list for _ in range(x_samples)]


def _prep_ldt_decay(p, dyn, E, n_list, exponent, x_samples, statistic):
    from . import deviations as dv

    def task(n, s):
        threshold = float(n) ** exponent
        prof = dv.deviation_curve(p, dyn, E, n, (threshold,), x_samples,
                                  statistic=statistic, seed=s)[0]
        return [(n, prof.threshold, prof.measure, prof.x_samples, prof.statistic)]

    return [partial(task, n) for n in n_list]


def _prep_bmo_trend(p, dyn, E, n_list, grid_size, statistic):
    _require_line(dyn, "bmo_trend")
    from . import deviations as dv

    u = _grid_statistic(p, dyn, E, grid_size, statistic)

    def task(n, s):
        est = dv.bmo_estimate(u(n, s))
        return [(statistic, n, est.grid_size, est.value, est.max_interval_level)]

    return [partial(task, n) for n in n_list]


def _prep_fourier_decay(p, dyn, E, n, grid_size, modes, statistic):
    if grid_size < 2 * modes + 2:
        raise ConfigError(f"fourier_decay needs grid_size >= 2 * modes + 2 = "
                          f"{2 * modes + 2} to resolve {modes} modes, got {grid_size}")
    _require_line(dyn, "fourier_decay")
    from . import deviations as dv

    u = _grid_statistic(p, dyn, E, grid_size, statistic)

    def task(s):
        return [(n, mode.nu, mode.amplitude, mode.ratio)
                for mode in dv.fourier_decay(u(n, s), modes, n=float(n))]

    return [task]


def _prep_thouless_check(p, dyn, E, N, x_samples):
    from . import cocycle, lyapunov as ly

    def task(E, s):
        xs = ly.sample_phases(dyn, "random", x_samples, seed=s)
        # both statistics from one pass over the same phases, so the
        # gap is free of independent sampling noise
        logdet, lognorm = cocycle.batched_log_absdet_and_norm(
            p, dyn, xs, E, N, rng=ly._doubling_rng(s))
        finite = np.isfinite(logdet)
        mean_det = float(np.mean(logdet[finite])) / N if finite.any() else float("nan")
        mean_norm = float(np.mean(lognorm)) / N
        return [(E, N, mean_det, mean_norm, abs(mean_det - mean_norm))]

    return [partial(task, e) for e in E.tolist()]


def _prep_green_decay(p, dyn, E, N, eta, j_site):
    if j_site > N:
        raise ConfigError(f"green_decay needs j_site <= N, got j_site = {j_site}, N = {N}")
    from . import cocycle

    def task(E, s):
        x = np.random.default_rng(s).random(dyn.d)
        _, logs = cocycle.green_row(p, dyn, x, complex(E, eta), j_site, N)
        return [(E, eta, N, k, float(g)) for k, g in enumerate(logs, start=j_site)]

    return [partial(task, e) for e in E.tolist()]


def _prep_hellmann_feynman(p, dyn, N, x_samples, indices, h):
    if max(indices) >= N:
        raise ConfigError(f"hellmann_feynman needs indices < N = {N}, got {indices}")
    _require_shift(dyn, "hellmann_feynman")
    from . import spectrum as sp

    def task(s):
        x = float(np.random.default_rng(s).random())
        rows = []
        for j in indices:
            try:
                analytic, fd = sp.hellmann_feynman(p, dyn, x, j, N, h=h)
                scale = max(abs(analytic), abs(fd), 1e-300)
                rows.append((x, j, N, analytic, fd, abs(analytic - fd) / scale))
            except sp.AmbiguousEigenvalue:
                rows.append((x, j, N, float("nan"), float("nan"), float("nan")))
        return rows

    return [task] * x_samples


def _prep_concatenation_bound(p, dyn, E, N, eta_list, x_samples):
    from . import spectrum as sp

    def task(eta, s):
        x = np.random.default_rng(s).random(dyn.d)
        rep = sp.concatenation_bound_check(p, dyn, x, E, eta, N)
        # the dense trace check only runs for N <= 200
        ok_trace = float("nan") if rep.ok_trace is None else int(rep.ok_trace)
        return [(float(x[0]), E, N, eta, rep.count_window, rep.count_full,
                 rep.bound, int(rep.ok_window), int(rep.ok_full), ok_trace)]

    return [partial(task, eta) for _ in range(x_samples) for eta in eta_list]


def _nan_zero_row(index: int, center: complex, m: int) -> tuple:
    nan = float("nan")
    return (index, center.real, center.imag, nan, m, nan, nan, nan, nan)


def _prep_zero_additivity(p, dyn, E, m, n_disks, radius, y_scale):
    """One task per random disk near the zero rings, all sharing one handle triple.

    The f_m, shifted and f_2m handles are built here, once per run, so
    every task and retry reads the same lazily computed zeros: each
    window's block-companion eigensolve runs at most once per run.  A disk
    whose windings see a zero on the circle, or do not settle, is retried
    with a smaller radius, and becomes a NaN row when the retries run out.
    """
    omega = _require_shift(dyn, "zero_additivity")
    _require_off_the_pole("zero_additivity", radius, "y_scale", y_scale)
    from . import zeros as zr

    # shared by every task: each window's eigensolve runs at most once per run
    handles = zr.additivity_handles(p, omega, E, m)

    def task(i, s):
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

    return [partial(task, i) for i in range(n_disks)]


def _prep_zeros_probe(p, dyn, E, N, n_probes, radius, annulus_y):
    omega = _require_shift(dyn, "zeros_probe")
    _require_off_the_pole("zeros_probe", radius, "annulus_y", annulus_y)
    from . import zeros as zr

    def task(s):
        stats = zr.zero_separation(p, omega, E, N, annulus_y=annulus_y,
                                   n_probes=n_probes, radius=radius, seed=s)
        return [(i, stats.radius, count, stats.per_disk_ceiling,
                 stats.min_pairwise_distance, stats.annulus_count,
                 stats.annulus_ceiling)
                for i, count in enumerate(stats.counts)]

    return [task]


def _library_constant(module: str, name: str):
    """The literal value of ``name = ...`` in a library module's source.

    The tables read a few of the library's constants; reading them from
    the source, rather than importing the module, keeps validation from
    loading numerics it never calls.
    """
    source = Path(__file__).with_name(f"{module}.py").read_text()
    return ast.literal_eval(re.search(rf"^{name} = (.*)$", source, re.MULTILINE)[1])


_MIN_BMO_GRID = _library_constant("deviations", "MIN_BMO_GRID")
_ANNULUS_HALF_WIDTH = _library_constant("zeros", "ANNULUS_HALF_WIDTH")

P = Param
SAMPLER = choice("grid", "random", "orbit")
STATISTIC = choice(*_library_constant("deviations", "STATISTICS"))
INDEX = INTEGER.where(">= 0", lambda j: j >= 0)
NONNEGATIVE = REAL.where(">= 0", lambda v: v >= 0)
ONE_OR_MORE = REAL.where(">= 1", lambda v: v >= 1)
WIDTH = POSITIVE.where("and < 1", lambda h: h < 1)  # holder_scan divides by log h
# compared, not differenced: E[1:] - E[:-1] overflows for energies near +-1.8e308
ASCENDING_ENERGIES = ENERGIES.where("in ascending order", lambda E: np.all(E[1:] >= E[:-1]))
# the dense trace check squares eta as a float, which raises on overflow
ETA = POSITIVE.where("and with a finite square (below 1.341e154)",
                     lambda eta: math.isfinite(eta * eta))
# avalanche_fuzz draws angles uniform on [-rot, rot], a width that must be finite
ROTATION = NONNEGATIVE.where("and at most 8.988e307", lambda rot: math.isfinite(2.0 * rot))
BMO_GRID = COUNT.where(f"and a power of two >= {_MIN_BMO_GRID}",
                       lambda m: m >= _MIN_BMO_GRID and not m & (m - 1))

EXPERIMENTS = {
    "avalanche_fuzz": ExperimentSpec(
        "Random hyperbolic sequences pushed through the avalanche-principle gate.",
        ("trial", "n", "mu", "discrepancy", "bound", "hypotheses_ok", "passes"),
        (P("trials", COUNT, 200), P("n", INTEGER.where(">= 2", lambda n: n >= 2), 50),
         # the op-norm of a product of two factors squares their squared
         # norms, about mu^8, in floats
         P("mu", REAL.where("in [1, 1e30]", lambda mu: 1 <= mu <= 1e30), 1e4),
         P("rot", ROTATION, 0.1), P("chunk", COUNT, 50)),
        _prep_avalanche_fuzz),
    "bmo_trend": ExperimentSpec(
        "Dyadic oscillation estimate of the chosen log statistic as n grows.",
        ("statistic", "n", "grid_size", "bmo_value", "max_interval_level"),
        (P("E", REAL), P("n_list", listof(COUNT), (100, 400, 1600)),
         P("grid_size", BMO_GRID, 1024), P("statistic", STATISTIC, "det")),
        _prep_bmo_trend),
    "concatenation_bound": ExperimentSpec(
        "Eigenvalue counts near E against the concatenation window bound.",
        ("x", "E", "N", "eta", "count_window", "count_full", "bound",
         "ok_window", "ok_full", "ok_trace"),
        (P("E", REAL), P("N", COUNT, 50), P("eta_list", listof(ETA), (0.05, 0.01)),
         P("x_samples", COUNT, 4)),
        _prep_concatenation_bound),
    "fourier_decay": ExperimentSpec(
        "Fourier amplitudes of the log statistic over the phase circle.",
        ("n", "nu", "amplitude", "ratio"),
        (P("E", REAL), P("n", COUNT, 200), P("grid_size", COUNT, 1024),
         P("modes", COUNT, 64), P("statistic", STATISTIC, "det")),
        _prep_fourier_decay),
    "green_decay": ExperimentSpec(
        "Off-diagonal decay of the finite-volume Green function at E + i eta.",
        ("E", "eta", "N", "k", "log_abs_green"),
        # eta > 0: the resolvent needs Im E > 0
        (P("E", ENERGIES), P("N", COUNT, 50), P("eta", POSITIVE, 1e-3),
         P("j_site", COUNT, 1)),
        _prep_green_decay),
    "hellmann_feynman": ExperimentSpec(
        "Phase derivative of eigenvalues: analytic sum versus central difference.",
        ("x", "j", "N", "analytic", "fd", "rel_err"),
        (P("N", COUNT, 60), P("x_samples", COUNT, 3),
         P("indices", listof(INDEX),
           lambda v: [0, v["N"] // 4, v["N"] // 2, (3 * v["N"]) // 4, v["N"] - 1]),
         P("h", POSITIVE, 1e-6)),
        _prep_hellmann_feynman),
    "holder_scan": ExperimentSpec(
        "Integrated-density increments over shrinking windows, with local ratios.",
        ("E", "h", "ids_minus", "ids_plus", "increment", "holder_ratio"),
        (P("E", ENERGIES), P("h_list", listof(WIDTH), (0.1, 0.03, 0.01)),
         P("N", COUNT, 1000), P("x_samples", COUNT, 8)),
        _prep_holder_scan),
    "ids": ExperimentSpec(
        "Integrated density of states on an energy grid by pivot counting.",
        ("E", "N", "ids", "x_samples"),
        (P("E", ASCENDING_ENERGIES),
         P("N", COUNT, 1000), P("x_samples", COUNT, 8),
         # accepted and unused: splitting the grid only repeated the sweep,
         # and existing configs (perfbench's spectral ids) still pass it
         P("chunk", COUNT, 64)),
        _prep_ids),
    "ldt_decay": ExperimentSpec(
        "Measure of large deviations of the log statistic at a sublinear threshold.",
        ("n", "threshold", "measure", "x_samples", "statistic"),
        (P("E", REAL), P("n_list", listof(COUNT), (100, 400, 1600)),
         P("exponent", REAL.where("in (0, 1]", lambda a: 0 < a <= 1), 0.9),
         P("x_samples", COUNT, 2000),
         P("statistic", STATISTIC, "transfer_norm")),
        _prep_ldt_decay),
    "lyapunov_scan": ExperimentSpec(
        "Finite-scale Lyapunov means along a doubling chain of lengths.",
        ("N", "E", "L_N", "stderr", "diff2N", "logN_over_N"),
        (P("E", ENERGIES), P("n_list", listof(COUNT), (250, 500, 1000, 2000)),
         P("m_samples", COUNT, 300), P("sampler", SAMPLER, "grid")),
        _prep_lyapunov_scan),
    "min_gap": ExperimentSpec(
        "Smallest eigenvalue spacing of finite windows over random phases.",
        ("N", "x", "min_gap", "reference"),
        (P("N_list", listof(COUNT), (100, 200)), P("x_samples", COUNT, 5),
         P("window", WINDOW, None)),
        _prep_min_gap),
    "positivity_probe": ExperimentSpec(
        "One-scale positivity certificate for the Lyapunov exponent.",
        ("E", "ell", "S", "L_ell", "L_ell_stderr", "L_2ell",
         "cond_initial", "cond_drop", "predicted_lower_bound"),
        (P("E", ENERGIES), P("ell", COUNT, 32), P("m_samples", COUNT, 500),
         P("sampler", SAMPLER, "grid"), P("sigma", REAL, 0.5)),
        _prep_positivity_probe),
    "thouless_check": ExperimentSpec(
        "Mean log determinant against the Lyapunov mean over shared phases.",
        ("E", "N", "mean_logdet_over_N", "L_N", "gap"),
        (P("E", ENERGIES), P("N", COUNT, 3000), P("x_samples", COUNT, 300)),
        _prep_thouless_check),
    "wegner": ExperimentSpec(
        "Measure of phases whose spectrum approaches E, at two resolutions.",
        ("E", "H", "N", "measure", "x_samples"),
        (P("E", ENERGIES), P("H_list", listof(ONE_OR_MORE), (5.0, 10.0)),
         P("N", COUNT, 200), P("x_samples", COUNT, 2000)),
        _prep_wegner),
    "zero_additivity": ExperimentSpec(
        "Zero counts of f_m, its shifted copy, and f_2m on probe disks.",
        ("disk", "center_re", "center_im", "radius", "m",
         "k_left", "k_shifted", "k_doubled", "defect"),
        # determinant zeros cluster in rings near y = +-log(lam/2)/(4 pi),
        # about 0.03 at lam = 3; the default y_scale reaches |y| = 0.04
        (P("E", REAL), P("m", COUNT, 16), P("n_disks", COUNT, 6),
         P("radius", POSITIVE, 0.1), P("y_scale", REAL, 0.08)),
        _prep_zero_additivity),
    "zeros_probe": ExperimentSpec(
        "Determinant zeros in the annulus: probe-disk counts and spacings.",
        ("probe", "radius", "count", "per_disk_ceiling",
         "min_pairwise_distance", "annulus_count", "annulus_ceiling"),
        (P("E", REAL), P("N", COUNT, 32), P("n_probes", COUNT, 8),
         P("radius", POSITIVE, 0.02), P("annulus_y", POSITIVE, _ANNULUS_HALF_WIDTH)),
        _prep_zeros_probe),
}


def run_experiment(name: str, p: Potential, dyn: Dynamics, grid: dict,
                   seed: int = 0, threads: int = 1) -> tuple:
    """Execute one named experiment on a raw grid; returns (columns, rows).

    The grid is read and checked before any task starts.  Rows come back
    in task order whatever the thread count, so a fixed (config, seed)
    pair always produces the same table.
    """
    if name not in EXPERIMENTS:
        available = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(f"unknown experiment {name!r}; available: {available}")
    spec = EXPERIMENTS[name]
    return spec.columns, run_tasks(name, spec.prepare(p, dyn, grid), seed, threads)


def run_tasks(name: str, tasks: list, seed: int = 0, threads: int = 1) -> list:
    """Call task i of experiment ``name`` with ``task_seed(seed, name, i)``
    over ``threads`` workers; the rows come back in task order."""
    seeds = [task_seed(seed, name, i) for i in range(len(tasks))]
    if threads <= 1:
        chunks = [task(s) for task, s in zip(tasks, seeds)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(lambda task, s: task(s), tasks, seeds))
    return [row for chunk in chunks for row in chunk]
