"""Config-driven experiment runner: ``qplab run <config>...``, ``qplab list [name]``.

A run reads a YAML config and validates all of it, the experiment's
grid included, before any task starts; it then executes the named
experiment and writes ``<out>/<experiment>.csv`` plus
``<out>/manifest.json``.  Exit codes: 0 success, 2 a config problem
(always found before the first task, so nothing is written), 3 an
arithmetic or linear-algebra failure during computation.

``qplab run a.yaml b.yaml ...`` pays the process's start-up once.  It
reads and validates every config and builds every task list before the
first task runs, so a config problem in any of them exits 2 and writes
nothing.  The configs then run in the order given, each writing its own
output directory and manifest exactly as a separate run would; they must
name distinct output directories, so ``--out`` takes one config only.
The batch stops at the first config that fails and exits with its code.

``qplab list`` prints the catalogue; ``qplab list NAME`` prints one
experiment's grid parameters, what each accepts, and its default.

CSV cells use '.' as the decimal mark and 17 significant digits, so
floats survive a round trip; with the seed fixed the bytes are
identical across runs and thread counts.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from . import __version__, experiments
from . import dynamics as dyn_mod
from . import potential as pot_mod
from .dynamics import Doubling, Shift, SkewShift
from .experiments import COUNT, INTEGER, REAL, ConfigError, Kind, choice, listof

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

DIOPHANTINE_A = 2.0
DIOPHANTINE_N_MAX = 1000
DIOPHANTINE_FLOOR = 1e-6

_TOP_KEYS = {"experiment", "model", "dynamics", "grid", "seed", "out", "threads"}

# libyaml's parser where PyYAML was built with it; both loaders share
# SafeLoader's constructor and resolver, so they give the same mappings
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated run: what to compute, over what, and where to put it."""

    experiment: str
    potential: pot_mod.Potential
    dynamics: object
    grid: dict          # typed values of every grid parameter, defaults included
    seed: int
    out: Path
    threads: int


def _load_config(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping at the top level")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(
            f"unknown config keys {sorted(unknown)}; "
            f"expected a subset of {sorted(_TOP_KEYS)}")
    return data


def _triple(raw) -> tuple:
    k, re, im = raw
    return INTEGER.parse(k), REAL.parse(re), REAL.parse(im)


def _omega(raw) -> float:
    if isinstance(raw, str) and raw.strip() == "golden":
        return dyn_mod.GOLDEN_MEAN
    if isinstance(raw, str) and "/" in raw:
        num, _, den = raw.partition("/")
        return REAL.parse(REAL.parse(num) / REAL.parse(den))
    return REAL.parse(raw)


def _flag(raw) -> bool:
    if isinstance(raw, bool):
        return raw
    raise TypeError(raw)


_TRIPLES = listof(Kind("a [k, re, im] row with an integer k", _triple))
_OMEGA = Kind("'golden', a fraction like '355/113', or a finite real", _omega)
_FLAG = Kind("true or false", _flag)


def _build_potential(model) -> pot_mod.Potential:
    if not isinstance(model, dict):
        raise ConfigError("model must be a mapping with 'lam' and a potential")
    unknown = set(model) - {"potential", "lam", "triples"}
    if unknown:
        raise ConfigError(f"unknown model keys {sorted(unknown)}")
    lam = REAL.read("model.lam", model.get("lam"))
    kind = choice("almost_mathieu", "triples").read(
        "model.potential", model.get("potential", "almost_mathieu"))
    if kind == "almost_mathieu":
        return pot_mod.almost_mathieu(lam)
    triples = _TRIPLES.read("model.triples", model.get("triples"))
    try:
        return pot_mod.from_triples(triples, lam)
    except ValueError as exc:
        raise ConfigError(f"potential coefficients rejected: {exc}") from exc


def _gate_frequency(w: float) -> None:
    """Reject frequencies without a usable Diophantine lower bound.

    The runner demands ||n w|| >= c / (n (log n)^2) with c bounded away
    from zero over the scanned range; rationals collapse the left side
    to zero at the denominator and are refused outright.
    """
    report = dyn_mod.diophantine_check(w, DIOPHANTINE_A, DIOPHANTINE_N_MAX,
                                       variant="log")
    if report.c <= DIOPHANTINE_FLOOR:
        raise ConfigError(
            f"frequency {w!r} fails the Diophantine condition "
            f"||n w|| >= c / (n (log n)^2): the weighted distance drops to "
            f"{report.c:.3e} at n = {report.worst_n}. Pick an irrational "
            "frequency (e.g. 'golden'), or set dynamics.diophantine: false "
            "to run anyway.")


def _build_dynamics(dspec):
    if not isinstance(dspec, dict):
        raise ConfigError("dynamics must be a mapping with a 'kind'")
    unknown = set(dspec) - {"kind", "omega", "diophantine"}
    if unknown:
        raise ConfigError(f"unknown dynamics keys {sorted(unknown)}")
    kind = choice("shift", "skew_shift", "skew", "doubling").read(
        "dynamics.kind", dspec.get("kind", "shift"))
    gate = _FLAG.read("dynamics.diophantine", dspec.get("diophantine", True))
    if kind == "doubling":
        return Doubling()
    omega = _OMEGA.read("dynamics.omega", dspec.get("omega"))
    if gate:
        _gate_frequency(omega)
    return Shift(omega) if kind == "shift" else SkewShift(omega)


def validate_config(data: dict, threads=None, out=None, seed=None) -> ExperimentConfig:
    """Resolve a raw config mapping plus CLI overrides, or raise ConfigError."""
    name = data.get("experiment")
    if not isinstance(name, str) or name not in experiments.EXPERIMENTS:
        available = "\n  ".join(sorted(experiments.EXPERIMENTS))
        raise ConfigError(
            f"unknown experiment {name!r}; available experiments:\n  {available}")
    p = _build_potential(data.get("model"))
    dyn = _build_dynamics(data.get("dynamics", {"kind": "shift", "omega": "golden"}))
    grid = data.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("grid must be a mapping of experiment parameters")
    grid = dict(grid)
    if seed is None:
        seed = data.get("seed", grid.pop("seed", 0))
    else:
        grid.pop("seed", None)
    if out is None:
        out = data.get("out", "results")
    if not isinstance(out, (str, Path)):
        raise ConfigError(f"out must be a directory path, got {out!r}")
    grid = experiments.EXPERIMENTS[name].resolve(grid)
    seed = INTEGER.read("seed", seed)
    threads = COUNT.read("threads", data.get("threads", 1) if threads is None else threads)
    return ExperimentConfig(experiment=name, potential=p, dynamics=dyn,
                            grid=grid, seed=seed, out=Path(out),
                            threads=threads)


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


def write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row width {len(row)} != header width {len(columns)}")
        lines.append(",".join(_format_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _echo_config(cfg: ExperimentConfig, data: dict) -> dict:
    echo = {k: data.get(k) for k in sorted(set(data) & _TOP_KEYS)}
    echo["resolved"] = {
        "seed": cfg.seed,
        "threads": cfg.threads,
        "out": str(cfg.out),
    }
    return echo


def _read(config_path, threads, out, seed) -> tuple:
    data = _load_config(Path(config_path))
    return data, validate_config(data, threads=threads, out=out, seed=seed)


def _execute(cfg: ExperimentConfig, data: dict, compute, stream) -> int:
    """Write what ``compute() -> (columns, rows)`` returns; the exit code."""
    t0 = time.perf_counter()
    try:
        columns, rows = compute()
    except ConfigError as exc:
        # raised while the grid is read and checked, before any task starts
        print(f"config error: {exc}", file=stream)
        return EXIT_CONFIG
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numeric failure in {cfg.experiment}: "
              f"{type(exc).__name__}: {exc}", file=stream)
        return EXIT_NUMERIC
    elapsed = time.perf_counter() - t0

    cfg.out.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.out / f"{cfg.experiment}.csv"
    write_csv(csv_path, columns, rows)
    manifest = {
        "config": _echo_config(cfg, data),
        "version": __version__,
        "wall_clock_seconds": elapsed,
        "results": [{
            "experiment": cfg.experiment,
            "csv": csv_path.name,
            "parameters": {k: v.tolist() if isinstance(v, np.ndarray) else v
                           for k, v in cfg.grid.items()},
            "metrics": {"rows": len(rows), "columns": len(columns)},
            "runtime_ms": elapsed * 1e3,
        }],
    }
    (cfg.out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def run(config_path, threads=None, out=None, seed=None,
        stream=None) -> int:
    """Load, validate, execute, and write one config; returns the process exit code."""
    stream = stream if stream is not None else sys.stderr
    try:
        data, cfg = _read(config_path, threads, out, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=stream)
        return EXIT_CONFIG
    return _execute(cfg, data, partial(
        experiments.run_experiment, cfg.experiment, cfg.potential, cfg.dynamics,
        cfg.grid, seed=cfg.seed, threads=cfg.threads), stream)


def _prepare(config_path, threads, out, seed) -> tuple:
    """(data, config, tasks) of one config, or a ConfigError naming the file."""
    try:
        data, cfg = _read(config_path, threads, out, seed)
        spec = experiments.EXPERIMENTS[cfg.experiment]
        return data, cfg, spec.prepare(cfg.potential, cfg.dynamics, cfg.grid)
    except ConfigError as exc:
        raise ConfigError(f"{config_path}: {exc}") from None


def run_configs(config_paths, threads=None, out=None, seed=None,
                stream=None) -> int:
    """Run configs in order in one process; returns the process exit code.

    Every config is read and validated and its tasks are built before
    the first task runs.  The configs then run in order, each written as
    :func:`run` writes it, and the first one that fails ends the batch.
    """
    stream = stream if stream is not None else sys.stderr
    try:
        if out is not None and len(config_paths) > 1:
            raise ConfigError("--out names one output directory; "
                              "it cannot take several configs")
        jobs = [_prepare(path, threads, out, seed) for path in config_paths]
        outs = [cfg.out.resolve() for _, cfg, _ in jobs]
        shared = sorted({str(d) for d in outs if outs.count(d) > 1})
        if shared:
            raise ConfigError(f"several configs write to {shared}; "
                              "give each its own out directory")
    except ConfigError as exc:
        print(f"config error: {exc}", file=stream)
        return EXIT_CONFIG
    for data, cfg, tasks in jobs:
        spec = experiments.EXPERIMENTS[cfg.experiment]
        code = _execute(cfg, data, lambda: (spec.columns, experiments.run_tasks(
            cfg.experiment, tasks, seed=cfg.seed, threads=cfg.threads)), stream)
        if code != EXIT_OK:
            return code
    return EXIT_OK


def _default_text(default) -> str:
    if default is experiments.REQUIRED:
        return "required"
    if callable(default):
        return "default computed from the parameters above"
    return f"default {json.dumps(default)}"


def list_experiments(name=None, stream=None) -> int:
    """The catalogue, one experiment a line, or the grid parameters of one."""
    stream = stream if stream is not None else sys.stdout
    if name is None:
        for key in sorted(experiments.EXPERIMENTS):
            print(f"{key:20s} {experiments.EXPERIMENTS[key].doc}", file=stream)
        return EXIT_OK
    spec = experiments.EXPERIMENTS.get(name)
    if spec is None:
        print(f"unknown experiment {name!r}; `qplab list` names them all",
              file=sys.stderr)
        return EXIT_CONFIG
    print(f"{name}: {spec.doc}", file=stream)
    width = max((len(q.name) for q in spec.params), default=0)
    for q in spec.params:
        print(f"  {q.name:{width}s}  {q.kind.what} ({_default_text(q.default)})",
              file=stream)
    return EXIT_OK


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="qplab",
        description="Run quasi-periodic operator experiments from YAML configs.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute experiment configs, in order")
    run_p.add_argument("config", nargs="+", help="path to a YAML experiment config")
    run_p.add_argument("--threads", type=int, default=None,
                       help="worker threads (overrides config)")
    run_p.add_argument("--out", default=None,
                       help="output directory (overrides config; one config only)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="root seed (overrides config)")
    list_p = sub.add_parser("list", help="list available experiments")
    list_p.add_argument("name", nargs="?", help="print this experiment's grid parameters")
    args = parser.parse_args(argv)
    if args.command == "list":
        return list_experiments(args.name)
    return run_configs(args.config, threads=args.threads, out=args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
