"""Config-driven experiment runner: ``qplab run <config>``, ``qplab list``.

A run reads one YAML config and validates all of it, the experiment's
grid included, before any task starts; it then executes the named
experiment and writes ``<out>/<experiment>.csv`` plus
``<out>/manifest.json``.  Exit codes: 0 success, 2 a config problem
(always found before the first task, so nothing is written), 3 an
arithmetic or linear-algebra failure during computation.

CSV cells use '.' as the decimal mark and 17 significant digits, so
floats survive a round trip; with the seed fixed the bytes are
identical across runs and thread counts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
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


def _parse_omega(raw) -> float:
    return _OMEGA.read("dynamics.omega", raw)


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
    if kind == "shift":
        omegas = tuple(listof(_OMEGA).read("dynamics.omega", dspec.get("omega")))
    else:
        omegas = (_parse_omega(dspec.get("omega")),)
    if gate:
        for w in omegas:
            _gate_frequency(w)
    return Shift(omega=omegas) if kind == "shift" else SkewShift(omega=omegas[0])


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


def run(config_path, threads=None, out=None, seed=None,
        stream=None) -> int:
    """Load, validate, execute, and write; returns the process exit code."""
    stream = stream if stream is not None else sys.stderr
    try:
        data = _load_config(Path(config_path))
        cfg = validate_config(data, threads=threads, out=out, seed=seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=stream)
        return EXIT_CONFIG

    t0 = time.perf_counter()
    try:
        columns, rows = experiments.run_experiment(
            cfg.experiment, cfg.potential, cfg.dynamics, cfg.grid,
            seed=cfg.seed, threads=cfg.threads)
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


def list_experiments(stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    for name in sorted(experiments.EXPERIMENTS):
        print(f"{name:20s} {experiments.EXPERIMENTS[name].doc}", file=stream)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qplab",
        description="Run quasi-periodic operator experiments from YAML configs.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config", help="path to a YAML experiment config")
    run_p.add_argument("--threads", type=int, default=None,
                       help="worker threads (overrides config)")
    run_p.add_argument("--out", default=None,
                       help="output directory (overrides config)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="root seed (overrides config)")
    sub.add_parser("list", help="list available experiments")
    args = parser.parse_args(argv)
    if args.command == "list":
        return list_experiments()
    return run(args.config, threads=args.threads, out=args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
