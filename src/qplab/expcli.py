"""Config-driven experiment runner: ``qplab run <config>``, ``qplab list``.

A run reads one YAML config, validates it, executes the named
experiment, and writes ``<out>/<experiment>.csv`` plus
``<out>/manifest.json``.  Exit codes: 0 success, 2 configuration or
validation failure, 3 numeric failure during computation.

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


class ConfigError(ValueError):
    """Anything wrong with the config file; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated run: what to compute, over what, and where to put it."""

    experiment: str
    potential: pot_mod.Potential
    dynamics: object
    grid: dict
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


def _build_potential(model) -> pot_mod.Potential:
    if not isinstance(model, dict):
        raise ConfigError("model must be a mapping with 'lam' and a potential")
    unknown = set(model) - {"potential", "lam", "triples"}
    if unknown:
        raise ConfigError(f"unknown model keys {sorted(unknown)}")
    if "lam" not in model:
        raise ConfigError("model.lam (the coupling) is required")
    lam = float(model["lam"])
    kind = model.get("potential", "almost_mathieu")
    try:
        if kind == "almost_mathieu":
            return pot_mod.almost_mathieu(lam)
        if kind == "triples":
            triples = model.get("triples")
            if not triples:
                raise ConfigError(
                    "model.potential 'triples' needs model.triples: "
                    "a list of [k, re, im] coefficient rows")
            return pot_mod.from_triples(
                [(int(k), float(re), float(im)) for k, re, im in triples], lam)
    except pot_mod.ConsistencyError as exc:
        raise ConfigError(f"potential coefficients rejected: {exc}") from exc
    raise ConfigError(
        f"unknown model.potential {kind!r}; use 'almost_mathieu' or 'triples'")


def _parse_omega(raw) -> float:
    if isinstance(raw, str):
        text = raw.strip()
        if text == "golden":
            return dyn_mod.GOLDEN_MEAN
        if "/" in text:
            num, _, den = text.partition("/")
            try:
                return float(num) / float(den)
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"cannot parse frequency {raw!r}") from exc
        try:
            return float(text)
        except ValueError as exc:
            raise ConfigError(f"cannot parse frequency {raw!r}") from exc
    return float(raw)


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
    kind = dspec.get("kind", "shift")
    gate = bool(dspec.get("diophantine", True))
    if kind == "doubling":
        return Doubling()
    if "omega" not in dspec:
        raise ConfigError(f"dynamics.omega is required for kind {kind!r}")
    raw = dspec["omega"]
    if kind == "shift":
        parts = raw if isinstance(raw, (list, tuple)) else [raw]
        omegas = tuple(_parse_omega(v) for v in parts)
        if gate:
            for w in omegas:
                _gate_frequency(w)
        return Shift(omega=omegas)
    if kind in ("skew", "skew_shift"):
        w = _parse_omega(raw)
        if gate:
            _gate_frequency(w)
        return SkewShift(omega=w)
    raise ConfigError(
        f"unknown dynamics.kind {kind!r}; use 'shift', 'skew_shift', or 'doubling'")


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
    if threads is None:
        threads = data.get("threads", 1)
    try:
        seed = int(seed)
        threads = int(threads)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed and threads must be integers: {exc}") from exc
    if threads < 1:
        raise ConfigError("threads must be >= 1")
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
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        # LinAlgError is a ValueError, so it is caught ahead of that clause
        print(f"numeric failure in {cfg.experiment}: "
              f"{type(exc).__name__}: {exc}", file=stream)
        return EXIT_NUMERIC
    except ValueError as exc:
        # parameter validation inside the experiment: still a config problem
        print(f"config error: {exc}", file=stream)
        return EXIT_CONFIG
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
            "parameters": {k: repr(v) for k, v in sorted(cfg.grid.items())},
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
