"""The qplab CLI: config validation, CSV formatting, exit codes."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import qplab.dynamics as dy
import qplab.experiments as ex
import qplab.expcli as cli
import qplab.potential as pt

AMO3 = pt.almost_mathieu(3.0)
GOLDEN = dy.Shift((dy.GOLDEN_MEAN,))

MIN_GAP_CONFIG = {
    "experiment": "min_gap",
    "model": {"potential": "almost_mathieu", "lam": 3.0},
    "dynamics": {"kind": "shift", "omega": "golden"},
    "grid": {"N_list": [20], "x_samples": 2},
    "seed": 4,
}


def write_config(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


# ---------------------------------------------------------------- parsing

def test_parse_omega_forms():
    def parse(raw):
        return cli._OMEGA.read("dynamics.omega", raw)

    assert parse("golden") == dy.GOLDEN_MEAN
    assert parse("1/3") == pytest.approx(1.0 / 3.0)
    assert parse("0.31") == 0.31
    assert parse(0.25) == 0.25
    for bad in ("about half", "1/0", ["golden"], ["golden", 0.3]):
        with pytest.raises(cli.ConfigError, match="dynamics.omega"):
            parse(bad)


def test_diophantine_gate_rejects_rationals():
    with pytest.raises(cli.ConfigError) as exc:
        cli._gate_frequency(0.5)
    assert "Diophantine" in str(exc.value)
    cli._gate_frequency(dy.GOLDEN_MEAN)   # must pass silently


def test_gate_can_be_disabled_per_config():
    spec = {"kind": "shift", "omega": 0.5, "diophantine": False}
    d = cli._build_dynamics(spec)
    assert isinstance(d, dy.Shift) and d.omega == 0.5
    with pytest.raises(cli.ConfigError):
        cli._build_dynamics({"kind": "shift", "omega": 0.5})


def test_build_dynamics_kinds():
    assert isinstance(cli._build_dynamics({"kind": "doubling"}), dy.Doubling)
    sk = cli._build_dynamics({"kind": "skew_shift", "omega": "golden"})
    assert isinstance(sk, dy.SkewShift)
    with pytest.raises(cli.ConfigError):
        cli._build_dynamics({"kind": "hyperbolic", "omega": 0.1})
    with pytest.raises(cli.ConfigError):
        cli._build_dynamics({"kind": "shift"})   # omega missing


def test_build_potential_variants():
    p = cli._build_potential({"potential": "almost_mathieu", "lam": 2.0})
    assert p.lam == 2.0 and p.k0 == 1
    q = cli._build_potential({"potential": "triples", "lam": 1.0,
                              "triples": [[1, 0.5, 0.0], [2, 0.25, 0.1]]})
    assert q.k0 == 2
    with pytest.raises(cli.ConfigError):
        cli._build_potential({"potential": "triples", "lam": 1.0})
    with pytest.raises(cli.ConfigError):
        cli._build_potential({"lam": 1.0, "mystery": 2})
    with pytest.raises(cli.ConfigError):
        cli._build_potential({"potential": "almost_mathieu"})


def test_validate_config_surface():
    cfg = cli.validate_config(dict(MIN_GAP_CONFIG))
    assert cfg.experiment == "min_gap" and cfg.seed == 4 and cfg.threads == 1
    with pytest.raises(cli.ConfigError) as exc:
        cli.validate_config({**MIN_GAP_CONFIG, "experiment": "nope"})
    assert "min_gap" in str(exc.value)    # the listing names what exists
    with pytest.raises(cli.ConfigError):
        cli.validate_config({**MIN_GAP_CONFIG, "threads": 0})
    # the grid is read at validation too
    with pytest.raises(cli.ConfigError, match="grid.N_list"):
        cli.validate_config({**MIN_GAP_CONFIG, "grid": {"N_list": [20, 2.5]}})


def test_grid_seed_alias_and_override_precedence():
    data = dict(MIN_GAP_CONFIG)
    data.pop("seed")
    data["grid"] = {**data["grid"], "seed": 9}
    cfg = cli.validate_config(data)
    assert cfg.seed == 9 and "seed" not in cfg.grid
    cfg2 = cli.validate_config(data, seed=13)
    assert cfg2.seed == 13


# ------------------------------------------------------------- formatting

def test_format_cell_round_trips_floats():
    rng = np.random.default_rng(8)
    for v in rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50):
        assert float(cli._format_cell(float(v))) == v


def test_format_cell_special_values():
    assert cli._format_cell(float("nan")) == "nan"
    assert cli._format_cell(math.inf) == "inf"
    assert cli._format_cell(-math.inf) == "-inf"
    assert cli._format_cell(True) == "1"
    assert cli._format_cell(np.bool_(False)) == "0"
    assert cli._format_cell(np.int64(7)) == "7"
    assert cli._format_cell("label") == "label"


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    cli.write_csv(path, ["a", "b"], [(1, 2.5), (3, float("nan"))])
    text = path.read_text()
    assert text == "a,b\n1,2.5\n3,nan\n"
    with pytest.raises(ValueError):
        cli.write_csv(path, ["a", "b"], [(1,)])


# ------------------------------------------------------------- run + main

def test_run_writes_csv_and_manifest(tmp_path):
    cfg = write_config(tmp_path, {**MIN_GAP_CONFIG, "out": str(tmp_path / "r")})
    code = cli.run(cfg, stream=io.StringIO())
    assert code == cli.EXIT_OK
    csv_path = tmp_path / "r" / "min_gap.csv"
    assert csv_path.exists()
    manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
    assert manifest["version"]
    assert manifest["results"][0]["experiment"] == "min_gap"
    assert manifest["results"][0]["metrics"]["rows"] == 2
    header = csv_path.read_text().splitlines()[0]
    assert tuple(header.split(",")) == ex.EXPERIMENTS["min_gap"].columns


def test_run_is_byte_identical_across_threads(tmp_path):
    cfg = write_config(tmp_path, dict(MIN_GAP_CONFIG))
    assert cli.run(cfg, out=tmp_path / "one", threads=1,
                   stream=io.StringIO()) == 0
    assert cli.run(cfg, out=tmp_path / "eight", threads=8,
                   stream=io.StringIO()) == 0
    a = (tmp_path / "one" / "min_gap.csv").read_bytes()
    b = (tmp_path / "eight" / "min_gap.csv").read_bytes()
    assert a == b


def test_run_flags_config_problems(tmp_path):
    stream = io.StringIO()
    bad = write_config(tmp_path, {**MIN_GAP_CONFIG,
                                  "dynamics": {"kind": "shift", "omega": 0.5}})
    assert cli.run(bad, stream=stream) == cli.EXIT_CONFIG
    assert "Diophantine" in stream.getvalue()
    assert cli.run(tmp_path / "missing.yaml",
                   stream=io.StringIO()) == cli.EXIT_CONFIG
    not_yaml = tmp_path / "n.yaml"
    not_yaml.write_text("just: [unclosed")
    assert cli.run(not_yaml, stream=io.StringIO()) == cli.EXIT_CONFIG


BUNDLED = sorted((Path(cli.__file__).parent / "configs").glob("*.yaml"))


@pytest.mark.parametrize("path", BUNDLED, ids=[p.stem for p in BUNDLED])
def test_bundled_configs_load_the_same_under_both_loaders(path):
    # libyaml's loader where PyYAML has it, the pure-Python one otherwise
    assert cli._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    text = path.read_text()
    want = yaml.load(text, Loader=yaml.SafeLoader)
    assert cli._load_config(path) == want
    if hasattr(yaml, "CSafeLoader"):
        assert yaml.load(text, Loader=yaml.CSafeLoader) == want


@pytest.mark.parametrize("text", ["a: b: c", "key: 'open", "x: 1\n\ty: 2",
                                  "!!python/object:os.system x"])
def test_invalid_yaml_exits_2(tmp_path, text):
    # the safe loaders construct no Python objects: a python tag is invalid
    path = tmp_path / "n.yaml"
    path.write_text(text)
    stream = io.StringIO()
    assert cli.run(path, out=tmp_path / "x", stream=stream) == cli.EXIT_CONFIG
    assert "is not valid YAML" in stream.getvalue()


def test_run_flags_bad_grid_as_config_error(tmp_path):
    stream = io.StringIO()
    cfg = write_config(tmp_path, {**MIN_GAP_CONFIG,
                                  "grid": {"N_list": [20], "beans": 1}})
    assert cli.run(cfg, out=tmp_path / "x", stream=stream) == cli.EXIT_CONFIG
    assert "beans" in stream.getvalue()


@pytest.mark.parametrize("experiment, grid", [
    ("ids", {"E": [0.0], "N": 0}),
    ("ids", {"E": [0.0], "N": 50, "x_samples": 0}),
    ("holder_scan", {"E": [0.0], "N": 0}),
    ("wegner", {"E": [0.0], "N": 50, "x_samples": 0}),
    ("bmo_trend", {"E": 0.0, "n_list": [20], "grid_size": 0}),
    ("fourier_decay", {"E": 0.0, "n": 20, "grid_size": 0, "modes": 4}),
    ("min_gap", {"N_list": [20], "x_samples": 0}),
    ("concatenation_bound", {"E": 0.0, "N": 0, "x_samples": 1}),
    ("wegner", {"E": [0.0], "H_list": []}),
    ("concatenation_bound", {"E": 0.0, "eta_list": []}),
    ("hellmann_feynman", {"indices": []}),
    ("hellmann_feynman", {"x_samples": 0}),
    ("zero_additivity", {"E": 0.5, "n_disks": 0}),
    ("zeros_probe", {"E": 0.5, "n_probes": 0}),
])
def test_run_flags_empty_samples_as_config_error(tmp_path, experiment, grid):
    # N = 0 used to write a NaN ids row, x_samples = 0 to divide by zero; a
    # zero grid_size divided by zero, a min_gap without samples wrote a bare
    # header, and concatenation_bound at N = 0 failed inside numpy; an
    # empty list or a zero count of the last six cases wrote a bare header
    bad = next(key for key, value in grid.items()
               if value == [] or (value == 0 and isinstance(value, int)))
    cfg = write_config(tmp_path, {**MIN_GAP_CONFIG, "experiment": experiment,
                                  "grid": grid})
    stream = io.StringIO()
    assert cli.run(cfg, out=tmp_path / "x", stream=stream) == cli.EXIT_CONFIG
    assert f"grid.{bad} " in stream.getvalue()
    assert not (tmp_path / "x").exists()


NAN = float("nan")


# Each grid once crashed with a traceback, ran with a silently altered
# value, failed deep in the library, or was refused only inside a task.
@pytest.mark.parametrize("experiment, grid, key", [
    ("ldt_decay", {"E": [0.0]}, "E"),
    ("zeros_probe", {"E": [0.5]}, "E"),
    ("ids", {"E": [0.0], "N": None}, "N"),
    ("ids", {"E": [0.0], "N": 2.7}, "N"),
    ("ids", {"E": [1.0, 0.0]}, "E"),
    ("ids", {"E": {"start": 3.0, "stop": -3.0, "count": 7}}, "E"),
    ("ids", {"E": {"start": 0.0, "stop": 1.0}}, "E"),
    ("green_decay", {"E": [0.0], "j_site": [1]}, "j_site"),
    ("green_decay", {"E": [0.0], "N": 30, "j_site": 31}, "j_site"),
    ("green_decay", {"E": [0.0], "eta": 0.0}, "eta"),
    ("min_gap", {"window": [1.0]}, "window"),
    ("min_gap", {"window": [1.0, -1.0]}, "window"),
    ("wegner", {"E": [0.0], "H_list": [5.0, NAN]}, "H_list"),
    ("wegner", {"E": [0.0], "H_list": [0.5]}, "H_list"),
    ("holder_scan", {"E": [0.0], "h_list": [0.1, -0.01]}, "h_list"),
    ("holder_scan", {"E": [0.0], "h_list": [1.0]}, "h_list"),
    ("lyapunov_scan", {"E": [0.0], "n_list": [100, 300]}, "n_list"),
    ("lyapunov_scan", {"E": [0.0], "sampler": "sobol"}, "sampler"),
    ("lyapunov_scan", {"E": [0.0], "m_samples": 0}, "m_samples"),
    ("ldt_decay", {"E": 0.0, "statistic": "trace"}, "statistic"),
    ("ldt_decay", {"E": 0.0, "n_list": [100, "x"]}, "n_list"),
    ("ldt_decay", {"E": 0.0, "x_samples": 0}, "x_samples"),
    ("ldt_decay", {"E": 0.0, "exponent": 400.0}, "exponent"),
    ("bmo_trend", {"E": 0.0, "grid_size": 100}, "grid_size"),
    ("fourier_decay", {"E": 0.0, "grid_size": 64, "modes": 40}, "grid_size"),
    ("hellmann_feynman", {"N": 30, "indices": [30]}, "indices"),
    ("hellmann_feynman", {"h": 0.0}, "h"),
    ("avalanche_fuzz", {"n": 1}, "n"),
    ("avalanche_fuzz", {"mu": 0.0}, "mu"),
    ("avalanche_fuzz", {"mu": 1e-320}, "mu"),
    ("avalanche_fuzz", {"n": 5, "mu": 1e100}, "mu"),
    ("avalanche_fuzz", {"rot": -1.0}, "rot"),
    ("positivity_probe", {"E": [0.0], "ell": 0}, "ell"),
    ("positivity_probe", {"E": [0.0], "sigma": NAN}, "sigma"),
    ("thouless_check", {"E": [0.0], "N": -5}, "N"),
    ("concatenation_bound", {"E": 0.0, "eta_list": [0.05, NAN]}, "eta_list"),
    ("zero_additivity", {"E": 0.5, "radius": 0.0}, "radius"),
    ("zeros_probe", {"E": 0.5, "radius": -0.1}, "radius"),
    # a probe disk that reaches z = 0, the determinant's pole, used to exit 3
    # (a winding unstable or "not analytic") or overflow inside a task
    ("zeros_probe", {"E": 0.5, "radius": 1.0}, "radius"),
    ("zeros_probe", {"E": 0.5, "annulus_y": 2.0}, "annulus_y"),
    ("zeros_probe", {"E": 0.5, "annulus_y": 1e300}, "annulus_y"),
    ("zero_additivity", {"E": 0.5, "y_scale": 1e300}, "y_scale"),
    # eta ** 2 and ell ** (-sigma / 4) used to raise OverflowError inside a task
    ("concatenation_bound", {"E": 0.0, "eta_list": [1e300]}, "eta_list"),
    ("positivity_probe", {"E": [0.0], "sigma": -1e300}, "sigma"),
])
def test_a_bad_grid_value_exits_2_before_any_task(tmp_path, experiment, grid, key):
    with pytest.raises(cli.ConfigError, match=key):
        ex.EXPERIMENTS[experiment].prepare(AMO3, GOLDEN, grid)
    cfg = write_config(tmp_path, {**MIN_GAP_CONFIG, "experiment": experiment,
                                  "grid": grid})
    stream = io.StringIO()
    assert cli.run(cfg, out=tmp_path / "x", stream=stream) == cli.EXIT_CONFIG
    assert stream.getvalue().startswith("config error: ") and key in stream.getvalue()
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("experiment, dynamics", [
    ("bmo_trend", {"kind": "skew_shift", "omega": "golden"}),
    ("fourier_decay", {"kind": "skew_shift", "omega": "golden"}),
    ("hellmann_feynman", {"kind": "doubling"}),
    ("zeros_probe", {"kind": "skew_shift", "omega": "golden"}),
])
def test_dynamics_an_experiment_cannot_run_exit_2(tmp_path, experiment, dynamics):
    # the phase-grid statistics used to refuse a skew shift inside a task
    grid = {"hellmann_feynman": {"N": 8}, "zeros_probe": {"E": 0.5, "N": 8}}.get(
        experiment, {"E": 0.0})
    refusal = "needs (shift|one-dimensional) dynamics"
    with pytest.raises(cli.ConfigError, match=refusal):
        ex.EXPERIMENTS[experiment].prepare(AMO3, cli._build_dynamics(dynamics), grid)
    cfg = write_config(tmp_path, {**MIN_GAP_CONFIG, "experiment": experiment,
                                  "dynamics": dynamics, "grid": grid})
    stream = io.StringIO()
    assert cli.run(cfg, out=tmp_path / "x", stream=stream) == cli.EXIT_CONFIG
    assert re.search(refusal, stream.getvalue())
    assert not (tmp_path / "x").exists()


def test_a_shift_with_two_frequencies_exits_2(tmp_path):
    # a potential is a polynomial in one variable, so a second frequency
    # would change nothing; the config is refused instead of run on T^1
    cfg = write_config(tmp_path, {
        "experiment": "lyapunov_scan",
        "model": {"potential": "almost_mathieu", "lam": 3.0},
        "dynamics": {"kind": "shift", "omega": ["golden", 0.3]},
        "grid": {"E": [0.0], "n_list": [50, 100], "m_samples": 20}})
    stream = io.StringIO()
    assert cli.run(cfg, out=tmp_path / "x", stream=stream) == cli.EXIT_CONFIG
    assert stream.getvalue().startswith("config error: dynamics.omega must be ")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key, change", [
    ("model.lam", {"model": {"potential": "almost_mathieu", "lam": "abc"}}),
    ("model.lam", {"model": {"potential": "almost_mathieu", "lam": None}}),
    ("model.triples", {"model": {"potential": "triples", "lam": 1.0,
                                 "triples": [[1, 0.5]]}}),
    ("model.triples", {"model": {"potential": "triples", "lam": 1.0,
                                 "triples": [[1.5, 0.5, 0.0]]}}),
    ("dynamics.omega", {"dynamics": {"kind": "shift", "omega": None}}),
    ("dynamics.omega", {"dynamics": {"kind": "skew_shift", "omega": ["golden", 0.3]}}),
    ("dynamics.diophantine", {"dynamics": {"kind": "shift", "omega": "golden",
                                           "diophantine": "no"}}),
    ("seed", {"seed": 1.5}),
    ("threads", {"threads": 2.5}),
    ("out", {"out": 5}),
])
def test_a_bad_top_level_value_exits_2(tmp_path, key, change):
    cfg = write_config(tmp_path, {**MIN_GAP_CONFIG, **change})
    stream = io.StringIO()
    out = tmp_path / "x" if key != "out" else None
    assert cli.run(cfg, out=out, stream=stream) == cli.EXIT_CONFIG
    assert stream.getvalue().startswith("config error: ") and key in stream.getvalue()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]


@pytest.mark.parametrize("experiment, grid", [
    ("ids", {"E": {"start": -3.0, "stop": 3.0, "count": 5}, "N": 40}),
    ("hellmann_feynman", {"N": 24, "x_samples": 1}),
    ("min_gap", {"N_list": [20]}),
])
def test_a_grid_rebuilt_from_the_manifest_gives_the_same_csv(tmp_path, experiment, grid):
    # the manifest records every parameter as a typed JSON value, defaults
    # included and the energy range expanded
    data = {**MIN_GAP_CONFIG, "experiment": experiment, "grid": grid}
    assert cli.run(write_config(tmp_path, data), out=tmp_path / "a",
                   stream=io.StringIO()) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    params = manifest["results"][0]["parameters"]
    assert sorted(params) == sorted(q.name for q in ex.EXPERIMENTS[experiment].params)
    rebuilt = write_config(tmp_path, {**data, "grid": params}, name="rebuilt.yaml")
    assert cli.run(rebuilt, out=tmp_path / "b", stream=io.StringIO()) == cli.EXIT_OK
    csv_name = f"{experiment}.csv"
    assert (tmp_path / "a" / csv_name).read_bytes() == (tmp_path / "b" / csv_name).read_bytes()
    if experiment == "ids":
        assert params["E"] == np.linspace(-3.0, 3.0, 5).tolist() and params["chunk"] == 64


def failing_experiment(monkeypatch, exc):
    """Register an experiment "blowup" whose one task raises ``exc``."""
    def build(p, dyn):
        def task(seed):
            raise exc
        return [task]

    monkeypatch.setitem(
        ex.EXPERIMENTS, "blowup",
        ex.ExperimentSpec(doc="always fails", columns=("x",), params=(), build=build))
    return {**MIN_GAP_CONFIG, "experiment": "blowup", "grid": {}}


def test_run_maps_numeric_failures_to_exit_3(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, failing_experiment(
        monkeypatch, ArithmeticError("synthetic blowup")))
    stream = io.StringIO()
    assert cli.run(cfg, out=tmp_path / "x", stream=stream) == cli.EXIT_NUMERIC
    assert "synthetic blowup" in stream.getvalue()


def test_a_value_error_from_a_task_is_not_a_config_error(tmp_path, monkeypatch):
    # the grid is checked before any task starts, so a ValueError from a
    # task is a defect in the program: it propagates instead of exiting 2
    cfg = write_config(tmp_path, failing_experiment(
        monkeypatch, ValueError("synthetic defect")))
    stream = io.StringIO()
    with pytest.raises(ValueError, match="synthetic defect"):
        cli.run(cfg, out=tmp_path / "x", stream=stream)
    assert "config error" not in stream.getvalue()
    assert not (tmp_path / "x").exists()


def test_run_maps_linear_algebra_failures_to_exit_3(tmp_path, monkeypatch):
    # LinAlgError subclasses ValueError, yet a task's LinAlgError is numeric
    def eigvals(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    probe = {**MIN_GAP_CONFIG, "experiment": "zeros_probe",
             "grid": {"E": 0.5, "N": 16, "n_probes": 2, "radius": 0.06,
                      "annulus_y": 0.09}}
    stream = io.StringIO()
    cfg = write_config(tmp_path, probe)
    assert cli.run(cfg, out=tmp_path / "x", stream=stream) == cli.EXIT_NUMERIC
    assert "LinAlgError: Eigenvalues did not converge" in stream.getvalue()
    assert not (tmp_path / "x").exists()
    bad = write_config(tmp_path, {**probe, "grid": {**probe["grid"], "n_probes": 0}})
    stream = io.StringIO()
    assert cli.run(bad, out=tmp_path / "y", stream=stream) == cli.EXIT_CONFIG
    assert "config error" in stream.getvalue()


# Criterion 16 where the Sturm pivots tie: at lam = 0 on 1001 sites
# E = -1, 0, 1 are eigenvalues, so the integer pivots hit exact zeros,
# which IEEE infinities carry through the sweep.
TIE_CONFIGS = {
    "ids_tie": {"experiment": "ids",
                "grid": {"E": [-2.0, -1.0, 0.0, 1.0, 2.0], "N": 1001, "x_samples": 4}},
    # the shift sweeps the H = 10 pairs only over the phases H = 5 caught
    "wegner_tie": {"experiment": "wegner",
                   "grid": {"E": [-1.0, 0.0, 1.0], "H_list": [5.0, 10.0], "N": 201,
                            "x_samples": 300}},
    # exp(-800) = 0, so each pair E +- h is E itself, where the lam = 0
    # pivots hit exact zeros; the doubling map sweeps every pair over
    # every phase, under its rng noise
    "wegner_doubling_tie": {"experiment": "wegner", "dynamics": {"kind": "doubling"},
                            "grid": {"E": [-1.0, 0.0, 1.0], "H_list": [5.0, 800.0],
                                     "N": 201, "x_samples": 300}},
    # the skew shift sweeps every pair over every phase too (no ties at lam = 3)
    "wegner_skew": {"experiment": "wegner", "dynamics": {"kind": "skew_shift", "omega": "golden"},
                    "model": {"potential": "almost_mathieu", "lam": 3.0},
                    "grid": {"E": [-1.0, 0.0, 1.0], "H_list": [5.0, 10.0], "N": 201,
                             "x_samples": 300}},
}


def csvs_at_one_and_two_threads(tmp_path, data) -> list:
    """The CSV bytes of one config run at 1 and at 2 threads, where a numpy
    RuntimeWarning (a log of an exact zero left unguarded) fails the run."""
    cfg = write_config(tmp_path, data)
    csvs = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for t in (1, 2):
            assert cli.run(cfg, out=tmp_path / f"t{t}", threads=t,
                           stream=io.StringIO()) == cli.EXIT_OK
            csvs.append((tmp_path / f"t{t}" / f"{data['experiment']}.csv").read_bytes())
    return csvs


@pytest.mark.parametrize("name", sorted(TIE_CONFIGS))
def test_exact_tie_runs_are_byte_identical_across_threads(tmp_path, name):
    csvs = csvs_at_one_and_two_threads(tmp_path, {
        **MIN_GAP_CONFIG, "seed": 5, "model": {"potential": "almost_mathieu", "lam": 0.0},
        **TIE_CONFIGS[name]})
    assert csvs[0] == csvs[1]
    if name == "ids_tie":
        # an eigenvalue at E is not counted: 333, 500 and 667 of 1001 lie below
        rows = list(csv.DictReader(io.StringIO(csvs[0].decode())))
        assert [float(r["ids"]) for r in rows] == [0.0, 333 / 1001, 500 / 1001,
                                                   667 / 1001, 1.0]


DEG3_MODEL = {"potential": "triples", "lam": 2.5,
              "triples": [[0, 0.2, 0.0], [1, 0.5, 0.0], [2, 0.1, -0.15], [3, 0.0, 0.2]]}
# Criterion 16 on paths the bundled configs (one energy each, almost
# Mathieu, 6 disks and 8 probes) do not reach:
SMOKE_CONFIGS = {
    # several energies: a grid lyapunov_scan runs them as one pass, and a
    # doubling thouless_check reads both statistics from one pass per energy
    "scan3": {"experiment": "lyapunov_scan",
              "grid": {"E": [0.0, 0.5, 1.0], "n_list": [100, 200], "m_samples": 300,
                       "sampler": "grid"}},
    "doubling3": {"experiment": "thouless_check", "dynamics": {"kind": "doubling"},
                  "grid": {"E": [0.0, 0.5, 1.0], "N": 400, "x_samples": 200}},
    # workers that share handles: every zero_additivity task reads the
    # lazily solved zeros of one handle triple, so two workers may race
    # one eigensolve
    "additivity12": {"experiment": "zero_additivity",
                     "grid": {"E": 0.5, "m": 16, "n_disks": 12, "radius": 0.1,
                              "y_scale": 0.08}},
    "probe16": {"experiment": "zeros_probe",
                "grid": {"E": 0.5, "N": 32, "n_probes": 16, "radius": 0.06,
                         "annulus_y": 0.09}},
    # a degree-3 potential (three positive harmonics) through the real
    # stream, the energy groups of a grid scan, and the complex stream
    # and companion eigensolve
    "scan_deg3": {"experiment": "lyapunov_scan", "model": DEG3_MODEL,
                  "grid": {"E": [-0.5, 0.0, 0.7], "n_list": [100, 200], "m_samples": 300,
                           "sampler": "grid"}},
    "ldt_deg3": {"experiment": "ldt_decay", "model": DEG3_MODEL,
                 "grid": {"E": 0.0, "n_list": [100, 400], "exponent": 0.9,
                          "x_samples": 1000, "statistic": "transfer_norm"}},
    "probe_deg3": {"experiment": "zeros_probe", "model": DEG3_MODEL,
                   "grid": {"E": 0.5, "N": 32, "n_probes": 8, "radius": 0.06,
                            "annulus_y": 0.09}},
}


@pytest.mark.parametrize("name", sorted(SMOKE_CONFIGS))
def test_smoke_runs_are_byte_identical_across_threads(tmp_path, name):
    model = {"potential": "almost_mathieu", "lam": 3.0}
    csvs = csvs_at_one_and_two_threads(tmp_path, {
        **MIN_GAP_CONFIG, "model": model, "seed": 5, **SMOKE_CONFIGS[name]})
    assert csvs[0] == csvs[1]


def test_main_list_prints_the_catalogue(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert names == sorted(ex.EXPERIMENTS)


def test_python_m_qplab_lists_the_catalogue_without_warnings():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "qplab", "list"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names = [line.split()[0] for line in done.stdout.strip().splitlines()]
    assert names == sorted(ex.EXPERIMENTS) and len(names) == 16
    assert "RuntimeWarning" not in done.stderr


def test_main_run_passes_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(MIN_GAP_CONFIG))
    code = cli.main(["run", str(cfg), "--out", str(tmp_path / "o"),
                     "--seed", "2", "--threads", "2"])
    assert code == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["config"]["resolved"]["seed"] == 2
    assert manifest["config"]["resolved"]["threads"] == 2


def test_list_name_prints_the_parameter_table(capsys):
    assert cli.main(["list", "hellmann_feynman"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("hellmann_feynman: ")
    rows = {line.split()[0]: line for line in lines[1:]}
    assert list(rows) == [q.name for q in ex.EXPERIMENTS["hellmann_feynman"].params]
    assert rows["N"].endswith("an integer >= 1 (default 60)")
    assert "computed from the parameters above" in rows["indices"]
    assert cli.main(["list", "ids"]) == 0
    assert "(required)" in capsys.readouterr().out
    assert cli.main(["list", "spectral_gap"]) == cli.EXIT_CONFIG
    assert "spectral_gap" in capsys.readouterr().err


def test_table_constants_read_from_the_source_match_the_library():
    import qplab.deviations as dv
    import qplab.zeros as zr

    assert ex._library_constant("deviations", "STATISTICS") == dv.STATISTICS
    assert ex._MIN_BMO_GRID == dv.MIN_BMO_GRID
    assert ex._ANNULUS_HALF_WIDTH == zr.ANNULUS_HALF_WIDTH


# ------------------------------------------------------------ start-up

NUMERICS = ["qplab.cocycle", "qplab.lyapunov", "qplab.deviations", "qplab.spectrum",
            "qplab.zeros", "scipy", "concurrent.futures"]

STARTUP_PROBE = """
import contextlib, io, json, sys
from pathlib import Path

def loaded():
    return sorted(m for m in NUMERICS if m in sys.modules)

stages = {}
import qplab
stages["import"] = loaded()
from qplab import expcli
with contextlib.redirect_stdout(io.StringIO()):
    expcli.main(["list"])
    expcli.main(["list", "wegner"])
stages["list"] = loaded()
for path in sorted((Path(expcli.__file__).parent / "configs").glob("*.yaml")):
    expcli.validate_config(expcli._load_config(path))
stages["validate"] = loaded()
code = expcli.main(["run", str(Path(expcli.__file__).parent / "configs" / "lyapunov_scan.yaml"),
                    "--out", sys.argv[1]])
stages["lyapunov_scan"] = [code, loaded()]
stages["attribute"] = qplab.zeros.ANNULUS_HALF_WIDTH
namespace = {}
exec("from qplab import *", namespace)
stages["star"] = sorted(name for name in qplab.__all__ if name not in namespace)
print(json.dumps(stages))
"""


def test_import_list_and_validation_load_no_numerics(tmp_path):
    # deterministic stand-in for start-up time: which modules a fresh
    # interpreter has loaded after each stage
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"NUMERICS = {NUMERICS!r}\n" + STARTUP_PROBE
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "scan")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    stages = json.loads(done.stdout.strip().splitlines()[-1])
    assert stages["import"] == stages["list"] == stages["validate"] == []
    # a one-thread lyapunov_scan loads the transfer kernels and nothing else
    assert stages["lyapunov_scan"] == [0, ["qplab.cocycle", "qplab.lyapunov"]]
    assert stages["attribute"] == 0.05
    assert stages["star"] == []


# ------------------------------------------------------- several configs

def several_configs(tmp_path, third=None) -> list:
    """Three small configs, each with its own out directory under tmp_path."""
    grids = [
        {**MIN_GAP_CONFIG},
        {**MIN_GAP_CONFIG, "experiment": "lyapunov_scan",
         "grid": {"E": [0.0, 0.5], "n_list": [50, 100], "m_samples": 50}},
        third or {**MIN_GAP_CONFIG, "experiment": "zeros_probe",
                  "grid": {"E": 0.5, "N": 16, "n_probes": 2, "radius": 0.05,
                           "annulus_y": 0.05}},
    ]
    return [write_config(tmp_path, {**data, "out": str(tmp_path / f"out{i}")},
                         name=f"c{i}.yaml")
            for i, data in enumerate(grids)]


@pytest.mark.parametrize("threads", [1, 2])
def test_one_run_of_several_configs_writes_what_separate_runs_write(tmp_path, threads):
    paths = several_configs(tmp_path)
    for i, path in enumerate(paths):
        assert cli.run(path, out=tmp_path / f"alone{i}", threads=threads,
                       stream=io.StringIO()) == cli.EXIT_OK
    assert cli.main(["run", *map(str, paths), "--threads", str(threads)]) == cli.EXIT_OK
    for i, path in enumerate(paths):
        name = yaml.safe_load(path.read_text())["experiment"]
        batch, alone = tmp_path / f"out{i}", tmp_path / f"alone{i}"
        assert (batch / f"{name}.csv").read_bytes() == (alone / f"{name}.csv").read_bytes()
        results = [json.loads((d / "manifest.json").read_text())["results"][0]
                   for d in (batch, alone)]
        assert results[0]["parameters"] == results[1]["parameters"]


@pytest.mark.parametrize("third, key", [
    ({**MIN_GAP_CONFIG, "grid": {"N_list": [20], "x_samples": 2.5}}, "x_samples"),
    # found by the builder, not the table: the tasks are built up front too
    ({**MIN_GAP_CONFIG, "experiment": "zeros_probe",
      "grid": {"E": 0.5, "radius": 1.0}}, "radius"),
])
def test_an_invalid_config_in_a_batch_writes_nothing(tmp_path, capsys, third, key):
    paths = several_configs(tmp_path, third)
    assert cli.main(["run", *map(str, paths)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(paths[2]) in err and key in err
    assert not any((tmp_path / f"out{i}").exists() for i in range(3))


def test_a_batch_needs_one_out_directory_per_config(tmp_path, capsys):
    paths = several_configs(tmp_path)
    assert cli.main(["run", *map(str, paths), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert "--out" in capsys.readouterr().err
    same = write_config(tmp_path, {**MIN_GAP_CONFIG,
                                   "out": str(tmp_path / "x" / ".." / "out0")}, name="same.yaml")
    assert cli.main(["run", str(paths[0]), str(same)]) == cli.EXIT_CONFIG
    assert str(tmp_path / "out0") in capsys.readouterr().err
    assert not any(p.is_dir() for p in tmp_path.iterdir())


def test_a_batch_stops_at_the_first_numeric_failure(tmp_path, monkeypatch, capsys):
    blowup = write_config(tmp_path, {**failing_experiment(
        monkeypatch, ArithmeticError("synthetic blowup")), "out": str(tmp_path / "bad")},
        name="blowup.yaml")
    paths = several_configs(tmp_path)
    assert cli.main(["run", str(paths[0]), str(blowup), str(paths[2])]) == cli.EXIT_NUMERIC
    assert "synthetic blowup" in capsys.readouterr().err
    assert (tmp_path / "out0" / "min_gap.csv").exists()
    assert not (tmp_path / "bad").exists() and not (tmp_path / "out2").exists()
