"""The qplab CLI: config validation, CSV formatting, exit codes."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import qplab.dynamics as dy
import qplab.experiments as ex
import qplab.expcli as cli

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
    assert cli._parse_omega("golden") == dy.GOLDEN_MEAN
    assert cli._parse_omega("1/3") == pytest.approx(1.0 / 3.0)
    assert cli._parse_omega("0.31") == 0.31
    assert cli._parse_omega(0.25) == 0.25
    with pytest.raises(cli.ConfigError):
        cli._parse_omega("about half")
    with pytest.raises(cli.ConfigError):
        cli._parse_omega("1/0")


def test_diophantine_gate_rejects_rationals():
    with pytest.raises(cli.ConfigError) as exc:
        cli._gate_frequency(0.5)
    assert "Diophantine" in str(exc.value)
    cli._gate_frequency(dy.GOLDEN_MEAN)   # must pass silently


def test_gate_can_be_disabled_per_config():
    spec = {"kind": "shift", "omega": 0.5, "diophantine": False}
    d = cli._build_dynamics(spec)
    assert isinstance(d, dy.Shift) and d.omega == (0.5,)
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
    message = {"bmo_trend": "grid_size >= 1", "fourier_decay": "grid_size >= 1",
               "min_gap": "x_samples >= 1", "hellmann_feynman": "x_samples >= 1",
               "zero_additivity": "n_disks >= 1", "zeros_probe": "n_probes >= 1",
               }.get(experiment, "N >= 1 and x_samples >= 1")
    empty = [key for key, value in grid.items() if value == []]
    if empty:
        message = f"{empty[0]} must be a nonempty list"
    cfg = write_config(tmp_path, {**MIN_GAP_CONFIG, "experiment": experiment,
                                  "grid": grid})
    stream = io.StringIO()
    assert cli.run(cfg, out=tmp_path / "x", stream=stream) == cli.EXIT_CONFIG
    assert message in stream.getvalue()
    assert not (tmp_path / "x").exists()


def test_run_maps_numeric_failures_to_exit_3(tmp_path, monkeypatch):
    def prepare(p, dyn, grid, seed):
        def task():
            raise ArithmeticError("synthetic blowup")
        return [task]

    monkeypatch.setitem(
        ex.EXPERIMENTS, "blowup",
        ex.ExperimentSpec(doc="always fails", columns=("x",), prepare=prepare))
    cfg = write_config(tmp_path, {**MIN_GAP_CONFIG, "experiment": "blowup"})
    stream = io.StringIO()
    assert cli.run(cfg, out=tmp_path / "x", stream=stream) == cli.EXIT_NUMERIC
    assert "synthetic blowup" in stream.getvalue()


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
