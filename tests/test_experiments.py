"""The experiment registry: smoke runs, determinism, task seeding."""

import hashlib
import io
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
import yaml

import qplab.dynamics as dy
import qplab.expcli as cli
import qplab.experiments as ex
import qplab.potential as pt
import qplab.spectrum as sp
import qplab.zeros as zr

AMO3 = pt.almost_mathieu(3.0)
SHIFT = dy.Shift((dy.GOLDEN_MEAN,))
# the doubling map draws rng noise after the phases: a merged sweep must
# consume the same stream as the per-task calls it replaces
MAPS = pytest.mark.parametrize("dyn", [SHIFT, dy.Doubling()],
                               ids=["shift", "doubling"])

ALL_NAMES = [
    "avalanche_fuzz", "bmo_trend", "concatenation_bound", "fourier_decay",
    "green_decay", "hellmann_feynman", "holder_scan", "ids", "ldt_decay",
    "lyapunov_scan", "min_gap", "positivity_probe", "thouless_check",
    "wegner", "zero_additivity", "zeros_probe",
]

# one small but nontrivial grid per experiment
SMOKE_GRIDS = {
    "lyapunov_scan": {"E": [0.0], "n_list": [50, 100], "m_samples": 50},
    "positivity_probe": {"E": [0.0], "ell": 16, "m_samples": 100},
    "avalanche_fuzz": {"trials": 12, "n": 20, "mu": 1e4, "chunk": 5},
    "ids": {"E": {"start": -3.0, "stop": 3.0, "count": 7}, "N": 100,
            "x_samples": 4, "chunk": 3},
    "holder_scan": {"E": [0.0], "h_list": [0.1, 0.01], "N": 100,
                    "x_samples": 4},
    "wegner": {"E": {"start": -1.0, "stop": 1.0, "count": 2},
               "H_list": [5.0, 10.0], "N": 50, "x_samples": 100},
    "min_gap": {"N_list": [20], "x_samples": 2},
    "ldt_decay": {"E": 0.0, "n_list": [50, 100], "x_samples": 200},
    "bmo_trend": {"E": 0.0, "n_list": [50], "grid_size": 256,
                  "statistic": "det"},
    "fourier_decay": {"E": 0.0, "n": 50, "grid_size": 512, "modes": 8,
                      "statistic": "det"},
    "thouless_check": {"E": [0.0], "N": 200, "x_samples": 50},
    "green_decay": {"E": [0.0], "N": 30, "eta": 1e-3},
    "hellmann_feynman": {"N": 30, "x_samples": 2},
    "concatenation_bound": {"E": 0.0, "N": 30, "eta_list": [0.05],
                            "x_samples": 2},
    "zero_additivity": {"E": 0.5, "m": 8, "n_disks": 2, "radius": 0.1},
    "zeros_probe": {"E": 0.5, "N": 16, "n_probes": 2, "radius": 0.05,
                    "annulus_y": 0.05},
}


def test_registry_holds_the_full_catalogue():
    assert sorted(ex.EXPERIMENTS) == ALL_NAMES
    for spec in ex.EXPERIMENTS.values():
        assert spec.doc and spec.columns


def test_unknown_experiment_lists_what_exists():
    with pytest.raises(ValueError) as exc:
        ex.run_experiment("spectral_gap", AMO3, SHIFT, {})
    msg = str(exc.value)
    assert "spectral_gap" in msg and "lyapunov_scan" in msg


@pytest.mark.parametrize("name", ALL_NAMES)
def test_experiment_smoke(name):
    columns, rows = ex.run_experiment(name, AMO3, SHIFT, SMOKE_GRIDS[name],
                                      seed=3)
    assert tuple(columns) == ex.EXPERIMENTS[name].columns
    assert rows
    for row in rows:
        assert len(row) == len(columns)


def test_unknown_grid_key_is_rejected():
    with pytest.raises(ValueError) as exc:
        ex.run_experiment("min_gap", AMO3, SHIFT,
                          {"N_list": [20], "x_samples": 1, "banana": 3})
    assert "banana" in str(exc.value)


def test_missing_required_parameter_is_rejected():
    with pytest.raises(ValueError):
        ex.run_experiment("green_decay", AMO3, SHIFT, {"N": 30, "eta": 1e-3})


@pytest.mark.parametrize("name", ALL_NAMES)
def test_odd_values_in_every_table_entry_exit_0_2_or_3(tmp_path, name):
    # each entry of the table, in turn, set to values of the wrong type,
    # NaN, a negative, zero and a fraction: the run may succeed, refuse
    # the config or fail numerically, but never raises, and a refused
    # config writes nothing
    base = {"experiment": name, "model": {"potential": "almost_mathieu", "lam": 3.0},
            "dynamics": {"kind": "shift", "omega": "golden"}, "seed": 4}
    cfg, out = tmp_path / "cfg.yaml", tmp_path / "out"
    for param in ex.EXPERIMENTS[name].params:
        for value in (None, "x", [], math.nan, -1, 0, 2.5):
            cfg.write_text(yaml.safe_dump(
                {**base, "grid": {**SMOKE_GRIDS[name], param.name: value}}))
            shutil.rmtree(out, ignore_errors=True)
            code = cli.run(cfg, out=out, stream=io.StringIO())
            assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC), (param.name, value)
            assert code != cli.EXIT_CONFIG or not out.exists(), (param.name, value)


@pytest.mark.parametrize("name", ["ids", "holder_scan", "wegner",
                                  "lyapunov_scan", "zero_additivity"])
def test_thread_count_does_not_change_rows(name):
    one = ex.run_experiment(name, AMO3, SHIFT, SMOKE_GRIDS[name], seed=7,
                            threads=1)
    four = ex.run_experiment(name, AMO3, SHIFT, SMOKE_GRIDS[name], seed=7,
                             threads=4)
    assert one == four


def test_zero_additivity_solves_each_window_once_per_run(tmp_path, monkeypatch):
    # the bundled 6-disk config: every disk and retry reads the zeros of
    # one shared handle triple, so f_m and f_2m are each solved at most
    # once (one handle per run and disk would solve them once per disk)
    solved = []

    def counting(p, omega, E, a, b):
        solved.append((a, b))
        return companion(p, omega, E, a, b)

    companion = zr._companion_zeros
    monkeypatch.setattr(zr, "_companion_zeros", counting)
    cfg = Path(ex.__file__).parent / "configs" / "zero_additivity.yaml"
    assert cli.run(cfg, out=tmp_path / "t1", threads=1) == 0
    assert solved and sorted(solved) == sorted(set(solved)) and set(solved) <= {(1, 16), (1, 32)}


def test_task_seed_is_a_sha256_prefix():
    digest = hashlib.sha256(b"11:ids:3").digest()
    expected = int.from_bytes(digest[:8], "big")
    assert ex.task_seed(11, "ids", 3) == expected
    assert ex.task_seed(11, "ids", 3) != ex.task_seed(11, "ids", 4)
    assert ex.task_seed(11, "ids", 3) != ex.task_seed(12, "ids", 3)


def test_ids_rows_are_monotone_in_energy():
    cols, rows = ex.run_experiment("ids", AMO3, SHIFT, SMOKE_GRIDS["ids"],
                                   seed=5)
    i = cols.index("ids")
    vals = [r[i] for r in rows]
    assert vals == sorted(vals)


def test_wegner_rows_shrink_with_sharper_resolution():
    cols, rows = ex.run_experiment("wegner", AMO3, SHIFT,
                                   SMOKE_GRIDS["wegner"], seed=5)
    iE, iH, im = (cols.index(k) for k in ("E", "H", "measure"))
    by_energy = {}
    for r in rows:
        by_energy.setdefault(r[iE], {})[r[iH]] = r[im]
    for pair in by_energy.values():
        assert pair[10.0] <= pair[5.0]


# ------------------------------------ one sweep per phase set, same rows
# Each experiment below now runs one sweep where it used to run one library
# call per chunk, per energy or per (energy, H); the rows must equal those
# calls exactly.

@MAPS
def test_ids_rows_equal_the_per_chunk_calls(dyn):
    grid = {"E": {"start": -3.0, "stop": 3.0, "count": 7}, "N": 60,
            "x_samples": 4, "chunk": 3}
    _, rows = ex.run_experiment("ids", AMO3, dyn, grid, seed=5)
    energies = np.linspace(-3.0, 3.0, 7)
    want = []
    for lo in range(0, energies.size, 3):
        table = sp.ids(AMO3, dyn, energies[lo:lo + 3], 60, 4,
                       seed=ex.task_seed(5, "ids", 0))
        want += [(float(E), 60, float(v), 4)
                 for E, v in zip(table.energies, table.values)]
    assert rows == want


@MAPS
@pytest.mark.parametrize("energies, h_list", [
    ([-0.5, 0.0, 0.5], [0.1, 0.03, 0.01]),
    ([0.0, 0.2], [0.1]),        # 0.0 + 0.1 and 0.2 - 0.1 are one probe
], ids=["bundled", "colliding"])
def test_holder_scan_rows_equal_one_ids_call_per_energy(dyn, energies, h_list):
    grid = {"E": energies, "h_list": h_list, "N": 60, "x_samples": 4}
    _, rows = ex.run_experiment("holder_scan", AMO3, dyn, grid, seed=5)
    want = []
    for E in energies:
        probe = np.sort([E + d for h in h_list for d in (-h, h)])
        table = sp.ids(AMO3, dyn, probe, 60, 4,
                       seed=ex.task_seed(5, "holder_scan", 0))
        for h in h_list:
            lo = float(table.values[np.searchsorted(probe, E - h)])
            hi = float(table.values[np.searchsorted(probe, E + h)])
            inc = hi - lo
            ratio = math.log(inc) / math.log(h) if inc > 0 else float("nan")
            want.append((E, h, lo, hi, inc, ratio))
    # NaN ratios (no increment) compare equal under assert_array_equal
    np.testing.assert_array_equal(np.array(rows), np.array(want))
    assert any(r[4] > 0 for r in rows)


@MAPS
def test_wegner_rows_equal_scalar_calls_per_energy_and_resolution(dyn):
    H_list = [5.0, 10.0, 2.0]
    grid = {"E": {"start": -1.0, "stop": 1.0, "count": 3}, "H_list": H_list,
            "N": 40, "x_samples": 300}
    _, rows = ex.run_experiment("wegner", AMO3, dyn, grid, seed=5)
    want = [(E, H, 40, sp.wegner_measure(AMO3, dyn, E, H, 40, 300,
                                         seed=ex.task_seed(5, "wegner", i)), 300)
            for i, E in enumerate([-1.0, 0.0, 1.0]) for H in H_list]
    assert rows == want
    assert any(0.0 < r[3] < 1.0 for r in rows)


def test_avalanche_rows_report_the_verdict():
    cols, rows = ex.run_experiment("avalanche_fuzz", AMO3, SHIFT,
                                   SMOKE_GRIDS["avalanche_fuzz"], seed=1)
    ip = cols.index("passes")
    ih = cols.index("hypotheses_ok")
    for r in rows:
        if r[ih]:
            assert r[ip] == 1.0
        else:
            assert np.isnan(r[ip])


def test_concatenation_bound_past_the_dense_trace_size():
    # above N = 200 the dense trace check is skipped and ok_trace is NaN
    cols, rows = ex.run_experiment(
        "concatenation_bound", AMO3, SHIFT,
        {"E": 0.0, "N": 240, "eta_list": [0.05, 0.01], "x_samples": 2}, seed=3)
    assert len(rows) == 4
    i_trace, i_win, i_full = (cols.index(k)
                              for k in ("ok_trace", "ok_window", "ok_full"))
    for r in rows:
        assert np.isnan(r[i_trace])
        assert r[i_win] == 1 and r[i_full] == 1
