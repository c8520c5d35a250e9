"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest perfbench

Checks that a tiny run prints every metric named in BENCHMARK.json, that
tracing leaves every CSV byte-identical, and that inputs built to fail are
counted as failed operations.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
from proc import run_pass  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import LOST, WRONG, Workload  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_emits_every_named_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = _bench(workload, trace)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["attempted"] >= 1
        assert res["correct"] is True
        want = {m["name"]: m["unit"] for m in BENCH[key]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], float) for m in res["metrics"].values())


def test_per_layer_list_matches_benchmark_json():
    from tracer import PER_LAYER

    assert [dict(name=n, unit=u, better=b) for n, u, b in PER_LAYER] == BENCH["per_layer"]
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tracing_leaves_csv_bytes_identical(workload, tmp_path):
    wl = Workload(workload, 7, tmp_path / "w", tiny=True)
    wl.setup()
    out = tmp_path / "w" / "out"
    _, plain_fails, _ = run_pass(wl)
    plain = {p.relative_to(out): p.read_bytes() for p in out.rglob("*.csv")}
    shutil.rmtree(out)
    tracer = Tracer()
    tracer.install()
    wl.tracer = tracer
    try:
        _, traced_fails, _ = run_pass(wl, tracer)
    finally:
        tracer.uninstall()
    traced = {p.relative_to(out): p.read_bytes() for p in out.rglob("*.csv")}
    assert plain and plain == traced
    assert plain_fails == traced_fails
    assert tracer.stats["expcli.run"].calls == len(wl.configs)


def test_inputs_built_to_fail_are_counted(tmp_path):
    wl = Workload("phase_sweep", 3, tmp_path / "w", tiny=True)
    # n_list is not a doubling chain: the experiment rejects it, exit 2
    wl.config("broken", "lyapunov_scan", {"E": [0.0], "n_list": [10, 30]}, rows=2)
    # a result judged against an impossible tolerance
    wl.config("strict", "lyapunov_scan", {"E": [0.0], "n_list": [10, 20]}, rows=2,
              check=lambda table: {i: "forced" for i in range(len(table))})
    wl.setup()
    _, fails, _ = run_pass(wl)
    assert sorted(kind for kind, _ in fails) == [LOST, LOST, WRONG, WRONG]
    attempted = sum(item.rows for item in wl.items)
    line = run.result_line({"failures": fails, "attempted": attempted,
                            "item_s": {"a": [1.0, 3.0, 2.0], "b": [0.5]},
                            "peak_rss_mb": 50.0}, [0.5, 0.7, 0.6], trace=0)
    assert line["failed"] == 4 and line["correct"] is False
    assert line["metrics"]["ok_ratio"]["value"] == pytest.approx(1 - 4 / attempted)
    assert line["metrics"]["wall_s"]["value"] == pytest.approx(1.5)
    assert line["metrics"]["setup_s"]["value"] == pytest.approx(0.6)


def test_concatenation_crash_fails_its_rows(tmp_path):
    wl = Workload("deep_window", 3, tmp_path / "w", tiny=True)
    wl.setup()
    _, fails, _ = run_pass(wl)
    assert [kind for kind, _ in fails] == [LOST] * 4
    assert all(msg.startswith(f"concatenation_bound row {i}: raised TypeError")
               for i, (_, msg) in enumerate(fails))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectral", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_missing_function_reads_as_zero_calls(monkeypatch):
    import tracer as tr

    monkeypatch.setitem(tr.LAYERS, "cocycle",
                        {**tr.LAYERS["cocycle"],
                         "removed_kernel": tr.Fn(("calls", "self_s"))})
    t = tr.Tracer()
    t.install()
    t.uninstall()
    metrics = tr.layer_metrics(t, 1)
    assert metrics["cocycle.removed_kernel.calls"] == 0
    assert metrics["cocycle.det_window.calls"] == 0


def test_checks_run_untraced(tmp_path):
    import qplab.dynamics as dy
    import qplab.potential as pt
    import qplab.spectrum as sp

    wl = Workload("phase_sweep", 3, tmp_path / "w", tiny=True)

    def check(table):
        # a check that calls the library: phase_sweep itself never does
        sp.hamiltonian(pt.almost_mathieu(3.0), dy.Shift((0.5,)), np.array([0.1]), 8)
        return {}

    wl.config("checked", "lyapunov_scan", {"E": [0.0], "n_list": [10, 20]}, rows=2,
              check=check)
    wl.setup()
    tracer = Tracer()
    tracer.install()
    wl.tracer = tracer
    try:
        run_pass(wl, tracer)
    finally:
        tracer.uninstall()
    assert tracer.stats["experiments.run_experiment"].calls == len(wl.configs)
    assert "spectrum.hamiltonian" not in tracer.stats


def test_sandwich_violation_is_wrong_and_other_errors_lost(tmp_path, monkeypatch):
    import qplab.zeros as zr

    errors = iter([ArithmeticError("zero-count sandwich violated: 0 <= 1.2 <= 1"),
                   zr.WindingUnstable("negative winding -1")])

    def fake(*args, **kwargs):
        raise next(errors)

    monkeypatch.setattr(zr, "nu_sandwich", fake)
    wl = Workload("zero_count", 3, tmp_path / "w", tiny=True)
    wl.setup()
    item = next(i for i in wl.items if i.name == "nu_sandwich")
    fails = item.run()
    assert [kind for kind, _ in fails] == [WRONG, LOST]
    assert "c11 zero-count sandwich violated" in fails[0][1]
    assert "WindingUnstable" in fails[1][1]
