"""qplab benchmark: one workload per call, one JSON result line at the end.

Run from the repository root:

    python3 perfbench/run.py --workload phase_sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/workloads.py`` for what each runs and why):
phase_sweep, deep_window, spectral, zero_count.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``: wall time of one pass, from the first experiment to the last
  checked result (a pass runs every item of the workload once at fixed
  sizes), taken as the sum over items of each item's fastest time across
  the passes: slow spells of the machine, lasting seconds, only ever add
  time, and they hit different items in different passes;
* ``setup_s``: median over eleven fresh processes (the workload process
  and ten probes spread over the run) of ``import qplab`` plus writing the
  workload's generated inputs plus ``expcli.validate_config`` on each
  config;
* ``peak_rss_mb``: ``ru_maxrss`` of the workload process;
* ``ok_ratio``: 1 - failed / attempted operations.

``--trace 1`` prints the per-layer metrics instead (see ``tracer.py``).

Every workload process is single-threaded: it gets BLAS and OpenMP thread
caps of 1.  Lines before the last one record the environment (nproc,
Python, numpy, scipy, BLAS, commit or source digest, seed) and every
failed operation with its row.  The result line has the keys ``correct``
(no produced result outside its tolerance), ``attempted``, ``failed`` and
``metrics``.  Inputs, CSVs and spans go to ``.perfbench_out/`` under the
current directory.  Exits 2 without a result when the qplab sources are
missing or a workload process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from tracer import PER_LAYER
from workloads import WORKLOADS, WRONG

HERE = Path(__file__).resolve().parent

DEADLINE_S = 170.0
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for name in THREAD_CAPS:
        env[name] = "1"
    return env


def run_child(args: list, env: dict, deadline: float) -> dict:
    """Run ``proc.py`` with ``args``; return its last stdout line as JSON."""
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the workload finished")
    cmd = [sys.executable, str(HERE / "proc.py")] + args
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from exc
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError(f"workload process exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return json.loads(lines[-1])


def source_version(root: Path) -> str:
    """git commit when the checkout is a repository, else a digest of src."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return "sha256-src:" + digest.hexdigest()[:16]


def environment(root: Path, env: dict, seed: int, libraries: dict) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **libraries,
            "threads": {name: env[name] for name in THREAD_CAPS},
            "source": source_version(root), "seed": seed}


def result_line(res: dict, setups: list, trace: int) -> dict:
    """The final JSON object from a workload process's result."""
    failed = len(res["failures"])
    attempted = res["attempted"]
    if trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in res["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": sum(min(t) for t in res["item_s"].values()),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
            "ok_ratio": {"value": 1.0 - failed / attempted, "unit": "1"},
        }
    return {"correct": not any(kind == WRONG for kind, _ in res["failures"]),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qplab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size (self-tests only)")
    args = parser.parse_args(argv)

    deadline = monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "qplab" / "__init__.py").is_file():
        print("perfbench: no qplab sources under ./src; run from the "
              "repository root", file=sys.stderr)
        return 2
    env = child_env(root)
    work = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    try:
        res = run_child(["run", *common, "--workdir", str(work / "run"),
                         "--seconds", str(args.seconds), "--trace", str(args.trace)],
                        env, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setups = [res["setup_s"], *res["setup_probes"]]

    info = environment(root, env, args.seed, res["libraries"])
    print("# env " + json.dumps(info, sort_keys=True))
    print(f"# passes {res['passes']}, untraced pass wall times "
          + ", ".join(f"{t:.3f}" for t in res["wall_s"]) + " s")
    print("# setup_s samples " + ", ".join(f"{t:.3f}" for t in setups) + " s")
    for name, times in res["item_s"].items():
        print(f"# item {name}: fastest {min(times):.3f} s, "
              f"median {statistics.median(times):.3f} s")
    for kind, msg in dict.fromkeys(tuple(f) for f in res["failures"]):
        print(f"# failed ({kind}) {msg}")
    line = result_line(res, setups, args.trace)
    print(f"# fail_ratio {line['failed'] / line['attempted']:.6g} "
          f"({line['failed']} of {line['attempted']} operations)")
    for name, m in line["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
