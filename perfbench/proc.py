"""The workload process: set-up, timed passes, optional tracing.

    python3 perfbench/proc.py setup --workload W --seed S --workdir D
    python3 perfbench/proc.py run --workload W --seed S --workdir D \\
        --seconds T --trace 0|1

``perfbench/run.py`` starts this with ``src`` on ``PYTHONPATH`` and BLAS
and OpenMP capped at one thread.  The last line of standard output is one
JSON object.

``setup`` times ``import qplab`` plus writing and validating the
workload's generated inputs.  ``run`` sets up once, then runs passes over
all items back to back while the next one is expected to end within
``--seconds`` (at least three passes).  Untraced runs also time
``SETUP_PROBES`` fresh ``setup`` processes, one at a time between items,
spread over the run (any not yet due when the passes end run after
them), so ``setup_s`` samples the machine over the same span as the
passes.  With ``--trace 1`` untraced and traced passes alternate (at
least one of each), so ``trace.overhead_s`` compares the two within one
process, and per-layer metrics are averaged over the traced passes.  The spans of the last traced pass are written to
``spans.jsonl`` in the work directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import PER_LAYER, Tracer, layer_metrics

# rounds of passes always run: three untraced passes, so each item's
# fastest time skips a slow spell of the machine; or one untraced and one
# traced pass
MIN_ROUNDS = {False: 3, True: 1}
# fresh set-up processes timed during an untraced run, besides its own
SETUP_PROBES = 10

def _libraries() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _setup(args):
    """Import qplab and write and validate the inputs; returns the workload."""
    import qplab  # noqa: F401  (timed: part of what every run pays)
    from workloads import Workload

    wl = Workload(args.workload, args.seed, Path(args.workdir), tiny=args.tiny)
    wl.setup()
    return wl


def run_pass(wl, tracer=None, between=None) -> tuple:
    """One pass over every item: (wall seconds, failures, per-item seconds).

    ``between()`` is called after each item; its time is not part of the
    pass's wall time.
    """
    failures = []
    item_s = {}
    outside = 0.0
    t0 = perf_counter()
    for item in wl.items:
        t = perf_counter()
        if tracer is None:
            failures += item.run()
        else:
            with tracer.span(f"bench.{item.name}"):
                failures += item.run()
        item_s[item.name] = perf_counter() - t
        if between is not None:
            t = perf_counter()
            between()
            outside += perf_counter() - t
    return perf_counter() - t0 - outside, failures, item_s


class SetupProbes:
    """Times up to ``SETUP_PROBES`` fresh set-up processes, the k-th once
    the run is k / SETUP_PROBES of the way through ``seconds``."""

    def __init__(self, args, start: float):
        self.args = args
        self.start = start
        self.times: list = []

    def __call__(self, force: bool = False) -> None:
        k = len(self.times)
        due = self.start + self.args.seconds * k / SETUP_PROBES
        if k >= SETUP_PROBES or (perf_counter() < due and not force):
            return
        a = self.args
        cmd = [sys.executable, __file__, "setup", "--workload", a.workload,
               "--seed", str(a.seed),
               "--workdir", str(Path(a.workdir).parent / f"setup{k}")]
        if a.tiny:
            cmd.append("--tiny")
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        self.times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _run(args, wl) -> dict:
    traced = bool(args.trace)
    walls, traced_walls, top_level, item_s = [], [], [], {}
    attempted = 0
    failures: list = []
    tracer = Tracer() if traced else None
    start = perf_counter()
    probes = None if traced else SetupProbes(args, start)
    while True:
        wall, fails, items = run_pass(wl, between=probes)
        walls.append(wall)
        for name, t in items.items():
            item_s.setdefault(name, []).append(t)
        if traced:
            tracer.spans.clear()
            tracer.install()
            wl.tracer = tracer
            try:
                twall, tfails, _ = run_pass(wl, tracer)
            finally:
                tracer.uninstall()
                wl.tracer = None
            traced_walls.append(twall)
            top_level.append(sum(r["end"] - r["start"] for r in tracer.spans
                                 if r["parent"] is None))
            fails += tfails
        attempted += sum(item.rows for item in wl.items) * (2 if traced else 1)
        failures += fails
        elapsed = perf_counter() - start
        step = elapsed / len(walls)
        if len(walls) >= MIN_ROUNDS[traced] and elapsed + step > args.seconds:
            break
    while probes is not None and len(probes.times) < SETUP_PROBES:
        probes(force=True)
    result = {
        "passes": len(walls),
        "wall_s": walls,
        "item_s": item_s,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_probes": probes.times if probes is not None else [],
        "libraries": _libraries(),
    }
    if traced:
        n = len(traced_walls)
        layers = layer_metrics(tracer, n)
        layers["bench.items.self_s"] = sum(
            st.self_s for name, st in tracer.stats.items()
            if name.startswith("bench.")) / n
        layers["trace.wall_s"] = statistics.median(traced_walls)
        layers["trace.top_level_s"] = statistics.median(top_level)
        layers["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(walls))
        result["layers"] = {name: float(layers.get(name, 0.0))
                            for name, _, _ in PER_LAYER}
        tracer.write_spans(Path(args.workdir) / "spans.jsonl")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size (self-tests only)")
    args = parser.parse_args(argv)

    t0 = perf_counter()
    wl = _setup(args)
    setup_s = perf_counter() - t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = _run(args, wl)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
