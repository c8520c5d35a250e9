"""Per-layer tracing of qplab from the outside, by wrapping public functions.

``Tracer.install`` replaces every public function named in ``LAYERS`` at
every module binding that holds it (``zeros.complex_det_grid`` as well as
``cocycle.complex_det_grid``), so callers resolve the wrapper whichever
import path they use.  ``uninstall`` puts the originals back.  A function
that no longer exists is skipped and reads as zero calls.

Each wrapped call is timed with ``perf_counter``; its self time is its
duration minus the time of wrapped calls made beneath it.  Functions marked
as helpers (the per-site kernels called thousands of times per parent) are
only aggregated, as count, points and time, into their parent span; all
others also leave a span record (name, id, parent id, start, end, self
time, work, ok) in memory, written out by ``write_spans`` at the end.
``paused`` restores the originals for a block, so the benchmark's checks
run untraced.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _size(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is None:
        return len(value) if hasattr(value, "__len__") else 1
    return int(math.prod(shape))


def _rows(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is None:
        return len(value) if hasattr(value, "__len__") else 1
    return int(shape[0]) if shape else 1


def _points(i, name):
    return lambda a, k: _size(_arg(a, k, i, name))


def _site_steps(a, k):
    return _rows(_arg(a, k, 2, "xs")) * int(_arg(a, k, 4, "n"))


def _window_sites(a, k):
    return max(0, int(_arg(a, k, 5, "b")) - int(_arg(a, k, 4, "a")) + 1)


def _point_sites(a, k):
    return _size(_arg(a, k, 2, "zs")) * int(_arg(a, k, 4, "n"))


def _ids_pivots(a, k):
    energies = _size(_arg(a, k, 2, "E_grid"))
    return int(_arg(a, k, 4, "x_samples")) * int(_arg(a, k, 3, "N")) * energies


def _wegner_pivots(a, k):
    return int(_arg(a, k, 5, "x_samples")) * int(_arg(a, k, 4, "N"))


# report: the quantities printed per traced pass.  work: callable
# (args, kwargs) -> count, or "det_points" for the number of
# complex_det_grid points evaluated beneath the call, reported as
# work_name.  helper: aggregate into the parent span instead of leaving a
# span record.
@dataclass(frozen=True)
class Fn:
    report: tuple = ("self_s",)
    work: object = None
    work_name: str = ""
    helper: bool = False


_CALLS = ("calls", "self_s")
_PER_STEP = ("calls", "{}", "self_s", "ns_per_step")


def _steps(work, work_name: str) -> Fn:
    return Fn(tuple(q.format(work_name) for q in _PER_STEP), work, work_name)


def _counted(work, helper: bool = False) -> Fn:
    return Fn(("calls", "points", "self_s"), work, "points", helper)


LAYERS = {
    "expcli": {
        "validate_config": Fn(),
        "run": Fn(_CALLS),
    },
    "experiments": {
        "run_experiment": Fn(_CALLS),
    },
    "dynamics": {
        "step_batch": _counted(lambda a, k: _rows(_arg(a, k, 1, "xs")), helper=True),
        "orbit_first_coord": _counted(lambda a, k: int(_arg(a, k, 2, "n")), helper=True),
        "iterate": Fn(("calls",), helper=True),
        "diophantine_check": Fn(),
    },
    "potential": {
        "eval_real_many": _counted(_points(1, "x"), helper=True),
        "eval_laurent": _counted(_points(1, "z"), helper=True),
        "derivative_many": Fn(helper=True),
    },
    "cocycle": {
        "batched_log_norms": _steps(_site_steps, "site_steps"),
        "batched_log_absdet": _steps(_site_steps, "site_steps"),
        "batched_sup_rate": _steps(_site_steps, "site_steps"),
        "transfer_product_window": _steps(_window_sites, "sites"),
        "det_window": _steps(_window_sites, "sites"),
        "green_entry": Fn(_CALLS),
        "complex_det_grid": _steps(_point_sites, "point_sites"),
    },
    "lyapunov": {
        "convergence_scan": Fn(),
        "finite_lyapunov": Fn(),
        "sup_growth_rate": Fn(),
        "positivity_probe": Fn(),
    },
    "deviations": {
        "deviation_curve": Fn(),
        "bmo_estimate": Fn(),
        "fourier_decay": Fn(),
    },
    "spectrum": {
        "ids": Fn(("calls", "pivots", "self_s"), _ids_pivots, "pivots"),
        "wegner_measure": Fn(("calls", "pivots", "self_s"), _wegner_pivots, "pivots"),
        "eigenvalues": Fn(_CALLS),
        "sturm_count": Fn(_CALLS),
        "eigenvector": Fn(_CALLS),
        "hamiltonian": Fn(),
        "min_gap": Fn(),
        "hellmann_feynman": Fn(),
        "concatenation_bound_check": Fn(),
    },
    "zeros": {
        "nu_sandwich": Fn(("calls", "ok_ratio")),
        "jensen_average_J": _counted("det_points"),
        "locate_zeros": Fn(("calls", "ok_ratio", "self_s")),
        "boundary_winding": _counted("det_points"),
        "zero_count_additivity": Fn(("calls", "ok_ratio")),
        "zero_separation": Fn(),
        "annulus_zero_count": Fn(),
        "concatenation_w_grid": Fn(),
    },
}

_UNITS = {"self_s": ("s", "lower"), "ns_per_step": ("ns", "lower"),
          "ok_ratio": ("1", "higher")}

# (name, unit, better) of every per-layer metric, in output order: the
# wrapped functions, the counters the benchmark adds from results, and the
# benchmark's own spans and timings
PER_LAYER = [(f"{mod}.{fn}.{q}", *_UNITS.get(q, ("count", "lower")))
             for mod, fns in LAYERS.items()
             for fn, spec in fns.items() for q in spec.report] + [
    ("expcli.run.failed", "count", "lower"),
    ("expcli.csv_bytes", "B", "lower"),
    ("experiments.rows", "count", "higher"),
    ("experiments.nan_rows", "count", "lower"),
    ("bench.items.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.top_level_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


@dataclass
class Stat:
    """Totals of one wrapped function over every call."""

    calls: int = 0
    ok: int = 0
    work: float = 0.0
    self_s: float = 0.0


@dataclass
class _Frame:
    span_id: int
    child_s: float = 0.0
    det_points: int = 0
    helpers: dict = field(default_factory=dict)


class Tracer:
    """Spans and per-function totals for the calls made while installed."""

    def __init__(self):
        self.stats: dict = {}
        self.counters: dict = {}
        self.spans: list = []
        self._stack: list = []
        self._next_id = 0
        self._patches: list = []

    # ----------------------------------------------------------- counters

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # -------------------------------------------------------------- spans

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a block."""
        t0, frame = self._open()
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(name, t0, frame, ok, None, "", False)

    def _open(self):
        self._next_id += 1
        frame = _Frame(self._next_id)
        self._stack.append(frame)
        return perf_counter(), frame

    def _close(self, name, t0, frame, ok, work, work_name, helper):
        t1 = perf_counter()
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        self_s = dur - frame.child_s
        parent = stack[-1] if stack else None
        if work == "det_points":
            work = frame.det_points
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += 1
        st.ok += ok
        st.self_s += self_s
        if work is not None:
            st.work += work
        if parent is not None:
            parent.child_s += dur
            parent.det_points += frame.det_points
        if helper:
            if parent is not None:
                agg = parent.helpers.setdefault(name, [0, 0, 0.0])
                agg[0] += 1
                agg[1] += work or 0
                agg[2] += self_s
            return
        self.spans.append({
            "name": name, "id": frame.span_id,
            "parent": parent.span_id if parent is not None else None,
            "start": t0, "end": t1, "self_s": self_s, "ok": bool(ok),
            work_name or "work": work, "helpers": frame.helpers})

    def _wrap(self, name: str, fn, spec: Fn):
        tracer = self
        work_of = spec.work
        helper = spec.helper
        work_name = spec.work_name
        is_det_grid = name == "cocycle.complex_det_grid"

        def wrapper(*args, **kwargs):
            work = None
            if callable(work_of):
                work = work_of(args, kwargs)
            elif work_of == "det_points":
                work = "det_points"
            t0, frame = tracer._open()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                if is_det_grid and ok:
                    frame.det_points += _size(_arg(args, kwargs, 2, "zs"))
                tracer._close(name, t0, frame, ok, work, work_name, helper)
            return result

        return functools.update_wrapper(wrapper, fn)

    # ---------------------------------------------------- install/restore

    def install(self) -> None:
        """Patch every binding of every function in LAYERS that exists."""
        import qplab

        modules = [importlib.import_module(f"qplab.{m}") for m in LAYERS]
        wrappers = {}
        for home, (mod_name, fns) in zip(modules, LAYERS.items()):
            for fn_name, spec in fns.items():
                orig = getattr(home, fn_name, None)
                if callable(orig):
                    wrappers[id(orig)] = (orig, self._wrap(f"{mod_name}.{fn_name}",
                                                           orig, spec))
        for module in modules + [qplab]:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value, hit[1]))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, orig, _ in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    @contextmanager
    def paused(self):
        """Run a block on the original functions, so the benchmark's own
        checks are not counted as the program's work."""
        for module, attr, orig, _ in self._patches:
            setattr(module, attr, orig)
        try:
            yield
        finally:
            for module, attr, _, wrapper in self._patches:
                setattr(module, attr, wrapper)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics per traced pass, named <module>.<function>.<quantity>."""
    out = {}
    for mod_name, fns in LAYERS.items():
        for fn_name, spec in fns.items():
            name = f"{mod_name}.{fn_name}"
            st = tracer.stats.get(name, Stat())
            values = {"calls": st.calls / passes, "self_s": st.self_s / passes,
                      "ok_ratio": st.ok / st.calls if st.calls else 0.0,
                      spec.work_name: st.work / passes,
                      "ns_per_step": st.self_s / st.work * 1e9 if st.work else 0.0}
            for q in spec.report:
                out[f"{name}.{q}"] = values[q]
    for name, value in tracer.counters.items():
        out[name] = value / passes
    return out
