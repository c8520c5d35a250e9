"""The four benchmark workloads, generated from a seed, with their checks.

A workload is a list of ``Item``s.  An item is either one ``qplab run`` of a
generated YAML config or one direct library call.  Running an item does the
work, checks every result against its acceptance tolerance, and returns one
message per failed operation.  An operation is one result row: a CSV row of
a config run, or one library-call result such as one sandwich disk.

Every input depends only on the seed: the configs' ``seed``, the sampled
phases and the disk centres.  ``tiny=True`` shrinks every size so the
self-tests run in seconds; the workloads themselves always use full sizes.

Why these workloads (each stresses a different layer):

* ``phase_sweep``: wide batched phase kernels in ``cocycle`` (hundreds to
  thousands of phases, at most 4000 sites) where per-step numpy cost
  decides.  Never touches ``spectrum`` or ``zeros``.
* ``deep_window``: the same ``cocycle`` layer with few phases over long
  windows, where per-site Python overhead decides; includes the skew shift
  and the SignedLog determinant recurrences.
* ``spectral``: ``spectrum``; vectorised Sturm sweeps (ids, wegner) next to
  Python bisection (eigenvalues, sturm_count loops).
* ``zero_count``: ``zeros`` at complex phase: ``complex_det_grid``,
  ``eval_laurent``, the Jensen quadrature and winding refinement.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

GOLDEN = {"kind": "shift", "omega": "golden"}
SKEW = {"kind": "skew_shift", "omega": "golden"}
LOG_HALF_LAMBDA3 = math.log(1.5)
ORACLE = Path(__file__).resolve().parent.parent / "tests" / "oracles" / "plateau_lambda5.json"


# Failure kinds: a result outside its tolerance, or an operation that
# produced no result (crash, non-zero exit, NaN row, skipped disk).
WRONG = "wrong"
LOST = "lost"


@dataclass
class Item:
    """One timed unit of work: ``run()`` returns (kind, message) failures."""

    name: str
    rows: int
    run: Callable[[], list]


def _failure(where: str, why) -> tuple:
    """(kind, message); a bare reason is a result outside its tolerance."""
    kind, why = why if isinstance(why, tuple) else (WRONG, why)
    return kind, where + why


def _model(lam: float) -> dict:
    return {"potential": "almost_mathieu", "lam": lam}


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [{k: _cell(v) for k, v in row.items()} for row in reader]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


class Workload:
    """Inputs for one workload and seed, written under ``workdir``."""

    def __init__(self, name: str, seed: int, workdir: Path, tiny: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; "
                             f"choose from {sorted(WORKLOADS)}")
        self.name = name
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.tiny = tiny
        self.configs: dict = {}
        self.items: list = []
        self.tracer = None      # set during traced passes, to count CSV bytes
        self.rng = np.random.default_rng(self.seed)

    def size(self, full, tiny):
        return tiny if self.tiny else full

    def checking(self):
        """Context for the benchmark's own checks: in a traced pass the
        library calls they make are not counted as the workload's."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()

    # ------------------------------------------------------------ set-up

    def setup(self) -> None:
        """Write the generated configs and validate each one."""
        from qplab import expcli

        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        (self.workdir / "configs").mkdir(parents=True)
        WORKLOADS[self.name](self)
        for key, data in self.configs.items():
            path = self.workdir / "configs" / f"{key}.yaml"
            path.write_text(yaml.safe_dump(data, sort_keys=False))
            expcli.validate_config(yaml.safe_load(path.read_text()))

    # ------------------------------------------------------------- items

    def config(self, key: str, experiment: str, grid: dict, rows: int,
               check: Callable | None = None, lam: float = 3.0,
               dynamics: dict = GOLDEN) -> None:
        """A ``qplab run`` of a generated config; ``check(table)`` maps row
        index -> failure reason for rows outside tolerance."""
        self.configs[key] = {"experiment": experiment, "model": _model(lam),
                             "dynamics": dict(dynamics), "grid": grid,
                             "seed": self.seed}

        def run():
            from qplab import expcli

            path = self.workdir / "configs" / f"{key}.yaml"
            out = self.workdir / "out" / key
            msg = io.StringIO()
            try:
                code = expcli.run(path, out=out, threads=1, stream=msg)
            except Exception as exc:  # a crash escaping the CLI loses every row
                code, why = None, f"raised {type(exc).__name__}: {exc}"
            else:
                why = f"exit {code}: {msg.getvalue().strip()}"
            if self.tracer is not None and code != 0:
                self.tracer.count("expcli.run.failed")
            if code != 0:
                return [(LOST, f"{key} row {i}: {why}") for i in range(rows)]
            csv_path = out / f"{experiment}.csv"
            try:
                table = _read_csv(csv_path)
            except OSError as exc:
                return [(LOST, f"{key} row {i}: no CSV: {exc}") for i in range(rows)]
            if self.tracer is not None:
                self.tracer.count("expcli.csv_bytes", csv_path.stat().st_size)
                self.tracer.count("experiments.rows", len(table))
                self.tracer.count("experiments.nan_rows", sum(
                    any(isinstance(v, float) and math.isnan(v) for v in r.values())
                    for r in table))
            if len(table) != rows:
                why = f"expected {rows} rows, got {len(table)}"
                return [(WRONG, f"{key} row {i}: {why}") for i in range(rows)]
            try:
                with self.checking():
                    bad = check(table) if check is not None else {}
            except Exception as exc:  # e.g. a renamed column: nothing checkable
                why = f"check raised {type(exc).__name__}: {exc}"
                return [(WRONG, f"{key} row {i}: {why}") for i in range(rows)]
            return [_failure(f"{key} row {i}: ", why) for i, why in sorted(bad.items())]

        self.items.append(Item(key, rows, run))

    def call(self, key: str, rows: int, fn: Callable) -> None:
        """A direct library call; ``fn()`` returns one reason per failed
        operation, a bare string or a (kind, reason) pair."""

        def run():
            try:
                return [_failure(f"{key}: ", why) for why in fn()]
            except Exception as exc:  # a crash loses every operation of the call
                why = f"raised {type(exc).__name__}: {exc}"
                return [(LOST, f"{key} op {i}: {why}") for i in range(rows)]

        self.items.append(Item(key, rows, run))


# ---------------------------------------------------------------- checks


def _lyapunov_checks(table, lower_bound=None):
    bad = {}
    for i, r in enumerate(table):
        if not r["diff2N"] <= 5.0 * r["logN_over_N"]:
            bad[i] = f"c07 |L_2N - L_N| = {r['diff2N']:.3g} > 5 log N / N"
        elif lower_bound is not None and \
                not r["L_N"] >= lower_bound - 3.0 * r["stderr"]:
            bad[i] = f"L_N = {r['L_N']:.6f} below log(lam/2) - 3 stderr"
    return bad


def _thouless_checks(table):
    return {i: f"c09 Thouless gap {r['gap']:.3g} > 0.05"
            for i, r in enumerate(table) if not r["gap"] <= 0.05}


def _finite_checks(columns):
    def check(table):
        return {i: f"non-finite {c}" for i, r in enumerate(table)
                for c in columns if not math.isfinite(r[c])}
    return check


def _ldt_checks(table):
    bad = _finite_checks(["measure"])(table)
    for i in range(1, len(table)):
        if table[i]["measure"] > table[i - 1]["measure"]:
            bad[i] = (f"c14 measure rose from {table[i - 1]['measure']} "
                      f"to {table[i]['measure']}")
    return bad


# ------------------------------------------------------------ workloads


def phase_sweep(w: Workload) -> None:
    s = w.size
    n_list = s([250, 500, 1000, 2000], [25, 50])
    w.config("lyapunov_scan", "lyapunov_scan",
             {"E": [0.0, 0.5, 1.0], "n_list": n_list,
              "m_samples": s(2000, 40), "sampler": "grid"},
             rows=3 * len(n_list),
             check=lambda t: _lyapunov_checks(t, LOG_HALF_LAMBDA3))
    ldt_n = s([100, 400, 1600], [20, 40])
    for stat in ("transfer_norm", "det"):
        w.config(f"ldt_{stat}", "ldt_decay",
                 {"E": 0.0, "n_list": ldt_n, "exponent": 0.9,
                  "x_samples": s(5000, 50), "statistic": stat},
                 rows=len(ldt_n),
                 check=_ldt_checks if stat == "transfer_norm"
                 else _finite_checks(["measure"]))
    w.config("thouless_check", "thouless_check",
             {"E": [0.0, 0.5, 1.0], "N": s(3000, 100), "x_samples": s(300, 10)},
             rows=3, check=_thouless_checks)
    bmo_n = s([100, 400, 1600], [20, 40])
    w.config("bmo_trend", "bmo_trend",
             {"E": 0.0, "n_list": bmo_n, "grid_size": s(1024, 256),
              "statistic": "det"},
             rows=len(bmo_n), check=_finite_checks(["bmo_value"]))
    modes = s(64, 8)
    w.config("fourier_decay", "fourier_decay",
             {"E": 0.0, "n": s(400, 20), "grid_size": s(2048, 64),
              "modes": modes, "statistic": "det"},
             rows=modes, check=_finite_checks(["amplitude"]))
    w.config("positivity_probe", "positivity_probe",
             {"E": [0.0, 0.5], "ell": s(64, 8), "m_samples": s(1000, 20),
              "sampler": "grid"},
             rows=2, check=_finite_checks(["S", "L_ell", "L_2ell"]))
    # Herman's bound L >= log(lam/2) holds for the shift, not the doubling
    # map, so the doubling chain is held to c07 alone
    dbl_n = s([125, 250, 500], [10, 20])
    w.config("lyapunov_doubling", "lyapunov_scan",
             {"E": [0.0], "n_list": dbl_n, "m_samples": s(1000, 20),
              "sampler": "random"},
             rows=len(dbl_n), check=_lyapunov_checks,
             dynamics={"kind": "doubling"})


def deep_window(w: Workload) -> None:
    import qplab.cocycle as cc
    import qplab.dynamics as dy
    import qplab.potential as pt

    s = w.size
    amo3 = pt.almost_mathieu(3.0)
    shift = dy.Shift((dy.GOLDEN_MEAN,))
    skew = dy.SkewShift(dy.GOLDEN_MEAN)
    target = json.loads(ORACLE.read_text())["mean_rate"]

    def plateau(table):
        return {i: f"c08 rate {r['L_N']:.6f} is {abs(r['L_N'] - target):.3g} "
                   f"from the oracle {target:.6f}"
                for i, r in enumerate(table) if not abs(r["L_N"] - target) <= 0.01}

    w.config("plateau_lambda5", "lyapunov_scan",
             {"E": [0.0], "n_list": [s(25000, 500)], "m_samples": 20,
              "sampler": "grid"},
             rows=1, check=plateau, lam=5.0)
    w.config("thouless_skew", "thouless_check",
             {"E": [0.0], "N": s(10000, 200), "x_samples": 20},
             rows=1, check=_thouless_checks, dynamics=SKEW)

    x_skew = w.rng.random(2)
    n_skew = s(100_000, 2000)

    def skew_product():
        # c01 on the long window, and Herman's bound L >= log(lam/2)
        prod = cc.transfer_product_window(amo3, skew, x_skew, 0.0, 1, n_skew)
        fails = []
        det_gap = abs(prod.det_value() - 1.0)
        if not det_gap <= 1e-8:
            fails.append(f"c01 det(M_n) - 1 = {det_gap:.3g}")
        rate = prod.log_norm / n_skew
        if not rate >= LOG_HALF_LAMBDA3 - 0.05:
            fails.append(f"rate {rate:.6f} below log(lam/2) - 0.05")
        return ["; ".join(fails)] if fails else []

    w.call("transfer_product_skew", 1, skew_product)

    x_det = w.rng.random(1)
    E_det = float(w.rng.uniform(-2.0, 2.0))
    n_det = s(20_000, 400)

    def det_long():
        # f_[1,n] is the (0, 0) entry of M_[1,n].  Over 2e4 sites the two
        # recurrences round apart by up to 8.5e-8 in log|f| (300 seeds;
        # 2% above the 1e-8 that c04 asks at N <= 500), so 1e-6 here
        f = cc.det_window(amo3, shift, x_det, E_det, 1, n_det).value
        with w.checking():
            m = cc.transfer_product_window(amo3, shift, x_det, E_det, 1, n_det)
        gap = abs(f.log_mag - (math.log(abs(m.mat[0, 0])) + m.log_scale))
        return [] if gap <= 1e-6 else [f"log|f| vs log|M[0,0]| gap {gap:.3g}"]

    w.call("det_window_long", 1, det_long)

    n_c04 = 500

    def against_batched():
        # c04 at the acceptance gate's window size (N <= 500): the
        # single-phase recurrences against the batched kernels; the whole
        # item is a check, so a traced pass does not count its calls
        with w.checking():
            fails = []
            f = cc.det_window(amo3, shift, x_det, E_det, 1, n_c04).value
            ref = cc.batched_log_absdet(amo3, shift, x_det, E_det, n_c04)[n_c04][0]
            if not abs(f.log_mag - ref) <= 1e-8:
                fails.append(f"c04 det_window vs batched gap {abs(f.log_mag - ref):.3g}")
            m = cc.transfer_product_window(amo3, shift, x_det, E_det, 1, n_c04)
            ref = cc.batched_log_norms(amo3, shift, x_det, E_det, n_c04)[n_c04][0]
            if not abs(m.log_norm - ref) <= 1e-8:
                fails.append(f"c04 transfer product vs batched gap {abs(m.log_norm - ref):.3g}")
            return fails

    w.call("windows_vs_batched", 2, against_batched)

    n_green = s(200, 30)

    def green_checks(table):
        # c05: the j = 1 row of each energy against the dense resolvent;
        # dense inversion keeps relative accuracy only on entries within
        # 1e-6 of the row's largest, so smaller entries are not compared
        import qplab.experiments as ex
        import qplab.spectrum as sp

        bad = {}
        for idx, E in enumerate([0.0, 1.0]):
            x = np.random.default_rng(ex.task_seed(w.seed, "green_decay", idx)).random(1)
            H = sp.hamiltonian(amo3, shift, x, n_green)
            Ec = complex(E, 1e-3)
            rhs = np.zeros(n_green, dtype=complex)
            rhs[0] = 1.0
            g = np.linalg.solve(H.dense().astype(complex) - Ec * np.eye(n_green), rhs)
            ref = np.log(np.abs(g))
            keep = ref >= ref.max() + math.log(1e-6)
            for k in range(n_green):
                i = idx * n_green + k
                got = table[i]["log_abs_green"]
                if keep[k] and not abs(got - ref[k]) <= 1e-8:
                    bad[i] = f"c05 log|G(1,{k + 1})| off by {abs(got - ref[k]):.3g}"
                elif not math.isfinite(got):
                    bad[i] = "non-finite Green entry"
        return bad

    w.config("green_decay", "green_decay",
             {"E": [0.0, 1.0], "N": n_green, "eta": 1.0e-3},
             rows=2 * n_green, check=green_checks)

    def concatenation_checks(table):
        return {i: "bound violated" for i, r in enumerate(table)
                if not (r["ok_window"] == 1 and r["ok_full"] == 1)}

    # N = 400 > 200 leaves ok_trace None, which the experiment cannot
    # format: the run crashes and its rows count as failed
    w.config("concatenation_bound", "concatenation_bound",
             {"E": 0.0, "N": s(400, 240), "eta_list": [0.05, 0.01],
              "x_samples": 2},
             rows=4, check=concatenation_checks)


def spectral(w: Workload) -> None:
    import qplab.dynamics as dy
    import qplab.potential as pt
    import qplab.spectrum as sp
    from scipy.linalg import eigh_tridiagonal

    s = w.size
    amo3 = pt.almost_mathieu(3.0)
    shift = dy.Shift((dy.GOLDEN_MEAN,))
    n_energies = s(201, 21)

    def ids_checks(table):
        bad = {i: f"IDS {r['ids']} outside [0, 1]" for i, r in enumerate(table)
               if not 0.0 <= r["ids"] <= 1.0}
        for i in range(1, len(table)):
            if table[i]["ids"] < table[i - 1]["ids"]:
                bad[i] = "IDS decreased along E"
        return bad

    w.config("ids", "ids",
             {"E": {"start": -5.0, "stop": 5.0, "count": n_energies},
              "N": s(10_000, 200), "x_samples": 8, "chunk": 32},
             rows=n_energies, check=ids_checks)

    def holder_checks(table):
        return {i: "IDS increment negative or outside [0, 1]"
                for i, r in enumerate(table)
                if not 0.0 <= r["ids_minus"] <= r["ids_plus"] <= 1.0}

    w.config("holder_scan", "holder_scan",
             {"E": [-0.5, 0.0, 0.5], "h_list": [0.1, 0.03, 0.01],
              "N": s(2000, 100), "x_samples": 8},
             rows=9, check=holder_checks)

    n_weg = s(9, 3)

    def wegner_checks(table):
        bad = {}
        for i in range(0, len(table), 2):
            m5, m10 = table[i]["measure"], table[i + 1]["measure"]
            if not m10 <= m5:
                bad[i + 1] = f"c13 measure(H=10) {m10} > measure(H=5) {m5}"
        return bad

    w.config("wegner", "wegner",
             {"E": {"start": -2.0, "stop": 2.0, "count": n_weg},
              "H_list": [5.0, 10.0], "N": s(200, 50), "x_samples": s(5000, 100)},
             rows=2 * n_weg, check=wegner_checks)

    gap_sizes = s([200, 400], [20, 40])

    def gap_checks(table):
        # c02: every gap against the dense tridiagonal solver, and the
        # Sturm count at the first phase at three energies
        bad = {}
        for i, r in enumerate(table):
            N = int(r["N"])
            H = sp.hamiltonian(amo3, shift, np.array([r["x"]]), N)
            ev = eigh_tridiagonal(H.diag, -np.ones(N - 1), eigvals_only=True)
            ref = float(np.min(np.diff(ev)))
            if not abs(r["min_gap"] - ref) <= 1e-9:
                bad[i] = f"c02 gap off by {abs(r['min_gap'] - ref):.3g}"
            elif i == 0:
                for E in (-2.5, 0.1, 2.5):
                    if sp.sturm_count(H, E) != int(np.sum(ev < E)):
                        bad[i] = f"c02 Sturm count wrong at E = {E}"
        return bad

    w.config("min_gap", "min_gap",
             {"N_list": gap_sizes, "x_samples": 2},
             rows=2 * len(gap_sizes), check=gap_checks)

    def hf_checks(table):
        # rows left NaN by AmbiguousEigenvalue carry no derivative to check
        return {i: f"c10 rel_err {r['rel_err']:.3g} > 1e-4"
                for i, r in enumerate(table)
                if math.isfinite(r["rel_err"]) and not r["rel_err"] <= 1e-4}

    w.config("hellmann_feynman", "hellmann_feynman",
             {"N": s(100, 20), "x_samples": 2}, rows=10, check=hf_checks)


def zero_count(w: Workload) -> None:
    import qplab.dynamics as dy
    import qplab.potential as pt
    import qplab.zeros as zr

    s = w.size
    amo3 = pt.almost_mathieu(3.0)
    n_f = s(64, 8)
    n_disks = s(3, 2)
    # criterion 11's centre stream, e(x + i y) with |y| <= 0.04, drawn
    # stratified in y: one disk per third of the band, so every seed meets
    # the zero rings near |y| = 0.03 about equally often and does about the
    # same amount of zero-location work
    centres = []
    for i in range(n_disks):
        xx, yy = w.rng.random(), ((i + w.rng.random()) / n_disks - 0.5) * 0.08
        centres.append(cmath.exp(complex(2 * math.pi * yy, 2 * math.pi * xx)))

    def sandwich():
        f = zr.determinant_handle(amo3, dy.GOLDEN_MEAN, 0.5, n_f)
        fails = []
        for i, c in enumerate(centres):
            try:
                zr.nu_sandwich(f, c, 0.05, 0.015, quad_points=8)
            except (zr.NearCircleZero, zr.CenterIsZero) as exc:
                fails.append((LOST, f"disk {i} skipped: {type(exc).__name__}"))
            except ArithmeticError as exc:
                # nu_sandwich raises a plain ArithmeticError rather than
                # return a count that breaks c11: a result out of tolerance
                if type(exc) is ArithmeticError and "sandwich violated" in str(exc):
                    fails.append((WRONG, f"disk {i} c11 {exc}"))
                else:
                    fails.append((LOST, f"disk {i} lost: {type(exc).__name__}: {exc}"))
        return fails

    w.call("nu_sandwich", n_disks, sandwich)

    n_add = s(12, 2)

    def additivity_checks(table):
        return {i: (LOST, "NaN row: zero retries ran out")
                for i, r in enumerate(table)
                if not math.isfinite(r["k_doubled"])}

    w.config("zero_additivity", "zero_additivity",
             {"E": 0.5, "m": s(16, 4), "n_disks": n_add, "radius": 0.1,
              "y_scale": 0.08},
             rows=n_add, check=additivity_checks)

    n_probes = s(16, 2)

    def probe_checks(table):
        return {i: f"count {r['count']} or annulus {r['annulus_count']} "
                   "above its ceiling"
                for i, r in enumerate(table)
                if not (r["count"] <= r["per_disk_ceiling"]
                        and r["annulus_count"] <= r["annulus_ceiling"])}

    w.config("zeros_probe", "zeros_probe",
             {"E": 0.5, "N": s(32, 8), "n_probes": n_probes, "radius": 0.06,
              "annulus_y": 0.09},
             rows=n_probes, check=probe_checks)

    n_pts = s(10_000, 200)
    xs, ys = w.rng.random(n_pts), (w.rng.random(n_pts) - 0.5) * 0.1
    zs = np.exp(2j * np.pi * xs + 2 * np.pi * ys)

    def w_grid():
        wv = zr.concatenation_w_grid(amo3, dy.GOLDEN_MEAN, zs, 0.0, s(30, 6))
        over = int(np.sum(~(wv <= 1e-9)))
        return [] if over == 0 else [f"c15 {over} points with w > 1e-9"]

    w.call("concatenation_w_grid", 1, w_grid)


WORKLOADS = {
    "phase_sweep": phase_sweep,
    "deep_window": deep_window,
    "spectral": spectral,
    "zero_count": zero_count,
}
