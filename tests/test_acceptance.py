"""Acceptance gate: one test per numbered criterion, tolerances stated inline.

Each test prints a single ``criterion NN <label>: PASS/FAIL`` line with
the measured quantity, then asserts.  Runtime budgets are asserted
where a criterion carries one.
"""

import cmath
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.linalg import eigh_tridiagonal

import qplab.cocycle as cc
import qplab.deviations as dv
import qplab.dynamics as dy
import qplab.expcli as cli
import qplab.lyapunov as ly
import qplab.potential as pt
import qplab.spectrum as sp
import qplab.zeros as zr

AMO3 = pt.almost_mathieu(3.0)
AMO5 = pt.almost_mathieu(5.0)
FREE = pt.from_triples([], 1.0)
SHIFT = dy.Shift((dy.GOLDEN_MEAN,))

ORACLE_DIR = Path(__file__).parent / "oracles"


def report(num: int, label: str, ok: bool, detail: str):
    line = f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_c01_transfer_determinant_stays_unit():
    # det M_n = 1 to 1e-8 from the residual entries, det(mat) e^(2 log_scale),
    # which resolve it to about eps max_k ||M_k||^2: for each of 100 random
    # draws on the longest window [1, n] with log||M_k|| <= 8 at every
    # k <= n, and on bounded-norm (elliptic, V = 0) products at n = 1e4
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst, sizes = 0.0, []
    for _ in range(100):
        x = dy.phase(rng.random())
        E = float(rng.uniform(-5.0, 5.0))
        logs = cc.batched_log_norms(AMO3, SHIFT, [x], E, 200, checkpoints=range(1, 201))
        n = min(k for k, v in logs.items() if v[0] > 8.0) - 1
        prod = cc.transfer_product_window(AMO3, SHIFT, x, E, 1, n)
        worst = max(worst, abs(prod.residual_det_scaled().value() - 1.0))
        sizes.append(n)
    worst_res = 0.0
    for E in np.linspace(-1.9, 1.9, 20):
        prod = cc.transfer_product_window(FREE, SHIFT, dy.phase(0.1),
                                          float(E), 1, 10_000)
        worst_res = max(worst_res,
                        abs(prod.residual_det_scaled().value() - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and worst_res <= 1e-8 and elapsed < 10.0
    report(1, "unit determinant", ok,
           f"{min(sizes)}-{max(sizes)} sites {worst:.2e}, V = 0 at n=1e4 {worst_res:.2e}, "
           f"{elapsed:.1f}s")


def test_c02_sturm_counts_and_eigenvalue_lists():
    # 100 instances, N <= 200: pivot counts exact, eigenvalue lists
    # within 1e-9 of the dense solver, under 30 s
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    worst = 0.0
    exact = True
    for _ in range(100):
        N = int(rng.integers(5, 201))
        H = sp.hamiltonian(AMO3, SHIFT, dy.phase(rng.random()), N)
        ev = eigh_tridiagonal(H.diag, -np.ones(N - 1), eigvals_only=True)
        for E in rng.uniform(-5.5, 5.5, 3):
            exact &= sp.sturm_count(H, float(E)) == int(np.sum(ev < E))
        mine = sp.eigenvalues(H, tol=1e-11)
        worst = max(worst, float(np.max(np.abs(mine - ev))))
    elapsed = time.perf_counter() - t0
    ok = exact and worst <= 1e-9 and elapsed < 30.0
    report(2, "pivot counts vs dense spectra", ok,
           f"counts exact {exact}, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_c03_free_model_eigenvalues_and_ids():
    # V = 0: eigenvalues -2 cos(k pi/(N+1)) to 1e-10 at N = 50; the
    # IDS at N = 1e4 matches (1/pi) arccos(-E/2) to 1e-3 on a
    # 100-point grid
    H = sp.hamiltonian(FREE, SHIFT, dy.phase(0.0), 50)
    exact = np.sort(-2.0 * np.cos(np.arange(1, 51) * np.pi / 51.0))
    eig_err = float(np.max(np.abs(sp.eigenvalues(H) - exact)))
    grid = np.linspace(-1.98, 1.98, 100)
    tab = sp.ids(FREE, SHIFT, grid, 10_000, 2)
    ids_err = float(np.max(np.abs(tab.values - np.arccos(-grid / 2.0) / math.pi)))
    ok = eig_err <= 1e-10 and ids_err <= 1e-3
    report(3, "free eigenvalues and IDS", ok,
           f"eig err {eig_err:.2e}, ids err {ids_err:.2e}")


def test_c04_monodromy_entries_from_determinants():
    # entries of M_[a, N'] assembled from window determinants agree
    # with the direct product in log magnitude to 1e-8; 100 windows,
    # N <= 500
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        N = int(rng.integers(10, 501))
        a = int(rng.integers(1, max(2, N - 5)))
        x = dy.phase(rng.random())
        E = float(rng.uniform(-4.0, 4.0))
        mono = cc.monodromy_from_dets(AMO3, SHIFT, x, E, a, N)
        direct = cc.transfer_product_window(AMO3, SHIFT, x, E, a, N)
        for i in range(2):
            for j in range(2):
                entry = direct.mat[i, j]
                got = mono[i][j]
                if entry == 0.0 and got.is_zero:
                    continue
                ref = math.log(abs(entry)) + direct.log_scale
                worst = max(worst, abs(got.log_mag - ref))
    ok = worst <= 1e-8
    report(4, "monodromy from determinants", ok, f"worst log gap {worst:.2e}")


def test_c05_green_function_against_dense_resolvent():
    # (H - E - i eta)^{-1}(j, k) by Cramer ratios vs dense inversion,
    # N = 50, eta = 1e-3, relative 1e-8
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        x = dy.phase(rng.random())
        E = complex(rng.uniform(-2.0, 2.0), 1e-3)
        H = sp.hamiltonian(AMO3, SHIFT, x, 50)
        G = np.linalg.inv(H.dense().astype(complex) - E * np.eye(50))
        for _ in range(5):
            j = int(rng.integers(1, 51))
            k = int(rng.integers(1, 51))
            if j > k:
                j, k = k, j
            mine = cc.green_entry(AMO3, SHIFT, x, E, j, k, 50).value()
            ref = G[j - 1, k - 1]
            worst = max(worst, abs(mine - ref) / abs(ref))
    ok = worst <= 1e-8
    report(5, "Green entries vs dense resolvent", ok, f"worst rel {worst:.2e}")


def test_c06_avalanche_principle_exact_and_fuzzed():
    # (a) aligned diagonal family: discrepancy at the rounding floor;
    # (b) 1000 random hyperbolic sequences (mu = 1e4, n = 100,
    # rotations within +-0.1 turns): every discrepancy <= 1, under 20 s
    rng = np.random.default_rng(3)
    fam = [np.diag([1e4 * math.exp(u), 1.0 / (1e4 * math.exp(u))])
           for u in rng.uniform(0.0, 1.0, size=12)]
    aligned = ly.avalanche_check(fam, mu=1e4)
    exact_ok = aligned.hypotheses_ok and aligned.lhs_discrepancy <= 1e-12

    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    hyp_failures = 0
    for _ in range(1000):
        n = 100
        ss = 1e4 * np.exp(rng.uniform(0.0, 0.5, n))
        aa = rng.uniform(-0.1, 0.1, n)
        bb = rng.uniform(-0.1, 0.1, n)
        mats = np.empty((n, 2, 2))
        for i in range(n):
            mats[i] = (rotation(2 * math.pi * aa[i])
                       @ np.diag([ss[i], 1.0 / ss[i]])
                       @ rotation(2 * math.pi * bb[i]))
        rep = ly.avalanche_check(mats, mu=1e4)
        if not rep.hypotheses_ok:
            hyp_failures += 1
        else:
            worst = max(worst, rep.lhs_discrepancy)
    elapsed = time.perf_counter() - t0
    ok = exact_ok and hyp_failures == 0 and worst <= 1.0 and elapsed < 20.0
    report(6, "avalanche principle", ok,
           f"aligned {aligned.lhs_discrepancy:.1e}, fuzz worst {worst:.2e}, "
           f"{hyp_failures} hyp failures, {elapsed:.1f}s")


def test_c07_lyapunov_doubling_chain_convergence():
    # |L_2N - L_N| <= 5 log(N)/N along N = 250..8000 at lam = 3, E = 0,
    # 2000 phases, under 3 minutes
    t0 = time.perf_counter()
    rows = ly.convergence_scan(AMO3, SHIFT, 0.0,
                               [250, 500, 1000, 2000, 4000, 8000],
                               m_samples=2000)
    elapsed = time.perf_counter() - t0
    worst_ratio = max(r.diff_2n / r.rate for r in rows)
    ok = all(r.diff_2n <= 5.0 * r.rate for r in rows) and elapsed < 180.0
    report(7, "doubling-chain convergence", ok,
           f"worst diff/rate {worst_ratio:.3f} (gate 5), {elapsed:.1f}s")


def test_c08_strong_coupling_plateau():
    # L_n at lam = 5, E = 0, n = 1e5 within 0.01 of the value pinned by
    # the independent n = 1e6 oracle, under 1 minute
    fixture = json.loads((ORACLE_DIR / "plateau_lambda5.json").read_text())
    target = fixture["mean_rate"]
    t0 = time.perf_counter()
    est = ly.finite_lyapunov(AMO5, SHIFT, 0.0, 100_000, m_samples=20)
    elapsed = time.perf_counter() - t0
    gap = abs(est.mean - target)
    ok = gap <= 0.01 and elapsed < 60.0
    report(8, "strong-coupling plateau", ok,
           f"|{est.mean:.6f} - {target:.6f}| = {gap:.2e}, {elapsed:.1f}s")


def test_c09_thouless_determinant_vs_norm():
    # <(1/N) log|f_N|> within 0.05 of L_N at N = 3000 for 20
    # in-spectrum energies (taken from one instance's spectrum),
    # under 2 minutes
    t0 = time.perf_counter()
    H = sp.hamiltonian(AMO3, SHIFT, dy.phase(0.37), 3000)
    ev = eigh_tridiagonal(H.diag, -np.ones(2999), eigvals_only=True)
    energies = ev[np.linspace(100, 2900, 20).astype(int)]
    xs = ly.sample_phases(SHIFT, "random", 200, seed=17)
    worst = 0.0
    for E in energies:
        logs_det = cc.batched_log_absdet(AMO3, SHIFT, xs, float(E), 3000)[3000]
        logs_nrm = cc.batched_log_norms(AMO3, SHIFT, xs, float(E), 3000)[3000]
        finite = np.isfinite(logs_det)
        gap = abs(float(np.mean(logs_det[finite])) / 3000
                  - float(np.mean(logs_nrm)) / 3000)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.05 and elapsed < 120.0
    report(9, "Thouless determinant growth", ok,
           f"worst gap {worst:.2e} (gate 0.05), {elapsed:.1f}s")


def test_c10_hellmann_feynman_derivatives():
    # analytic vs central-difference phase derivative, relative 1e-4,
    # over 50 random simple eigenvalues at N = 100
    rng = np.random.default_rng(10)
    worst = 0.0
    checked = 0
    while checked < 50:
        x = dy.phase(rng.random())
        j = int(rng.integers(0, 100))
        try:
            analytic, fd = sp.hellmann_feynman(AMO3, SHIFT, x, j, 100)
        except sp.AmbiguousEigenvalue:
            continue
        worst = max(worst, abs(analytic - fd) / max(abs(analytic), 1e-12))
        checked += 1
    ok = worst <= 1e-4
    report(10, "Hellmann-Feynman derivatives", ok, f"worst rel {worst:.2e}")


def test_c11_jensen_sandwich_and_additivity():
    # zero violations of the nested-disk sandwich over 200 random
    # polynomials and 20 determinant disks (N = 64); Jensen counts add
    # over factors to 1e-8; no runtime budget
    rng = np.random.default_rng(11)
    violations = 0
    for _ in range(200):
        k = int(rng.integers(1, 5))
        roots = rng.uniform(-0.3, 0.3, k) + 1j * rng.uniform(-0.3, 0.3, k)
        f = zr.polynomial_handle(list(roots))
        try:
            zr.nu_sandwich(f, 0.0, 0.45, 0.15)
        except ArithmeticError:
            violations += 1

    f64 = zr.determinant_handle(AMO3, dy.GOLDEN_MEAN, 0.5, 64)
    rng2 = np.random.default_rng(64)
    det_violations = 0
    done = skipped = 0
    while done < 20 and skipped < 80:
        xx = rng2.random()
        yy = (rng2.random() - 0.5) * 0.08
        center = cmath.exp(complex(2 * math.pi * yy, 2 * math.pi * xx))
        try:
            zr.nu_sandwich(f64, center, 0.05, 0.015)
            done += 1
        except (zr.NearCircleZero, zr.CenterIsZero):
            skipped += 1
        except ArithmeticError:
            det_violations += 1
            done += 1

    a = [0.1, -0.2 + 0.2j]
    b = [0.05 - 0.1j, 0.4]
    add_gap = abs(zr.jensen_count(zr.polynomial_handle(a + b), 0.0, 0.6)
                  - zr.jensen_count(zr.polynomial_handle(a), 0.0, 0.6)
                  - zr.jensen_count(zr.polynomial_handle(b), 0.0, 0.6))
    ok = violations == 0 and det_violations == 0 and done == 20 \
        and add_gap <= 1e-8
    report(11, "Jensen sandwich and additivity", ok,
           f"{violations} poly / {det_violations} det violations over 200+20, "
           f"additivity {add_gap:.1e}")


def test_c12_counting_bounds_and_trace_lemma():
    # eigenvalue count in (E-eta, E+eta) <= 4 eta sum(W) + 2 over 50
    # instances at N = 50 for eta in {0.05, 0.01}; the diagonal-Green
    # trace inequality holds on 50 random Hermitian 20x20 matrices
    rng = np.random.default_rng(12)
    bad_window = bad_full = 0
    for _ in range(50):
        x = dy.phase(rng.random())
        for eta in (0.05, 0.01):
            rep = sp.concatenation_bound_check(
                AMO3, SHIFT, x, float(rng.uniform(-2.0, 2.0)), eta, 50)
            bad_window += not rep.ok_window
            bad_full += not rep.ok_full
    bad_trace = 0
    for _ in range(50):
        a = rng.standard_normal((20, 20))
        a = 0.5 * (a + a.T)
        lhs, rhs = sp.trace_moment_lower_bound(
            a, float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.01, 0.2)))
        bad_trace += not (lhs >= rhs * (1.0 - 1e-12))
    ok = bad_window == 0 and bad_full == 0 and bad_trace == 0
    report(12, "counting bounds and trace lemma", ok,
           f"violations: window {bad_window}, full {bad_full}, "
           f"trace {bad_trace}")


def test_c13_wegner_monotonicity():
    # measure(dist < e^-10) <= measure(dist < e^-5) at N = 200 over
    # 5000 phases, for 10 energies (one seed per energy)
    bad = 0
    for i, E in enumerate(np.linspace(-2.0, 2.0, 10)):
        m5 = sp.wegner_measure(AMO3, SHIFT, float(E), 5.0, 200, 5000,
                               seed=100 + i)
        m10 = sp.wegner_measure(AMO3, SHIFT, float(E), 10.0, 200, 5000,
                                seed=100 + i)
        bad += m10 > m5
    ok = bad == 0
    report(13, "Wegner resolution monotonicity", ok,
           f"{bad} energies out of 10 violate")


def test_c14_large_deviation_decay():
    # deviation measure at threshold n^0.9 non-increasing along
    # n = 100 -> 400 -> 1600, 5000 phases
    measures = []
    for n in (100, 400, 1600):
        prof = dv.deviation_measure(AMO3, SHIFT, 0.0, n, float(n) ** 0.9,
                                    5000, seed=14)
        measures.append(prof.measure)
    ok = measures[0] >= measures[1] >= measures[2]
    report(14, "large-deviation decay", ok,
           f"measures {measures[0]:.4f} -> {measures[1]:.4f} -> "
           f"{measures[2]:.4f}")


def test_c15_concatenation_defect_sign():
    # w_m(z) <= 1e-9 with zero violations over 1e4 random annulus
    # evaluations
    rng = np.random.default_rng(15)
    x = rng.random(10_000)
    y = (rng.random(10_000) - 0.5) * 0.1
    zs = np.exp(2j * np.pi * x + 2 * np.pi * y)
    w = zr.concatenation_w_grid(AMO3, dy.GOLDEN_MEAN, zs, 0.0, 30)
    violations = int(np.sum(w > 1e-9))
    ok = violations == 0
    report(15, "concatenation defect sign", ok,
           f"{violations} of 10000 above 1e-9, max {float(np.max(w)):.2e}")


def test_c16_config_determinism(tmp_path):
    # every bundled config produces byte-identical CSV output with 1
    # and 8 worker threads
    config_dir = Path(cli.__file__).parent / "configs"
    configs = sorted(config_dir.glob("*.yaml"))
    assert len(configs) == 16
    mismatches = []
    for cfg_path in configs:
        name = yaml.safe_load(cfg_path.read_text())["experiment"]
        out1 = tmp_path / f"{name}-t1"
        out8 = tmp_path / f"{name}-t8"
        assert cli.run(cfg_path, out=out1, threads=1) == 0
        assert cli.run(cfg_path, out=out8, threads=8) == 0
        a = (out1 / f"{name}.csv").read_bytes()
        b = (out8 / f"{name}.csv").read_bytes()
        if a != b:
            mismatches.append(name)
    ok = not mismatches
    report(16, "thread-count determinism", ok,
           f"{len(configs)} configs, mismatches {mismatches or 'none'}")
