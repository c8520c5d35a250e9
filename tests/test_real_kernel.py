"""The real-phase site stream and the batched recurrence kernel.

Every real-phase path (the blocked stream ``cocycle._sites``,
``_site_values``, ``hamiltonian().diag``, ``spectrum._orbit_diags`` and
``dynamics.orbit_first_coord``) must read site k as
``eval_real(p, iterate(dyn, x, t)[0])`` for all three maps.  The batched
kernels, which run one recurrence core rescaled every r sites, are
pinned against mpmath at 50 digits, against the single-phase paths, and
on their checkpoint, exact-zero and rng contracts; so are the signs and
phases of the single-phase determinants and the Green entries built
from them.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qplab.cocycle as cc
import qplab.dynamics as dy
import qplab.experiments as ex
import qplab.potential as pt
import qplab.spectrum as sp

GOLDEN = dy.GOLDEN_MEAN
SHIFT = dy.Shift((GOLDEN,))
SKEW = dy.SkewShift(GOLDEN)
DOUBLING = dy.Doubling()
MAPS = {"shift": SHIFT, "skew": SKEW, "doubling": DOUBLING}
DEG3 = pt.Potential({0: 0.4, 1: 0.3 + 0.2j, 2: -0.1j, 3: 0.25}, lam=1.0)
AMO3 = pt.almost_mathieu(3.0)
N_LONG = 100_000


def offset(first_site):
    """Dynamical time of site k is k - offset."""
    return 0 if first_site == "Tx" else 1


def oracle(p, dyn, x, ks, first_site="Tx"):
    return np.array([pt.eval_real(p, dy.iterate(dyn, x, int(k) - offset(first_site))[0])
                     for k in ks])


def real_paths(p, dyn, xs, n, first_site):
    """Site values 1..n of every real-phase path, each of shape (m, n)."""
    stream = np.concatenate(list(cc._sites(p, dyn, xs, 1, n, first_site))).T
    diags = sp._orbit_diags(p, dyn, xs, n, first_site)
    single = np.array([cc._site_values(p, dyn, x, 1, n, first_site) for x in xs])
    ham = np.array([sp.hamiltonian(p, dyn, x, n, first_site).diag for x in xs])
    # orbit_first_coord gives T^1 x .. T^n x; site 1 of first_site="x" is x
    orbits = [np.concatenate([dy.mod1(x[:1]), dy.orbit_first_coord(dyn, x, n)])
              for x in xs]
    first = np.array([pt.eval_real_many(p, o[1 - offset(first_site):][:n]) for o in orbits])
    return {"stream": stream, "orbit_diags": diags, "site_values": single,
            "hamiltonian": ham, "orbit_first_coord": first}


# ------------------------------------------------------------- site stream

@pytest.mark.parametrize("first_site", ["Tx", "x"])
@pytest.mark.parametrize("name", ["shift", "skew"])
def test_every_path_reads_the_exact_orbit(name, first_site):
    dyn = MAPS[name]
    rng = np.random.default_rng(3)
    xs = rng.random((3, dyn.d))
    ks = np.unique(np.concatenate([np.arange(1, 70), rng.integers(1, N_LONG, 300),
                                   [N_LONG]]))
    paths = real_paths(DEG3, dyn, xs, N_LONG, first_site)
    for i, x in enumerate(xs):
        ref = oracle(DEG3, dyn, x, ks, first_site)
        for path, vals in paths.items():
            gap = np.max(np.abs(vals[i, ks - 1] - ref))
            assert gap <= 1e-12, (path, gap)


@pytest.mark.parametrize("first_site", ["Tx", "x"])
def test_doubling_paths_follow_the_float_orbit_exactly(first_site):
    xs = np.random.default_rng(4).random((3, 1))
    ks = np.arange(1, 61)
    paths = real_paths(DEG3, DOUBLING, xs, 60, first_site)
    for i, x in enumerate(xs):
        orbit = np.array([dy.iterate(DOUBLING, x, int(k) - offset(first_site))[0]
                          for k in ks])
        exact = pt.eval_real_many(DEG3, orbit)
        ref = oracle(DEG3, DOUBLING, x, ks, first_site)
        for path, vals in paths.items():
            assert np.array_equal(vals[i], exact), path
            assert np.max(np.abs(vals[i] - ref)) <= 1e-12, path


def test_skew_hamiltonian_and_ids_read_the_same_diagonals():
    # ids draws its phases as below and reads them through _orbit_diags
    xs = np.random.default_rng(5).random((2, 2))
    diags = sp._orbit_diags(DEG3, SKEW, xs, N_LONG)
    for i, x in enumerate(xs):
        H = sp.hamiltonian(DEG3, SKEW, x, N_LONG)
        assert np.max(np.abs(H.diag - diags[i])) <= 1e-12


@pytest.mark.parametrize("name", ["shift", "skew"])
def test_windows_reaching_negative_time_use_the_exact_orbit(name):
    dyn = MAPS[name]
    x = [Fraction(0.3141), Fraction(0.2718)][:dyn.d]
    om = Fraction(GOLDEN)
    ref = []
    for t in range(-300, 6):
        if name == "shift":
            theta = (x[0] + t * om) % 1
        else:
            theta = (x[0] + t * x[1] + (t * (t - 1) // 2) * om) % 1
        ref.append(pt.eval_real(DEG3, float(theta)))
    got = cc._site_values(DEG3, dyn, [float(c) for c in x], -300, 5)
    assert np.max(np.abs(got - ref)) <= 1e-12


@pytest.mark.parametrize("first_site", ["Tx", "x"])
def test_complex_stream_reads_the_exact_orbit_on_the_circle(first_site):
    # at z = e(x) the complex stream is the real potential sequence, and it
    # meets the same gate: frac(t omega) must be exact, not a float product
    rng = np.random.default_rng(3)
    xs = rng.random(3)
    ks = np.unique(np.concatenate([np.arange(1, 70), rng.integers(1, N_LONG, 300),
                                   [N_LONG]]))
    bound, blocks = cc._laurent_sites(DEG3, GOLDEN, np.exp(2j * np.pi * xs), 1, N_LONG,
                                      first_site)
    # each block is a reused buffer, so it is copied before the next is drawn
    vals = np.concatenate([blk.copy() for blk in blocks])
    assert vals.shape == (N_LONG, 3) and bound >= np.max(np.abs(vals))
    for i, x in enumerate(xs):
        ref = oracle(DEG3, SHIFT, [x], ks, first_site)
        assert np.max(np.abs(vals[ks - 1, i].real - ref)) <= 1e-12
        assert np.max(np.abs(vals[ks - 1, i].imag)) <= 1e-12


@pytest.mark.parametrize("n", [1, 64, 2000])
def test_complex_grid_on_the_circle_is_det_window(n):
    p = pt.Potential(dict(DEG3.coeffs), lam=2.0)
    xs = np.random.default_rng(8).random(6)
    phases, logs = cc.complex_det_grid(p, GOLDEN, np.exp(2j * np.pi * xs), 0.7, n)
    for x, ph, lg in zip(xs, phases, logs):
        f = cc.det_window(p, SHIFT, [x], 0.7, 1, n).value
        assert abs(lg - f.log_mag) <= 1e-12 * max(1, n)
        assert np.sign(ph.real) == f.phase.real and abs(ph.imag) <= 1e-9


def test_stream_blocks_are_capped_and_checked():
    xs = np.random.default_rng(6).random((700, 1))
    blocks = list(cc._sites(AMO3, SHIFT, xs, 1, 500))
    assert all(b.shape[1] == 700 and b.size <= cc._BLOCK_ELEMENTS for b in blocks)
    assert sum(b.shape[0] for b in blocks) == 500
    with pytest.raises(ValueError):
        list(cc._sites(AMO3, DOUBLING, xs, 0, 3, "x"))
    with pytest.raises(ValueError):
        cc.batched_log_norms(AMO3, SHIFT, xs, 0.0, 5, first_site="y")


# --------------------------------------------------------- mpmath oracle

def exact_phase(dyn, x, t):
    """The first coordinate of T^t x as an exact rational."""
    x = [Fraction(float(c)) for c in x]
    if isinstance(dyn, dy.Shift):
        return (x[0] + t * Fraction(dyn.omega[0])) % 1
    if isinstance(dyn, dy.SkewShift):
        return (x[0] + t * x[1] + (t * (t - 1) // 2) * Fraction(dyn.omega)) % 1
    return (2 ** t * x[0]) % 1


def mp_logs(p, dyn, x, E, checkpoints, first_site="Tx", start=1):
    """{k: (log||M_[start,k]||, log|f_[start,k]|, f_[start,k])} at 50 digits.

    Sites run along the exact orbit; f_[start,k] is an mpmath complex.
    """
    out = {}
    with mp.workdps(50):
        E = mp.mpc(E)
        a, b, c, d = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)
        for k in range(start, max(checkpoints) + 1):
            th = exact_phase(dyn, x, k - offset(first_site))
            th = mp.mpf(th.numerator) / th.denominator
            v = p.lam * mp.fsum(mp.mpc(vj) * mp.expjpi(2 * j * th) for j, vj in p.coeffs)
            t = v.real - E
            a, b, c, d = t * a - c, t * b - d, a, b
            if k in checkpoints:
                fro2 = sum(abs(e) ** 2 for e in (a, b, c, d))
                det = abs(a * d - b * c)
                top = mp.sqrt((fro2 + mp.sqrt(fro2 ** 2 - 4 * det ** 2)) / 2)
                out[k] = (float(mp.log(top)), float(mp.log(abs(a))), a)
    return out


def mp_phase(f):
    with mp.workdps(50):
        return complex(f / abs(f))


@pytest.mark.parametrize("name", ["shift", "skew", "doubling"])
def test_kernels_match_mpmath(name):
    dyn = MAPS[name]
    p = pt.Potential(dict(DEG3.coeffs), lam=2.0)
    xs = np.random.default_rng(7).random((3, dyn.d))
    checks = (1, 2, 17, 100, 200)
    norms = cc.batched_log_norms(p, dyn, xs, 0.7, 200, checkpoints=checks)
    dets = cc.batched_log_absdet(p, dyn, xs, 0.7 + 0.05j, 200, checkpoints=checks)
    assert sorted(norms) == sorted(dets) == list(checks)
    for i, x in enumerate(xs):
        ref_norm = mp_logs(p, dyn, x, 0.7, range(1, 201))
        ref_det = mp_logs(p, dyn, x, 0.7 + 0.05j, range(1, 201))
        for k in checks:
            assert norms[k][i] == pytest.approx(ref_norm[k][0], abs=1e-10)
            assert dets[k][i] == pytest.approx(ref_det[k][1], abs=1e-10)
        # signs (real E) and phases (complex E) of det_sequence at every k
        for E, ref in ((0.7, ref_norm), (0.7 + 0.05j, ref_det)):
            for k, f in enumerate(cc.det_sequence(p, dyn, x, E, 200), start=1):
                assert f.log_mag == pytest.approx(ref[k][1], abs=1e-10), k
                assert abs(f.phase - mp_phase(ref[k][2])) <= 1e-9, k


def test_green_entries_match_the_mpmath_cramer_ratio():
    p = pt.Potential(dict(DEG3.coeffs), lam=2.0)
    N, E = 200, 0.7 + 0.05j
    x = np.random.default_rng(11).random(1)

    def f(a, b):
        """f_[a,b] at 50 digits, with f_[a,a-1] = 1."""
        return mp.mpf(1) if b < a else mp_logs(p, SHIFT, x, E, (b,), start=a)[b][2]

    full = f(1, N)
    for j, k in ((1, 1), (1, N), (5, 40), (60, 60), (90, 170), (150, N)):
        g = cc.green_entry(p, SHIFT, x, E, j, k, N)
        with mp.workdps(50):
            ref = f(1, j - 1) * f(k + 1, N) / full
            log_ref = float(mp.log(abs(ref)))
        assert g.log_mag == pytest.approx(log_ref, abs=1e-10), (j, k)
        assert abs(g.phase - mp_phase(ref)) <= 1e-9, (j, k)


def test_green_row_matches_its_entries_and_the_mpmath_cramer_ratio():
    p = pt.Potential(dict(DEG3.coeffs), lam=2.0)
    N, E = 200, 0.7 + 0.05j
    x = np.random.default_rng(11).random(1)
    # v_k - E at 50 digits; left[k] = f_[1,k] and right[k] = f_[k+1,N], k = 0..N
    with mp.workdps(50):
        ts = [p.lam * mp.fsum(mp.mpc(vj) * mp.expjpi(2 * j * mp.mpf(th.numerator) / th.denominator)
                              for j, vj in p.coeffs).real - mp.mpc(E)
              for th in (exact_phase(SHIFT, x, k) for k in range(1, N + 1))]
        left, right = [mp.mpf(0), mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]
        for t in ts:
            left.append(t * left[-1] - left[-2])
        for t in reversed(ts):
            right.append(t * right[-1] - right[-2])
        left, right = left[1:], right[:0:-1]
    for j in (1, 5, 90, N):
        phases, logs = cc.green_row(p, SHIFT, x, E, j, N)
        assert phases.shape == logs.shape == (N - j + 1,)
        for k in range(j, N + 1):
            g = cc.green_entry(p, SHIFT, x, E, j, k, N)
            assert logs[k - j] == pytest.approx(g.log_mag, abs=1e-12 * N), (j, k)
            assert abs(phases[k - j] - g.phase) <= 1e-10, (j, k)
            with mp.workdps(50):
                ref = left[j - 1] * right[k] / left[N]
                log_ref = float(mp.log(abs(ref)))
            assert logs[k - j] == pytest.approx(log_ref, abs=1e-10), (j, k)
            assert abs(phases[k - j] - mp_phase(ref)) <= 1e-9, (j, k)
    with pytest.raises(ValueError):
        cc.green_row(p, SHIFT, x, E, 0, N)


def test_large_coupling_rescales_often_and_stays_exact():
    p = pt.Potential(dict(DEG3.coeffs), lam=1e4)
    every = int(600.0 / math.log(p.sup_bound() + 0.3 + 2.0))
    n = 600
    assert n // every >= 9            # entries reach e^5000 without rescaling
    xs = np.random.default_rng(8).random((2, 1))
    checks = (1, every, every + 1, 333, n)
    norms = cc.batched_log_norms(p, SHIFT, xs, 0.3, n, checkpoints=checks)
    dets = cc.batched_log_absdet(p, SHIFT, xs, 0.3, n, checkpoints=checks)
    for i, x in enumerate(xs):
        ref = mp_logs(p, SHIFT, x, 0.3, checks)
        for k in checks:
            assert norms[k][i] == pytest.approx(ref[k][0], abs=1e-10)
            assert dets[k][i] == pytest.approx(ref[k][1], abs=1e-10)


# ------------------------------------------------- single-phase references

def sup_loop(p, dyn, x, E, n, first_site):
    """sup_k (1/k) log||M_k||: dense 2x2 products, divided by their norm at every site."""
    prod, log_scale, best = np.eye(2), 0.0, -math.inf
    for k, v in enumerate(cc._site_values(p, dyn, x, 1, n, first_site), start=1):
        prod = np.array([[v - E, -1.0], [1.0, 0.0]]) @ prod
        norm = np.linalg.norm(prod, 2)
        prod /= norm
        log_scale += math.log(norm)
        best = max(best, log_scale / k)
    return best


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["shift", "skew", "doubling"]),
       seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=3),
       E=st.floats(-4.0, 4.0), lam=st.floats(0.1, 8.0), n=st.integers(1, 200),
       first_site=st.sampled_from(["Tx", "x"]))
def test_batched_kernels_match_single_phase_paths(name, seeds, E, lam, n, first_site):
    dyn = MAPS[name]
    p = pt.Potential(dict(DEG3.coeffs), lam=lam)
    xs = np.array([np.random.default_rng(s).random(dyn.d) for s in seeds])
    norms = cc.batched_log_norms(p, dyn, xs, E, n, first_site=first_site)[n]
    dets = cc.batched_log_absdet(p, dyn, xs, E, n, first_site=first_site)[n]
    sups = cc.batched_sup_rate(p, dyn, xs, E, n, first_site=first_site)
    for i, x in enumerate(xs):
        prod = cc.transfer_product(p, dyn, x, E, n, first_site)
        f = cc.det_window(p, dyn, x, E, 1, n, first_site).value
        assert abs(norms[i] - prod.log_norm) <= 1e-9
        assert abs(dets[i] - f.log_mag) <= 1e-9
        assert abs(sups[i] - sup_loop(p, dyn, x, E, n, first_site)) <= 1e-9


# ------------------------------------------------------------- contracts

def test_checkpoints_outside_the_window_are_rejected():
    xs = np.array([[0.2]])
    for bad in ((0, 5), (5, 6)):
        with pytest.raises(ValueError):
            cc.batched_log_norms(AMO3, SHIFT, xs, 0.0, 5, checkpoints=bad)
        with pytest.raises(ValueError):
            cc.batched_log_absdet(AMO3, SHIFT, xs, 0.0, 5, checkpoints=bad)


def test_exact_zeros_survive_rescaling_and_complex_energies():
    # V = 0: f_k = U_k(-E/2), zero at every odd k for E = 0; with a large
    # E the pair is rescaled every site
    free = pt.from_triples([], 1.0)
    xs = np.array([[0.3], [0.6]])
    out = cc.batched_log_absdet(free, SHIFT, xs, 0.0, 9, checkpoints=range(1, 10))
    for k in range(1, 10):
        assert np.all(out[k] == (-math.inf if k % 2 else 0.0))
    big = cc.batched_log_absdet(free, SHIFT, xs, 1e300j, 3, checkpoints=(1, 3))
    assert big[3] == pytest.approx(3 * math.log(1e300), rel=1e-15)  # |f_3| = y^3 + 2y


# ---------------------------------------------------- doubling determinism

@pytest.mark.parametrize("first_site", ["Tx", "x"])
def test_doubling_draws_one_uniform_per_phase_and_step(first_site):
    n, xs = 40, np.random.default_rng(1).random((7, 1))
    steps = n if first_site == "Tx" else n - 1
    kernels = (lambda rng: cc.batched_log_norms(AMO3, DOUBLING, xs, 0.3, n,
                                                first_site=first_site, rng=rng),
               lambda rng: cc.batched_log_absdet(AMO3, DOUBLING, xs, 0.3, n,
                                                 first_site=first_site, rng=rng),
               lambda rng: cc.batched_sup_rate(AMO3, DOUBLING, xs, 0.3, n,
                                               first_site=first_site, rng=rng))
    for run in kernels:
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        run(rng)
        for _ in range(steps * xs.size):
            ref.random()
        assert rng.bit_generator.state == ref.bit_generator.state


def test_doubling_rows_are_frozen():
    # values from the per-site kernels that preceded the blocked stream
    _, rows = ex.run_experiment(
        "lyapunov_scan", AMO3, DOUBLING,
        {"E": [0.0, 1.0], "n_list": [25, 50, 100], "m_samples": 100,
         "sampler": "random"}, seed=4)
    frozen = [0.4788047260546267, 0.46725405355892674, 0.4568339727825896,
              0.45533674989508705, 0.43996378272412245, 0.44179012924760286]
    assert [r[2] for r in rows] == pytest.approx(frozen, abs=1e-10)
    _, rows = ex.run_experiment("thouless_check", AMO3, DOUBLING,
                                {"E": [0.0], "N": 200, "x_samples": 50}, seed=4)
    assert rows[0][2:4] == pytest.approx((0.4566415931782316, 0.4598366523591185),
                                         abs=1e-10)
