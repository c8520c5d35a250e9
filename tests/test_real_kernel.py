"""The real-phase site stream and the batched recurrence kernel.

Every real-phase path (the blocked stream ``cocycle._sites``,
``_site_values``, ``hamiltonian().diag`` and ``spectrum._orbit_diags``)
must read site k as ``eval_real(p, iterate(dyn, x, t)[0])`` for all three
maps.  The batched kernels, which run one recurrence core rescaled every
r sites, are pinned against mpmath at 50 digits, against the
single-phase paths, and on their checkpoint, exact-zero and rng
contracts.
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
    return {"stream": stream, "orbit_diags": diags, "site_values": single,
            "hamiltonian": ham}


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


def mp_logs(p, dyn, x, E, checkpoints, first_site="Tx"):
    """{k: (log||M_k||, log|f_k|)} at 50 digits along the exact orbit."""
    out = {}
    with mp.workdps(50):
        E = mp.mpc(E)
        a, b, c, d = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)
        for k in range(1, max(checkpoints) + 1):
            th = exact_phase(dyn, x, k - offset(first_site))
            th = mp.mpf(th.numerator) / th.denominator
            v = p.lam * mp.fsum(mp.mpc(vj) * mp.expjpi(2 * j * th) for j, vj in p.coeffs)
            t = v.real - E
            a, b, c, d = t * a - c, t * b - d, a, b
            if k in checkpoints:
                fro2 = sum(abs(e) ** 2 for e in (a, b, c, d))
                det = abs(a * d - b * c)
                top = mp.sqrt((fro2 + mp.sqrt(fro2 ** 2 - 4 * det ** 2)) / 2)
                out[k] = (float(mp.log(top)), float(mp.log(abs(a))))
    return out


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
        ref_norm = mp_logs(p, dyn, x, 0.7, checks)
        ref_det = mp_logs(p, dyn, x, 0.7 + 0.05j, checks)
        for k in checks:
            assert norms[k][i] == pytest.approx(ref_norm[k][0], abs=1e-10)
            assert dets[k][i] == pytest.approx(ref_det[k][1], abs=1e-10)


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
    """sup_k (1/k) log||M_k||, renormalizing after every site."""
    prod, best = cc.ScaledProduct(), -math.inf
    for k, v in enumerate(cc._site_values(p, dyn, x, 1, n, first_site), start=1):
        prod.push_left(np.array([[v - E, -1.0], [1.0, 0.0]]))
        best = max(best, prod.log_norm / k)
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
