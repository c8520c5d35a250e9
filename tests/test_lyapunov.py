"""Finite-scale Lyapunov estimates, the avalanche principle, positivity."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qplab.cocycle as cc
import qplab.dynamics as dy
import qplab.lyapunov as ly
import qplab.potential as pt

SHIFT = dy.Shift((dy.GOLDEN_MEAN,))
AMO3 = pt.almost_mathieu(3.0)
FREE = pt.from_triples([], 1.0)


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------- sampling

def test_grid_sampler_is_offset_equispaced():
    xs = ly.sample_phases(SHIFT, "grid", 8)
    assert xs.shape == (8, 1)
    np.testing.assert_allclose(xs[:, 0], (np.arange(8) + dy.GOLDEN_MEAN) / 8)


def test_grid_sampler_on_t2_rounds_to_a_square():
    sk = dy.SkewShift((dy.GOLDEN_MEAN,))
    xs = ly.sample_phases(sk, "grid", 10)
    assert xs.shape == (9, 2)


def test_random_sampler_is_seeded():
    a = ly.sample_phases(SHIFT, "random", 6, seed=9)
    b = ly.sample_phases(SHIFT, "random", 6, seed=9)
    assert np.array_equal(a, b)
    assert a.shape == (6, 1)


def test_orbit_sampler_spaces_starts_by_blocks():
    xs = ly.sample_phases(SHIFT, "orbit", 4, block=10)
    assert xs.shape == (4, 1)
    # consecutive starts differ by 10 steps of the rotation
    step = dy.mod1(xs[1, 0] - xs[0, 0])
    assert step == pytest.approx(dy.mod1(10 * dy.GOLDEN_MEAN), abs=1e-12)


def test_orbit_sampler_requires_block():
    with pytest.raises(ValueError):
        ly.sample_phases(SHIFT, "orbit", 4)


def test_unknown_sampler_rejected():
    with pytest.raises(ValueError):
        ly.sample_phases(SHIFT, "fancy", 4)


def test_doubling_orbit_sampler_falls_back_to_random():
    # float orbits of the doubling map are dyadic and collapse, so the
    # orbit sampler hands back fresh seeded phases instead
    dbl = dy.Doubling()
    a = ly.sample_phases(dbl, "orbit", 5, seed=3, block=8)
    b = ly.sample_phases(dbl, "random", 5, seed=3)
    assert np.array_equal(a, b)


# ------------------------------------------------------- finite exponents

def test_free_cocycle_matches_acosh_rate():
    # V = 0, E = 3: constant hyperbolic matrix, L = acosh(|E|/2)
    est = ly.finite_lyapunov(FREE, SHIFT, 3.0, 2000, m_samples=50)
    assert est.mean == pytest.approx(math.acosh(1.5), abs=1e-3)
    assert est.n == 2000 and est.samples == 50 and est.sampler == "grid"


def test_almost_mathieu_sits_above_log_half_coupling():
    # the finite scale can only overshoot log(lam/2), never undershoot
    est = ly.finite_lyapunov(AMO3, SHIFT, 0.0, 1000, m_samples=200)
    assert est.mean >= math.log(1.5) - 3 * est.stderr
    assert est.mean == pytest.approx(math.log(1.5), abs=0.01)


def test_finite_lyapunov_validates_inputs():
    with pytest.raises(ValueError):
        ly.finite_lyapunov(AMO3, SHIFT, 0.0, 0)
    with pytest.raises(ValueError):
        ly.finite_lyapunov(AMO3, SHIFT, 0.0, 10, m_samples=0)


def test_single_sample_has_zero_stderr():
    est = ly.finite_lyapunov(AMO3, SHIFT, 0.0, 50, m_samples=1)
    assert est.stderr == 0.0


def test_doubling_map_runs_are_reproducible():
    dbl = dy.Doubling()
    a = ly.finite_lyapunov(AMO3, dbl, 0.0, 200, sampler="random",
                           m_samples=50, seed=4)
    b = ly.finite_lyapunov(AMO3, dbl, 0.0, 200, sampler="random",
                           m_samples=50, seed=4)
    assert a.mean == b.mean and a.stderr == b.stderr


# ------------------------------------------------------ avalanche principle

def test_avalanche_exact_for_aligned_diagonal_family():
    # expanding directions all aligned: the discrepancy telescopes away
    rng = np.random.default_rng(3)
    fam = [np.diag([1e4 * math.exp(u), 1.0 / (1e4 * math.exp(u))])
           for u in rng.uniform(0.0, 1.0, size=10)]
    rep = ly.avalanche_check(fam, mu=1e4)
    assert rep.hypotheses_ok
    assert rep.passes == 1.0
    assert rep.lhs_discrepancy <= 1e-12


def test_avalanche_on_transfer_windows():
    x = dy.phase(0.33)
    mats = [cc.transfer_product_window(AMO3, SHIFT, x, 0.0,
                                       40 * j + 1, 40 * (j + 1))
            for j in range(12)]
    rep = ly.avalanche_check(mats, mu=1e4)
    assert rep.hypotheses_ok
    assert rep.passes == 1.0
    assert rep.lhs_discrepancy <= rep.bound
    assert rep.bound == pytest.approx(100.0 * 12 / 1e4)
    # the records and their dense matrices give the same report
    dense = ly.avalanche_check([m.reconstruct() for m in mats], mu=1e4)
    assert rep.lhs_discrepancy == pytest.approx(dense.lhs_discrepancy, abs=1e-9)
    flags = ("hyp_det_ok", "hyp_large_ok", "hyp_diff_ok")
    assert [getattr(rep, f) for f in flags] == [getattr(dense, f) for f in flags]


def test_avalanche_telescopes_where_the_dense_product_overflows():
    # 100 aligned factors of norm about 1e4: the product's norm is near
    # 1e400, past the float range, so only a rescaled product can read it
    rng = np.random.default_rng(4)
    fam = [np.diag([1e4 * math.exp(u), 1.0 / (1e4 * math.exp(u))])
           for u in rng.uniform(0.0, 0.1, size=100)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(np.linalg.multi_dot(fam)).all()
    rep = ly.avalanche_check(fam, mu=1e4)
    assert rep.hypotheses_ok
    assert rep.lhs_discrepancy <= 1e-9


def test_avalanche_rejects_large_determinants():
    rep = ly.avalanche_check([np.diag([1e4, 2.0])] * 5, mu=1e4)
    assert not rep.hyp_det_ok
    assert np.isnan(rep.passes)


def test_avalanche_rejects_norms_below_mu():
    rep = ly.avalanche_check([np.diag([50.0, 0.02])] * 5, mu=1e4)
    assert not rep.hyp_large_ok
    assert np.isnan(rep.passes)


def test_avalanche_requires_mu_above_length():
    rep = ly.avalanche_check([np.diag([1e4, 1e-4])] * 7, mu=5.0)
    assert not rep.hyp_large_ok


def test_avalanche_rejects_adjacent_cancellation():
    s = 1e4
    a = np.diag([s, 1.0 / s])
    b = rotation(math.pi / 2) @ a @ rotation(-math.pi / 2)
    rep = ly.avalanche_check([a, b, a, b], mu=s)
    assert rep.hyp_det_ok and rep.hyp_large_ok
    assert not rep.hyp_diff_ok
    assert np.isnan(rep.passes)


def test_avalanche_input_validation():
    with pytest.raises(ValueError):
        ly.avalanche_check([np.eye(2)], mu=10.0)
    with pytest.raises(ValueError):
        ly.avalanche_check([np.eye(3)] * 3, mu=10.0)
    with pytest.raises(ValueError):
        ly.avalanche_check([np.full((2, 2), np.nan)] * 3, mu=10.0)


def test_avalanche_reports_a_product_that_reaches_zero():
    # both adjacent products, and so the full product, are the zero matrix
    mats = [np.diag([1e4, 0.0]), np.diag([0.0, 1e4]), np.diag([1e4, 0.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = ly.avalanche_check(mats, mu=10.0)
    assert rep.hyp_det_ok and rep.hyp_large_ok
    assert not rep.hyp_diff_ok
    assert np.isnan(rep.passes)


def factor(log_s, det, a, b):
    """R(a) diag(s, det / s) R(b) with s = e^log_s."""
    s = math.exp(log_s)
    return rotation(a) @ np.diag([s, det / s]) @ rotation(b)


def records(mats):
    """The factors as ScaledProduct records, each scaled by its largest entry."""
    scale = np.abs(mats).max(axis=(-2, -1))
    return [cc.ScaledProduct(m / s, math.log(s)) for m, s in zip(mats, scale)]


# log s from 0 (fails hyp_large) up; det 4 fails hyp_det and det 0 makes
# rank-one factors; free angles put the contracting direction of one
# factor on the expanding one of the next (fails hyp_diff)
FACTORS = st.tuples(st.floats(0.0, 14.0), st.sampled_from([1.0, 0.25, 4.0, 0.0]),
                    st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
AP_FIELDS = ("hyp_det_ok", "hyp_large_ok", "hyp_diff_ok", "hypotheses_ok",
             "lhs_discrepancy", "passes")


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


@settings(max_examples=80, deadline=None)
@given(stack=st.integers(2, 8).flatmap(
           lambda n: st.lists(st.lists(FACTORS, min_size=n, max_size=n),
                              min_size=1, max_size=4)),
       mu=st.sampled_from([10.0, 1e3, 1e5]))
@example(stack=[[(math.log(1e4), 0.0, 0.0, 0.0), (math.log(1e4), 0.0, math.pi / 2, -math.pi / 2),
                 (math.log(1e4), 0.0, 0.0, 0.0)]], mu=10.0)
@example(stack=[[(math.log(1e4), 1.0, 0.0, 0.0), (math.log(1e4), 1.0, math.pi / 2, -math.pi / 2)] * 2,
                [(math.log(1e4), 1.0, 0.1, 0.0)] * 4], mu=1e4)
def test_a_stacks_report_is_its_sequences_reports_bit_for_bit(stack, mu):
    mats = np.array([[factor(*f) for f in seq] for seq in stack])
    whole = ly.avalanche_check(mats, mu)
    scaled = ly.avalanche_check([records(seq) for seq in mats], mu)
    for i, seq in enumerate(mats):
        one = ly.avalanche_check(seq, mu)
        one_scaled = ly.avalanche_check(records(seq), mu)
        for name in AP_FIELDS:
            assert bits(getattr(whole, name)[i]) == bits(getattr(one, name)), name
            assert bits(getattr(scaled, name)[i]) == bits(getattr(one_scaled, name)), name
    assert whole.lhs_discrepancy.shape == whole.passes.shape == (len(stack),)


def mp_log_norm(m):
    """log of the largest singular value of a 2x2 mpmath matrix."""
    fro2 = sum(abs(m[i, j]) ** 2 for i in range(2) for j in range(2))
    det = abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    return mp.log(mp.sqrt((fro2 + mp.sqrt(fro2 * fro2 - 4 * det * det)) / 2))


# The discrepancy sums about 3n log norms of size log mu or more, each
# read to a few eps of itself, and n rescales of the full product add
# about eps each; with every log||A_j|| >= log 10 all of it is a few
# eps * sum_j |log||A_j|||.  The worst of 1500 seeded draws of this
# family measured 3.5 of that; the gate allows AP_ORACLE_MULTIPLE.
AP_ORACLE_MULTIPLE = 8.0


@settings(max_examples=40, deadline=None)
@given(seq=st.lists(st.tuples(st.floats(math.log(10.0), 14.0),
                              st.sampled_from([1.0, 0.25]),
                              st.floats(-0.2 * math.pi, 0.2 * math.pi),
                              st.floats(-0.2 * math.pi, 0.2 * math.pi)),
                    min_size=2, max_size=16))
def test_discrepancy_matches_a_50_digit_reference(seq):
    # the fuzz's regime: rotations within +-0.1 turns, no factor below 10
    mats = np.array([factor(*f) for f in seq])
    rep = ly.avalanche_check(mats, mu=10.0)
    with mp.workdps(50):
        exact = [mp.matrix(m.tolist()) for m in mats]
        logs = [mp_log_norm(m) for m in exact]
        pairs = [mp_log_norm(b * a) for a, b in zip(exact, exact[1:])]
        full = exact[0]
        for m in exact[1:]:
            full = m * full
        ref = float(abs(mp_log_norm(full) + mp.fsum(logs[1:-1]) - mp.fsum(pairs)))
    budget = AP_ORACLE_MULTIPLE * float(mp.fsum(abs(v) for v in logs)) * np.finfo(float).eps
    assert abs(rep.lhs_discrepancy - ref) <= budget


def test_ap_extrapolate_doubles_the_refined_scale():
    assert ly.ap_extrapolate(0.4, 0.45) == pytest.approx(0.5)


# ----------------------------------------------------- convergence and S

def test_convergence_scan_tracks_doubling_chain():
    rows = ly.convergence_scan(AMO3, SHIFT, 0.0, [50, 100, 200],
                               m_samples=300)
    assert [r.n for r in rows] == [50, 100, 200]
    for r in rows:
        assert r.rate == pytest.approx(math.log(r.n) / r.n)
        assert not r.flagged
    # scales shrink toward the limit from above
    assert rows[0].mean > rows[-1].mean > math.log(1.5)


def test_convergence_scan_rejects_broken_chain():
    with pytest.raises(ValueError):
        ly.convergence_scan(AMO3, SHIFT, 0.0, [50, 120])
    with pytest.raises(ValueError):
        ly.convergence_scan(AMO3, SHIFT, 0.0, [])


def test_sup_rate_dominates_the_mean():
    s = ly.sup_growth_rate(AMO3, SHIFT, 0.0, 32)
    est = ly.finite_lyapunov(AMO3, SHIFT, 0.0, 32, m_samples=256)
    assert s >= est.mean


# ------------------------------------------------------- positivity probe

def test_positivity_probe_fires_at_strong_coupling():
    rep = ly.positivity_probe(pt.almost_mathieu(10.0), SHIFT, 0.0, 32)
    assert rep.cond_initial and rep.cond_drop
    assert rep.positive
    assert rep.predicted_lower_bound == pytest.approx(rep.l_ell.mean / 2.0)
    assert rep.predicted_lower_bound > 0.7


def test_positivity_probe_declines_the_free_cocycle():
    rep = ly.positivity_probe(FREE, SHIFT, 0.0, 32)
    assert not rep.positive
    assert rep.predicted_lower_bound is None


def test_positivity_probe_validates_ell():
    with pytest.raises(ValueError):
        ly.positivity_probe(AMO3, SHIFT, 0.0, 0)
