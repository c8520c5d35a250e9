import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplab import potential as pt

AMO = pt.almost_mathieu(3.0)


def test_almost_mathieu_is_the_cosine():
    for x in (0.0, 0.1, 0.37, 0.5, 0.99):
        assert pt.eval_real(AMO, x) == pytest.approx(3.0 * math.cos(2 * math.pi * x),
                                                     abs=1e-14)


def test_eval_real_many_matches_scalar_eval():
    xs = np.linspace(0.0, 1.0, 23, endpoint=False)
    many = pt.eval_real_many(AMO, xs)
    np.testing.assert_allclose(many, [pt.eval_real(AMO, x) for x in xs],
                               atol=1e-14)


def full_cos_sin_form(p, x):
    """eval_real_many with both trig terms of every harmonic, as it once was."""
    out = np.zeros_like(x)
    for k, v in zip(p._ks, p._vs):
        if k < 0:
            continue
        if k == 0:
            out = out + v.real
        else:
            ang = (2.0 * math.pi * k) * x
            out = out + 2.0 * (v.real * np.cos(ang) - v.imag * np.sin(ang))
    return p.lam * out


coefficient = st.floats(-2.0, 2.0, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(kinds=st.lists(st.sampled_from(["real", "imag", "complex", "zero"]), min_size=1,
                      max_size=4),
       parts=st.lists(st.tuples(coefficient, coefficient), min_size=5, max_size=5),
       lam=st.floats(-5.0, 5.0, allow_nan=False),
       x=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=20))
def test_eval_real_many_term_skip_is_bit_identical(kinds, parts, lam, x):
    # a real v_k skips the sine and an imaginary one the cosine; the skipped
    # term is an exact zero, so even the signs of zeros must agree
    keep = {"real": (1, 0), "imag": (0, 1), "complex": (1, 1), "zero": (0, 0)}
    coeffs = {0: parts[0][0]}
    for k, (kind, (re, im)) in enumerate(zip(kinds, parts[1:]), start=1):
        a, b = keep[kind]
        coeffs[k] = complex(re if a else 0.0, im if b else 0.0)
    p = pt.Potential(coeffs, lam=lam)
    x = np.array(x)
    got, ref = pt.eval_real_many(p, x), full_cos_sin_form(p, x)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_positive_half_spectrum_fills_conjugates():
    p = pt.Potential({0: 0.5, 1: 0.25 + 0.1j, 2: -0.05j}, lam=2.0)
    assert p.coeff(-1) == (0.25 + 0.1j).conjugate()
    assert p.coeff(-2) == (-0.05j).conjugate()
    assert p.k0 == 2
    # and the resulting function is real on the torus
    vals = pt.eval_real_many(p, np.linspace(0, 1, 17, endpoint=False))
    assert np.all(np.isreal(vals))


def test_conjugacy_violation_is_rejected():
    with pytest.raises(pt.ConsistencyError):
        pt.Potential({1: 1.0 + 0.5j, -1: 1.0 + 0.5j})


def test_from_triples_round_trip_and_constant_term():
    p = pt.from_triples([(0, 1.5, 0.0), (2, 0.25, -0.1)], lam=1.0)
    x = 0.23
    expected = 1.5 + 2.0 * (0.25 * math.cos(4 * math.pi * x)
                            + 0.1 * math.sin(4 * math.pi * x))
    assert pt.eval_real(p, x) == pytest.approx(expected, abs=1e-13)


def test_from_triples_rejects_duplicates_and_complex_mean():
    with pytest.raises(ValueError):
        pt.from_triples([(1, 0.5, 0.0), (1, 0.25, 0.0)], lam=1.0)
    with pytest.raises(pt.ConsistencyError):
        pt.from_triples([(0, 1.0, 0.3)], lam=1.0)


def test_empty_potential_is_zero():
    p = pt.from_triples([], lam=5.0)
    assert p.k0 == 0
    assert pt.eval_real(p, 0.42) == 0.0
    assert p.sup_bound() == 0.0


def test_sup_bound_dominates_samples():
    rng = np.random.default_rng(7)
    p = pt.Potential({1: 0.3 + 0.2j, 3: -0.1j}, lam=1.7)
    vals = pt.eval_real_many(p, rng.random(500))
    assert np.max(np.abs(vals)) <= p.sup_bound() + 1e-12


def test_eval_laurent_on_the_unit_circle_equals_eval_real():
    p = pt.Potential({1: 0.5, 2: 0.125 + 0.2j}, lam=2.5)
    for x in (0.0, 0.21, 0.77):
        z = cmath.exp(2j * math.pi * x)
        lau = pt.eval_laurent(p, z)
        assert lau.imag == pytest.approx(0.0, abs=1e-13)
        assert lau.real == pytest.approx(pt.eval_real(p, x), abs=1e-13)


def test_complex_phase_laurent_values_match_the_closed_forms():
    # cos(2 pi (x + i y)) continues to cosh(2 pi y) at x = 0 and to
    # i sinh(2 pi y) at x = 1/4, in the (x, y) -> e(x) exp(2 pi y) convention
    p = pt.almost_mathieu(1.0)
    for y in (-0.3, 0.02, 0.2, 0.7):
        z = pt.ComplexPhase(0.3, y).to_z()
        assert abs(z) == pytest.approx(math.exp(2 * math.pi * y), rel=1e-14)
        at_0 = pt.eval_laurent(p, pt.ComplexPhase(0.0, y).to_z())
        at_quarter = pt.eval_laurent(p, pt.ComplexPhase(0.25, y).to_z())
        assert at_0 == pytest.approx(math.cosh(2 * math.pi * y), rel=1e-13)
        assert at_quarter == pytest.approx(1j * math.sinh(2 * math.pi * y), abs=1e-12)


def test_derivative_against_central_differences():
    p = pt.Potential({1: 0.5, 2: 0.125 + 0.2j}, lam=2.5)
    dp = p.derivative()
    assert dp.lam == p.lam
    h = 1e-6
    for x in (0.11, 0.43, 0.88):
        fd = (pt.eval_real(p, x + h) - pt.eval_real(p, x - h)) / (2 * h)
        assert pt.eval_real(dp, x) == pytest.approx(fd, rel=1e-7, abs=1e-7)


def test_derivative_scalar_and_vector_evaluations_agree():
    xs = np.linspace(0, 1, 11, endpoint=False)
    for p in (AMO, pt.Potential({1: 0.5, 2: 0.125 + 0.2j}, lam=2.5)):
        dp = p.derivative()
        np.testing.assert_allclose(pt.eval_real_many(dp, xs),
                                   [pt.eval_real(dp, x) for x in xs], atol=1e-12)


def test_derivative_coefficients_are_conjugate_symmetric():
    p = pt.Potential({0: 0.4, 1: 0.5, 2: 0.125 + 0.2j, 3: -0.3j}, lam=2.5)
    v, w = dict(p.coeffs), dict(p.derivative().coeffs)
    assert w[0] == 0
    for k in (1, 2, 3):
        assert w[-k] == w[k].conjugate()
        assert w[k] == pytest.approx(2j * math.pi * k * v[k], rel=1e-15)


def test_laurent_eval_vectorizes_over_arrays():
    p = pt.almost_mathieu(2.0)
    zs = np.exp(2j * np.pi * np.linspace(0, 1, 9, endpoint=False))
    vec = pt.eval_laurent(p, zs)
    assert vec.shape == zs.shape
    np.testing.assert_allclose(vec, [pt.eval_laurent(p, z) for z in zs],
                               atol=1e-13)


@pytest.mark.parametrize("coeffs, lam", [
    ({1: 0.5}, -math.inf), ({1: complex(math.nan, 0.0)}, 1.0), ({0: math.inf}, 1.0),
    ({2: complex(0.1, -math.inf)}, 1.0)])
def test_non_finite_potentials_are_refused(coeffs, lam):
    with pytest.raises(ValueError, match="finite"):
        pt.Potential(coeffs, lam=lam)


def test_non_finite_couplings_fail_before_any_sweep():
    # a NaN pivot is never negative, so a NaN coupling once gave an IDS of
    # zeros; the batched norms failed on the NaN rescale cadence, and an
    # infinite coupling warned
    from qplab import cocycle as cc
    from qplab import dynamics as dy
    from qplab import spectrum as sp
    shift = dy.Shift((dy.GOLDEN_MEAN,))
    with pytest.raises(ValueError, match="finite"):
        sp.ids(pt.almost_mathieu(math.nan), shift, [-1.0, 0.0, 1.0], 50, 4)
    with pytest.raises(ValueError, match="finite"):
        cc.batched_log_norms(pt.almost_mathieu(math.nan), shift, [[0.1]], 0.5, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            pt.almost_mathieu(math.inf)
