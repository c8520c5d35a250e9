"""The complex-phase determinant kernel against independent references.

complex_det_grid and the transfer products behind concatenation_w_grid
share one site stream (powers z^j formed once per point, site
coefficients once per call, renormalization in blocks).  These tests pin
that stream against mpmath at 50 digits, against a per-site loop that
rotates z and rescales after every site, and against explicit 2x2
products.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qplab.cocycle as cc
import qplab.dynamics as dy
import qplab.potential as pt
import qplab.zeros as zr

GOLDEN = dy.GOLDEN_MEAN
DEG3 = pt.Potential({0: 0.4, 1: 0.3 + 0.2j, 2: -0.1j, 3: 0.25}, lam=2.0)
EPS = np.finfo(float).eps


def mp_det(p, omega, z, E, n, a=1):
    """f_[a,a+n-1](z) at 50 digits: site k reads lam V at z e(k omega)."""
    with mp.workdps(50):
        z, E, om = mp.mpc(z), mp.mpc(E), mp.mpf(omega)
        coeffs = [(k, p.lam * mp.mpc(v)) for k, v in p.coeffs]
        f_prev2, f_prev = mp.mpc(0), mp.mpc(1)
        for k in range(a, a + n):
            w = z * mp.expjpi(2 * (k * om % 1))
            v = mp.fsum(c * w ** j for j, c in coeffs)
            f_prev2, f_prev = f_prev, (v - E) * f_prev - f_prev2
        return float(mp.log(abs(f_prev))), complex(f_prev / abs(f_prev))


def site_loop(p, omega, z, E, n):
    """Per-site reference: rotate z, evaluate V, step, rescale every site.

    Also returns a first-order bound, in units of the rounding unit, on
    the error of f_n relative to |f_n|, so callers can stay away from
    points where f_n is (numerically) a cancellation.
    """
    f_prev2, f_prev, log_acc = 0j, 1 + 0j, 0.0
    err2, err1 = 0.0, 0.0
    for k in range(1, n + 1):
        w = z * cmath.exp(2j * math.pi * (k * omega % 1.0))
        terms = [p.lam * v * w ** j for j, v in p.coeffs]
        t = complex(sum(terms)) - E
        f = t * f_prev - f_prev2
        err = abs(t) * err1 + err2 + abs(t * f_prev) + abs(f_prev2) \
            + 4 * (sum(abs(c) for c in terms) + abs(E)) * abs(f_prev)
        scale = max(abs(f), abs(f_prev))
        if scale == 0.0:
            scale = 1.0
        f_prev2, f_prev = f_prev / scale, f / scale
        err2, err1 = err1 / scale, err / scale
        log_acc += math.log(scale)
    mag = abs(f_prev)
    if mag == 0.0:
        return -math.inf, 0j, math.inf
    return log_acc + math.log(mag), f_prev / mag, err1 / mag


def one_point(p, z, E, n):
    phases, logs = cc.complex_det_grid(p, GOLDEN, np.array([z]), E, n)
    return float(logs[0]), complex(phases[0])


# ---------------------------------------------------------------- contracts

def test_kernel_keeps_its_input_contracts():
    with pytest.raises(ValueError):
        cc.complex_det_grid(DEG3, GOLDEN, np.array([1.0 + 0j]), 0.0, 0)
    with pytest.raises(ZeroDivisionError):
        cc.complex_det_grid(DEG3, GOLDEN, np.array([0.5, 0.0]), 0.0, 4)


def test_exact_zero_and_output_shape():
    # free model at E = 0: f_1 = -E = 0 and f_3 = -f_1 = 0 exactly
    free = pt.from_triples([], 1.0)
    zs = np.exp(2j * np.pi * np.array([[0.1, 0.2], [0.3, 0.4]]))
    for n in (1, 3):
        phases, logs = cc.complex_det_grid(free, GOLDEN, zs, 0.0, n)
        assert phases.shape == logs.shape == (2, 2)
        assert np.all(logs == -math.inf) and np.all(phases == 0)
    phases, logs = cc.complex_det_grid(free, GOLDEN, zs, 0.0, 2)
    np.testing.assert_allclose(logs, 0.0, atol=1e-15)   # f_2 = -1
    np.testing.assert_allclose(phases, -1.0, atol=1e-15)


def test_subnormal_determinant_keeps_a_unit_phase():
    # f_1 = v(z e(omega)) is subnormal; dividing it by |f_1| as a complex
    # number overflowed to inf+nanj beside a finite log
    tiny = pt.Potential({1: 2.2e-311j, -1: -2.2e-311j})
    zs = np.exp(2j * np.pi * np.array([0.0, 0.1, 0.37, 0.8])) * [1.0, 1.05, 0.97, 1.0]
    phases, logs = cc.complex_det_grid(tiny, GOLDEN, zs, 0.0, 1)
    assert np.all(np.isfinite(logs)) and np.all(logs < -700)
    np.testing.assert_allclose(np.abs(phases), 1.0, atol=1e-15)
    for z, ph in zip(zs, phases):
        ref_log, ref_phase = mp_det(tiny, GOLDEN, z, 0.0, 1)
        assert abs(ph - ref_phase) <= 1e-12


# ---------------------------------------------------------------- mpmath

@pytest.mark.parametrize("n", [1, 7, 60, 200])
def test_degree3_determinant_matches_mpmath(n):
    E = 0.3 + 0.1j
    for x, y in ((0.31, 0.05), (0.77, -0.08), (0.02, 0.09)):
        z = cmath.exp(complex(2 * math.pi * y, 2 * math.pi * x))
        ref_log, ref_phase = mp_det(DEG3, GOLDEN, z, E, n)
        got_log, got_phase = one_point(DEG3, z, E, n)
        assert got_log == pytest.approx(ref_log, abs=1e-11 * max(1, n))
        assert abs(got_phase - ref_phase) <= 1e-10


def test_window_from_time_zero_matches_mpmath():
    # f_[0,39](z): site 0 reads z itself, through the exact frac(0 omega)
    z = cmath.exp(complex(2 * math.pi * 0.03, 2 * math.pi * 0.4))
    ref_log, ref_phase = mp_det(DEG3, GOLDEN, z, 0.7, 40, a=0)
    bound, blocks = cc._laurent_sites(DEG3, GOLDEN, np.array([z]), 0, 39)
    f, _, acc = cc._recur(bound, 0.7, blocks, 1, 1)
    phases, logs = cc._read_det(f[0], acc)
    assert logs[0] == pytest.approx(ref_log, abs=1e-10)
    assert abs(phases[0] - ref_phase) <= 1e-10


def test_long_window_stays_finite_and_matches_mpmath():
    # log|f| ~ 1.8e4: every renormalization block must hold the pair in
    # range, e^(+-600) at most
    p = pt.almost_mathieu(50.0)
    n = 5000
    zs = np.array([cmath.exp(complex(2 * math.pi * 0.05, 2 * math.pi * x))
                   for x in (0.12, 0.58)])
    phases, logs = cc.complex_det_grid(p, GOLDEN, zs, 0.5, n)
    assert np.all(np.isfinite(logs)) and np.all(logs > 1.7e4)
    for z, got in zip(zs, logs):
        ref_log, _ = mp_det(p, GOLDEN, z, 0.5, n)
        assert got == pytest.approx(ref_log, rel=1e-9)


# ------------------------------------------------------ per-site reference

# zero or at least 1e-3 in size: subnormal inputs carry no relative
# precision, so no rounding-level comparison can hold for them
_coef = st.one_of(st.just(0.0), st.floats(1e-3, 1.5), st.floats(-1.5, -1e-3))


@st.composite
def potentials(draw):
    degree = draw(st.integers(1, 3))
    table = {0: draw(_coef)}
    for k in range(1, degree + 1):
        table[k] = complex(draw(_coef), draw(_coef))
    return pt.Potential(table, lam=draw(st.floats(0.1, 4.0)))


@settings(max_examples=60, deadline=None)
@given(p=potentials(), n=st.integers(1, 120),
       x=st.floats(0.0, 1.0), y=st.floats(-0.1, 0.1),
       e_re=_coef, e_im=_coef)
def test_grid_matches_the_per_site_loop(p, n, x, y, e_re, e_im):
    z = cmath.exp(complex(2 * math.pi * y, 2 * math.pi * x))
    E = complex(2 * e_re, 2 * e_im)
    ref_log, ref_phase, rel_bound = site_loop(p, GOLDEN, z, E, n)
    # away from numerical cancellations in f_n, where both sides are exact
    # to about n rounding units and the log and phase are well defined; the
    # bound grows with n, and a cut fixed in n rejected most long windows
    # (often 50 draws before 10 kept, which fails the filter health check)
    assume(rel_bound * EPS <= 1e-13 * max(1, n))
    got_log, got_phase = one_point(p, z, E, n)
    assert abs(got_log - ref_log) <= 1e-12 * max(1, n)
    assert abs(got_phase - ref_phase) <= 1e-10


# ------------------------------------------------- concatenation products

def explicit_log_norm(p, z, E, a, b):
    """log ||M_[a,b](z)|| from dense 2x2 factors, rescaled every site."""
    mat, acc = np.eye(2, dtype=complex), 0.0
    for k in range(a, b + 1):
        w = z * cmath.exp(2j * math.pi * (k * GOLDEN % 1.0))
        t = pt.eval_laurent(p, w) - E
        mat = np.array([[t, -1.0], [1.0, 0.0]]) @ mat
        s = np.linalg.norm(mat, 2)
        mat, acc = mat / s, acc + math.log(s)
    return acc + math.log(np.linalg.norm(mat, 2))


def test_scaled_norm_logs_match_explicit_products():
    zs = np.array([cmath.exp(complex(2 * math.pi * y, 2 * math.pi * x))
                   for x, y in ((0.1, 0.02), (0.45, -0.07), (0.8, 0.09))])
    m, E = 25, 0.2 - 0.05j
    log_n, log_shift, log_2n = zr._scaled_norm_logs(DEG3, GOLDEN, zs, E, m)
    for i, z in enumerate(zs):
        assert log_n[i] == pytest.approx(explicit_log_norm(DEG3, z, E, 1, m),
                                         abs=1e-10)
        assert log_shift[i] == pytest.approx(
            explicit_log_norm(DEG3, z, E, m + 1, 2 * m), abs=1e-10)
        assert log_2n[i] == pytest.approx(
            explicit_log_norm(DEG3, z, E, 1, 2 * m), abs=1e-10)
        # the second half-window is the first one at z e(m omega)
        rot = cmath.exp(2j * math.pi * (m * GOLDEN % 1.0))
        assert log_shift[i] == pytest.approx(
            explicit_log_norm(DEG3, z * rot, E, 1, m), abs=1e-10)


def test_c15_concatenation_defect_on_a_degree3_grid():
    rng = np.random.default_rng(5)
    zs = np.exp(2j * np.pi * rng.random(400) + 2 * np.pi * (rng.random(400) - 0.5) * 0.2)
    for m, E in ((30, 0.0), (200, 0.3 + 0.1j)):
        w = zr.concatenation_w_grid(DEG3, GOLDEN, zs, E, m)
        assert np.all(np.isfinite(w)) and np.all(w <= 1e-9)
