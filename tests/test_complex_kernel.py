"""The complex-phase determinant kernel against independent references.

complex_det_grid and the transfer products behind concatenation_w_grid
share one site stream (powers z^j formed once per point, site
coefficients once per call, each block one real BLAS product,
renormalization in blocks).  These tests pin the stream's blocks against
mpmath and across BLAS thread counts, and the determinants against
mpmath at 50 digits, against a per-site loop that rotates z and
rescales after every site, and against explicit 2x2 products.
"""

import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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


# ------------------------------------------------------- the site stream

COMPLEX_SITES_DIGEST = """
import hashlib, numpy as np, qplab.cocycle as cc, qplab.dynamics as dy, qplab.potential as pt
deg3 = pt.Potential({0: 0.4, 1: 0.3 + 0.2j, 2: -0.1j, 3: 0.25}, lam=2.0)
wide = pt.Potential({j: 1.0 / (1 + j) for j in range(41)}, lam=2.0)
for p in (pt.almost_mathieu(3.0), deg3, wide):
    for m, n in ((1, 5000), (1, 1), (2048, 59), (2048, 1), (9001, 3), (9001, 1)):
        rng = np.random.default_rng(m)
        zs = np.exp(2j * np.pi * rng.random(m) + 2 * np.pi * 0.04 * (rng.random(m) - 0.5))
        digest = hashlib.sha256()
        for block in cc._laurent_sites(p, dy.GOLDEN_MEAN, zs, -5, n - 6)[1]:
            digest.update(block.tobytes())
        print(digest.hexdigest())
"""


def test_complex_sites_keep_their_bits_at_one_and_two_blas_threads():
    # every block of two or more sites is a matrix-matrix product and a
    # one-site window numpy's own loop, so no product is a matrix-vector
    # one, whose sums OpenBLAS rounds apart with its thread count
    src = str(Path(cc.__file__).parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", COMPLEX_SITES_DIGEST], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(run.stdout.split())
    assert len(digests[0]) == 18 and digests[0] == digests[1]


@pytest.mark.parametrize("m, n", [(1, 1), (1, 4096), (1, 4097), (1, 9000), (3, 1366),
                                  (2048, 1), (2048, 2), (2048, 3), (2048, 59), (9001, 5)])
def test_complex_blocks_hold_two_sites_but_in_a_one_site_window(m, n):
    zs = np.exp(2j * np.pi * np.arange(m) / m)
    sizes = [len(block) for block in cc._laurent_sites(DEG3, GOLDEN, zs, 1, n)[1]]
    assert sum(sizes) == n and min(sizes) >= min(2, n)
    # the first block is the longest, as _recur needs: 2^12 elements or
    # two sites, and the site that would be a lone last block
    assert max(sizes) == sizes[0] <= max(cc._BLOCK_ELEMENTS // 4 // m, 2) + 1


def mp_sites(p, omega, z, ks):
    """v(k, z) = lam sum_j v_j (z e(k omega))^j at 40 digits, frac(k omega) exact."""
    out = []
    with mp.workdps(40):
        for k in ks:
            frac = (k * Fraction(omega)) % 1
            w = mp.mpc(z) * mp.expjpi(2 * mp.mpf(frac.numerator) / frac.denominator)
            out.append(mp.fsum(p.lam * mp.mpc(v) * w ** j for j, v in p.coeffs))
    return out


@pytest.mark.parametrize("y", [0.04, -0.04])
@pytest.mark.parametrize("m, a, n", [(1, 1, 300), (5, -20, 200), (700, 3, 12), (3000, 0, 3),
                                     (4, 0, 1)])
def test_complex_blocks_match_mpmath(y, m, a, n):
    # each entry against the exact v(k, z), within 16 eps sum_j |c_kj| |z|^j:
    # the table's rounding (angles up to 6 pi), the powers z^j and the
    # 2h-term sums; measured at most about 4
    rng = np.random.default_rng(m + n)
    zs = np.exp(2j * np.pi * rng.random(m) + 2 * np.pi * y)
    _, blocks = cc._laurent_sites(DEG3, GOLDEN, zs, a, a + n - 1)
    vals = np.concatenate([block.copy() for block in blocks])
    ks, _, coef = cc._laurent_table(DEG3, GOLDEN, a, a + n - 1)
    scale = sum(np.abs(coef[:, [i]]) * np.abs(zs) ** int(j) for i, j in enumerate(ks))
    rows = rng.choice(n, min(n, 12), replace=False)
    for i in rng.choice(m, min(m, 6), replace=False):
        ref = mp_sites(DEG3, GOLDEN, zs[i], a + rows)
        err = [float(abs(r - mp.mpc(v))) for r, v in zip(ref, vals[rows, i])]
        assert np.all(np.array(err) <= 16 * EPS * scale[rows, i])


def test_a_points_determinant_bits_depend_on_its_grid():
    # alone, the point's window folds in 13-site segments; among 600 points
    # it steps site by site, on the cadence of the grid's largest |z|: the
    # same f_n to rounding, not bit for bit
    z = cmath.exp(complex(2 * math.pi * 0.03, 2 * math.pi * 0.31))
    rng = np.random.default_rng(2)
    others = np.exp(2j * np.pi * rng.random(599) + 2 * np.pi * 0.03 * (rng.random(599) - 0.5))
    alone = cc.complex_det_grid(DEG3, GOLDEN, np.array([z]), 0.5, 64)
    grid = cc.complex_det_grid(DEG3, GOLDEN, np.concatenate([[z], others]), 0.5, 64)
    assert abs(grid[1][0] - alone[1][0]) <= 1e-13 and abs(grid[0][0] - alone[0][0]) <= 1e-13
    assert (grid[0][0], grid[1][0]) != (alone[0][0], alone[1][0])


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
