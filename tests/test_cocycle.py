import math

import numpy as np
import pytest

from qplab import cocycle as cc
from qplab import dynamics as dy
from qplab import potential as pt

SHIFT = dy.Shift(omega=(dy.GOLDEN_MEAN,))
AMO3 = pt.almost_mathieu(3.0)


def dense_window(p, dyn, x, a, b):
    """Dense tridiagonal H restricted to sites a..b, built independently."""
    n = b - a + 1
    H = np.zeros((n, n))
    x0 = np.atleast_1d(np.asarray(x, float))[0]
    for i in range(n):
        k = a + i
        xi = dy.mod1(x0 + k * dyn.omega[0])
        H[i, i] = p.lam * pt.eval_real(pt.Potential(dict(p.coeffs)), xi)
    for i in range(n - 1):
        H[i, i + 1] = H[i + 1, i] = -1.0
    return H


def test_signed_log_round_trip_and_operations():
    a = cc.SignedLog.of(-3.5)
    b = cc.SignedLog.of(0.25)
    assert a.value() == pytest.approx(-3.5)
    assert (a * b).value() == pytest.approx(-0.875)
    assert (a / b).value() == pytest.approx(-14.0)
    z = cc.SignedLog.zero()
    assert z.is_zero and (z * a).is_zero
    assert cc.SignedLog.one().value() == 1.0


def test_signed_log_survives_magnitudes_floats_cannot():
    big = cc.SignedLog(1.0, 5000.0)       # e^5000 overflows a float
    small = cc.SignedLog(1.0, -5000.0)
    prod = big * small
    assert prod.value() == pytest.approx(1.0)


def test_op_norm_2x2_against_numpy_svd():
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = rng.normal(size=(2, 2)) * 10.0 ** rng.integers(-3, 4)
        assert cc.op_norm_2x2(m) == pytest.approx(np.linalg.norm(m, 2),
                                                  rel=1e-12, abs=1e-300)
    for _ in range(50):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert cc.op_norm_2x2(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-12)


def test_transfer_window_concatenation():
    # M_[a,b] = M_[c+1,b] M_[a,c] for any split point c
    x, E = dy.phase(0.41), 0.3
    full = cc.transfer_product_window(AMO3, SHIFT, x, E, 1, 40)
    left = cc.transfer_product_window(AMO3, SHIFT, x, E, 1, 17)
    right = cc.transfer_product_window(AMO3, SHIFT, x, E, 18, 40)
    glued = right.reconstruct() @ left.reconstruct()
    np.testing.assert_allclose(full.reconstruct(), glued, rtol=1e-9)


def test_empty_window_is_identity():
    sp = cc.transfer_product_window(AMO3, SHIFT, dy.phase(0.2), 0.0, 5, 4)
    np.testing.assert_allclose(sp.reconstruct(), np.eye(2))


def test_det_sequence_matches_dense_determinants():
    x, E = dy.phase(0.13), 0.7
    seq = cc.det_sequence(AMO3, SHIFT, x, E, 14)
    for n in range(1, 15):
        H = dense_window(AMO3, SHIFT, x, 1, n)
        expected = np.linalg.det(H - E * np.eye(n))
        assert seq[n - 1].value() == pytest.approx(expected, rel=1e-9), n


def test_det_window_seeds_and_offsets():
    x, E = dy.phase(0.61), -0.4
    # a window not starting at 1 must reproduce the determinant of the
    # corresponding dense sub-block
    w = cc.det_window(AMO3, SHIFT, x, E, 5, 12)
    H = dense_window(AMO3, SHIFT, x, 5, 12)
    expected = np.linalg.det(H - E * np.eye(8))
    assert w.value.value() == pytest.approx(expected, rel=1e-9)
    # empty window f_[a, a-1] = 1, single gap f_[a, a-2] = 0
    assert cc.det_window(AMO3, SHIFT, x, E, 5, 4).value.value() == 1.0
    assert cc.det_window(AMO3, SHIFT, x, E, 5, 3).value.is_zero


def test_transfer_entries_are_window_determinants():
    """M_[1,n] = [[f_[1,n], -f_[2,n]], [f_[1,n-1], -f_[2,n-1]]]."""
    x, E = dy.phase(0.29), 0.15
    n = 12
    M = cc.transfer_product(AMO3, SHIFT, x, E, n).reconstruct()
    f_1n = cc.det_window(AMO3, SHIFT, x, E, 1, n).value.value()
    f_2n = cc.det_window(AMO3, SHIFT, x, E, 2, n).value.value()
    f_1m = cc.det_window(AMO3, SHIFT, x, E, 1, n - 1).value.value()
    f_2m = cc.det_window(AMO3, SHIFT, x, E, 2, n - 1).value.value()
    np.testing.assert_allclose(M, [[f_1n, -f_2n], [f_1m, -f_2m]], rtol=1e-9)


def test_monodromy_from_dets_agrees_with_direct_product():
    x, E = dy.phase(0.05), 0.9
    rows = cc.monodromy_from_dets(AMO3, SHIFT, x, E, 3, 20)
    direct = cc.transfer_product_window(AMO3, SHIFT, x, E, 3, 20)
    for i in range(2):
        for j in range(2):
            entry = direct.mat[i, j]
            assert rows[i][j].log_mag == pytest.approx(
                math.log(abs(entry)) + direct.log_scale, abs=1e-8)
            assert complex(rows[i][j].phase) == np.sign(entry)


def test_green_entry_matches_dense_resolvent():
    N, E, eta = 14, 0.35, 1e-3
    x = dy.phase(0.47)
    H = dense_window(AMO3, SHIFT, x, 1, N)
    R = np.linalg.inv(H - (E + 1j * eta) * np.eye(N))
    for (j, k) in ((1, 1), (1, 9), (3, 11), (7, 14)):
        g = cc.green_entry(AMO3, SHIFT, x, E + 1j * eta, j, k, N)
        assert g.value() == pytest.approx(R[j - 1, k - 1], rel=1e-9), (j, k)


def test_green_entry_singular_at_exact_eigenvalue():
    # V = 0, N = 1: the single eigenvalue is 0, so E = 0 is singular
    free = pt.from_triples([], 1.0)
    with pytest.raises(cc.SingularEnergy):
        cc.green_entry(free, SHIFT, dy.phase(0.0), 0.0, 1, 1, 1)
    with pytest.raises(cc.SingularEnergy):
        cc.green_row(free, SHIFT, dy.phase(0.0), 0.0, 1, 1)


def test_batched_log_norms_checkpoints_match_scalar_path():
    xs = np.array([[0.11], [0.52], [0.83]])
    out = cc.batched_log_norms(AMO3, SHIFT, xs, 0.5, 300, checkpoints=(100, 300))
    assert set(out) == {100, 300}
    for i, x in enumerate(xs[:, 0]):
        for n in (100, 300):
            sp = cc.transfer_product(AMO3, SHIFT, dy.phase(x), 0.5, n)
            assert out[n][i] == pytest.approx(sp.log_norm, abs=1e-8)


def test_batched_log_absdet_matches_det_sequence():
    xs = np.array([[0.21], [0.64]])
    out = cc.batched_log_absdet(AMO3, SHIFT, xs, -0.2, 50, checkpoints=(50,))
    for i, x in enumerate(xs[:, 0]):
        f = cc.det_window(AMO3, SHIFT, dy.phase(x), -0.2, 1, 50).value
        assert out[50][i] == pytest.approx(f.log_mag, abs=1e-9)


def test_batched_log_absdet_flags_exact_zero():
    # V = 0 and E = 0: f_1 = -E = 0 exactly
    free = pt.from_triples([], 1.0)
    out = cc.batched_log_absdet(free, SHIFT, np.array([[0.3]]), 0.0, 2,
                                checkpoints=(1, 2))
    assert out[1][0] == -math.inf
    assert out[2][0] == pytest.approx(0.0, abs=1e-15)  # f_2 = -f_0 = -1


def test_complex_det_grid_reduces_to_real_values_on_the_circle():
    zs = np.exp(2j * np.pi * np.array([0.05, 0.3, 0.62]))
    phases, logmags = cc.complex_det_grid(AMO3, dy.GOLDEN_MEAN, zs, 0.5, 24)
    for i, t in enumerate((0.05, 0.3, 0.62)):
        f = cc.det_window(AMO3, SHIFT, dy.phase(t), 0.5, 1, 24).value
        assert logmags[i] == pytest.approx(f.log_mag, abs=1e-9)
        # the phase of a real value is its sign
        assert phases[i].real == pytest.approx(complex(f.phase).real, abs=1e-9)
        assert phases[i].imag == pytest.approx(0.0, abs=1e-9)


def test_complex_det_strip_validation():
    with pytest.raises(ValueError):
        cc.complex_det(AMO3, dy.GOLDEN_MEAN, pt.ComplexPhase(0.1, 0.5), 0.0, 8)


def test_complex_det_agrees_with_grid_version():
    zp = pt.ComplexPhase(0.23, 0.03)
    got = cc.complex_det(AMO3, dy.GOLDEN_MEAN, zp, 0.1, 16)
    phases, logmags = cc.complex_det_grid(AMO3, dy.GOLDEN_MEAN,
                                          np.array([zp.to_z()]), 0.1, 16)
    assert got.log_mag == pytest.approx(logmags[0], abs=1e-9)
    assert got.phase == pytest.approx(phases[0], abs=1e-9)
