import math

import numpy as np
import pytest

from qplab import cocycle as cc
from qplab import dynamics as dy
from qplab import potential as pt

SHIFT = dy.Shift(omega=(dy.GOLDEN_MEAN,))
AMO3 = pt.almost_mathieu(3.0)


def value(rec):
    """phase * exp(log_mag) of a determinant record, 0 at the (0, -inf) zero."""
    return rec.phase * math.exp(rec.log_mag)


def dense_window(p, dyn, x, a, b):
    """Dense tridiagonal H restricted to sites a..b, built independently."""
    n = b - a + 1
    H = np.zeros((n, n))
    x0 = np.atleast_1d(np.asarray(x, float))[0]
    for i in range(n):
        k = a + i
        xi = dy.mod1(x0 + k * dyn.omega)
        H[i, i] = p.lam * pt.eval_real(pt.Potential(dict(p.coeffs)), xi)
    for i in range(n - 1):
        H[i, i + 1] = H[i + 1, i] = -1.0
    return H


def test_op_norms_against_numpy_svd():
    rng = np.random.default_rng(12)
    real = np.array([rng.normal(size=(2, 2)) * 10.0 ** rng.integers(-3, 4)
                     for _ in range(200)])
    cplx = np.array([rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                     for _ in range(50)])
    for mats in (real, cplx):
        # _op_norms reads a stack with the matrix axes first
        got = cc._op_norms(mats.transpose(1, 2, 0))
        np.testing.assert_allclose(got, np.linalg.norm(mats, 2, axis=(1, 2)),
                                   rtol=1e-12, atol=1e-300)
        assert got[0] == cc._op_norms(mats[0])
        assert cc.ScaledProduct(mats[0], 2.0).log_norm == 2.0 + math.log(got[0])


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


def test_det_profile_matches_dense_determinants():
    # column 0 row n is f_[1,n], column 1 row i is f_[n-i+1,n]
    x, E = dy.phase(0.13), 0.7
    phases, logs = cc._det_profile(cc._site_values(AMO3, SHIFT, x, 1, 14)[0], E)
    assert phases.shape == logs.shape == (15, 2)
    for n in range(1, 15):
        for col, a in ((0, 1), (1, 15 - n)):
            H = dense_window(AMO3, SHIFT, x, a, a + n - 1)
            expected = np.linalg.det(H - E * np.eye(n))
            got = phases[n, col] * math.exp(logs[n, col])
            assert got == pytest.approx(expected, rel=1e-9), (n, col)


def test_det_window_seeds_and_offsets():
    x, E = dy.phase(0.61), -0.4
    # a window not starting at 1 must reproduce the determinant of the
    # corresponding dense sub-block
    w = cc.det_window(AMO3, SHIFT, x, E, 5, 12)
    H = dense_window(AMO3, SHIFT, x, 5, 12)
    expected = np.linalg.det(H - E * np.eye(8))
    assert value(w.value) == pytest.approx(expected, rel=1e-9)
    # empty window f_[a, a-1] = 1, single gap f_[a, a-2] = 0, at real and complex E
    for e in (E, E + 0.3j):
        one = cc.det_window(AMO3, SHIFT, x, e, 5, 4).value
        zero = cc.det_window(AMO3, SHIFT, x, e, 5, 3).value
        assert (type(one.phase), one.phase, one.log_mag) == (complex, 1 + 0j, 0.0)
        assert (type(zero.phase), zero.phase, zero.log_mag) == (complex, 0j, -math.inf)


def test_transfer_entries_are_window_determinants():
    """M_[1,n] = [[f_[1,n], -f_[2,n]], [f_[1,n-1], -f_[2,n-1]]]."""
    x, E = dy.phase(0.29), 0.15
    n = 12
    M = cc.transfer_product_window(AMO3, SHIFT, x, E, 1, n).reconstruct()
    f_1n = value(cc.det_window(AMO3, SHIFT, x, E, 1, n).value)
    f_2n = value(cc.det_window(AMO3, SHIFT, x, E, 2, n).value)
    f_1m = value(cc.det_window(AMO3, SHIFT, x, E, 1, n - 1).value)
    f_2m = value(cc.det_window(AMO3, SHIFT, x, E, 2, n - 1).value)
    np.testing.assert_allclose(M, [[f_1n, -f_2n], [f_1m, -f_2m]], rtol=1e-9)


def test_green_row_matches_dense_resolvent():
    N, E, eta = 14, 0.35, 1e-3
    x = dy.phase(0.47)
    H = dense_window(AMO3, SHIFT, x, 1, N)
    R = np.linalg.inv(H - (E + 1j * eta) * np.eye(N))
    for j in (1, 3, 7, N):
        phases, logs = cc.green_row(AMO3, SHIFT, x, E + 1j * eta, j, N)
        np.testing.assert_allclose(phases * np.exp(logs), R[j - 1, j - 1:], rtol=1e-9)


def test_green_row_singular_at_exact_eigenvalue():
    # V = 0, N = 1: the single eigenvalue is 0, so E = 0 is singular
    free = pt.from_triples([], 1.0)
    with pytest.raises(cc.SingularEnergy):
        cc.green_row(free, SHIFT, dy.phase(0.0), 0.0, 1, 1)


def test_batched_log_norms_checkpoints_match_scalar_path():
    xs = np.array([[0.11], [0.52], [0.83]])
    out = cc.batched_log_norms(AMO3, SHIFT, xs, 0.5, 300, checkpoints=(100, 300))
    assert set(out) == {100, 300}
    for i, x in enumerate(xs[:, 0]):
        for n in (100, 300):
            sp = cc.transfer_product_window(AMO3, SHIFT, dy.phase(x), 0.5, 1, n)
            assert out[n][i] == pytest.approx(sp.log_norm, abs=1e-8)


def test_batched_log_absdet_matches_det_window():
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


def test_complex_det_agrees_with_grid_version():
    # one complex phase, alone and inside a grid, against the dense
    # determinant with diagonal lam V(z e(k omega)) for sites k = 1..n;
    # f_n is analytic on all of C minus 0, so y = 0.5 is as good as y = 0.03
    n, E = 16, 0.1
    for zp in (pt.ComplexPhase(0.23, 0.03), pt.ComplexPhase(0.1, 0.5)):
        z = zp.to_z()
        sites = [pt.eval_laurent(AMO3, z * np.exp(2j * np.pi * dy.fracmul(k, dy.GOLDEN_MEAN)))
                 for k in range(1, n + 1)]
        H = np.diag(sites) - np.eye(n, k=1) - np.eye(n, k=-1)
        ref = np.linalg.det(H - E * np.eye(n))
        one = cc.complex_det_grid(AMO3, dy.GOLDEN_MEAN, np.array([z]), E, n)
        grid = cc.complex_det_grid(AMO3, dy.GOLDEN_MEAN, np.array([0.5, z, 2j]), E, n)
        # the grid's larger sup|v| rescales on another cadence: equal to rounding
        assert one[0][0] == pytest.approx(grid[0][1], abs=1e-12)
        assert one[1][0] == pytest.approx(grid[1][1], abs=1e-12)
        assert one[1][0] == pytest.approx(math.log(abs(ref)), abs=1e-9)
        assert one[0][0] == pytest.approx(ref / abs(ref), abs=1e-9)
