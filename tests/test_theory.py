"""Closed forms of the almost Mathieu operator as oracles for the numerics.

V = cos 2 pi x at lam = 3 is the coupling lam / 2 = 1.5 in the
2 lambda cos normalization.  For E in the spectrum the complexified
Lyapunov exponent is L(E, y) = log(lam / 2) + 2 pi |y| (Avila, Acta Math.
2015), so apart from O(1) exceptions f_N(., E) has no zeros in
|y| < y*(E) = (L(E) - log(lam / 2)) / (2 pi) and about 2 N k0 zeros just
beyond it.  Its eigenfunctions decay at the rate L(E) = log(lam / 2)
(Jitomirskaya, Ann. of Math. 1999).  The Thouless formula
L(E) = integral of log|E - E'| dN(E') ties the integrated density of
states, counted by Sturm sweeps, to the transfer-matrix exponent.  The
IDS itself is pinned by Aubry duality, which maps the coupling lambda
to 1 / lambda and E to E / lambda, and by gap labelling: in a spectral
gap it takes a value frac(k omega).
"""

import math

import numpy as np
import pytest

import qplab.cocycle as cc
import qplab.dynamics as dy
import qplab.lyapunov as ly
import qplab.potential as pt
import qplab.spectrum as sp
import qplab.zeros as zr


def test_determinant_zeros_sit_on_the_ring_of_the_lyapunov_exponent():
    # E = 0.5 lies in a spectral gap, with y*(0.5) = 0.0276; the two
    # exceptions on the real circle are eigenvalues of the finite window
    f = zr.determinant_handle(pt.almost_mathieu(3.0), dy.GOLDEN_MEAN, 0.5, 64)
    y = np.abs(np.log(np.abs(f.zeros()))) / (2 * math.pi)
    assert y.size == 128
    assert int(np.sum(y < 1e-6)) == 2
    lo, hi = np.quantile(y, [0.05, 0.95])
    assert 0.0275 <= lo <= hi <= 0.0280
    assert np.max(y) <= 0.038


def test_zero_ring_at_n256_from_the_eigensolve_and_the_nested_windings():
    # N = 256: 512 zeros, the same 2 on the real circle, and the ring at
    # y*(0.5) = 0.0276 sharpens.  Measured 5% and 95% quantiles of |y|:
    # 0.0275731 and 0.0275732, against 0.0275540 and 0.0279311 at N = 64
    # (the test above); each is pinned to a tenth of its gap to the N = 64
    # value.  The nearest ring zero (0.0262101) and the farthest (0.0376872)
    # agree at both sizes to 1e-12, so they are pinned to the digits quoted.
    # The windings at |y| = 0.025 and 0.04 must count the same zeros.
    f = zr.determinant_handle(pt.almost_mathieu(3.0), dy.GOLDEN_MEAN, 0.5, 256)
    y = np.abs(np.log(np.abs(f.zeros()))) / (2 * math.pi)
    assert y.size == 512
    assert int(np.sum(y < 1e-6)) == 2
    lo, hi = np.quantile(y, [0.05, 0.95])
    assert abs(lo - 0.0275731) <= 0.1 * (0.0275731 - 0.0275540)
    assert abs(hi - 0.0275732) <= 0.1 * (0.0279311 - 0.0275732)
    ring = y[y >= 1e-6]
    assert abs(ring.min() - 0.02621) <= 5e-6 and abs(ring.max() - 0.03769) <= 5e-6
    assert zr.annulus_zero_count(f, 0.025) == 2
    assert zr.annulus_zero_count(f, 0.04) == 512


def _decay_rates(H, energies, spans):
    """Eigenvector decay rates, one array per (near, far) span of sites from the peak.

    Both Cramer families of one two-sided determinant profile are joined at
    their peak, as the eigenvector's determinant formula joins them; each
    side that the window allows gives one rate, minus the slope of a line
    fit to the joined log profile over sites near..far-1 from the peak.
    """
    N, rates = H.N, [[] for _ in spans]
    for E in energies:
        _, logs = cc._det_profile(H.diag, E)
        log_l, log_r = logs[:-1, 0], logs[-2::-1, 1]    # f_[1,k-1] and f_[k+1,N]
        c = int(np.argmax(log_l + log_r))
        profile = np.where(np.arange(N) <= c, log_l, log_r + log_l[c] - log_r[c])
        for (near, far), out in zip(spans, rates):
            for side in (-1, 1):
                ks = c + side * np.arange(near, far)
                if ks.min() >= 0 and ks.max() < N:
                    out.append(-side * np.polyfit(ks, profile[ks], 1)[0])
    return [np.array(r) for r in rates]


def test_eigenvectors_decay_at_the_lyapunov_exponent():
    # lam = 3: every eigenvector decays at L = log 1.5 = 0.4055.  Measured
    # over 32 tails (N = 800, x = 0.3, every 25th eigenvalue), the median
    # rate over sites 100..399 from the peak is 0.4082 and over 50..199 it
    # is 0.4123: the finite-size gap is set by the distance d from the peak,
    # not by N (0.4083 over 61 tails at N = 1200), and goes as 1/d (gap
    # 0.0028 at mean distance 250, 0.0069 at 125; x = 0.1 and 0.77 give the
    # same within 0.0004).  Fitted against 1/d at these two sizes the limit
    # is 0.4041.  Tolerance: twice the gap at d = 250.
    L, tol = math.log(1.5), 2 * 0.0028
    H = sp.hamiltonian(pt.almost_mathieu(3.0), dy.Shift(dy.GOLDEN_MEAN), dy.phase(0.3), 800)
    far, near = map(np.median, _decay_rates(H, sp.eigenvalues(H)[::25], [(100, 400), (50, 200)]))
    assert abs(far - L) <= tol
    assert 0.0 < far - L < near - L              # the gap shrinks away from the peak
    assert abs(2 * far - near - L) <= tol        # the 1/d limit


def test_thouless_formula_ties_the_ids_to_the_lyapunov_exponent():
    # The Sturm path (ids: N = 2000, 16 phases, 4001 energies on [-5, 5])
    # and the transfer-matrix path (n = 4000, 200 grid phases, one pass
    # over the three energies) share no code below the site stream.  Each
    # eigenvalue counted in a grid cell sits at the cell's midpoint in the
    # Stieltjes sum.  Measured gaps with these inputs: 1.7e-4 at E = 0
    # (0.40588 against 0.40571), 1.3e-4 at E = 0.5 and 1.6e-4 at E = 1.0,
    # against a largest gap of 1.8e-4 measured before.  Tolerance: three
    # times 1.8e-4.  Other draws of the 16 ids phases (seeds 1-7) give gaps
    # of up to 3.1e-4, still inside it.
    p, shift = pt.almost_mathieu(3.0), dy.Shift(dy.GOLDEN_MEAN)
    grid = np.linspace(-5.0, 5.0, 4001)
    table = sp.ids(p, shift, grid, 2000, 16)
    assert table.values[0] == 0.0 and table.values[-1] == 1.0
    mids, weights = 0.5 * (grid[1:] + grid[:-1]), np.diff(table.values)
    es = np.array([0.0, 0.5, 1.0])
    thouless = [float(np.sum(np.log(np.abs(E - mids)) * weights)) for E in es]
    xs = ly.sample_phases(shift, "grid", 200)
    lyapunov = cc.batched_log_norms(p, shift, xs, es, 4000)[4000].mean(axis=1) / 4000
    np.testing.assert_allclose(thouless, lyapunov, rtol=0, atol=3 * 1.8e-4)


def test_finite_volume_thouless_sum_is_the_determinant():
    # sum_j log|E - E_j| = log|f_N(E)|: LAPACK eigenvalues against the
    # determinant recurrence, measured to a relative 2.4e-14 at N = 2000
    p, shift, x = pt.almost_mathieu(3.0), dy.Shift(dy.GOLDEN_MEAN), dy.phase(0.3)
    evs = sp.eigenvalues(sp.hamiltonian(p, shift, x, 2000))
    for E in (0.0, 0.5, 0.5 + 0.01j):
        f = cc.det_window(p, shift, x, E, 1, 2000).value
        assert float(np.sum(np.log(np.abs(E - evs)))) == pytest.approx(f.log_mag, rel=1e-12)


def test_aubry_duality_of_the_ids():
    # N_lam(E) = N_{4/lam}(2E/lam): lam = 3 is the coupling 1.5 in the
    # 2 lambda cos normalization, and 4/3 its dual 1/1.5.  Measured over
    # 41 energies on [-2.5, 2.5] (16 phases, seed 0): the largest gap is
    # 5.0e-5 at N = 1e4 and 2.5e-5 at N = 2e4, so N * gap = 0.5 at both
    # sizes and the gap goes as 0.5/N.  Other phase draws (seeds 1-3) give
    # N * gap up to 0.875.  Tolerance: three times the fitted 0.5/N.
    shift = dy.Shift(dy.GOLDEN_MEAN)
    E = np.linspace(-2.5, 2.5, 41)
    for N in (10_000, 20_000):
        direct = sp.ids(pt.almost_mathieu(3.0), shift, E, N, 16).values
        dual = sp.ids(pt.almost_mathieu(4.0 / 3.0), shift, 2.0 * E / 3.0, N, 16).values
        assert np.max(np.abs(direct - dual)) <= 3 * 0.5 / N


def test_ids_in_a_gap_takes_its_label():
    # Gap labelling: in a spectral gap N(E) = frac(k omega).  At lam = 3,
    # E = 0.5 lies in the gap labelled k = 1 and E = -0.5 in the one labelled
    # k = -1.  A window's count there is an integer near N * frac(k omega),
    # so the gap goes as c/N.  Measured (16 phases, seed 0): N * gap = 0.096
    # and 0.034 at N = 1000, 0.136 and 0.011 at N = 4000, so c <= 0.136.
    # Other phase draws (seeds 1-3, 1-16 phases, N up to 8000) give N * gap
    # up to 0.73.  Tolerance: 1/N, one eigenvalue per window, about seven
    # times the fitted 0.136/N.
    shift = dy.Shift(dy.GOLDEN_MEAN)
    labels = np.array([1.0 - dy.GOLDEN_MEAN, dy.GOLDEN_MEAN])
    for N in (1000, 4000):
        values = sp.ids(pt.almost_mathieu(3.0), shift, [-0.5, 0.5], N, 16).values
        assert np.max(np.abs(values - labels)) <= 1.0 / N
