"""Closed forms of the almost Mathieu operator as oracles for the numerics.

V = cos 2 pi x at lam = 3 is the coupling lam / 2 = 1.5 in the
2 lambda cos normalization.  For E in the spectrum the complexified
Lyapunov exponent is L(E, y) = log(lam / 2) + 2 pi |y| (Avila, Acta Math.
2015), so apart from O(1) exceptions f_N(., E) has no zeros in
|y| < y*(E) = (L(E) - log(lam / 2)) / (2 pi) and about 2 N k0 zeros just
beyond it.  Its eigenfunctions decay at the rate L(E) = log(lam / 2)
(Jitomirskaya, Ann. of Math. 1999).
"""

import math

import numpy as np

import qplab.cocycle as cc
import qplab.dynamics as dy
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
