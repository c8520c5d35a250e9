"""Closed forms of the almost Mathieu operator as oracles for the numerics.

V = cos 2 pi x at lam = 3 is the coupling lam / 2 = 1.5 in the
2 lambda cos normalization.  For E in the spectrum the complexified
Lyapunov exponent is L(E, y) = log(lam / 2) + 2 pi |y| (Avila, Acta Math.
2015), so apart from O(1) exceptions f_N(., E) has no zeros in
|y| < y*(E) = (L(E) - log(lam / 2)) / (2 pi) and about 2 N k0 zeros just
beyond it.
"""

import math

import numpy as np

import qplab.dynamics as dy
import qplab.potential as pt
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
