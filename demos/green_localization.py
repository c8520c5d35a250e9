#!/usr/bin/env python3
"""Off-diagonal Green function decay against the Lyapunov rate.

At strong coupling the resolvent entries (H - z)^{-1}(j, k) decay like
exp(-L |j - k|) away from the diagonal.  This script measures the
decay along one row by Cramer ratios of window determinants, all read
from one two-sided determinant profile (no dense inverse anywhere), and
fits the slope, then does the same for an eigenvector profile from
LAPACK (``stebz`` bisection, ``stein`` inverse iteration).
"""

import math

import numpy as np

import qplab.cocycle as cc
import qplab.dynamics as dy
import qplab.potential as pt
import qplab.spectrum as sp

LAM = 5.0
N = 160
SHIFT = dy.Shift((dy.GOLDEN_MEAN,))
AMO = pt.almost_mathieu(LAM)
X = dy.phase(0.377)


def green_row(E: complex, j: int):
    """k = j, j + 8, ... and log|G(j, k)|, read off one Green row."""
    _, logs = cc.green_row(AMO, SHIFT, X, E, j, N)
    return np.arange(j, N + 1, 8), logs[::8]


def main():
    exact = math.log(LAM / 2.0)
    print(f"lam = {LAM}: Lyapunov exponent log(lam/2) = {exact:.4f}\n")

    E = complex(0.4, 1e-4)
    ks, logs = green_row(E, 20)
    slope = np.polyfit(ks - 20, logs, 1)[0]
    print(f"Green row decay at z = {E}:")
    for k, lg in zip(ks[:6], logs[:6]):
        print(f"  log|G({20},{k})| = {lg:9.3f}")
    print(f"  fitted slope {slope:+.4f}, expected about {-exact:+.4f}\n")

    H = sp.hamiltonian(AMO, SHIFT, X, N)
    pair = sp.eigenvector(H, sp.eigenvalues(H)[N // 2])
    profile = np.log(np.abs(pair.vector) + 1e-300)
    peak = int(np.argmax(profile))
    right = profile[peak:]
    fit = np.polyfit(np.arange(right.size)[: 40], right[: 40], 1)[0]
    print(f"eigenvector #{N // 2} peaks at site {peak + 1}")
    print(f"  right-tail slope {fit:+.4f}, expected about {-exact:+.4f}")
    print(f"  residual ||(H-E)v|| = {pair.residual:.2e}")


if __name__ == "__main__":
    main()
