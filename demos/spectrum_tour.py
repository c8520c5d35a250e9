#!/usr/bin/env python3
"""Spectral quantities of one almost Mathieu instance.

Builds H_x at N = 1000, prints the band edges, the level-spacing
floor, the integrated density of states on a coarse grid, and the
Wegner-type measure of phases whose spectrum approaches a fixed
energy at two resolutions.
"""

import numpy as np

import qplab.dynamics as dy
import qplab.potential as pt
import qplab.spectrum as sp

LAM = 3.0
N = 1000
SHIFT = dy.Shift((dy.GOLDEN_MEAN,))
AMO = pt.almost_mathieu(LAM)


def main():
    H = sp.hamiltonian(AMO, SHIFT, dy.phase(0.2025), N)
    lo, hi = H.gershgorin()
    print(f"instance: lam = {LAM}, N = {N}, x = 0.2025")
    print(f"Gershgorin enclosure       [{lo:+.4f}, {hi:+.4f}]")

    ev = sp.eigenvalues(H)
    print(f"spectrum ranges over       [{ev[0]:+.4f}, {ev[-1]:+.4f}]")
    print(f"eigenvalue count           {ev.size}")
    gap = sp.min_gap(AMO, SHIFT, dy.phase(0.2025), N)
    print(f"smallest level spacing     {gap:.3e}")

    counted = sp.window_count(AMO, SHIFT, 0.0, 0.5, N, x_samples=4)
    print(f"mean levels within 0.5 of E=0 over 4 phases: {counted:.1f}")

    print("\nintegrated density of states, x-averaged:")
    grid = np.linspace(-4.5, 4.5, 13)
    tab = sp.ids(AMO, SHIFT, grid, N, x_samples=8)
    for E, k in zip(tab.energies, tab.values):
        bar = "#" * int(round(40 * k))
        print(f"  E = {E:+5.2f}  N(E) = {k:.4f}  {bar}")

    print("\nWegner measure near E = 0 (5000 phases, N = 200):")
    h_params = (5.0, 10.0)
    # both resolutions over one phase set, from one sweep
    measures = sp.wegner_measure(AMO, SHIFT, 0.0, h_params, 200, 5000, seed=3)
    for h_param, m in zip(h_params, measures):
        print(f"  resolution e^-{h_param:<4.0f} measure {m:.4f}")
    print("halving the window can only shrink the measure; compare the rows.")


if __name__ == "__main__":
    main()
