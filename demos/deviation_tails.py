#!/usr/bin/env python3
"""Large-deviation tails and the regularity behind them.

Three linked measurements on u_n(x) = log |f_n(x, E)|:

  * the fraction of phases with |u_n - n L_n| above a fixed threshold
    collapses as the threshold grows, and sublinear thresholds like
    n^0.9 leave no samples at all,
  * dyadic BMO-type oscillation of the statistic grows only slowly
    while the sampling grid refines fourfold,
  * Fourier amplitudes decay like 1/nu, the signature of logarithmic
    singularities.

Ergodic shift sums of the potential itself close the loop: their
deviations obey the classical Denjoy-Koksma bound.
"""

import math

import numpy as np

import qplab.cocycle as cc
import qplab.deviations as dv
import qplab.dynamics as dy
import qplab.lyapunov as ly
import qplab.potential as pt

SHIFT = dy.Shift((dy.GOLDEN_MEAN,))
AMO = pt.almost_mathieu(3.0)
E = 0.5


def det_statistic(n: int, m: int) -> np.ndarray:
    """log|f_n| sampled over the offset uniform phase grid of size m."""
    xs = ly.sample_phases(SHIFT, "grid", m)
    return cc.batched_log_absdet(AMO, SHIFT, xs, E, n)[n]


def main():
    print("tail fraction of |u_n - n L_n| above fixed thresholds "
          "(E = 0, 5000 phases):")
    print(f"{'n':>6} " + "".join(f"{t:>9}" for t in (1, 2, 4, 8)))
    for n in (100, 400, 1600):
        rows = dv.deviation_curve(AMO, SHIFT, 0.0, n, [1.0, 2.0, 4.0, 8.0],
                                  5000, seed=7)
        print(f"{n:>6} " + "".join(f"{r.measure:>9.4f}" for r in rows))
    prof, = dv.deviation_curve(AMO, SHIFT, 0.0, 1600, (1600.0 ** 0.9,),
                               5000, seed=7)
    print(f"at the sublinear threshold n^0.9 the measure is "
          f"{prof.measure:.4f}")

    print("\ndyadic oscillation of log|f_200| as the grid refines:")
    for grid in (512, 1024, 2048):
        est = dv.bmo_estimate(det_statistic(200, grid))
        print(f"  grid {grid:>5}  sup block-mean oscillation {est.value:.4f}")

    print("\nFourier amplitudes of log|f_200| (ratio = |c_nu| nu / n):")
    u = det_statistic(200, 4096)
    for mode in dv.fourier_decay(u, 8, n=200.0):
        print(f"  nu = {mode.nu:>2}  |c_nu| = {mode.amplitude:.5f}  "
              f"ratio {mode.ratio:.5f}")

    print("\nshift sums of cos(2 pi x): Denjoy-Koksma in action")
    xs = (np.arange(4096) + 0.5) / 4096
    rep = dv.shift_sum_deviation(np.cos(2 * np.pi * xs), dy.GOLDEN_MEAN,
                                 1000, 2000, [0.005, 0.02], seed=7)
    for delta, fraction in rep.rows:
        print(f"  delta = {delta:.3f}  fraction above {fraction:.4f}")
    bound = 1.0 / math.sin(math.pi * dy.GOLDEN_MEAN)
    print(f"  mean |S_n - n<u>| = {rep.mean_abs_dev:.4f}, "
          f"Dirichlet-kernel ceiling {bound:.3f}")


if __name__ == "__main__":
    main()
