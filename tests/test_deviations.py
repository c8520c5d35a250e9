"""Tail fractions, dyadic BMO, Fourier magnitudes, ergodic shift sums."""

import math

import numpy as np
import pytest

import qplab.deviations as dv
import qplab.dynamics as dy
import qplab.potential as pt

SHIFT = dy.Shift((dy.GOLDEN_MEAN,))
AMO3 = pt.almost_mathieu(3.0)
FREE = pt.from_triples([], 1.0)

OFFSET_GRID = (np.arange(4096) + 0.5) / 4096


# ------------------------------------------------------------- deviations

def test_constant_cocycle_has_no_deviations():
    # V = 0, E = 3: u_n is the same number at every phase
    for stat in dv.STATISTICS:
        prof, = dv.deviation_curve(FREE, SHIFT, 3.0, 50, (1e-9,), 200,
                                   statistic=stat, seed=1)
        assert prof.measure == 0.0
        assert prof.statistic == stat


def test_deviation_curve_is_monotone_in_threshold():
    profs = dv.deviation_curve(AMO3, SHIFT, 0.0, 100, (0.5, 2.0, 8.0, 32.0),
                               x_samples=2000, seed=7)
    measures = [p.measure for p in profs]
    assert measures == sorted(measures, reverse=True)
    assert measures[0] > 0.0          # some mass deviates at small thresholds


def test_deviation_curve_is_seeded():
    a, = dv.deviation_curve(AMO3, SHIFT, 0.0, 80, (3.0,), 500, seed=9)
    b, = dv.deviation_curve(AMO3, SHIFT, 0.0, 80, (3.0,), 500, seed=9)
    assert a.measure == b.measure


def test_deviation_inputs_validated():
    with pytest.raises(ValueError):
        dv.deviation_curve(AMO3, SHIFT, 0.0, 50, (0.0,), 100)
    with pytest.raises(ValueError):
        dv.deviation_curve(AMO3, SHIFT, 0.0, 50, (1.0,), 100,
                           statistic="entropy")


# -------------------------------------------------------------------- bmo

def test_bmo_of_a_constant_is_zero():
    est = dv.bmo_estimate(np.full(512, 3.7))
    assert est.value == 0.0
    assert est.max_interval_level == 6   # 512 down to blocks of 8


def test_bmo_ignores_global_offsets():
    rng = np.random.default_rng(4)
    u = rng.standard_normal(1024)
    a = dv.bmo_estimate(u).value
    b = dv.bmo_estimate(u + 100.0).value
    assert a == pytest.approx(b, rel=1e-10)


def test_bmo_of_a_half_step_is_one_half():
    u = np.zeros(512)
    u[:256] = 1.0
    est = dv.bmo_estimate(u)
    assert est.value == pytest.approx(0.5)


def test_bmo_accepts_xy_pairs_on_a_uniform_grid():
    xs = np.arange(512) / 512.0
    u = np.cos(2 * np.pi * xs)
    a = dv.bmo_estimate(np.column_stack([xs, u]))
    b = dv.bmo_estimate(u)
    assert a.value == b.value


def test_bmo_grid_validation():
    with pytest.raises(ValueError):
        dv.bmo_estimate(np.zeros(500))      # not a power of two
    with pytest.raises(ValueError):
        dv.bmo_estimate(np.zeros(128))      # too small
    xs = np.concatenate([np.arange(511) / 512.0, [0.9999]])
    with pytest.raises(ValueError):
        dv.bmo_estimate(np.column_stack([xs, np.zeros(512)]))


# ---------------------------------------------------------------- fourier

def test_fourier_amplitude_of_a_pure_cosine():
    modes = dv.fourier_decay(np.cos(2 * np.pi * OFFSET_GRID), 3)
    assert modes[0].amplitude == pytest.approx(0.5, abs=1e-12)
    assert modes[1].amplitude < 1e-12
    assert modes[0].ratio == pytest.approx(0.5)     # default n = 1


def test_fourier_of_the_log_singularity_decays_like_half_nu():
    # log|1 - e(x)| has |u_hat(nu)| = 1/(2 nu); the offset grid dodges
    # the singularity and the discretization bias stays ~1e-3 relative
    u = np.log(np.abs(1.0 - np.exp(2j * np.pi * OFFSET_GRID)))
    for mode in dv.fourier_decay(u, 8):
        assert mode.amplitude == pytest.approx(0.5 / mode.nu, rel=5e-3)


def test_fourier_ratio_uses_callers_scale():
    modes = dv.fourier_decay(np.cos(2 * np.pi * OFFSET_GRID), 1, n=50.0)
    assert modes[0].ratio == pytest.approx(0.5 / 50.0)


def test_fourier_validation():
    with pytest.raises(ValueError):
        dv.fourier_decay(np.zeros(1024), 0)
    with pytest.raises(ValueError):
        dv.fourier_decay(np.zeros(10), 8)


# ------------------------------------------------------------- shift sums

def test_shift_sums_of_a_constant_never_deviate():
    rep = dv.shift_sum_deviation(np.full(512, 2.5), dy.GOLDEN_MEAN, 200, 100,
                                 (1e-9,))
    assert rep.rows == ((1e-9, 0.0),)
    assert rep.mean_abs_dev == 0.0


def test_shift_sums_of_a_cosine_stay_dirichlet_bounded():
    # sum of cos(2 pi (x - k omega)) telescopes to a Dirichlet kernel,
    # bounded by 1/sin(pi omega) uniformly in n
    grid = np.cos(2 * np.pi * np.arange(4096) / 4096)
    rep = dv.shift_sum_deviation(grid, dy.GOLDEN_MEAN, 1000, 500,
                                 (0.01, 0.05), seed=3)
    bound = 1.0 / abs(math.sin(math.pi * dy.GOLDEN_MEAN))
    assert rep.mean_abs_dev <= bound + 1e-3
    for _, frac in rep.rows:
        assert frac == 0.0


def test_shift_sums_read_the_exact_phases():
    # reference: x - k omega mod 1 from the exact frac(k omega) of fracmul,
    # then the same linear interpolation; the float product k * omega
    # put mean_abs_dev 9e-11 off at n = 1e5
    n, M = 100_000, 4096
    grid = np.cos(2 * np.pi * np.arange(M) / M)
    rep = dv.shift_sum_deviation(grid, dy.GOLDEN_MEAN, n, 4, (0.1,), seed=7)
    xs = np.random.default_rng(7).random(4)
    fracs = np.array([dy.fracmul(k, dy.GOLDEN_MEAN) for k in range(1, n + 1)])
    scaled = dy.mod1(xs[:, None] - fracs) * M
    idx = scaled.astype(np.int64)
    t = scaled - idx
    sums = np.sum(grid[idx] * (1.0 - t) + grid[(idx + 1) % M] * t, axis=1)
    assert rep.mean_abs_dev == pytest.approx(np.mean(np.abs(sums - n * np.mean(grid))),
                                             rel=0, abs=1e-12)


def test_shift_sum_validation():
    with pytest.raises(ValueError):
        dv.shift_sum_deviation(np.zeros((4, 4)), 0.5, 10, 10, (0.1,))
    with pytest.raises(ValueError):
        dv.shift_sum_deviation(np.zeros(1), 0.5, 10, 10, (0.1,))


# ------------------------------------------------------------ split bound

def test_split_bound_formula():
    assert dv.split_bound_check(0.1, 0.04, 4.0) == pytest.approx(5.0)
    assert dv.split_bound_check(0.0, 0.0, 0.0) == 0.0


def test_split_bound_rejects_negative_inputs():
    with pytest.raises(ValueError):
        dv.split_bound_check(-0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        dv.split_bound_check(0.1, -1e-9, 1.0)
