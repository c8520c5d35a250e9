import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplab import dynamics as dy

GOLDEN = dy.GOLDEN_MEAN


def test_mod1_wraps_into_unit_interval():
    xs = np.array([-1.25, -0.5, 0.0, 0.3, 1.0, 2.75])
    out = dy.mod1(xs)
    assert np.all((out >= 0.0) & (out < 1.0))
    np.testing.assert_allclose(out, [0.75, 0.5, 0.0, 0.3, 0.0, 0.75])


def test_fracmul_matches_exact_rational_arithmetic():
    # a float is an exact dyadic rational, so n*omega mod 1 has an exact
    # answer; Fraction provides it independently
    for omega in (GOLDEN, 0.31, 1.0 / 3.0):
        w = Fraction(omega)
        for n in (1, 7, 10**6, 10**12, 10**15):
            exact = float((n * w) % 1)
            assert dy.fracmul(n, omega) == pytest.approx(exact, abs=1e-15)


def test_fracmul_beats_naive_float_product_at_large_n():
    n = 10**14
    naive = (n * GOLDEN) % 1.0
    careful = dy.fracmul(n, GOLDEN)
    # at this size the float product is only good to ~n*eps, a few 1e-3;
    # the split computation stays exact
    exact = float((n * Fraction(GOLDEN)) % 1)
    assert careful == pytest.approx(exact, abs=1e-15)
    assert abs(naive - exact) > 1e-6


# frequencies t = p/q on both sides of the uint64 cut: q = 2^64 and q = 2^65
# for (2^52 + 1) 2^-64 and 2^-65; besides, t >= 1, integers, short dyadics,
# and small t whose q runs from 2^61 up to 2^1049
FRACMUL_OMEGAS = (GOLDEN, 0.31, 1.0 / 3.0, 1.0 + GOLDEN, 12345.678, 2.0 ** 70 / 3.0,
                  2.0, 0.0, 0.375, (2 ** 52 + 1) / 2 ** 64, (2 ** 52 + 1) / 2 ** 65,
                  2.0 ** -12 * (1.0 + GOLDEN), 2.0 ** -13 * (1.0 + GOLDEN), 1e-300)


@settings(max_examples=200, deadline=None)
@given(omega=st.sampled_from(FRACMUL_OMEGAS) | st.floats(0.0, 1e6),
       ns=st.lists(st.integers(-(2 ** 63), 2 ** 63 - 1)
                   | st.integers(-(2 ** 66), 2 ** 66) | st.integers(-10 ** 4, 10 ** 4),
                   max_size=20),
       start=st.integers(-(2 ** 40), 2 ** 40), size=st.integers(0, 50))
def test_vector_fracmul_is_bit_identical_to_fracmul(omega, ns, start, size):
    # lists (int64 when every n fits, exact integers when one does not) and
    # ranges, for n and for the skew shift's n(n-1)/2
    for seq in (ns, range(start, start + size)):
        ref = np.array([dy.fracmul(n, omega) for n in seq], dtype=float)
        assert np.array_equal(dy._fracmuls(seq, omega), ref)
        tri = np.array([dy.fracmul(n * (n - 1) // 2, omega) for n in seq], dtype=float)
        assert np.array_equal(dy._fracmuls(seq, omega, triangular=True), tri)


def test_vector_fracmul_wraps_at_the_int64_edges():
    edges = [-(2 ** 63), -(2 ** 63) + 1, -(2 ** 62) - 1, -1, 0, 1, 2 ** 62 + 1, 2 ** 63 - 1]
    arr = np.array(edges, dtype=np.int64)
    for omega in FRACMUL_OMEGAS:
        for triangular in (False, True):
            ref = np.array([dy.fracmul(n * (n - 1) // 2 if triangular else n, omega)
                            for n in edges])
            assert np.array_equal(dy._fracmuls(arr, omega, triangular), ref)
    # |n| >= 2^63 cannot be int64, alone or next to a negative n
    for ns in ([2 ** 63], [2 ** 63, -1], [-(2 ** 63) - 1], [2 ** 64 + 5, 3]):
        for triangular in (False, True):
            ref = [dy.fracmul(n * (n - 1) // 2 if triangular else n, GOLDEN) for n in ns]
            assert np.array_equal(dy._fracmuls(ns, GOLDEN, triangular), ref)


# 0, the edges of the 64-bit numerators (2^-12 and just past it, with an
# odd mantissa), exact integers below 2^-12 and from 2^52, negative phases
FRACMUL_PHASES = [0.0, 2.0 ** -12, 2.0 ** -12 * (1 + 2.0 ** -52), 2.0 ** -12 * (1 - 2.0 ** -53),
                  2.0 ** -13, 5e-324, 0.5, 1 - 2.0 ** -53, 1.5 * 2.0 ** -11, GOLDEN, -GOLDEN,
                  -3e-5, 12.75, 2.0 ** 52, 2.0 ** 60 + 2.0 ** 8, -1e300]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(-(2 ** 70), 2 ** 70) | st.integers(-(2 ** 41), 2 ** 41)
       | st.integers(-300, 300),
       ts=st.lists(st.sampled_from(FRACMUL_PHASES) | st.floats(0.0, 1.0, exclude_max=True)
                   | st.floats(0.0, 2.0 ** -12) | st.floats(2.0 ** -12, 2.0 ** -11),
                   max_size=40))
def test_fracmul_over_phases_is_bit_identical_to_fracmul(n, ts):
    # the skew shift's frac(start y) for a batch of y: one start, many phases
    ref = np.array([dy.fracmul(n, t) for t in ts], dtype=float)
    assert dy._fracmul_each(ts)(n).tobytes() == ref.tobytes()


def test_fracmul_over_phases_takes_the_edge_cases():
    # y = 0, y below 2^-12 (exact integers), y = 2^-12 (a 64-bit numerator),
    # negative starts and starts beyond 2^40 and 2^64
    ys = np.array(FRACMUL_PHASES + list(np.random.default_rng(2).random(500)))
    times = dy._fracmul_each(ys)
    for n in (0, 1, -1, 7, -123_456_789, 2 ** 40 + 3, -(2 ** 40) - 5, 2 ** 63 + 11,
              -(2 ** 70) - 1, 10 ** 30):
        ref = np.array([dy.fracmul(n, y) for y in ys])
        assert times(n).tobytes() == ref.tobytes()


def first_coords(dyn, x, n):
    """First coordinate of T^k x for k = 1..n, by n single steps of iterate."""
    out = []
    for _ in range(n):
        x = dy.iterate(dyn, x, 1)
        out.append(x[0])
    return np.array(out)


def test_shift_orbit_matches_direct_formula():
    shift = dy.Shift(omega=(GOLDEN,))
    orbit = first_coords(shift, dy.phase(0.2), 50)
    direct = dy.mod1(0.2 + np.arange(1, 51) * GOLDEN)
    np.testing.assert_allclose(orbit, direct, atol=1e-12)


def test_iterate_composes_like_repeated_single_steps():
    for dyn in (dy.Shift(omega=(GOLDEN,)), dy.SkewShift(omega=GOLDEN)):
        x = dy.phase(0.37) if dyn.d == 1 else dy.phase(0.37, 0.11)
        cur = x
        for _ in range(25):
            cur = dy.iterate(dyn, cur, 1)
        np.testing.assert_allclose(dy.iterate(dyn, x, 25), cur, atol=1e-12)


def test_skew_shift_orbit_recurrence():
    """The skew-shift sends (x, y) to (x + y, y + omega)."""
    sk = dy.SkewShift(omega=0.31)
    x, y = 0.1, 0.9
    coords = []
    for _ in range(12):
        x, y = dy.mod1(x + y), dy.mod1(y + 0.31)
        coords.append(x)
    np.testing.assert_allclose(
        first_coords(sk, dy.phase(0.1, 0.9), 12), coords, atol=1e-12)


def test_doubling_orbit_doubles_mod_one():
    db = dy.Doubling()
    orbit = first_coords(db, dy.phase(0.3), 3)
    np.testing.assert_allclose(orbit, [0.6, 0.2, 0.4], atol=1e-15)


def test_doubling_iterate_parks_at_the_dyadic_fixed_point():
    # every float is dyadic, so long doubling orbits hit 0 and stay
    db = dy.Doubling()
    assert dy.iterate(db, dy.phase(0.3), 200)[0] == 0.0


def test_torus_distance_basic_values():
    assert dy.torus_distance(0.0) == 0.0
    assert dy.torus_distance(0.5) == 0.5
    assert dy.torus_distance(0.9) == pytest.approx(0.1)
    assert dy.torus_distance(-0.9) == pytest.approx(0.1)


def test_continued_fraction_of_golden_is_all_ones():
    cf = dy.continued_fraction(GOLDEN, depth=30)
    assert not cf.rational
    assert cf.partial_quotients[:12] == [1] * 12
    # convergent denominators are the Fibonacci numbers
    fib = [1, 2, 3, 5, 8, 13, 21, 34]
    assert cf.denominators[:8] == fib


def test_continued_fraction_detects_rationals():
    cf = dy.continued_fraction(3.0 / 8.0)
    assert cf.rational
    assert cf.denominators[-1] == 8


def test_diophantine_check_golden_vs_rational():
    good = dy.diophantine_check(GOLDEN, a=2.0, n_max=2000, variant="log")
    assert good.c > 0.05
    bad = dy.diophantine_check(0.5, a=2.0, n_max=2000, variant="log")
    assert bad.c == 0.0
    assert bad.worst_n == 2


def test_diophantine_check_power_variant_golden_constant():
    # for the golden mean ||q omega|| ~ 1/(sqrt(5) q), so with weight q^2
    # the worst ratio stays bounded away from zero
    rep = dy.diophantine_check(GOLDEN, a=2.0, n_max=5000, variant="power")
    assert rep.c > 0.2


def test_diophantine_check_rejects_bad_exponent():
    with pytest.raises(ValueError):
        dy.diophantine_check(GOLDEN, a=1.0, n_max=10)


def test_diophantine_log_variant_needs_a_second_term():
    # the log variant starts at n = 2; n_max = 1 used to scan n = 2 anyway
    with pytest.raises(ValueError, match="n_max"):
        dy.diophantine_check(GOLDEN, a=2.0, n_max=1, variant="log")
    assert dy.diophantine_check(GOLDEN, a=2.0, n_max=1).worst_n == 1


def test_diophantine_check_reads_the_exact_distances():
    # omega = [0; 1 (29 times), 10^6, 1, 1, ...] as a float: ||q omega|| at
    # the convergent q = F_30 = 832040 is about 1e-12, which the float
    # product q * omega rounds to exactly 0
    import mpmath as mp

    with mp.workdps(60):
        x = mp.mpf(10 ** 6) + (mp.sqrt(5) - 1) / 2
        for _ in range(29):
            x = 1 + 1 / x
        omega = float(1 / x)
    q = 832040
    f = Fraction(omega) * q % 1
    exact = float(min(f, 1 - f)) * q * math.log(q) ** 2
    rep = dy.diophantine_check(omega, a=2.0, n_max=2_000_000, variant="log")
    assert rep.worst_n == q
    assert rep.c == pytest.approx(exact, rel=1e-12)
    assert rep.c > 1e-3


def test_shift_has_one_frequency():
    for shift in (dy.Shift(GOLDEN), dy.Shift((GOLDEN,)), dy.Shift(omega=(GOLDEN,)),
                  dy.Shift(np.array([GOLDEN]))):
        assert shift.omega == GOLDEN and isinstance(shift.omega, float)
        assert shift.d == 1
    assert dy.Shift((GOLDEN,)) == dy.Shift(GOLDEN)
    for bad in ((GOLDEN, 0.3), [GOLDEN, 0.3], (), [[GOLDEN]]):
        with pytest.raises(ValueError, match="one frequency"):
            dy.Shift(bad)


def test_shift_validates_phase_shape():
    with pytest.raises(ValueError):
        dy.iterate(dy.Shift(omega=(GOLDEN,)), dy.phase(0.1, 0.2), 3)
