"""Zero counting on the annulus: Jensen means, windings, located zeros."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import qplab.cocycle as cc
import qplab.dynamics as dy
import qplab.potential as pt
import qplab.zeros as zr

AMO3 = pt.almost_mathieu(3.0)
GOLDEN = dy.GOLDEN_MEAN


def nested_kernel(s, r1, r2):
    """Radial weight of the nested disk average, from the lens area."""
    if not r1 - r2 < s < r1 + r2:
        return 0.0
    a1 = math.acos(min(1.0, max(-1.0, (s * s + r1 * r1 - r2 * r2) / (2 * s * r1))))
    a2 = math.acos(min(1.0, max(-1.0, (s * s + r2 * r2 - r1 * r1) / (2 * s * r2))))
    kite = (r1 + r2 - s) * (s + r1 - r2) * (s - r1 + r2) * (s + r1 + r2)
    lens = r1 * r1 * a1 + r2 * r2 * a2 - 0.5 * math.sqrt(max(kite, 0.0))
    return 2 * s * (lens / (math.pi * r1 * r1 * r2 * r2) - (s < r1) / (r1 * r1))


def exact_scaled_J(roots, z0, r1, r2):
    """4 (r1/r2)^2 J for u = log|prod (z - root)|, by adaptive quadrature.

    Harmonic parts average to zero, and the circle mean of log|z - root|
    at radius s about z0 is log max(s, |root - z0|); so each root adds a
    1-d integral of that against the kernel, with breaks at its kink and
    at the kernel's jump s = r1.
    """
    total = 0.0
    for root in roots:
        d = abs(root - z0)
        breaks = [r1] + ([d] if r1 - r2 < d < r1 + r2 else [])
        total += quad(lambda s: nested_kernel(s, r1, r2) * math.log(max(s, d)),
                      r1 - r2, r1 + r2, points=breaks, epsabs=1e-14,
                      epsrel=1e-12, limit=200)[0]
    return 4.0 * (r1 / r2) ** 2 * total


def log_dist_sum(roots, z0, R):
    """Independent Jensen value: sum of log(R/|root - z0|) inside D."""
    total = 0.0
    for r in roots:
        if abs(r - z0) < R:
            total += math.log(R / abs(r - z0))
    return total


# ---------------------------------------------------------------- handles

def test_polynomial_handle_reproduces_the_product():
    roots = [0.3 + 0.1j, -0.4, 1.2j]
    f = zr.polynomial_handle(roots, leading=2.0)
    z = 0.7 - 0.2j
    direct = 2.0 * np.prod([z - r for r in roots])
    phases, logs = f.eval_many([z])
    assert logs[0] == pytest.approx(math.log(abs(direct)), rel=1e-12)
    assert phases[0] == pytest.approx(direct / abs(direct))
    # an exact root is the zero marker (0, -inf)
    phases, logs = f.eval_many([roots[0]])
    assert (phases[0], logs[0]) == (0j, -math.inf)
    with pytest.raises(ValueError):
        zr.polynomial_handle([0.1], leading=0.0)


def test_rotated_handle_composes_the_argument():
    f = zr.polynomial_handle([0.5])
    rot = cmath.exp(0.3j)
    g = zr.rotated_handle(f, rot)
    z = 0.2 + 0.1j
    assert g.eval_many([z])[1][0] == pytest.approx(f.eval_many([z * rot])[1][0], rel=1e-12)


def test_determinant_handle_matches_the_scalar_evaluator():
    import qplab.cocycle as cc
    f = zr.determinant_handle(AMO3, GOLDEN, 0.5, 20)
    z = cmath.exp(complex(2 * math.pi * 0.01, 2 * math.pi * 0.23))
    # the handle reads its own coefficient table; the one-point grid builds one
    _, direct = cc.complex_det_grid(AMO3, GOLDEN, np.array([pt.ComplexPhase(0.23, 0.01).to_z()]),
                                    0.5, 20)
    assert f.eval_many([z])[1][0] == pytest.approx(direct[0], rel=1e-10)


# ---------------------------------------------------- circle means, jensen

def test_circle_mean_of_a_harmonic_log_is_the_center_value():
    # log|z - a| is harmonic inside the circle when a stays outside
    f = zr.polynomial_handle([2.0 + 1.0j])
    mean, err = zr.circle_mean_log(f, 0.1, 0.5, with_error=True)
    assert mean == pytest.approx(math.log(abs(2.0 + 1.0j - 0.1)), rel=1e-12)
    assert err < 1e-12


def test_circle_mean_rejects_small_grids():
    f = zr.polynomial_handle([2.0])
    with pytest.raises(ValueError):
        zr.circle_mean_log(f, 0.0, 0.5, M_points=100)


def test_jensen_count_equals_the_log_distance_sum():
    roots = [0.1 + 0.05j, -0.2 + 0.1j, 0.9, 3.0 + 1.0j]
    f = zr.polynomial_handle(roots, leading=0.7)
    got = zr.jensen_count(f, 0.0, 0.5)
    assert got == pytest.approx(log_dist_sum(roots, 0.0, 0.5), rel=1e-9)


def test_jensen_count_is_zero_on_a_zero_free_disk():
    f = zr.polynomial_handle([2.0, -3.0j])
    assert zr.jensen_count(f, 0.0, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_jensen_count_is_additive_over_factors():
    a = [0.1, -0.2 + 0.2j]
    b = [0.05 - 0.1j, 0.4]
    ja = zr.jensen_count(zr.polynomial_handle(a), 0.0, 0.6)
    jb = zr.jensen_count(zr.polynomial_handle(b), 0.0, 0.6)
    jab = zr.jensen_count(zr.polynomial_handle(a + b), 0.0, 0.6)
    assert jab == pytest.approx(ja + jb, abs=1e-8)


def test_jensen_center_on_a_zero_raises():
    f = zr.polynomial_handle([0.1])
    with pytest.raises(zr.CenterIsZero):
        zr.jensen_count(f, 0.1, 0.3)


def test_zero_on_the_circle_is_detected():
    f = zr.polynomial_handle([0.2])
    with pytest.raises(zr.NearCircleZero) as exc:
        zr.circle_mean_log(f, 0.0, 0.2)
    assert exc.value.suggested_radius > 0.2


# --------------------------------------------------- nested disk averages

def test_jensen_average_vanishes_for_harmonic_u():
    f = zr.polynomial_handle([5.0 + 1.0j])
    assert abs(zr.jensen_average_J(f, 0.0, 0.2, 0.1)) < 1e-12


def test_scaled_jensen_average_counts_a_centered_zero():
    z0 = 0.3 + 0.2j
    f = zr.polynomial_handle([z0])
    J = zr.jensen_average_J(f, z0, 0.1, 0.05, quad_points=24)
    assert 4.0 * (0.1 / 0.05) ** 2 * J == pytest.approx(1.0, rel=2e-2)


@pytest.mark.parametrize("quad_points", [8, zr.QUAD_POINTS_DEFAULT])
def test_jensen_average_matches_the_exact_radial_integral(quad_points):
    # the first 40 polynomials of criterion 11's stream
    rng = np.random.default_rng(11)
    for _ in range(40):
        k = int(rng.integers(1, 5))
        roots = rng.uniform(-0.3, 0.3, k) + 1j * rng.uniform(-0.3, 0.3, k)
        f = zr.polynomial_handle(list(roots))
        est = 4.0 * (0.45 / 0.15) ** 2 * zr.jensen_average_J(f, 0.0, 0.45, 0.15,
                                                            quad_points)
        assert est == pytest.approx(exact_scaled_J(roots, 0.0, 0.45, 0.15), abs=1e-3)


def test_jensen_average_of_a_plain_callable():
    # |z|^2 has Laplacian 4, so every inner disk average exceeds the
    # centre value by r2^2 / 2
    exact = 0.1 ** 2 / 2
    J, gap = zr.jensen_average_J(lambda z: abs(z) ** 2, 0.3 + 0.1j, 0.2, 0.1,
                                 with_error=True)
    assert abs(J - exact) <= gap <= 1e-6 * exact


@pytest.mark.parametrize("x, y", [(0.5731306569475056, -0.025906902795461262),
                                  (0.8131152013694403, 0.027955644922263333)])
def test_nu_sandwich_on_determinant_disks_at_quad_points_8(x, y):
    f = zr.determinant_handle(AMO3, GOLDEN, 0.5, 64)
    c = cmath.exp(complex(2 * math.pi * y, 2 * math.pi * x))
    _, est, _ = zr.nu_sandwich(f, c, 0.05, 0.015, quad_points=8)
    roots = zr.locate_zeros(f, zr.Disk(c, 0.065)).zeros
    assert est == pytest.approx(exact_scaled_J(roots, c, 0.05, 0.015), abs=1e-2)


def test_jensen_average_radius_validation():
    f = zr.polynomial_handle([1.0])
    with pytest.raises(ValueError):
        zr.jensen_average_J(f, 0.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        zr.nu_sandwich(f, 0.0, 0.05, 0.1)


# ------------------------------------------------------ winding, location

def test_boundary_winding_counts_enclosed_roots():
    f = zr.polynomial_handle([0.1, -0.2 + 0.1j, 0.8])  # third one outside
    w = zr.boundary_winding(f, 0.0, 0.5)
    assert w == pytest.approx(2.0, abs=zr.WINDING_INT_TOL)


@settings(max_examples=100, deadline=None)
@given(center=st.complex_numbers(max_magnitude=2.0),
       R=st.floats(0.01, 3.0),
       roots=st.lists(st.tuples(st.floats(0.0, 1.0),
                                st.floats(0.0, 0.95) | st.floats(1.05, 3.0)),
                      max_size=6))
def test_boundary_winding_counts_random_roots_off_the_circle(center, R, roots):
    # roots at z0 + R rho e(t) with |rho - 1| >= 0.05: the nested grids
    # settle on the exact count
    zs = [center + R * rho * cmath.exp(2j * math.pi * t) for t, rho in roots]
    inside = sum(rho < 1.0 for _, rho in roots)
    w = zr.boundary_winding(zr.polynomial_handle(zs), center, R)
    assert abs(w - inside) < 1e-9


def counting_handle(fn):
    """A handle over a (phases, logs) evaluator that records every point set."""
    calls = []

    def counted(zs):
        calls.append(zs.copy())
        return fn(zs)
    return zr._Handle(counted, lambda: [], lambda zs: counted(zs)[1]), calls


def test_settled_winding_makes_one_evaluation_of_the_nested_pair():
    # estimates at m and 2m from one eval_many of 2m points (the offset
    # grids took two calls, of m and of 2m points)
    f, calls = counting_handle(zr.polynomial_handle([0.1, -0.2 + 0.1j, 0.8]).eval_many)
    assert zr.boundary_winding(f, 0.0, 0.5) == pytest.approx(2.0, abs=1e-9)
    assert [c.size for c in calls] == [2 * zr.M_POINTS_DEFAULT]


def test_extra_doubling_evaluates_only_the_new_midpoints():
    # z^700 about 0 aliases to 700 - 1024 on 1024 samples and is resolved
    # on 2048 and 4096: one doubling past the first pair, which evaluates
    # only the 2048 midpoints of the 4096-point grid
    k, m = 700, zr.M_POINTS_DEFAULT
    f, calls = counting_handle(lambda zs: ((zs / np.abs(zs)) ** k, k * np.log(np.abs(zs))))
    assert zr.boundary_winding(f, 0.0, 1.0, m) == pytest.approx(k, abs=1e-9)
    assert [c.size for c in calls] == [2 * m, 2 * m]
    midpoints = np.exp(2j * math.pi * (np.arange(2 * m) + 0.5) / (2 * m))
    assert np.max(np.abs(calls[1] - midpoints)) < 1e-12


def test_winding_refuses_a_grid_above_the_cap_before_evaluating():
    f, calls = counting_handle(zr.polynomial_handle([0.1]).eval_many)
    with pytest.raises(zr.WindingUnstable, match="MAX_M_POINTS"):
        zr.boundary_winding(f, 0.0, 0.5, 2 * zr.MAX_M_POINTS)
    assert calls == []


@pytest.mark.parametrize("sample, offset, m_seen", [
    (6, 0.0, zr.M_POINTS_DEFAULT),          # on a coarse sample: non-finite log
    (7, 0.0, 2 * zr.M_POINTS_DEFAULT),      # on a fine-only sample
    (6, 1e-13, zr.M_POINTS_DEFAULT),        # 1e-13 R off a coarse sample: a dip of 30
    (7, 1e-13, 2 * zr.M_POINTS_DEFAULT),
])
def test_a_zero_on_either_winding_grid_is_caught_by_the_first_grid_holding_it(sample, offset,
                                                                              m_seen):
    # the coarse grid is the even samples of one 2m-point evaluation; it is
    # checked first, and a zero it holds gets the coarse grid's retry radius
    z0, R, m = 0.1 - 0.2j, 0.3, zr.M_POINTS_DEFAULT
    on = zr._circle_points(z0, R, 2 * m)[sample]
    f = zr.polynomial_handle([on + offset * (on - z0), 2.0])
    with pytest.raises(zr.NearCircleZero) as exc:
        zr.boundary_winding(f, z0, R)
    assert exc.value.suggested_radius == R * (1.0 + 3.0 / m_seen)


@pytest.mark.parametrize("m_grid", [zr.M_POINTS_DEFAULT, 2 * zr.M_POINTS_DEFAULT],
                         ids=["coarse", "fine"])
@pytest.mark.parametrize("offset", [0.0, 1e-13])
def test_a_zero_on_either_circle_mean_grid_is_caught_by_that_grid(m_grid, offset):
    z0, R = 0.1 - 0.2j, 0.3
    on = zr._circle_points(z0, R, m_grid, 0.5)[7]
    f = zr.polynomial_handle([on + offset * (on - z0), 2.0])
    with pytest.raises(zr.NearCircleZero) as exc:
        zr.circle_mean_log(f, z0, R)
    assert exc.value.suggested_radius == R * (1.0 + 3.0 / m_grid)


def test_richardson_gap_flags_a_zero_between_the_samples():
    # a root on the unit circle at angle pi / (4M) dips only 7.5 logs, but
    # the M- and 2M-point means, log|exp(i M phi) + 1| / M and
    # log|exp(2i M phi) + 1| / (2M), differ by 4.3e-4
    M = zr.M_POINTS_DEFAULT
    f = zr.polynomial_handle([cmath.exp(1j * math.pi / (4 * M))])
    with pytest.raises(zr.NearCircleZero, match="disagree") as exc:
        zr.circle_mean_log(f, 0.0, 1.0)
    assert exc.value.suggested_radius == 1.0 + 3.0 / M


def test_a_zero_midway_between_fine_winding_samples_is_flagged_by_the_circle_mean():
    # at angle pi / (2M) the M-point rule and its midpoints agree, so on
    # nested grids both means are off by log 2 / (2M) = 3.4e-4 with no gap
    M = zr.M_POINTS_DEFAULT
    f = zr.polynomial_handle([cmath.exp(1j * math.pi / (2 * M))])
    with pytest.raises(zr.NearCircleZero):
        zr.circle_mean_log(f, 0.0, 1.0)


def test_a_zero_on_the_circle_never_leaves_the_mean_off_unflagged():
    # roots on the unit circle across one coarse cell: each is flagged or
    # moves the mean (exactly 0 without it) by at most the gap bound
    M = zr.M_POINTS_DEFAULT
    for k in range(64):
        f = zr.polynomial_handle([cmath.exp(2j * math.pi * k / (64 * M))])
        try:
            mean = zr.circle_mean_log(f, 0.0, 1.0)
        except zr.NearCircleZero:
            continue
        assert abs(mean) <= zr.NEAR_CIRCLE_GAP, k


def test_locate_zeros_finds_distinct_roots():
    roots = [0.15 + 0.1j, -0.25, 0.05 - 0.3j]
    zs = zr.locate_zeros(zr.polynomial_handle(roots), zr.Disk(0j, 0.45))
    assert zs.count == 3
    got = sorted(zs.zeros, key=lambda z: (z.real, z.imag))
    want = sorted(roots, key=lambda z: (z.real, z.imag))
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-9


def test_locate_zeros_reports_multiplicity():
    double = zr.polynomial_handle([0.1 + 0.1j, 0.1 + 0.1j])
    zs = zr.locate_zeros(double, zr.Disk(0j, 0.5))
    assert zs.count == 2
    assert abs(zs.zeros[0] - zs.zeros[1]) < 1e-9


def test_locate_zeros_splits_a_tight_pair():
    pair = zr.polynomial_handle([0.1, 0.1 + 3e-3j])
    zs = zr.locate_zeros(pair, zr.Disk(0j, 0.4))
    assert zs.count == 2
    assert abs(zs.zeros[0] - zs.zeros[1]) == pytest.approx(3e-3, rel=1e-4)


def test_locate_zeros_refuses_a_wrong_candidate_list():
    roots = [0.15 + 0.1j, -0.25, 0.05 - 0.3j]
    good = zr.polynomial_handle(roots)
    missing = zr._Handle(good.eval_many, lambda: roots[:2], good.eval_logs)
    moved = zr._Handle(good.eval_many, lambda: roots[:2] + [0.9], good.eval_logs)
    for bad in (missing, moved):
        with pytest.raises(zr.WindingUnstable):
            zr.locate_zeros(bad, zr.Disk(0j, 0.45))


def test_locate_zeros_merges_a_split_double_root():
    # eigenvalues split a double zero into a pair about sqrt(eps) apart
    w = 0.1 + 0.1j
    pair = [w - 5e-9, w + 5e-9]
    double = zr.polynomial_handle([w, w])
    f = zr._Handle(double.eval_many, lambda: pair, double.eval_logs)
    zs = zr.locate_zeros(f, zr.Disk(0j, 0.5))
    assert zs.count == 2
    assert zs.zeros[0] == zs.zeros[1] == pytest.approx((pair[0] + pair[1]) / 2, abs=1e-16)


def test_locate_zeros_on_an_empty_disk():
    f = zr.polynomial_handle([2.0])
    zs = zr.locate_zeros(f, zr.Disk(0j, 0.3))
    assert zs.count == 0 and zs.zeros == ()
    with pytest.raises(ValueError):
        zr.Disk(0j, 0.0)


def test_nu_sandwich_on_random_polynomials():
    rng = np.random.default_rng(21)
    for _ in range(5):
        k = int(rng.integers(1, 5))
        roots = (rng.uniform(-0.3, 0.3, k) + 1j * rng.uniform(-0.3, 0.3, k))
        f = zr.polynomial_handle(list(roots))
        lower, est, upper = zr.nu_sandwich(f, 0.0, 0.45, 0.15)
        assert lower - zr.SANDWICH_SLACK <= est <= upper + zr.SANDWICH_SLACK
        assert lower <= upper


def test_nu_sandwich_pinches_a_clustered_configuration():
    # all roots well inside r1 - r2: both counts agree, est must match
    f = zr.polynomial_handle([0.02, -0.01j, 0.015 + 0.01j])
    lower, est, upper = zr.nu_sandwich(f, 0.0, 0.4, 0.1)
    assert lower == upper == 3
    assert est == pytest.approx(3.0, abs=zr.SANDWICH_SLACK)


# ------------------------------------------- determinant zero statistics

def test_annulus_count_saturates_the_degree_bound():
    # f_N has polynomial degree 2 N k0 in z, and at this coupling every
    # zero lives inside the |y| <= 0.05 band
    f = zr.determinant_handle(AMO3, GOLDEN, 0.5, 16)
    assert zr.annulus_zero_count(f, 0.05, 4096) == 32


def test_concatenation_defect_is_never_positive():
    zs = np.exp(2j * np.pi * np.linspace(0.05, 0.95, 7))
    w = zr.concatenation_w_grid(AMO3, GOLDEN, zs, 0.0, 30)
    assert np.all(w <= 1e-9)


def test_concatenation_defect_strictly_negative_for_constant_potential():
    # the free transfer matrix is not normal, so even a commuting family
    # loses a fixed factor against submultiplicativity
    free = pt.from_triples([], 1.0)
    w, = zr.concatenation_w_grid(free, GOLDEN, [pt.ComplexPhase(0.3, 0.0).to_z()], 3.0, 50)
    assert w < -0.1


def test_zero_count_additivity_on_an_empty_disk():
    rep = zr.zero_count_additivity(*zr.additivity_handles(AMO3, GOLDEN, 0.5, 8),
                                   zr.Disk(0.5 + 0j, 0.05))
    assert (rep.count_left, rep.count_shifted, rep.count_doubled) == (0, 0, 0)
    assert rep.defect == 0


def test_zero_count_additivity_on_the_zero_ring():
    # determinant zeros cluster near |z| = exp(log(lam/2)/2), i.e. the
    # ring y = log(lam/2)/(4 pi); a disk there sees actual zeros
    ystar = math.log(1.5) / (4 * math.pi)
    center = cmath.exp(complex(2 * math.pi * ystar, 2 * math.pi * 0.35))
    rep = zr.zero_count_additivity(*zr.additivity_handles(AMO3, GOLDEN, 0.5, 12),
                                   zr.Disk(center, 0.12))
    assert rep.count_doubled >= 1
    assert rep.defect == rep.count_doubled - rep.count_left - rep.count_shifted


def test_zero_separation_statistics():
    stats = zr.zero_separation(AMO3, GOLDEN, 0.5, 12, n_probes=4,
                               radius=0.05, seed=2)
    assert len(stats.counts) == 4
    assert stats.max_per_disk <= stats.per_disk_ceiling == 2
    assert stats.annulus_ceiling == 2 * 12 * 1
    assert stats.annulus_count <= stats.annulus_ceiling
    if stats.max_per_disk == 0:
        assert stats.min_pairwise_distance == math.inf


@pytest.mark.parametrize("misses", [4, 5])
def test_zero_separation_tries_five_shrinking_radii_then_raises(monkeypatch, misses):
    locate, radii = zr.locate_zeros, []

    def near_circle(f, disk, tol):
        radii.append(disk.radius)
        if len(radii) <= misses:
            raise zr.NearCircleZero("zero on the circle", disk.radius)
        return locate(f, disk, tol)

    monkeypatch.setattr(zr, "locate_zeros", near_circle)
    args, kw = (AMO3, GOLDEN, 0.5, 12), dict(n_probes=1, radius=0.05, seed=2)
    if misses < 5:
        assert len(zr.zero_separation(*args, **kw).counts) == 1
    else:
        with pytest.raises(zr.NearCircleZero):
            zr.zero_separation(*args, **kw)
    radius, expected = 0.05, []
    for _ in range(5):
        expected.append(radius)
        radius *= 0.963
    assert radii == expected


# ----------------------------------- determinant zeros from the companion matrix

DEG3 = pt.Potential({1: 0.5, 2: 0.3 - 0.1j, 3: 0.2}, lam=2.0)


def annulus_zeros(f, y_half):
    y = np.log(np.abs(f.zeros())) / (2 * math.pi)
    return int(np.sum(np.abs(y) < y_half))


def window_handle(p, E, a, b):
    """The handle of z -> f_[a,b](z): the complex stream through the recurrence core."""
    def fn(zs):
        bound, blocks = cc._laurent_sites(p, GOLDEN, zs.ravel(), a, b)
        f, _, acc = cc._recur(bound, E, blocks, zs.size, 1)
        return tuple(r.reshape(zs.shape) for r in cc._read_det(f[0], acc))
    return zr._Handle(fn, lambda: zr._companion_zeros(p, GOLDEN, E, a, b),
                      lambda zs: fn(zs)[1])


@pytest.mark.parametrize("first", ["Tx", "x"])
def test_annulus_count_matches_the_companion_zeros(first):
    # "x" is the window [0, 15], which starts at z itself
    if first == "Tx":
        f = zr.determinant_handle(AMO3, GOLDEN, 0.5, 16)
    else:
        f = window_handle(AMO3, 0.5, 0, 15)
    assert zr.annulus_zero_count(f, 0.05, 4096) == annulus_zeros(f, 0.05) == 32


def test_degree3_annulus_counts_match_the_companion_zeros():
    f = zr.determinant_handle(DEG3, GOLDEN, 0.3, 48)
    assert f.zeros().size == 2 * 48 * 3
    for y_half, want in ((0.02, 4), (0.05, 100), (0.1, 192), (0.2, 288)):
        assert zr.annulus_zero_count(f, y_half, 4096) == annulus_zeros(f, y_half) == want


def test_companion_zeros_are_deep_dips_of_the_determinant():
    f = zr.determinant_handle(AMO3, GOLDEN, 0.5, 32)
    zs = f.zeros()
    assert zs.size == 64
    at_zero = f.eval_many(zs)[1]
    aside = f.eval_many(zs * cmath.exp(0.01j))[1]
    assert np.all(at_zero <= aside - 20.0)


def test_rotated_zeros_are_the_shifted_window_zeros():
    # sites m+1..2m at z are sites 1..m at z e(m omega)
    m = 12
    rot = cmath.exp(2j * math.pi * dy.fracmul(m, GOLDEN))
    got = zr.rotated_handle(zr.determinant_handle(AMO3, GOLDEN, 0.5, m), rot).zeros()
    want = zr._companion_zeros(AMO3, GOLDEN, 0.5, m + 1, 2 * m)
    assert got.size == want.size == 2 * m
    gaps = np.abs(got[:, None] - want[None, :])
    assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) < 1e-12


# ------------------------------------ determinant handles and winding glue

def roll_winding(phases):
    """The winding sum as np.roll and np.angle form it, the reference."""
    rot = phases * np.conj(np.roll(phases, 1))
    return float(np.sum(np.angle(rot))) / (2.0 * math.pi)


def median_check_circle(logs, z0, R):
    """_check_circle with np.median and np.min, the reference."""
    m = logs.size
    if not np.all(np.isfinite(logs)):
        raise zr.NearCircleZero(
            f"zero on the circle |z - {z0}| = {R} (non-finite log sample)",
            suggested_radius=R * (1.0 + 3.0 / m))
    dip = float(np.median(logs) - np.min(logs))
    if dip > zr.DIP_THRESHOLD:
        raise zr.NearCircleZero(
            f"modulus dips {dip:.1f} logs below the median on |z - {z0}| = {R}",
            suggested_radius=R * (1.0 + 3.0 / m))


def outcome(check, logs):
    try:
        check(logs, 0.1 - 0.2j, 0.3)
    except zr.NearCircleZero as exc:
        return str(exc), exc.suggested_radius
    return None


SIGNED_PARTS = st.one_of(st.sampled_from([0.0, -0.0]),
                         st.floats(-4.0, 4.0, allow_subnormal=True))


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(st.tuples(SIGNED_PARTS, SIGNED_PARTS), min_size=1, max_size=40),
       stride=st.sampled_from([1, 2]))
def test_winding_is_the_roll_and_angle_sum_bit_for_bit(parts, stride):
    # odd and even lengths, signed zeros, and the strided even samples a
    # nested scan reads
    phases = np.array([complex(a, b) for a, b in parts])[::stride]
    assert np.float64(zr._winding(phases)).tobytes() == \
        np.float64(roll_winding(phases)).tobytes()


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0)),
                       min_size=3, max_size=41),
       gap=st.sampled_from([-1e-9, -1e-13, 0.0, 1e-13, 1e-9]),
       at=st.integers(0, 40))
def test_check_circle_raises_as_the_median_reference_does(values, gap, at):
    # the least sample moved to a dip just below or above DIP_THRESHOLD:
    # with at least three samples that leaves the median where it was, and
    # a wrong middle sample moves the dip far past either side
    logs = np.array(values)
    logs[np.argmin(logs)] = np.median(logs) - (zr.DIP_THRESHOLD + gap)
    logs = np.roll(logs, at)
    assert outcome(zr._check_circle, logs) == outcome(median_check_circle, logs)
    assert outcome(zr._check_circle, logs[::2]) == outcome(median_check_circle, logs[::2])


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf,
                                                  math.nan]),
                                  st.floats(-40.0, 40.0)), min_size=1, max_size=20))
def test_check_circle_on_any_samples_matches_the_median_reference(values):
    logs = np.array(values)
    assert outcome(zr._check_circle, logs) == outcome(median_check_circle, logs)


@pytest.mark.parametrize("m, offset", [(7, 0.0), (256, 0.5), (2048, 0.0), (2048, 0.5),
                                       (2 * zr._CACHED_POINTS, 0.5)])
def test_circle_points_are_the_fresh_exponential_bit_for_bit(m, offset):
    z0, R = 0.3 - 0.1j, 0.07
    want = z0 + R * np.exp(1j * (2.0 * np.pi * (np.arange(m) + offset) / m))
    zr._cached_unit_circle.cache_clear()
    for _ in range(2):
        got = zr._circle_points(z0, R, m, offset)
        assert got.tobytes() == want.tobytes()
    # only grids of up to _CACHED_POINTS samples are kept, a bounded number
    # of them, and a kept grid is shared, so it cannot be written through
    info = zr._cached_unit_circle.cache_info()
    assert info.currsize == (m <= zr._CACHED_POINTS) and info.maxsize == zr._UNIT_CIRCLES
    assert not zr._cached_unit_circle(m, offset).flags.writeable
    got[0] = 0.0
    assert zr._circle_points(z0, R, m, offset).tobytes() == want.tobytes()


FREE = pt.from_triples([], 1.0)


@pytest.mark.parametrize("p, E, n", [(AMO3, 0.5, 1), (AMO3, 0.5, 24), (DEG3, 0.3, 40),
                                     (FREE, 0.0, 1), (FREE, 0.0, 3), (FREE, 0.0, 2)])
@pytest.mark.parametrize("rot", [None, cmath.exp(0.7j)])
def test_determinant_logs_are_the_fresh_grid_logs_bit_for_bit(p, E, n, rot):
    # the handle's table is the one complex_det_grid builds for sites
    # 1..n, and its logs-only read drops nothing but the phases; the free
    # model at E = 0 has f_1 = f_3 = 0 exactly, read as -inf
    rng = np.random.default_rng(n)
    zs = np.exp(2j * np.pi * rng.random(50) + 2 * np.pi * 0.05 * (rng.random(50) - 0.5))
    zs = zs.reshape(5, 10)
    f = zr.determinant_handle(p, GOLDEN, E, n)
    fresh = cc.complex_det_grid(p, GOLDEN, zs * (1 if rot is None else rot), E, n)
    if rot is not None:
        f = zr.rotated_handle(f, rot)
    phases, logs = f.eval_many(zs)
    got = f.eval_logs(zs)
    assert got.shape == zs.shape
    assert got.tobytes() == logs.tobytes() == fresh[1].tobytes()
    assert phases.tobytes() == fresh[0].tobytes()
    if p is FREE and n != 2:
        assert np.all(got == -math.inf)


def test_logs_only_grid_is_the_log_half_of_the_full_grid():
    zs = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 300) + 0.1)
    table = cc._laurent_table(DEG3, GOLDEN, 1, 30)
    logs = cc.complex_det_grid(DEG3, GOLDEN, zs, 0.2, 30, logs_only=True)
    assert logs.tobytes() == cc.complex_det_grid(DEG3, GOLDEN, zs, 0.2, 30)[1].tobytes()
    assert logs.tobytes() == cc.complex_det_grid(DEG3, GOLDEN, zs, 0.2, 30, table=table,
                                                 logs_only=True).tobytes()


@pytest.mark.parametrize("p, E, n", [(AMO3, 0.5, 16), (DEG3, 0.3, 12)])
def test_handle_zeros_are_the_eigensolve_on_a_fresh_table(p, E, n):
    f = zr.determinant_handle(p, GOLDEN, E, n)
    assert f.zeros().tobytes() == zr._companion_zeros(p, GOLDEN, E, 1, n).tobytes()
    rot = cmath.exp(0.3j)
    assert zr.rotated_handle(f, rot).zeros().tobytes() == (f.zeros() / rot).tobytes()


def test_a_determinant_handle_builds_one_read_only_table(monkeypatch):
    # every evaluation, logs-only read and the eigensolve, of the handle
    # and of its rotation, read the table of sites 1..n built with it
    built, table_of = [], cc._laurent_table

    def spy(*args):
        built.append((args, table_of(*args)))
        return built[-1][1]

    monkeypatch.setattr(cc, "_laurent_table", spy)
    monkeypatch.setattr(zr, "_laurent_table", spy)
    f = zr.determinant_handle(AMO3, GOLDEN, 0.5, 8)
    g = zr.rotated_handle(f, cmath.exp(0.3j))
    zs = np.exp(2j * np.pi * np.arange(4) / 4)
    for h in (f, g):
        h.eval_many(zs)
        h.eval_logs(zs)
        h.zeros()
    assert [args for args, _ in built] == [(AMO3, GOLDEN, 1, 8)]
    _, vs, coef = built[0][1]
    assert not vs.flags.writeable and not coef.flags.writeable
