"""Counting, IDS, eigenvectors, and trace inequalities on finite windows."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import qplab.dynamics as dy
import qplab.potential as pt
import qplab.spectrum as sp

SHIFT = dy.Shift((dy.GOLDEN_MEAN,))
SKEW = dy.SkewShift(dy.GOLDEN_MEAN)
AMO3 = pt.almost_mathieu(3.0)
DEG3 = pt.Potential({0: 0.4, 1: 0.3 + 0.2j, 2: -0.1j, 3: 0.25}, lam=2.0)
AMO5 = pt.almost_mathieu(5.0)
FREE = pt.from_triples([], 1.0)


def oracle_eigs(H):
    return eigh_tridiagonal(H.diag, -np.ones(H.N - 1), eigvals_only=True)


# ----------------------------------------------------------- hamiltonian

def test_hamiltonian_samples_the_orbit():
    x = dy.phase(0.3)
    H = sp.hamiltonian(AMO3, SHIFT, x, 5)
    sites = dy.mod1(0.3 + (np.arange(5) + 1) * dy.GOLDEN_MEAN)
    np.testing.assert_allclose(H.diag, 3.0 * np.cos(2 * np.pi * sites),
                               atol=1e-14)
    # the window [0, 4] starts at x itself
    d0 = sp.cocycle._site_values(AMO3, SHIFT, x, 0, 4)[0]
    assert d0[0] == pytest.approx(3.0 * math.cos(2 * math.pi * 0.3))
    np.testing.assert_array_equal(d0[1:], H.diag[:4])


def test_hamiltonian_dense_and_apply_agree():
    H = sp.hamiltonian(AMO3, SHIFT, dy.phase(0.11), 8)
    v = np.random.default_rng(1).standard_normal(8)
    np.testing.assert_allclose(H.apply(v), H.dense() @ v, atol=1e-13)
    with pytest.raises(ValueError):
        sp.hamiltonian(AMO3, SHIFT, dy.phase(0.1), 0)


def test_gershgorin_contains_the_spectrum():
    H = sp.hamiltonian(AMO3, SHIFT, dy.phase(0.42), 40)
    lo, hi = H.gershgorin()
    ev = oracle_eigs(H)
    assert lo < ev[0] and ev[-1] < hi


# -------------------------------------------------------------- counting

def test_sturm_count_matches_dense_counts():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 120))
        H = sp.TridiagonalHamiltonian(rng.uniform(-3, 3, size=n))
        ev = oracle_eigs(H)
        for E in rng.uniform(-5, 5, size=4):
            assert sp.sturm_count(H, E) == int(np.sum(ev < E))


def per_site_counts(diags, energies):
    """Sturm counts from a sweep one site at a time, where IEEE infinities
    carry each exact zero pivot.

    The reference for the blocked sweep of ``_sturm_counts``: the same
    pivot arithmetic, (d - E) - 1/p, with every zero pivot made +0 as it
    is formed (so 1/p = +inf), instead of the blocked sweep's one -0.0 for
    an energy +0.0.
    """
    p = np.full((diags.shape[0], energies.size), np.inf)
    counts = np.zeros(p.shape, dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore"):
        for d in diags.T:
            p = (d[:, None] - energies) - 1.0 / p + 0.0
            counts += p < 0.0
    return counts


def exact_counts(diags, energies):
    """Eigenvalues strictly below each energy, from the pivots of H - E in
    exact rational arithmetic, with the left limit E -> E0- at a tie.

    Each pivot falls strictly in E between its poles, so a pivot that is
    exactly 0 at E is +eps just below it; the next pivot is then -1/eps,
    counted, and the one after that reads d - E again.  No float is
    rounded: this depends on no IEEE rule.
    """
    counts = np.zeros((len(diags), len(energies)), dtype=np.int64)
    for i, window in enumerate(diags):
        for j, E in enumerate(energies):
            E, inv, tie = Fraction(float(E)), Fraction(0), False
            for d in window:
                if tie:
                    counts[i, j], inv, tie = counts[i, j] + 1, Fraction(0), False
                    continue
                q = Fraction(float(d)) - E - inv
                tie = q == 0
                if not tie:
                    counts[i, j] += q < 0
                    inv = 1 / q
    return counts


def table_counts(diags, energies):
    """``_sturm_counts`` of an (m, n) table, one window per row."""
    return sp._sturm_counts([diags.T], np.asarray(energies, dtype=float))


def blocked_counts(diags, energies, block, monkeypatch):
    """``_sturm_counts`` with the record cut to ``block`` sites."""
    monkeypatch.setattr(sp, "_PIVOT_ELEMENTS", block * diags.shape[0] * energies.size)
    return table_counts(diags, energies)


def mpmath_eigs(diag):
    """The eigenvalues of the window, from mpmath at 60 digits."""
    with mpmath.workdps(60):
        n = len(diag)
        h = mpmath.matrix(n, n)
        for k, d in enumerate(diag):
            h[k, k] = mpmath.mpf(float(d))
            if k + 1 < n:
                h[k, k + 1] = h[k + 1, k] = -1
        return mpmath.eigsy(h, eigvals_only=True)


def mpmath_counts(diag, energies):
    """Eigenvalues below each energy by more than 1e-40: one within it is
    taken to be at E, where the tie cases of these tests put it exactly."""
    evs = mpmath_eigs(diag)
    with mpmath.workdps(60):
        return [sum(1 for ev in evs if ev < float(E) - mpmath.mpf(1e-40)) for E in energies]


# Integer pivots tie often, and so do the diagonals -0.0 (whose pivot at
# E = +0.0 would be -0.0 without the sweep's signed-zero rule) and
# +-2^-60 (below one ulp of the pivots they meet)
TIE_DIAGONALS = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, -2.0 ** -60, 2.0 ** -60]
TIE_ENERGIES = [-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0]


def stream_blocks(table, lengths):
    """The (m, n) table as (B, m) site blocks of the given lengths, the
    last block taking the sites left over."""
    sites, blocks, k = table.T, [], 0
    for length in lengths:
        blocks.append(sites[k:k + length])
        k += length
    blocks.append(sites[k:])
    return iter(blocks)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 5), n=st.integers(1, 700), seed=st.integers(0, 2 ** 32 - 1),
       energies=st.lists(st.sampled_from(TIE_ENERGIES), min_size=1, max_size=5),
       block=st.sampled_from([1, 2, 3, 255]),
       cuts=st.lists(st.tuples(st.integers(0, 2), st.integers(-1, 1)), max_size=6))
def test_blocked_sweep_matches_the_per_site_sweep_bit_for_bit(m, n, seed, energies, block,
                                                             cuts):
    # records of 1, 2, 3 and 255 sites put the ties on the first, a middle
    # and the last site of a record, and on a carried start pivot; the
    # table is swept whole, and as stream blocks q records +- 1 site long:
    # shorter than a record, as long as one and longer, so ties fall on
    # block edges and records that are not full carry their last pivot
    diags = np.random.default_rng(seed).choice(TIE_DIAGONALS, size=(m, n))
    es = np.array(energies)
    lengths = [max(1, q * block + r) for q, r in cuts]
    with pytest.MonkeyPatch.context() as mp:
        got = blocked_counts(diags, es, block, mp)
        mp.setattr(sp, "_PIVOT_ELEMENTS", block * m * es.size)
        streamed = sp._sturm_counts(stream_blocks(diags, lengths), es)
    want = per_site_counts(diags, es)
    assert got.dtype == want.dtype and got.shape == (m, es.size)
    np.testing.assert_array_equal(got, want)
    assert streamed.dtype == want.dtype
    np.testing.assert_array_equal(streamed, want)


@pytest.mark.parametrize("block", [1, 2, 3, 255])
def test_a_tie_counts_the_same_wherever_it_falls_in_a_block(block, monkeypatch):
    # At E = 0 the pivots of 1, 2, ..., 2 are all 1, so the next diagonal 1
    # gives an exact zero pivot and the next pivot is -inf; the diagonal 0
    # then gives a second zero, and -2^-60 a second -inf.  The ties move
    # through every position of a block, and the window ends on the last
    # tie or past it.  Exact rational counts are the reference; at
    # lead = tail = 0 they are mpmath's too, whose eigenvalue -2.9e-19
    # lies below 0 (the nudge this sweep replaced counted 1 there).
    E = np.array([0.0, 0.5])
    for lead in range(8):
        for tail in (0, 1, 4):
            diag = np.array([[1.0] + [2.0] * lead + [1.0, 0.0, -2.0 ** -60] + [2.0] * tail])
            np.testing.assert_array_equal(blocked_counts(diag, E, block, monkeypatch),
                                          exact_counts(diag, E))
    short = [1.0, 1.0, 0.0, -2.0 ** -60]
    assert exact_counts([short], [0.0]).tolist() == [mpmath_counts(short, [0.0])] == [[2]]
    # a signed zero on the first site: the pivot is +0 at E = +0.0 and at
    # E = -0.0, so the next one is -inf and the eigenvalue -1 of
    # [[-0, -1], [-1, 0]] is counted
    for zero in (0.0, -0.0):
        diag = np.array([[-0.0, 0.0]])
        assert blocked_counts(diag, np.array([zero]), block, monkeypatch)[0, 0] == 1


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 4), n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       energies=st.lists(st.sampled_from(TIE_ENERGIES + [0.5, -1.5]), min_size=1, max_size=4))
def test_counts_equal_exact_counts_on_small_windows(m, n, seed, energies):
    # integer diagonals tie often: the exact rational counts equal
    # mpmath's at every energy, ties included, and the float counts equal
    # both wherever no eigenvalue lies within 1e-9 of E (next to a tie a
    # rounded pivot can change sign, so there they are left unchecked)
    diags = np.random.default_rng(seed).choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=(m, n))
    got = table_counts(diags, energies)
    want = exact_counts(diags, energies)
    for d, counts, exact in zip(diags, got, want):
        assert exact.tolist() == mpmath_counts(d, energies)
        evs = oracle_eigs(sp.TridiagonalHamiltonian(d))
        clear = [np.min(np.abs(evs - E)) > 1e-9 for E in energies]
        np.testing.assert_array_equal(counts[clear], exact[clear])


TIE_SITES = [-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, -2.0 ** -60, 2.0 ** -60,
             1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52, -3 * 2.0 ** -53]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1),
       tie=st.sampled_from(TIE_SITES + TIE_ENERGIES))
def test_counts_are_monotone_over_consecutive_floats_at_a_tie(n, seed, tie):
    # 13 consecutive floats centred on a tie energy, over 8 windows: a
    # nudged zero pivot (the rule this sweep replaced) made counts drop
    # by one here; the counts of IEEE infinities never decrease in E
    diags = np.random.default_rng(seed).choice(TIE_SITES, size=(8, n))
    energies = [tie]
    for _ in range(6):
        energies = [np.nextafter(energies[0], -np.inf)] + energies + [
            np.nextafter(energies[-1], np.inf)]
    counts = table_counts(diags, energies)
    assert np.all(np.diff(counts, axis=1) >= 0)


def test_a_subnormal_pivot_overflows_quietly_to_its_limit():
    # at E = +-5e-324 the first pivot is subnormal and 1/p overflows to
    # +-inf, so the next pivot is -+inf and the one after reads d - E again
    # (the suite turns an overflow warning into an error); 0 is an
    # eigenvalue of the first window, whose others are -1 and 2
    diag = np.array([[0.0, 1.0, 0.0], [-0.0, 2.0, -1.0]])
    E = np.array([-5e-324, 5e-324])
    got = table_counts(diag, E)
    np.testing.assert_array_equal(got, per_site_counts(diag, E))
    assert got[0].tolist() == [1, 2]


@pytest.mark.parametrize("block", [1, 2, 3, 255, None])
def test_free_counts_leave_out_an_eigenvalue_at_the_energy(block, monkeypatch):
    # lam = 0 on N = 1001 sites: eigenvalues -2 cos(pi j / 1002), so
    # E = -1, 0, 1 are eigenvalues j = 334, 501, 668, and the integer
    # pivots hit exact zeros at each of them; the diagonals are signed
    # zeros, and the one at E = 0 is swept as -0.0
    if block is not None:
        monkeypatch.setattr(sp, "_PIVOT_ELEMENTS", block * 4 * 5)
    table = sp.ids(pt.almost_mathieu(0.0), SHIFT, [-2.0, -1.0, 0.0, 1.0, 2.0], 1001, 4)
    np.testing.assert_array_equal(table.values, np.array([0, 333, 500, 667, 1001]) / 1001)


def test_nan_energies_raise():
    H = sp.hamiltonian(AMO3, SHIFT, dy.phase(0.3), 20)
    nan = float("nan")
    calls = [lambda: sp.ids(AMO3, SHIFT, [0.0, nan, 1.0], 50, 4),
             lambda: sp.ids(AMO3, SHIFT, [nan], 50, 4),
             lambda: sp.window_count(AMO3, SHIFT, nan, 0.5, 50, 4),
             lambda: sp.window_count(AMO3, SHIFT, 0.0, nan, 50, 4),
             lambda: sp.wegner_measure(AMO3, SHIFT, nan, [5.0, 10.0], 50, 4),
             lambda: sp.wegner_measure(AMO3, dy.Doubling(), nan, 5.0, 50, 4),
             lambda: sp.sturm_count(H, nan)]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_eigenvalues_match_scipy_brackets():
    H = sp.hamiltonian(AMO5, SHIFT, dy.phase(0.2), 100)
    mine = sp.eigenvalues(H)
    ev = oracle_eigs(H)
    assert mine.size == 100
    np.testing.assert_allclose(mine, ev, atol=1e-9)


def test_free_laplacian_eigenvalues_are_cosines():
    H = sp.hamiltonian(FREE, SHIFT, dy.phase(0.0), 50)
    k = np.arange(1, 51)
    exact = -2.0 * np.cos(k * np.pi / 51.0)
    np.testing.assert_allclose(sp.eigenvalues(H), np.sort(exact), atol=1e-10)


def test_eigenvalue_window_restricts_the_list():
    H = sp.hamiltonian(AMO3, SHIFT, dy.phase(0.6), 60)
    ev = oracle_eigs(H)
    got = sp.eigenvalues(H, window=(-1.0, 1.0))
    want = ev[(ev > -1.0) & (ev <= 1.0)]
    np.testing.assert_allclose(got, want, atol=1e-9)
    assert sp.eigenvalues(H, window=(2.0, 2.0)).size == 0
    with pytest.raises(ValueError):
        sp.eigenvalues(H, tol=0.0)
    # the window is half-open, (lo, hi]: V = 0 and N = 1 has the single
    # eigenvalue 0, left out at lo and kept at hi
    single = sp.TridiagonalHamiltonian([0.0])
    assert sp.eigenvalues(single, window=(0.0, 1.0)).size == 0
    assert sp.eigenvalues(single, window=(-1.0, 0.0)).tolist() == [0.0]
    # min_gap's tolerance holds across a long window, on the whole-spectrum
    # path (MRRR) and on bisection over a window that holds every eigenvalue
    H = sp.hamiltonian(AMO3, SHIFT, dy.phase(0.6), 400)
    whole = sp.eigenvalues(H, tol=1e-13)
    lo, hi = H.gershgorin()
    windowed = sp.eigenvalues(H, window=(lo - 1e-9, hi + 1e-9), tol=1e-13)
    for evs in (whole, windowed):
        np.testing.assert_allclose(evs, oracle_eigs(H), rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.diff(whole), np.diff(windowed), rtol=0,
                               atol=1e-12)


# ---------------------------------------------------------- eigenvectors

def test_eigenvector_solves_the_pencil():
    H = sp.hamiltonian(AMO3, SHIFT, dy.phase(0.13), 80)
    ev = sp.eigenvalues(H)
    pair = sp.eigenvector(H, float(ev[40]))
    assert pair.residual < 1e-8
    assert np.linalg.norm(pair.vector) == pytest.approx(1.0)
    assert pair.collinearity <= 1e-6


def test_eigenvector_localizes_at_strong_coupling():
    # every eigenvector of the lam=5 window should agree with its
    # determinant-formula twin; run a spread of indices
    H = sp.hamiltonian(AMO5, SHIFT, dy.phase(0.71), 120)
    ev = sp.eigenvalues(H)
    for j in (0, 30, 60, 90, 119):
        pair = sp.eigenvector(H, float(ev[j]))
        assert pair.collinearity <= 1e-6
        assert pair.residual < 1e-8


def test_eigenvector_rejects_empty_and_crowded_targets():
    H = sp.hamiltonian(AMO5, SHIFT, dy.phase(0.2), 100)
    with pytest.raises(sp.AmbiguousEigenvalue):
        sp.eigenvector(H, 100.0)
    # widen the bracket until it swallows two eigenvalues
    ev = oracle_eigs(H)
    i = int(np.argmin(np.diff(ev)))
    mid = 0.5 * (ev[i] + ev[i + 1])
    with pytest.raises(sp.AmbiguousEigenvalue):
        sp.eigenvector(H, mid, tol=0.01)


@pytest.mark.parametrize("p", [pt.almost_mathieu(0.0), AMO3, AMO5], ids=["lam0", "lam3", "lam5"])
@pytest.mark.parametrize("N", [1, 2, 80, 200])
def test_eigenvector_matches_the_dense_eigh_vector(p, N):
    H = sp.hamiltonian(p, SHIFT, dy.phase(0.37), N)
    evs, vecs = np.linalg.eigh(H.dense())
    assert N == 1 or np.min(np.diff(evs)) > 1e-6
    for j in range(N):
        pair = sp.eigenvector(H, float(evs[j]))
        w = vecs[:, j]
        assert min(np.linalg.norm(pair.vector - w), np.linalg.norm(pair.vector + w)) < 1e-10
        assert pair.vector[np.argmax(np.abs(pair.vector))] > 0
        assert pair.value == float(evs[j])


@pytest.mark.parametrize("N", [3, 5, 7, 101])
def test_free_eigenvector_at_an_exactly_singular_shift(N):
    # odd N puts the eigenvalue 0 of the free Laplacian exactly at E = 0,
    # where H - E is singular; the eigenvector is (1, 0, -1, 0, ...)
    pair = sp.eigenvector(sp.TridiagonalHamiltonian(np.zeros(N)), 0.0)
    ref = np.zeros(N)
    ref[::4], ref[2::4] = 1.0, -1.0
    np.testing.assert_allclose(pair.vector, ref / np.linalg.norm(ref), rtol=0, atol=1e-15)
    if N <= 7:
        assert pair.residual == 0.0
    assert pair.residual < 1e-29 and pair.collinearity <= 1e-15


def test_eigenvector_needs_a_positive_tolerance():
    H = sp.hamiltonian(AMO3, SHIFT, dy.phase(0.13), 20)
    E = float(sp.eigenvalues(H)[5])
    for tol in (0.0, -1e-10):
        with pytest.raises(ValueError, match="tol"):
            sp.eigenvector(H, E, tol=tol)


def test_one_site_eigenvector_is_the_unit_vector():
    # at the exact eigenvalue of a 1x1 H the shifted matrix is 0; the
    # suite's error::RuntimeWarning filter fails any division by it
    H = sp.TridiagonalHamiltonian([0.7])
    pair = sp.eigenvector(H, float(sp.eigenvalues(H)[0]))
    assert pair.vector.tolist() == [1.0]
    assert pair.residual == 0.0 and pair.collinearity == 0.0
    an, fd = sp.hellmann_feynman(AMO3, SHIFT, dy.phase(0.3), 0, 1)
    assert an == pytest.approx(fd, rel=1e-6)


# ------------------------------------------------------------------- ids

def test_free_ids_matches_the_arcsine_law():
    grid = np.linspace(-1.9, 1.9, 21)
    tab = sp.ids(FREE, SHIFT, grid, 1000, 4)
    exact = np.arccos(-grid / 2.0) / math.pi
    np.testing.assert_allclose(tab.values, exact, atol=1e-3)


def test_ids_is_monotone_and_normalized():
    grid = np.linspace(-6.0, 6.0, 41)
    tab = sp.ids(AMO3, SHIFT, grid, 400, 8, seed=2)
    assert np.all(np.diff(tab.values) >= 0)
    assert tab.values[0] == 0.0 and tab.values[-1] == 1.0
    with pytest.raises(ValueError):
        sp.ids(AMO3, SHIFT, grid[::-1], 100, 4)


def test_window_count_requires_positive_eta():
    with pytest.raises(ValueError):
        sp.window_count(AMO3, SHIFT, 0.0, 0.0, 50, 4)
    c = sp.window_count(AMO3, SHIFT, 0.0, 6.0, 50, 4, seed=1)
    assert c == pytest.approx(50.0)   # window covers the whole spectrum


# ---------------------------------------------------------------- wegner

def test_wegner_measure_shrinks_with_sharper_resolution():
    kw = dict(N=150, x_samples=800, seed=5)
    m5 = sp.wegner_measure(AMO3, SHIFT, 0.0, 5.0, **kw)
    m10 = sp.wegner_measure(AMO3, SHIFT, 0.0, 10.0, **kw)
    assert 0.0 <= m10 <= m5 <= 1.0
    # a NaN is no resolution either: it used to pass the H >= 1 check
    for bad in (0.5, float("nan"), [5.0, float("nan")]):
        with pytest.raises(ValueError):
            sp.wegner_measure(AMO3, SHIFT, 0.0, bad, N=10, x_samples=4)


@pytest.mark.parametrize("dyn", [SHIFT, dy.Doubling()],
                         ids=["shift", "doubling"])
def test_wegner_measure_over_a_sequence_equals_scalar_calls(dyn):
    kw = dict(N=80, x_samples=300, seed=9)
    H_params = [1.0, 5.0, 8.0, 5.0]
    got = sp.wegner_measure(AMO3, dyn, 0.3, H_params, **kw)
    assert isinstance(got, np.ndarray) and got.shape == (4,)
    want = [sp.wegner_measure(AMO3, dyn, 0.3, H, **kw) for H in H_params]
    assert all(isinstance(m, float) for m in want)
    assert got.tolist() == want
    assert 0.0 < want[2] < want[1] < 1.0
    with pytest.raises(ValueError):
        sp.wegner_measure(AMO3, dyn, 0.3, [2.0, 0.5], **kw)
    with pytest.raises(ValueError):
        sp.wegner_measure(AMO3, dyn, 0.3, [[2.0, 3.0]], **kw)


def unpruned_wegner(p, dyn, E, H_params, N, x_samples, seed):
    """Every pair E +- exp(-H) counted over every window in one sweep."""
    hs = np.array([math.exp(-H) for H in H_params])
    counts = sp._sampled_counts(p, dyn, np.stack([E - hs, E + hs], axis=1).ravel(),
                                N, x_samples, seed)
    return np.mean((counts[:, 1::2] - counts[:, ::2]) > 0, axis=0)


# h = exp(-H) from 0.37 down to a subnormal (745) and to 0 (800), where
# the pairs E +- h fall on the tie energies themselves
WEGNER_H = [1.0, 2.0, 5.0, 10.0, 37.0, 45.0, 700.0, 745.0, 800.0]


def serve_table(table, seed, reads):
    """A stand-in for ``cocycle._sites`` that yields the (m, n) table's
    rows for the phases asked for, as one block: the full phase set drawn
    by the seed, or any subset of it, and records each call in reads."""
    full = np.random.default_rng(seed).random((table.shape[0], 1))[:, 0]
    rows = {x: i for i, x in enumerate(full)}

    def sites(p, dyn, xs, k0, k1, rng=None):
        reads.append(len(xs))
        yield table[[rows[x] for x in xs[:, 0]]].T
    return sites


@settings(max_examples=150, deadline=None)
@given(source=st.sampled_from(["ties", "shift", "skew", "doubling"]),
       lam=st.sampled_from([0.0, 1.0, 3.0]),
       m=st.integers(1, 40), n=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
       E=st.sampled_from(TIE_ENERGIES),
       H_params=st.lists(st.sampled_from(WEGNER_H), min_size=1, max_size=6))
def test_wegner_equals_the_unpruned_counts_bit_for_bit(source, lam, m, n, seed,
                                                       E, H_params):
    # "ties" sweeps a table drawn from TIE_DIAGONALS on the shift's pruned
    # path; the maps sweep almost Mathieu, whose lam = 0 diagonals are
    # signed zeros.  The shift sweeps a narrower pair only over the phases
    # the widest pair caught; the skew shift and doubling sweep every pair.
    p = pt.almost_mathieu(lam)
    dyn = {"skew": SKEW, "doubling": dy.Doubling()}.get(source, SHIFT)
    reads = []
    with pytest.MonkeyPatch.context() as mp:
        if source == "ties":
            table = np.random.default_rng(seed).choice(TIE_DIAGONALS, size=(m, n))
            mp.setattr(sp.cocycle, "_sites", serve_table(table, seed, reads))
        got = sp.wegner_measure(p, dyn, E, H_params, n, m, seed)
        want = unpruned_wegner(p, dyn, E, H_params, n, m, seed)
    assert got.tolist() == want.tolist()
    assert (source == "ties") == bool(reads)


def test_a_tie_count_is_monotone_in_the_energy(monkeypatch):
    # d = (c, c, c - 3u) with c = 1 - u, u = 2^-53: at E - h2 = c the first
    # pivot is an exact zero, and the eigenvalue 1 - 2.78e-16 lies below
    # both c and E - h1 = c - u (h1 > h2).  The counts at E -+ h1, E -+ h2
    # are all 2, so neither pair catches the window.  A nudge of the zero
    # pivot to +6u once counted 1 at c: the narrower pair caught the window
    # and the wider one did not, which ruled out pruning.
    u = 2.0 ** -53
    c = 1.0 - u
    H1, H2 = 35.821, 36.332
    h1, h2 = math.exp(-H1), math.exp(-H2)
    assert h1 > h2 and 1.0 - h1 == c - u and 1.0 - h2 == c and 1.0 + h1 == 1.0 + 2 * u
    table = np.array([[c, c, c - 3 * u]])
    energies = [1.0 - h1, 1.0 - h2, 1.0 + h2, 1.0 + h1]
    want = mpmath_counts(table[0], energies)
    assert want == [2, 2, 2, 2] and table_counts(table, energies).tolist() == [want]
    reads = []
    monkeypatch.setattr(sp.cocycle, "_sites", serve_table(table, 0, reads))
    assert sp.wegner_measure(AMO3, SHIFT, 1.0, [H1, H2], 3, 1).tolist() == [0.0, 0.0]
    # the widest pair caught nothing, so the narrower one sweeps nothing
    assert reads == [1]


def test_wegner_prunes_only_on_the_shift(monkeypatch):
    # the shift sweeps the widest pair over every phase and the others
    # over the phases it caught, read as columns of a second draw of the
    # full stream; the skew shift and doubling draw their stream once, for
    # every pair
    kw = dict(N=60, x_samples=400, seed=2)
    draws, swept = [], []
    sites, counts = sp.cocycle._sites, sp._sturm_counts

    def recording(p, dyn, xs, *args):
        draws.append(len(xs))
        return sites(p, dyn, xs, *args)

    def sweeping(blocks, energies):
        blocks = iter(blocks)
        first = next(blocks)
        swept.append(first.shape[1])
        return counts(itertools.chain([first], blocks), energies)

    monkeypatch.setattr(sp.cocycle, "_sites", recording)
    monkeypatch.setattr(sp, "_sturm_counts", sweeping)
    shift = sp.wegner_measure(AMO3, SHIFT, 0.3, [8.0, 5.0, 10.0], **kw)
    assert draws == [400, 400] and swept[0] == 400 and 0 < swept[1] < 400
    assert swept[1] == round(shift[1] * 400)
    # a lone catch is one column of the second draw
    xs = np.random.default_rng(2).random((400, 1))
    E = float(sp.cocycle._site_values(AMO3, SHIFT, xs[:1], 1, 1)[0, 0])
    del draws[:], swept[:]
    lone = sp.wegner_measure(AMO3, SHIFT, E, [20.0, 30.0], 1, 400, 2)
    assert draws == [400, 400] and swept == [400, 1]
    assert lone.tolist() == [1 / 400, 1 / 400]
    for dyn in (SKEW, dy.Doubling()):
        del draws[:], swept[:]
        sp.wegner_measure(AMO3, dyn, 0.3, [8.0, 5.0, 10.0], **kw)
        assert draws == swept == [400]


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([AMO3, DEG3]), m=st.sampled_from([1, 2, 3, 20, 300, 2000, 5000]),
       catches=st.sampled_from([0, 1, 2, "all"]), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_the_pruned_shift_wegner_is_the_unpruned_sweep(p, m, catches, seed, data):
    # the widest pair is set between the distances of the phases' spectra
    # to E so that it catches 0, 1, 2 or all of them; the narrower pairs
    # then read the caught columns of a second draw of the stream.  Every
    # phase is caught when lam = 0, where all windows are the free one.
    n = data.draw(st.integers(1, min(300, 20_000 // m)), label="n")
    if catches == "all":
        p = pt.almost_mathieu(0.0)
    xs = np.random.default_rng(seed).random((m, 1))
    diags = sp.cocycle._site_values(p, SHIFT, xs, 1, n)
    eigs = [eigh_tridiagonal(d, -np.ones(n - 1), eigvals_only=True) for d in diags]
    target = min(m, {"all": m}.get(catches, catches))
    # no catch: an energy above every spectrum, else an eigenvalue of a drawn phase
    E = 10.0 if not target else float(
        data.draw(st.sampled_from(eigs[data.draw(st.integers(0, m - 1), label="i")].tolist()),
                  label="E"))
    dist = np.sort([np.min(np.abs(e - E)) for e in eigs])
    # h midway between the target-th and the next distance, and H >= 1
    lo = max(dist[target - 1], 1e-12) if target else 0.0
    hi = dist[target] if target < m else 1.0
    h = min((lo + hi) / 2, math.exp(-1.0))
    H = -math.log(h)
    H_params = [H, H + 0.5, H + 3.0, H + 30.0, 745.0][:data.draw(st.integers(1, 5), label="pairs")]
    got = sp.wegner_measure(p, SHIFT, E, H_params, n, m, seed)
    assert got.tolist() == unpruned_wegner(p, SHIFT, E, H_params, n, m, seed).tolist()
    # the widest pair catches the target unless the H = 1 clip or the
    # eigenvalues' rounding leaves h too close to a distance
    if h - lo > 1e-9 and hi - h > 1e-9:
        assert round(got[0] * m) == target


def test_wegner_holds_no_site_table():
    # the sweep reads the site stream block by block: one 5000 x 200 call
    # holds a stream block, the two records and the phases, well under
    # half of the 8 MB (N, x_samples) table it would otherwise build
    sp.wegner_measure(AMO3, SHIFT, 0.0, [5.0, 10.0], N=20, x_samples=50)
    table = 5000 * 200 * 8
    tracemalloc.start()
    try:
        sp.wegner_measure(AMO3, SHIFT, 0.0, [5.0, 10.0], N=200, x_samples=5000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table // 2


def counting_stream(monkeypatch):
    """Patch the site stream to record the blocks of every draw."""
    draws, stream = [], sp.cocycle._sites

    def recording(*args):
        draws.append(blocks := [])
        for block in stream(*args):
            blocks.append(block.copy())
            yield block
    monkeypatch.setattr(sp.cocycle, "_sites", recording)
    return draws


@pytest.mark.parametrize("N", [1, 300])
def test_free_doubling_counts_equal_the_per_site_sweep(N, monkeypatch):
    # lam = 0: every diagonal is a signed zero, so at E = +-0 (and E +- h
    # for h = exp(-800) = 0) every window's first pivot is an exact zero;
    # the sites are drawn under the doubling map's rng noise
    p, dyn, m, seed = pt.almost_mathieu(0.0), dy.Doubling(), 70, 3
    rng = np.random.default_rng(seed)
    xs = rng.random((m, 1))
    diags = sp.cocycle._site_values(p, dyn, xs, 1, N, rng)
    grid = np.array([-1.0, -0.0, 0.0, 0.5])
    draws = counting_stream(monkeypatch)
    table = sp.ids(p, dyn, grid, N, m, seed)
    np.testing.assert_array_equal(table.values, per_site_counts(diags, grid).mean(axis=0) / N)
    H_params = [1.0, 5.0, 800.0]
    hs = np.array([math.exp(-H) for H in H_params])
    counts = per_site_counts(diags, np.stack([0.0 - hs, 0.0 + hs], axis=1).ravel())
    want = np.mean((counts[:, 1::2] - counts[:, ::2]) > 0, axis=0)
    assert sp.wegner_measure(p, dyn, 0.0, H_params, N, m, seed).tolist() == want.tolist()
    # one draw of the stream per call, ties or not
    assert len(draws) == 2


def test_the_stream_is_drawn_once_even_at_a_tie(monkeypatch):
    # doubling at lam = 3 over 64 phases: blocks of 256 sites, each with
    # its own rng noise.  At E = the first site of phase 0 the first pivot
    # there is an exact zero, and the sweep still draws the stream once:
    # the infinities carry the tie, with no second look at the sites.
    p, dyn, m, N, seed = AMO3, dy.Doubling(), 64, 300, 8
    draws = counting_stream(monkeypatch)
    rng = np.random.default_rng(seed)
    E = float(sp.cocycle._site_values(p, dyn, rng.random((m, 1)), 1, 1, rng)[0, 0])
    for grid in ([-1.0, 0.3], [E]):
        draws.clear()
        sp.ids(p, dyn, grid, N, m, seed)
        assert len(draws) == 1 and len(draws[0]) == 2
    assert draws[0][0][0, 0] == E


# --------------------------------------------------------------- min gap

def test_min_gap_agrees_with_dense_spacings():
    H = sp.hamiltonian(AMO3, SHIFT, dy.phase(0.55), 60)
    got = sp.min_gap(AMO3, SHIFT, dy.phase(0.55), 60)
    want = float(np.min(np.diff(oracle_eigs(H))))
    assert got == pytest.approx(want, rel=1e-6)


def test_min_gap_is_infinite_without_a_pair():
    assert sp.min_gap(AMO3, SHIFT, dy.phase(0.1), 1) == math.inf
    assert sp.min_gap(AMO3, SHIFT, dy.phase(0.1), 30,
                      window=(90.0, 99.0)) == math.inf


# ------------------------------------------------------ hellmann-feynman

def test_hellmann_feynman_two_routes_agree():
    for j in (0, 25, 50):
        an, fd = sp.hellmann_feynman(AMO3, SHIFT, dy.phase(0.21), j, 60)
        assert abs(an - fd) <= 1e-6 * max(abs(an), 1.0)


def test_hellmann_feynman_steps_inside_the_neighbour_gap():
    # neighbours within 2.9e-6 and 5.6e-7 of eigenvalues 25 and 99: with
    # a fixed step h = 1e-6 the difference follows the wrong branch
    x = dy.phase(0.6327419744014022)
    for j in (25, 99):
        an, fd = sp.hellmann_feynman(AMO3, SHIFT, x, j, 100)
        assert abs(an - fd) <= 1e-4 * max(abs(an), abs(fd))


def test_hellmann_feynman_validates_inputs():
    with pytest.raises(ValueError):
        sp.hellmann_feynman(AMO3, SHIFT, dy.phase(0.2), 60, 60)
    with pytest.raises(ValueError):
        sp.hellmann_feynman(AMO3, dy.SkewShift((dy.GOLDEN_MEAN,)),
                            dy.phase(0.2, 0.3), 0, 20)


# ------------------------------------------------------ trace inequality

def test_trace_moment_bound_holds_for_random_hermitian():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal((20, 20))
        a = 0.5 * (a + a.T)
        lhs, rhs = sp.trace_moment_lower_bound(a, float(rng.uniform(-2, 2)),
                                               0.1)
        assert lhs >= rhs * (1.0 - 1e-12)


def test_trace_moment_bound_holds_in_a_rotated_basis():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((15, 15))
    a = 0.5 * (a + a.T)
    q, _ = np.linalg.qr(rng.standard_normal((15, 15)))
    lhs, rhs = sp.trace_moment_lower_bound(a, 0.3, 0.05, basis=q)
    assert lhs >= rhs * (1.0 - 1e-12)


def test_concatenation_bound_on_one_instance():
    rep = sp.concatenation_bound_check(AMO3, SHIFT, dy.phase(0.37), 0.0,
                                       0.05, 50)
    assert rep.ok_window and rep.ok_full
    assert rep.ok_trace is True        # N <= 200 runs the dense check too
    assert rep.count_window <= rep.count_full + 2
    a, b = rep.window
    assert a in (1, 2) and b in (49, 50)
    with pytest.raises(ValueError):
        sp.concatenation_bound_check(AMO3, SHIFT, dy.phase(0.1), 0.0, 0.0, 20)


@pytest.mark.parametrize("p", [AMO3, DEG3], ids=["amo", "deg3"])
@pytest.mark.parametrize("dyn, x", [(SHIFT, dy.phase(0.37)), (SKEW, dy.phase(0.37, 0.81))],
                         ids=["shift", "skew"])
def test_concatenation_windows_are_read_off_the_final_product(p, dyn, x, monkeypatch):
    # the check's one recurrence pass ends on M_[1,N] in its first column:
    # [[f_[1,N], -f_[2,N]], [f_[1,N-1], -f_[2,N-1]]], the four candidate windows
    finals, recur = [], sp.cocycle._recur

    def recording(*args):
        finals.append(recur(*args))
        return finals[-1]

    monkeypatch.setattr(sp.cocycle, "_recur", recording)
    E, eta = 0.3, 0.02
    for N in (1, 2, 3, 40, 200):
        finals.clear()
        rep = sp.concatenation_bound_check(p, dyn, x, E, eta, N)
        cur, prev, log_acc = finals[0]
        mat = np.array([[cur[0, 0], cur[1, 0]], [prev[0, 0], prev[1, 0]]])
        with np.errstate(divide="ignore"):     # f_[2,0] = 0 exactly at N = 1
            logs = log_acc[0] + np.log(np.abs(mat))
        for i in range(2):
            for j in range(2):
                # entry (i, j) is (-1)^j f_[1+j,N-i]
                ref = sp.cocycle.det_window(p, dyn, x, complex(E, eta), 1 + j, N - i).value
                if ref.log_mag == -math.inf:
                    assert N == 1 and (i, j) == (1, 1) and mat[i, j] == 0.0
                    continue
                assert abs(logs[i, j] - ref.log_mag) <= 1e-12 * N
                assert abs(mat[i, j] / abs(mat[i, j]) - (-1) ** j * ref.phase) <= 1e-9
        # (log|f_[a,N-b+1]|, a, b): ties go to the larger (a, b)
        best = max((logs[0, 0], 1, 1), (logs[0, 1], 2, 1), (logs[1, 0], 1, 2), (logs[1, 1], 2, 2))
        assert rep.window == (best[1], N - best[2] + 1)
        if rep.window[1] < rep.window[0]:     # an empty window wins at N = 1
            assert rep.count_window == 0
