"""Counting, IDS, eigenvectors, and trace inequalities on finite windows."""

import math
import tracemalloc

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
    """Sturm counts from a sweep that nudges each exact zero pivot as it goes.

    The reference for the blocked sweep of ``_sturm_counts``: the same
    pivot arithmetic, (d - E) - 1/p, and the same nudge of a zero pivot
    to +norm*2^-52, one site at a time.
    """
    pivmin = (float(np.max(np.abs(diags), initial=0.0)) + 2.0) * 2.0 ** -52
    p = np.full((diags.shape[0], energies.size), np.inf)
    counts = np.zeros(p.shape, dtype=np.int64)
    for d in diags.T:
        p = (d[:, None] - energies) - 1.0 / p
        p[p == 0.0] = pivmin
        counts += p < 0.0
    return counts


def blocked_counts(diags, energies, block, monkeypatch):
    """``_sturm_counts`` with the record cut to ``block`` sites."""
    monkeypatch.setattr(sp, "_PIVOT_ELEMENTS", block * diags.shape[0] * energies.size)
    return sp._sturm_counts(diags, energies)


# Integer pivots tie often, but with IEEE infinities an unnudged tie
# mostly counts the same as a nudged one.  It counts differently in two
# cases, so both are drawn: a diagonal -0.0 at E = +0.0 on the first site
# (the pivot -0.0, whose unnudged successor is +inf), and a diagonal
# below the nudge two sites after a tie (nudged, 1/p lifts it above 0).
TIE_DIAGONALS = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, -2.0 ** -60, 2.0 ** -60]
TIE_ENERGIES = [-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0]


def stream_blocks(table, lengths):
    """The (m, n) table as (B, m) site blocks of the given lengths, the
    last block taking the sites left over, and a replay() that counts its
    calls."""
    sites, blocks, k = table.T, [], 0
    for length in lengths:
        blocks.append(sites[k:k + length])
        k += length
    blocks.append(sites[k:])
    replays = []

    def replay():
        replays.append(1)
        return iter(blocks)
    return iter(blocks), replay, replays


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
    blocks, replay, replays = stream_blocks(diags, lengths)
    with pytest.MonkeyPatch.context() as mp:
        got = blocked_counts(diags, es, block, mp)
        mp.setattr(sp, "_PIVOT_ELEMENTS", block * m * es.size)
        streamed = sp._sturm_counts(blocks, es, replay)
    want = per_site_counts(diags, es)
    assert got.dtype == want.dtype and got.shape == (m, es.size)
    np.testing.assert_array_equal(got, want)
    assert streamed.dtype == want.dtype
    np.testing.assert_array_equal(streamed, want)
    assert len(replays) <= 1


@pytest.mark.parametrize("block", [1, 2, 3, 255])
def test_a_tie_counts_the_same_wherever_it_falls_in_a_block(block, monkeypatch):
    # At E = 0 the pivots of 1, 2, ..., 2 are all 1, so the next diagonal 1
    # gives an exact zero pivot.  Two sites on, the diagonal -2^-60 gives a
    # negative pivot unnudged and a positive one nudged, and the site after
    # it swaps the signs back.  The tie moves through every position of a
    # block, and the window ends on the changed sign or past it.
    E = np.array([0.0, 0.5])
    for lead in range(8):
        for tail in (0, 1, 4):
            diag = np.array([[1.0] + [2.0] * lead + [1.0, 0.0, -2.0 ** -60] + [2.0] * tail])
            np.testing.assert_array_equal(blocked_counts(diag, E, block, monkeypatch),
                                          per_site_counts(diag, E))
    # a signed zero on the first site: nudged, the pivot -0.0 counts the
    # eigenvalue -1 of [[-0, -1], [-1, 0]]; unnudged, its successor is +inf
    diag = np.array([[-0.0, 0.0]])
    assert blocked_counts(diag, np.array([0.0]), block, monkeypatch)[0, 0] == 1


def test_a_subnormal_pivot_overflows_quietly_to_its_limit():
    # at E = +-5e-324 the first pivot is subnormal and 1/p overflows to
    # +-inf, so the next pivot is -+inf and the one after reads d - E again
    # (the suite turns an overflow warning into an error); 0 is an
    # eigenvalue of the first window, whose others are -1 and 2
    diag = np.array([[0.0, 1.0, 0.0], [-0.0, 2.0, -1.0]])
    E = np.array([-5e-324, 5e-324])
    got = sp._sturm_counts(diag, E)
    with np.errstate(over="ignore"):
        np.testing.assert_array_equal(got, per_site_counts(diag, E))
    assert got[0].tolist() == [1, 2]


@pytest.mark.parametrize("block", [1, 2, 3, 255, None])
def test_free_counts_leave_out_an_eigenvalue_at_the_energy(block, monkeypatch):
    # lam = 0 on N = 1001 sites: eigenvalues -2 cos(pi j / 1002), so
    # E = -1, 0, 1 are eigenvalues j = 334, 501, 668, and the integer
    # pivots hit exact zeros at each of them.  (Unnudged, these ties count
    # the same through IEEE infinities; the two tests above pin the nudge.)
    if block is not None:
        monkeypatch.setattr(sp, "_PIVOT_ELEMENTS", block * 4 * 5)
    table = sp.ids(pt.almost_mathieu(0.0), SHIFT, [-2.0, -1.0, 0.0, 1.0, 2.0], 1001, 4)
    np.testing.assert_array_equal(table.values, np.array([0, 333, 500, 667, 1001]) / 1001)


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


@settings(max_examples=150, deadline=None)
@given(source=st.sampled_from(["ties", "shift", "doubling"]),
       lam=st.sampled_from([0.0, 1.0, 3.0]),
       m=st.integers(1, 40), n=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
       E=st.sampled_from(TIE_ENERGIES),
       H_params=st.lists(st.sampled_from(WEGNER_H), min_size=1, max_size=6))
def test_wegner_equals_the_unpruned_counts_bit_for_bit(source, lam, m, n, seed,
                                                       E, H_params):
    # "ties" sweeps a table drawn from TIE_DIAGONALS; the maps sweep almost
    # Mathieu, whose lam = 0 diagonals are signed zeros.  A wegner that
    # sweeps a narrower pair only over the windows a wider pair caught
    # must keep these measures (see the next test for why it cannot).
    p, dyn = pt.almost_mathieu(lam), {"doubling": dy.Doubling()}.get(source, SHIFT)
    reads = []
    with pytest.MonkeyPatch.context() as mp:
        if source == "ties":
            table = np.random.default_rng(seed).choice(TIE_DIAGONALS, size=(m, n))
            mp.setattr(sp, "_site_stream", lambda *args: reads.append(args) or [table.T])
        got = sp.wegner_measure(p, dyn, E, H_params, n, m, seed)
        want = unpruned_wegner(p, dyn, E, H_params, n, m, seed)
    assert got.tolist() == want.tolist()
    assert (source == "ties") == bool(reads)


def test_a_nudged_tie_makes_the_count_non_monotone_in_the_energy(monkeypatch):
    # d = (c, c, c - 3u) with c = 1 - u, u = 2^-53: at E - h2 = c the first
    # pivot is an exact zero, nudged to pivmin = 6u, so the third pivot
    # -3u + 6u is positive and one eigenvalue is counted; at E - h1 = c - u
    # (h1 > h2) the first pivot is u, the third -2u + u, and two are.  So
    # the pair h2 catches the window although the wider pair h1 does not,
    # and a wegner that swept h2 only over h1's windows would read 0 here.
    u = 2.0 ** -53
    c = 1.0 - u
    H1, H2 = 35.821, 36.332
    h1, h2 = math.exp(-H1), math.exp(-H2)
    assert h1 > h2 and 1.0 - h1 == c - u and 1.0 - h2 == c and 1.0 + h1 == 1.0 + 2 * u
    table = np.array([[c, c, c - 3 * u]])
    counts = sp._sturm_counts(table, np.array([1.0 - h1, 1.0 - h2, 1.0 + h2, 1.0 + h1]))
    assert counts.tolist() == [[2, 1, 2, 2]]
    reads = []
    monkeypatch.setattr(sp, "_site_stream", lambda *args: reads.append(args) or [table.T])
    assert sp.wegner_measure(AMO3, SHIFT, 1.0, [H1, H2], 3, 1).tolist() == [0.0, 1.0]
    # the sweep, then the replay for the nudge's max|d|
    assert len(reads) == 2


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
    """Patch the sampled site stream to record the blocks of every draw."""
    draws, stream = [], sp._site_stream

    def recording(*args):
        draws.append(blocks := [])
        for block in stream(*args):
            blocks.append(block.copy())
            yield block
    monkeypatch.setattr(sp, "_site_stream", recording)
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
    # N = 1 divides by no pivot; N = 300 ties, sweeps, and replays once per call
    assert len(draws) == (2 if N == 1 else 4)


def test_the_stream_is_replayed_only_at_a_tie(monkeypatch):
    # doubling at lam = 3 over 64 phases: blocks of 256 sites, each with
    # its own rng noise.  At generic energies the stream is drawn once; at
    # E = the first site of phase 0 the first pivot there is an exact
    # zero, divided by at site 2, and the replay draws the same blocks.
    p, dyn, m, N, seed = AMO3, dy.Doubling(), 64, 300, 8
    draws = counting_stream(monkeypatch)
    sp.ids(p, dyn, [-1.0, 0.3], N, m, seed)
    assert len(draws) == 1 and len(draws[0]) == 2
    draws.clear()
    rng = np.random.default_rng(seed)
    E = float(sp.cocycle._site_values(p, dyn, rng.random((m, 1)), 1, 1, rng)[0, 0])
    sp.ids(p, dyn, [E], N, m, seed)
    assert len(draws) == 2 and len(draws[0]) == len(draws[1]) == 2
    for first, again in zip(*draws):
        np.testing.assert_array_equal(first, again)


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
        ref = sp.cocycle.monodromy_from_dets(p, dyn, x, complex(E, eta), 1, N)
        for i in range(2):
            for j in range(2):
                if ref[i][j].is_zero:
                    assert N == 1 and (i, j) == (1, 1) and mat[i, j] == 0.0
                    continue
                assert abs(logs[i, j] - ref[i][j].log_mag) <= 1e-12 * N
                assert abs(mat[i, j] / abs(mat[i, j]) - ref[i][j].phase) <= 1e-9
        # (log|f_[a,N-b+1]|, a, b): ties go to the larger (a, b)
        best = max((logs[0, 0], 1, 1), (logs[0, 1], 2, 1), (logs[1, 0], 1, 2), (logs[1, 1], 2, 2))
        assert rep.window == (best[1], N - best[2] + 1)
        if rep.window[1] < rep.window[0]:     # an empty window wins at N = 1
            assert rep.count_window == 0
