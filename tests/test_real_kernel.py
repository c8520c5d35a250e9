"""The real-phase site stream and the batched recurrence kernel.

Every real-phase path (the blocked stream ``cocycle._sites``,
``_site_values`` for a batch and for a single phase, and
``hamiltonian().diag``) must read site k as
``eval_real(p, iterate(dyn, x, k)[0])`` for all three maps, on windows
from site 1 (``first="Tx"``) and from site 0, which reads x itself
(``first="x"``).  The batched kernels, which run one recurrence core
rescaled every r sites, are pinned against mpmath at 50 digits, against
the single-phase paths, and on their checkpoint, exact-zero and rng
contracts; so are the signs and phases of the single-phase determinants
and the Green entries built from them.  A pass over an array of energies
must give each energy what a pass of its own gives.
"""

import contextlib
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qplab.cocycle as cc
import qplab.dynamics as dy
import qplab.experiments as ex
import qplab.lyapunov as ly
import qplab.potential as pt
import qplab.spectrum as sp

GOLDEN = dy.GOLDEN_MEAN
SHIFT = dy.Shift((GOLDEN,))
SKEW = dy.SkewShift(GOLDEN)
DOUBLING = dy.Doubling()
MAPS = {"shift": SHIFT, "skew": SKEW, "doubling": DOUBLING}
DEG3 = pt.Potential({0: 0.4, 1: 0.3 + 0.2j, 2: -0.1j, 3: 0.25}, lam=1.0)
AMO3 = pt.almost_mathieu(3.0)
N_LONG = 100_000


def start(first):
    """First site of the n-site window: 1 reads T x, 0 reads x itself."""
    return 1 if first == "Tx" else 0


def oracle(p, dyn, x, ks):
    return np.array([pt.eval_real(p, dy.iterate(dyn, x, int(k))[0]) for k in ks])


def real_paths(p, dyn, xs, n, first):
    """Site values of every real-phase path on the n-site window, each (m, n).

    ``hamiltonian`` always starts at site 1, so it joins only there.
    """
    a = start(first)
    paths = {"stream": np.concatenate(list(cc._sites(p, dyn, xs, a, a + n - 1))).T,
             "site_values": cc._site_values(p, dyn, xs, a, a + n - 1),
             "single_phase": np.array([cc._site_values(p, dyn, x, a, a + n - 1)[0]
                                       for x in xs])}
    if a == 1:
        paths["hamiltonian"] = np.array([sp.hamiltonian(p, dyn, x, n).diag for x in xs])
    return paths


# ------------------------------------------------------------- site stream

@pytest.mark.parametrize("first", ["Tx", "x"])
@pytest.mark.parametrize("name", ["shift", "skew"])
def test_every_path_reads_the_exact_orbit(name, first):
    dyn = MAPS[name]
    rng = np.random.default_rng(3)
    xs = rng.random((3, dyn.d))
    a = start(first)
    ks = np.unique(np.concatenate([np.arange(a, a + 69),
                                   rng.integers(a, a + N_LONG - 1, 300), [a + N_LONG - 1]]))
    paths = real_paths(DEG3, dyn, xs, N_LONG, first)
    for i, x in enumerate(xs):
        ref = oracle(DEG3, dyn, x, ks)
        for path, vals in paths.items():
            gap = np.max(np.abs(vals[i, ks - a] - ref))
            assert gap <= 1e-12, (path, gap)


@pytest.mark.parametrize("first", ["Tx", "x"])
def test_doubling_paths_follow_the_float_orbit_exactly(first):
    xs = np.random.default_rng(4).random((3, 1))
    ks = np.arange(start(first), start(first) + 60)
    paths = real_paths(DEG3, DOUBLING, xs, 60, first)
    for i, x in enumerate(xs):
        orbit = np.array([dy.iterate(DOUBLING, x, int(k))[0] for k in ks])
        exact = pt.eval_real_many(DEG3, orbit)
        ref = oracle(DEG3, DOUBLING, x, ks)
        for path, vals in paths.items():
            assert np.array_equal(vals[i], exact), path
            assert np.max(np.abs(vals[i] - ref)) <= 1e-12, path


def test_skew_hamiltonian_and_ids_read_the_same_diagonals():
    # ids draws its phases as below and reads them through _site_values
    xs = np.random.default_rng(5).random((2, 2))
    diags = cc._site_values(DEG3, SKEW, xs, 1, N_LONG)
    for i, x in enumerate(xs):
        H = sp.hamiltonian(DEG3, SKEW, x, N_LONG)
        assert np.max(np.abs(H.diag - diags[i])) <= 1e-12


@pytest.mark.parametrize("name", ["shift", "skew"])
def test_windows_reaching_negative_time_use_the_exact_orbit(name):
    dyn = MAPS[name]
    x = [Fraction(0.3141), Fraction(0.2718)][:dyn.d]
    om = Fraction(GOLDEN)
    ref = []
    for t in range(-300, 6):
        if name == "shift":
            theta = (x[0] + t * om) % 1
        else:
            theta = (x[0] + t * x[1] + (t * (t - 1) // 2) * om) % 1
        ref.append(pt.eval_real(DEG3, float(theta)))
    got = cc._site_values(DEG3, dyn, [float(c) for c in x], -300, 5)[0]
    assert np.max(np.abs(got - ref)) <= 1e-12


@pytest.mark.parametrize("first", ["Tx", "x"])
def test_complex_stream_reads_the_exact_orbit_on_the_circle(first):
    # at z = e(x) the complex stream is the real potential sequence, and it
    # meets the same gate: frac(k omega) must be exact, not a float product
    rng = np.random.default_rng(3)
    xs = rng.random(3)
    a = start(first)
    ks = np.unique(np.concatenate([np.arange(a, a + 69),
                                   rng.integers(a, a + N_LONG - 1, 300), [a + N_LONG - 1]]))
    bound, blocks = cc._laurent_sites(DEG3, GOLDEN, np.exp(2j * np.pi * xs), a,
                                      a + N_LONG - 1)
    # each block is a reused buffer, so it is copied before the next is drawn
    vals = np.concatenate([blk.copy() for blk in blocks])
    assert vals.shape == (N_LONG, 3) and bound >= np.max(np.abs(vals))
    for i, x in enumerate(xs):
        ref = oracle(DEG3, SHIFT, [x], ks)
        assert np.max(np.abs(vals[ks - a, i].real - ref)) <= 1e-12
        assert np.max(np.abs(vals[ks - a, i].imag)) <= 1e-12


@pytest.mark.parametrize("n", [1, 64, 2000])
def test_complex_grid_on_the_circle_is_det_window(n):
    p = pt.Potential(dict(DEG3.coeffs), lam=2.0)
    xs = np.random.default_rng(8).random(6)
    phases, logs = cc.complex_det_grid(p, GOLDEN, np.exp(2j * np.pi * xs), 0.7, n)
    for x, ph, lg in zip(xs, phases, logs):
        f = cc.det_window(p, SHIFT, [x], 0.7, 1, n).value
        assert abs(lg - f.log_mag) <= 1e-12 * max(1, n)
        assert np.sign(ph.real) == f.phase.real and abs(ph.imag) <= 1e-9


def test_stream_blocks_are_capped_and_checked():
    xs = np.random.default_rng(6).random((700, 1))
    blocks = list(cc._sites(AMO3, SHIFT, xs, 1, 500))
    assert all(b.shape[1] == 700 and b.size <= cc._BLOCK_ELEMENTS for b in blocks)
    assert sum(b.shape[0] for b in blocks) == 500
    with pytest.raises(ValueError):
        list(cc._sites(AMO3, DOUBLING, xs, -1, 2))


def per_block_shift_sites(p, omega, xs, k0, k1):
    """The shift stream's blocks with each block's coefficient table built alone.

    The reference for the run-fed stream of ``_sites``: the same block
    cut, and per block the columns [lam v_0, Re c, -Im c] of
    c = (2 lam v_j) e(j frac(k omega)) for the positive harmonics j, from
    the cosine and sine of 2 pi j frac(k omega), times the rows
    [1, Re e(j x_i), Im e(j x_i)] in one matrix product.
    """
    m = xs.shape[0]
    size = max(1, cc._BLOCK_ELEMENTS // m)
    pos = (p._ks > 0) & (p._vs != 0)
    ks, vs = p._ks[pos], 2.0 * p.lam * p._vs[pos]
    u = np.exp(2j * math.pi * ks[:, None] * xs[None, :, 0])
    rows = np.concatenate([np.ones((1, m)), u.real, u.imag])
    for start in range(k0, k1 + 1, size):
        frac = dy._fracmuls(range(start, min(start + size, k1 + 1)), omega)
        angles = [2.0 * math.pi * k * frac for k in ks]
        re = [v.real * np.cos(a) - v.imag * np.sin(a) for a, v in zip(angles, vs)]
        im = [-v.real * np.sin(a) - v.imag * np.cos(a) for a, v in zip(angles, vs)]
        table = np.column_stack([np.full(frac.size, p.lam * p.coeff(0).real)] + re + im)
        # a matrix-vector product by numpy's own loop, not BLAS
        yield table @ rows if min(frac.size, m) > 1 else np.einsum("ij,jk->ik", table, rows)


@st.composite
def trig_potentials(draw):
    """Potentials of degree <= 4: V = 0, constant-only, or real, imaginary or complex."""
    kind = draw(st.sampled_from(["zero", "constant", "real", "imaginary", "complex"]))
    lam = draw(st.sampled_from([-2.5, 0.0, 0.3, 3.0, 7.25]))
    coeff = st.floats(-1.0, 1.0) | st.just(0.0)
    coeffs = {} if kind == "zero" else {0: draw(coeff)}
    if kind not in ("zero", "constant"):
        for j in range(1, draw(st.integers(1, 4)) + 1):
            re = 0.0 if kind == "imaginary" else draw(coeff)
            im = 0.0 if kind == "real" else draw(coeff)
            coeffs[j] = complex(re, im)
    return pt.Potential(coeffs, lam=lam)


@settings(max_examples=60, deadline=None)
@given(p=trig_potentials(), m=st.sampled_from([1, 2, 3, 20, 300, 2000, 5000]),
       elements=st.sampled_from([cc._BLOCK_ELEMENTS, 64]), data=st.data())
def test_shift_stream_is_one_product_per_block(p, m, elements, data):
    # _BLOCK_ELEMENTS = 64 cuts the coefficient table into runs of at most
    # 16 sites (or one block), so wide batches cross a run boundary on a short
    # window too
    size = max(1, elements // m)
    run = size * max(1, elements // 4 // size)
    k0 = data.draw(st.integers(-3 * run, 3 * run), label="k0")
    n = data.draw(st.integers(1, min(2 * run + 3, (1 << 18) // m)), label="n")
    xs = np.random.default_rng(m + n).random((m, 1))
    with mock.patch.object(cc, "_BLOCK_ELEMENTS", elements):
        # held until the end: each block must be an array of its own
        got = list(cc._sites(p, SHIFT, xs, k0, k0 + n - 1))
        ref = list(per_block_shift_sites(p, GOLDEN, xs, k0, k0 + n - 1))
    assert [b.shape for b in got] == [b.shape for b in ref]
    assert not any(np.shares_memory(a, b) for a, b in zip(got, got[1:]))
    assert np.concatenate(got).tobytes() == np.concatenate(ref).tobytes()


# one process per BLAS thread count: the sha256 of the shift stream's sites
# for almost Mathieu, DEG3 and a degree-40 potential, whose 81-column
# products are large enough for OpenBLAS to split over threads; one phase,
# one-site blocks (m > 8192) and one-site last blocks included
SITES_DIGEST = """
import hashlib, numpy as np, qplab.cocycle as cc, qplab.dynamics as dy, qplab.potential as pt
shift = dy.Shift((dy.GOLDEN_MEAN,))
deg3 = pt.Potential({0: 0.4, 1: 0.3 + 0.2j, 2: -0.1j, 3: 0.25}, lam=1.0)
wide = pt.Potential({j: 1.0 / (1 + j) for j in range(41)}, lam=2.0)
for p in (pt.almost_mathieu(3.0), deg3, wide):
    for m, n in ((1, 40_000), (20, 4909), (2000, 59), (9001, 2)):
        xs = np.random.default_rng(m).random((m, 1))
        print(hashlib.sha256(cc._site_values(p, shift, xs, -5, n).tobytes()).hexdigest())
"""


def test_site_values_keep_their_bits_at_one_and_two_blas_threads():
    src = str(Path(cc.__file__).parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", SITES_DIGEST], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(run.stdout.split())
    assert len(digests[0]) == 12 and digests[0] == digests[1]


@pytest.mark.parametrize("lam", [0.5, 3.0, -7.0])
def test_real_stream_is_the_complex_stream_on_the_circle(lam):
    rng = np.random.default_rng(9)
    xs = rng.random((5, 1))
    for coeffs in (dict(DEG3.coeffs), {1: 0.5, 4: 0.7 - 0.2j}):
        p = pt.Potential(coeffs, lam=lam)
        real = np.concatenate(list(cc._sites(p, SHIFT, xs, -300, 20_000)))
        _, blocks = cc._laurent_sites(p, GOLDEN, np.exp(2j * np.pi * xs[:, 0]), -300, 20_000)
        vals = np.concatenate([blk.copy() for blk in blocks])
        assert np.max(np.abs(real - vals.real)) <= 1e-13


# --------------------------------------------------------- mpmath oracle

def exact_phase(dyn, x, t):
    """The first coordinate of T^t x as an exact rational."""
    x = [Fraction(float(c)) for c in x]
    if isinstance(dyn, dy.Shift):
        return (x[0] + t * Fraction(dyn.omega)) % 1
    if isinstance(dyn, dy.SkewShift):
        return (x[0] + t * x[1] + (t * (t - 1) // 2) * Fraction(dyn.omega)) % 1
    return (2 ** t * x[0]) % 1


def mp_logs(p, dyn, x, E, checkpoints, start=1):
    """{k: (log||M_[start,k]||, log|f_[start,k]|, f_[start,k])} at 50 digits.

    Sites run along the exact orbit; f_[start,k] is an mpmath complex.
    """
    out = {}
    with mp.workdps(50):
        E = mp.mpc(E)
        a, b, c, d = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)
        for k in range(start, max(checkpoints) + 1):
            th = exact_phase(dyn, x, k)
            th = mp.mpf(th.numerator) / th.denominator
            v = p.lam * mp.fsum(mp.mpc(vj) * mp.expjpi(2 * j * th) for j, vj in p.coeffs)
            t = v.real - E
            a, b, c, d = t * a - c, t * b - d, a, b
            if k in checkpoints:
                fro2 = sum(abs(e) ** 2 for e in (a, b, c, d))
                det = abs(a * d - b * c)
                top = mp.sqrt((fro2 + mp.sqrt(fro2 ** 2 - 4 * det ** 2)) / 2)
                out[k] = (float(mp.log(top)), float(mp.log(abs(a))), a)
    return out


def mp_phase(f):
    with mp.workdps(50):
        return complex(f / abs(f))


SITE_POTENTIALS = {"amo3": AMO3, "deg3": DEG3,
                   "complex": pt.Potential({2: 0.6 - 0.8j, 5: -0.3j}, lam=-2.5),
                   "zero": pt.Potential({}, lam=3.0)}


@pytest.mark.parametrize("m", [1, 2, 3, 20, 2000, 5000])
@pytest.mark.parametrize("name", list(SITE_POTENTIALS))
def test_shift_stream_sites_match_mpmath(name, m):
    # a window from t = -2 across the first run of the coefficient table
    # (at most 2^12 sites, or one longer block): the sites at the block and
    # run edges and at random times, for a few phases, against 50 digits
    p = SITE_POTENTIALS[name]
    size = max(1, cc._BLOCK_ELEMENTS // m)
    run = size * max(1, cc._BLOCK_ELEMENTS // 4 // size)
    k0, k1 = -2, run + 2 * size
    rng = np.random.default_rng(m)
    xs = rng.random((m, 1))
    ts = {k0, k1, k0 + size - 1, k0 + size, k0 + run - 1, k0 + run, k0 + run + 1}
    ts = np.array(sorted(ts | set(rng.integers(k0, k1 + 1, 12).tolist())))
    cols = np.unique([0, m - 1, *rng.integers(0, m, 3)])
    got, t = [], k0
    for block in cc._sites(p, SHIFT, xs, k0, k1):
        inside = ts[(ts >= t) & (ts < t + len(block))]
        got.extend(block[inside - t][:, cols])
        t += len(block)
    assert t == k1 + 1 and len(got) == len(ts)
    with mp.workdps(50):
        for row, k in zip(got, ts):
            for v, x in zip(row, xs[cols]):
                th = exact_phase(SHIFT, x, int(k))
                th = mp.mpf(th.numerator) / th.denominator
                exact = p.lam * mp.fsum(mp.mpc(vj) * mp.expjpi(2 * j * th) for j, vj in p.coeffs)
                assert abs(v - exact.real) <= 1e-12, (k, x)


@pytest.mark.parametrize("name", ["shift", "skew", "doubling"])
def test_kernels_match_mpmath(name):
    dyn = MAPS[name]
    p = pt.Potential(dict(DEG3.coeffs), lam=2.0)
    xs = np.random.default_rng(7).random((3, dyn.d))
    checks = (1, 2, 17, 100, 200)
    norms = cc.batched_log_norms(p, dyn, xs, 0.7, 200, checkpoints=checks)
    dets = cc.batched_log_absdet(p, dyn, xs, 0.7 + 0.05j, 200, checkpoints=checks)
    assert sorted(norms) == sorted(dets) == list(checks)
    for i, x in enumerate(xs):
        ref_norm = mp_logs(p, dyn, x, 0.7, range(1, 201))
        ref_det = mp_logs(p, dyn, x, 0.7 + 0.05j, range(1, 201))
        for k in checks:
            assert norms[k][i] == pytest.approx(ref_norm[k][0], abs=1e-10)
            assert dets[k][i] == pytest.approx(ref_det[k][1], abs=1e-10)
        # signs (real E) and phases (complex E) of f_[1,k] at every k, from
        # column 0 of the determinant profile
        vs = cc._site_values(p, dyn, x, 1, 200)[0]
        for E, ref in ((0.7, ref_norm), (0.7 + 0.05j, ref_det)):
            phases, logs = cc._det_profile(vs, E)
            for k in range(1, 201):
                assert logs[k, 0] == pytest.approx(ref[k][1], abs=1e-10), k
                assert abs(phases[k, 0] - mp_phase(ref[k][2])) <= 1e-9, k


def test_green_row_matches_its_entries_and_the_mpmath_cramer_ratio():
    p = pt.Potential(dict(DEG3.coeffs), lam=2.0)
    N, E = 200, 0.7 + 0.05j
    x = np.random.default_rng(11).random(1)
    # v_k - E at 50 digits; left[k] = f_[1,k] and right[k] = f_[k+1,N], k = 0..N
    with mp.workdps(50):
        ts = [p.lam * mp.fsum(mp.mpc(vj) * mp.expjpi(2 * j * mp.mpf(th.numerator) / th.denominator)
                              for j, vj in p.coeffs).real - mp.mpc(E)
              for th in (exact_phase(SHIFT, x, k) for k in range(1, N + 1))]
        left, right = [mp.mpf(0), mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]
        for t in ts:
            left.append(t * left[-1] - left[-2])
        for t in reversed(ts):
            right.append(t * right[-1] - right[-2])
        left, right = left[1:], right[:0:-1]
    for j in (1, 5, 60, 90, 150, N):
        phases, logs = cc.green_row(p, SHIFT, x, E, j, N)
        assert phases.shape == logs.shape == (N - j + 1,)
        for k in range(j, N + 1):
            with mp.workdps(50):
                ref = left[j - 1] * right[k] / left[N]
                log_ref = float(mp.log(abs(ref)))
            assert logs[k - j] == pytest.approx(log_ref, abs=1e-10), (j, k)
            assert abs(phases[k - j] - mp_phase(ref)) <= 1e-9, (j, k)
    with pytest.raises(ValueError):
        cc.green_row(p, SHIFT, x, E, 0, N)


def test_large_coupling_rescales_often_and_stays_exact():
    p = pt.Potential(dict(DEG3.coeffs), lam=1e4)
    every = int(600.0 / math.log(p.sup_bound() + 0.3 + 2.0))
    n = 600
    assert n // every >= 9            # entries reach e^5000 without rescaling
    xs = np.random.default_rng(8).random((2, 1))
    checks = (1, every, every + 1, 333, n)
    norms = cc.batched_log_norms(p, SHIFT, xs, 0.3, n, checkpoints=checks)
    dets = cc.batched_log_absdet(p, SHIFT, xs, 0.3, n, checkpoints=checks)
    for i, x in enumerate(xs):
        ref = mp_logs(p, SHIFT, x, 0.3, checks)
        for k in checks:
            assert norms[k][i] == pytest.approx(ref[k][0], abs=1e-10)
            assert dets[k][i] == pytest.approx(ref[k][1], abs=1e-10)


@pytest.mark.parametrize("name", ["shift", "skew"])
@pytest.mark.parametrize("E", [0.7, 0.7 + 0.05j])
def test_long_single_phase_windows_match_mpmath(name, E):
    # one phase over 5000 sites: the run is folded into column segments;
    # the measured gap is below 1e-11 (skew, real E), the same as site by site
    dyn = MAPS[name]
    x = np.random.default_rng(12).random(dyn.d)
    n = 5000
    ref = mp_logs(AMO3, dyn, x, E, (n,))[n]
    prod = cc.transfer_product_window(AMO3, dyn, x, E, 1, n)
    f = cc.det_window(AMO3, dyn, x, E, 1, n).value
    assert prod.log_norm == pytest.approx(ref[0], abs=1e-10)
    assert f.log_mag == pytest.approx(ref[1], abs=1e-10)
    assert abs(f.phase - mp_phase(ref[2])) <= 1e-9


@pytest.mark.parametrize("name", ["shift", "skew"])
def test_folded_batched_kernels_match_mpmath_at_split_checkpoints(name):
    # m = 20 phases fold 24 segments wide; blocks hold 819 sites and spans
    # two of them, so the checkpoints fall inside a span (1, 20, 100, 333),
    # on the block edge inside it (819, 820), on the span edge (1638, 1639)
    # and in a last span too short to fold (1700)
    dyn = MAPS[name]
    xs = np.random.default_rng(13).random((20, dyn.d))
    n, checks = 1700, (1, 20, 100, 333, 819, 820, 1638, 1639, 1700)
    norms = cc.batched_log_norms(AMO3, dyn, xs, 0.7, n, checkpoints=checks)
    dets = cc.batched_log_absdet(AMO3, dyn, xs, 0.7 + 0.05j, n, checkpoints=checks)
    for i in (0, 19):
        ref_norm = mp_logs(AMO3, dyn, xs[i], 0.7, checks)
        ref_det = mp_logs(AMO3, dyn, xs[i], 0.7 + 0.05j, checks)
        for k in checks:
            assert norms[k][i] == pytest.approx(ref_norm[k][0], abs=1e-10), k
            assert dets[k][i] == pytest.approx(ref_det[k][1], abs=1e-10), k


def mp_cramer(vs, E):
    """(log|f|, f/|f|) of both columns of ``_det_profile(vs, E)`` at 50 digits."""
    with mp.workdps(50):
        ts = [mp.mpf(float(v)) - mp.mpc(E) for v in vs]
        cols = []
        for seq in (ts, ts[::-1]):
            f = [mp.mpf(0), mp.mpf(1)]
            for t in seq:
                f.append(t * f[-1] - f[-2])
            cols.append(f[1:])
        logs = np.array([[float(mp.log(abs(f))) for f in col] for col in cols]).T
        phases = np.array([[complex(f / abs(f)) for f in col] for col in cols]).T
    return logs, phases


@pytest.mark.parametrize("at", ["complex", "eigenvalue"])
def test_det_profile_matches_the_mpmath_cramer_determinants(at):
    # two columns of 1000 sites fold into segments, and every site is a stop
    N = 1000
    vs = cc._site_values(AMO3, SHIFT, np.random.default_rng(21).random(1), 1, N)[0]
    if at == "complex":
        E = 0.7 + 1e-3j
    else:
        E = float(sp.eigenvalues(sp.TridiagonalHamiltonian(vs))[N // 2])
    ref_logs, ref_phases = mp_cramer(vs, E)
    phases, logs = cc._det_profile(vs, E)
    keep = np.ones((N + 1, 2), bool)
    if at == "eigenvalue":
        # past the eigenvector's peak a column is the decaying solution,
        # which the rounding of E swamps at any precision; the eigenvector
        # formula reads each column only up to the peak, site c + 1
        c = int(np.argmax(ref_logs[:-1, 0] + ref_logs[-2::-1, 1]))
        rows = np.arange(N + 1)
        keep = np.stack([rows <= c, rows <= N - 1 - c], axis=1)
    assert np.max(np.abs(logs - ref_logs)[keep]) <= 1e-10
    assert np.max(np.abs(phases - ref_phases)[keep]) <= 1e-9


def test_concatenation_norms_match_mpmath(monkeypatch):
    # the eigenvalue-count bound's two-column pass reads ||M_[1,k]|| and
    # ||M_[k+1,N]|| at every k, folded over 400 sites
    N, E, eta = 400, 0.3, 0.05
    x = dy.phase(0.37)
    reads, recur = [], cc._recur

    def recording(*args):
        *head, visit = args
        return recur(*head, lambda ks, logs: (reads.append((ks.copy(), logs.copy())),
                                              visit(ks, logs)))

    monkeypatch.setattr(sp.cocycle, "_recur", recording)
    rep = sp.concatenation_bound_check(AMO3, SHIFT, x, E, eta, N)
    ks = np.concatenate([r[0] for r in reads])
    logs = np.concatenate([r[1] for r in reads])
    assert ks.tolist() == list(range(1, N + 1))

    def log_norm(a, b, c, d):
        fro2 = sum(abs(e) ** 2 for e in (a, b, c, d))
        det = abs(a * d - b * c)
        return mp.log(mp.sqrt((fro2 + mp.sqrt(fro2 ** 2 - 4 * det ** 2)) / 2))

    with mp.workdps(50):
        ts = [mp.mpf(float(v)) - mp.mpc(E, eta) for v in cc._site_values(AMO3, SHIFT, x, 1, N)[0]]
        # prefix[k - 1] = log||A_k ... A_1||; suffix[k - 1] = log||A_N ... A_{N-k+1}||
        prefix, suffix = [], []
        a, b, c, d = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)
        for t in ts:
            a, b, c, d = t * a - c, t * b - d, a, b
            prefix.append(log_norm(a, b, c, d))
        a, b, c, d = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)
        for t in reversed(ts):
            a, b, c, d = a * t + b, -a, c * t + d, -c
            suffix.append(log_norm(a, b, c, d))
        # W_k = ||M_[1,k]|| ||M_[k+1,N]|| / ||M_[1,N]||, with ||M_[N+1,N]|| = 1
        bound = 4 * eta * mp.fsum(mp.exp(prefix[k - 1] + (suffix[N - k - 1] if k < N else 0)
                                         - prefix[N - 1]) for k in range(1, N + 1))
    assert np.max(np.abs(logs[:, 0] - np.array(prefix, float))) <= 1e-10
    assert np.max(np.abs(logs[:, 1] - np.array(suffix, float))) <= 1e-10
    assert rep.bound == pytest.approx(float(bound), rel=1e-10)


# ------------------------------------------------- single-phase references

def sup_rates(p, dyn, xs, E, n, rng=None):
    """max over k <= n of (1/k) log||M_k|| per phase, every site a checkpoint."""
    logs = cc.batched_log_norms(p, dyn, xs, E, n, range(1, n + 1), rng=rng)
    return np.max([v / k for k, v in logs.items()], axis=0)


def sup_loop(p, dyn, x, E, n):
    """sup_k (1/k) log||M_k||: dense 2x2 products, divided by their norm at every site."""
    prod, log_scale, best = np.eye(2), 0.0, -math.inf
    for k, v in enumerate(cc._site_values(p, dyn, x, 1, n)[0], start=1):
        prod = np.array([[v - E, -1.0], [1.0, 0.0]]) @ prod
        norm = np.linalg.norm(prod, 2)
        prod /= norm
        log_scale += math.log(norm)
        best = max(best, log_scale / k)
    return best


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["shift", "skew", "doubling"]),
       seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=3),
       E=st.floats(-4.0, 4.0), lam=st.floats(0.1, 8.0), n=st.integers(1, 200))
def test_batched_kernels_match_single_phase_paths(name, seeds, E, lam, n):
    dyn = MAPS[name]
    p = pt.Potential(dict(DEG3.coeffs), lam=lam)
    xs = np.array([np.random.default_rng(s).random(dyn.d) for s in seeds])
    norms = cc.batched_log_norms(p, dyn, xs, E, n)[n]
    dets = cc.batched_log_absdet(p, dyn, xs, E, n)[n]
    sups = sup_rates(p, dyn, xs, E, n)
    for i, x in enumerate(xs):
        prod = cc.transfer_product_window(p, dyn, x, E, 1, n)
        f = cc.det_window(p, dyn, x, E, 1, n).value
        assert abs(norms[i] - prod.log_norm) <= 1e-9
        assert abs(dets[i] - f.log_mag) <= 1e-9
        assert abs(sups[i] - sup_loop(p, dyn, x, E, n)) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(["shift", "skew", "free", "doubling"]),
       seed=st.integers(0, 2 ** 32 - 1), E=st.floats(-4.0, 4.0), lam=st.floats(0.1, 8.0),
       n=st.integers(1, 3) | st.integers(64, 3000), cuts=st.lists(st.integers(1, 3000), max_size=4))
def test_folded_runs_match_the_site_by_site_pass(case, seed, E, lam, n, cuts):
    # copies of one phase past half of _SEGMENT_COLUMNS are too wide to
    # fold, so every site is one step; one phase folds each span of
    # _MIN_FOLD or more sites.
    # "free" is V = 0 at E = 0, whose determinants vanish exactly at odd k
    p = pt.Potential(dict(DEG3.coeffs), lam=lam)
    dyn = SHIFT if case == "free" else MAPS[case]
    if case == "free":
        p, E = pt.from_triples([], 1.0), 0.0
    x = np.random.default_rng(seed).random(dyn.d)
    checks = sorted({n} | {c for c in cuts if c <= n})

    def kernels(xs, rng_seed=None):
        rngs = [None if rng_seed is None else np.random.default_rng(rng_seed) for _ in range(2)]
        norms = cc.batched_log_norms(p, dyn, xs, E, n, checks, rng=rngs[0])
        dets = cc.batched_log_absdet(p, dyn, xs, E, n, checks, rng=rngs[1])
        states = [r.bit_generator.state for r in rngs if r is not None]
        return [norms[k] for k in checks], [dets[k] for k in checks], states

    def close(a, b):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    if case == "doubling":
        # the rng adds a draw per phase and step, so copies of a phase part
        # ways: the unfolded pass is the same call with folding switched off,
        # and it must leave each rng where the folded one does
        folded = kernels(x[None], seed)
        with mock.patch.object(cc, "_SEGMENT_COLUMNS", 1):
            stepped = kernels(x[None], seed)
        close(folded[0], stepped[0])
        close(folded[1], stepped[1])
        assert folded[2] == stepped[2]
        return
    wide_norms, wide_dets, _ = kernels(np.repeat(x[None], cc._SEGMENT_COLUMNS // 2 + 1, axis=0))
    norms, dets, _ = kernels(x[None])
    for wide, one in ((wide_norms, norms), (wide_dets, dets)):
        for w, o in zip(wide, one):
            assert np.all(w == w[0])
            close(o, w[:1])
    prod = cc.transfer_product_window(p, dyn, x, E, 1, n)
    f = cc.det_window(p, dyn, x, E, 1, n).value
    close(prod.log_norm, wide_norms[-1][0])
    close(f.log_mag, wide_dets[-1][0])
    if case == "free":
        assert (f.log_mag == -math.inf) == (n % 2 == 1)


@pytest.mark.parametrize("m", [1, 20])
def test_folded_sup_rate_matches_the_dense_loop(m):
    # a stop at every site; one span of 3000 sites at m = 1, spans of two
    # 819-site blocks at m = 20 (a one-site last span at n = 1639), and
    # runs too short to fold at n < 64
    xs = np.random.default_rng(14).random((m, 1))
    for n in (1, 63, 64, 820, 1639, 3000):
        sups = sup_rates(AMO3, SHIFT, xs, 0.7, n)
        for i in sorted({0, m - 1}):
            assert abs(sups[i] - sup_loop(AMO3, SHIFT, xs[i], 0.7, n)) <= 1e-9, n


@pytest.mark.parametrize("name", ["shift", "skew", "doubling"])
def test_sup_growth_rate_is_the_max_of_single_phase_rates_on_its_grid(name):
    # 256 phases fold, but ell = 8 sites are too few, so every stop is
    # read site by site; the doubling rng adds 2^-52-scale bits the
    # single-phase products lack, which move 8 sites by far less than the
    # tolerance
    dyn, ell, E = MAPS[name], 8, 0.7
    xs = ly.sample_phases(dyn, "grid", ly.S_GRID_SIZE)
    assert len(xs) == 256
    ref = max(cc.transfer_product_window(AMO3, dyn, x, E, 1, k).log_norm / k
              for x in xs for k in range(1, ell + 1))
    assert abs(ly.sup_growth_rate(AMO3, dyn, E, ell) - ref) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(["shift", "skew", "free", "doubling"]),
       seed=st.integers(0, 2 ** 32 - 1), E=st.floats(-4.0, 4.0), lam=st.floats(0.1, 8.0),
       n=st.integers(1, 3) | st.integers(64, 2000), every=st.booleans(),
       picks=st.lists(st.integers(1, 2000), max_size=30))
def test_folded_stop_reads_match_the_site_by_site_pass(case, seed, E, lam, n, every, picks):
    # one phase folds with stops read from the segment record; with
    # _SEGMENT_COLUMNS = 1 the same calls step and rescale site by site.
    # "free" is V = 0 at E = 0, whose determinants vanish exactly at odd k
    p = pt.Potential(dict(DEG3.coeffs), lam=lam)
    dyn = SHIFT if case == "free" else MAPS[case]
    if case == "free":
        p, E = pt.from_triples([], 1.0), 0.0
    x = np.random.default_rng(seed).random(dyn.d)
    checks = list(range(1, n + 1)) if every else sorted({n} | {c for c in picks if c <= n})

    def reads():
        rngs = [np.random.default_rng(seed) if case == "doubling" else None for _ in range(2)]
        norms = cc.batched_log_norms(p, dyn, x[None], E, n, checks, rng=rngs[0])
        dets = cc.batched_log_absdet(p, dyn, x[None], E, n, checks, rng=rngs[1])
        out = [np.array([norms[k][0] for k in checks]), np.array([dets[k][0] for k in checks])]
        if case != "doubling":
            # off the real axis unless exact zeros are the point
            E_c = E if case == "free" else complex(E, 0.05)
            out.append(cc._det_profile(cc._site_values(p, dyn, x, 1, n)[0], E_c)[1])
        return out, [r.bit_generator.state for r in rngs if r is not None]

    folded, folded_states = reads()
    with mock.patch.object(cc, "_SEGMENT_COLUMNS", 1):
        stepped, stepped_states = reads()
    assert folded_states == stepped_states
    (norms, dets, *profile), (norms_s, dets_s, *profile_s) = folded, stepped
    np.testing.assert_allclose(norms, norms_s, rtol=0, atol=1e-9)
    np.testing.assert_allclose(profile, profile_s, rtol=0, atol=1e-9)
    # log|f_k| is well conditioned unless |f_k| << ||M_k||
    assert np.array_equal(np.isneginf(dets), np.isneginf(dets_s))
    sound = dets_s >= norms_s - 14.0
    np.testing.assert_allclose(dets[sound], dets_s[sound], rtol=0, atol=1e-9)
    if case == "free":
        assert np.all(np.isneginf(dets) == (np.array(checks) % 2 == 1))


def span_edges(m, n, every):
    """Sites (1-based) that end a block, a span or a fold segment of an
    m-column pass over sites 1..n, as :func:`cocycle._recur` cuts them."""
    block = max(1, cc._BLOCK_ELEMENTS // m)
    span = max(block, 2 * cc._BLOCK_ELEMENTS // m) // block * block
    width = cc._SEGMENT_COLUMNS // m
    edges = set(range(block, n + 1, block))
    for start in range(0, n, span):
        R = min(span, n - start)
        edges.add(start + R)
        if R < cc._MIN_FOLD:
            continue
        L = min(every, max(-(-R // width), math.isqrt(3 * R)))
        g = -(-R // L)
        # segments of L sites, the first short by g L - R
        edges.update(start + s * L - (g * L - R) for s in range(1, g + 1))
    return sorted(edges)


@pytest.mark.parametrize("m", [1, 20, 128, 300])
def test_folded_spans_match_the_site_by_site_pass_at_span_block_and_segment_edges(m):
    # two full spans and part of a third; the stops sit on, just before and
    # just after each block, span and segment edge, and the same calls step
    # and rescale site by site with _SEGMENT_COLUMNS = 1
    E, Ec = 0.7, 0.7 + 0.05j
    every = int(600.0 / math.log(AMO3.sup_bound() + abs(E) + 2.0))
    block = cc._BLOCK_ELEMENTS // m
    span = max(block, 2 * cc._BLOCK_ELEMENTS // m) // block * block
    n = 2 * span + span // 2 + 1
    edges = span_edges(m, n, every)
    assert len(edges) > 6
    checks = sorted({1, n} | {e + d for e in edges for d in (-1, 0, 1) if 1 <= e + d <= n})
    xs = np.random.default_rng(31).random((m, 1))

    def reads():
        norms = cc.batched_log_norms(AMO3, SHIFT, xs, E, n, checks)
        dets = cc.batched_log_absdet(AMO3, SHIFT, xs, Ec, n, checks)
        return np.array([norms[k] for k in checks]), np.array([dets[k] for k in checks])

    folded = reads()
    with mock.patch.object(cc, "_SEGMENT_COLUMNS", 1):
        stepped = reads()
    for f, s in zip(folded, stepped):
        np.testing.assert_allclose(f, s, rtol=0, atol=1e-9)


def adversarial_rows(bound, m, n, plan):
    """n site rows of +-bound and zeros, laid along the fold segments of
    one m-column span, segment i after plan[i % len(plan)] = (kind, j).

    A segment is a run of bound ("grow"), bound / 2^j and zeros ("part"),
    zeros alone ("zeros"), j alternating pairs bound, 0 (a shear out:
    "alt"), or such pairs followed by as many pairs -bound, 0 ("hump": out
    and back, growth then decay inside the segment; its partial products
    from the identity are exact, their entries sums of +-bound and +-1).
    One sign of bound serves the whole span: runs of +bound and -bound
    with zeros between them also fall from their peak, but by
    cancellation, which leaves both passes only rounding to read.
    """
    every = int(600.0 / math.log(abs(bound) + 2.0))
    L = min(every, max(-(-n // (cc._SEGMENT_COLUMNS // m)), math.isqrt(3 * n)))
    g = -(-n // L)
    rows = []
    for i, size in enumerate([n - (g - 1) * L] + [L] * (g - 1)):
        kind, j = plan[i % len(plan)]
        seg = np.zeros(size)
        pairs = 1 + j % max(1, size // 4)
        if kind == "grow":
            seg[:] = bound
        elif kind == "part":
            seg[0] = bound / 2.0 ** min(j, math.frexp(bound)[1] - 1)
        elif kind == "alt":
            seg[:2 * pairs:2] = bound
        elif kind == "hump" and size >= 4:
            seg[:2 * pairs:2] = bound
            seg[2 * pairs:4 * pairs:2] = -bound
        rows.append(seg)
    rows = np.concatenate(rows)
    # more columns on the same segments: the rows negated (a conjugate
    # product) and halved
    return np.stack([rows, -rows, rows / 2.0][:m], axis=1)


def recur_reads(bound, rows, solutions, stops):
    """{k: reads} of one _recur pass over the rows at E = 0."""
    got = {}

    def visit(ks, logs, *rest):
        got.update(zip(ks.tolist(), logs.copy()))

    cc._recur(bound, 0.0, [rows], rows.shape[1], solutions, stops, visit)
    return got


def folds_against_the_stepped_pass(bound, rows, stops):
    """Folded and stepped reads of log|f_k| and log||M_k|| at the stops,
    under warnings as errors: every read is finite (log|f_k| may be an
    exact zero's -inf), and the two passes agree where the product has not
    fallen from its peak."""
    n = len(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(cc, "_SEGMENT_COLUMNS", 1):
            profile = recur_reads(bound, rows, 2, range(1, n + 1))
            stepped = [recur_reads(bound, rows, sol, stops) for sol in (1, 2)]
        folded = [recur_reads(bound, rows, sol, stops) for sol in (1, 2)]
    logs = np.array([profile[k] for k in range(1, n + 1)])
    # a read is compared where no column's norm has fallen by more than a
    # factor e below its running peak: past a fall the product has
    # cancelled, and each pass keeps only its own rounding
    steady = np.minimum.accumulate(np.all(logs >= np.maximum.accumulate(logs) - 1.0, axis=1))
    for f, s in zip(folded, stepped):
        assert f.keys() == s.keys() == set(stops)
        for k in stops:
            assert not np.any(np.isnan(f[k]) | (f[k] == np.inf)), k
            if steady[k - 1]:
                np.testing.assert_allclose(f[k], s[k], rtol=1e-12, atol=1e-9, err_msg=str(k))
    assert all(np.all(np.isfinite(folded[1][k])) for k in stops)


# growth to b^5 and b / 2^128 = 2^37 carry the pair to e^598.9 past its
# rescale; the next segment's full product is a rotation, but its partial
# products reach b = e^114: a rescale rule that reads only the full
# products lets the stop at that peak overflow
@example(bound=2.0 ** 165, m=1, n=70, picks=list(range(1, 71)),
         plan=[("grow", 0), ("part", 128), ("hump", 0)] + [("zeros", 0)] * 11)
@settings(max_examples=80, deadline=None)
@given(bound=st.sampled_from([7.5, 1.1e12, 3.3e30, 5.5e49, -7.5, -3.3e30]),
       m=st.sampled_from([1, 3]), n=st.integers(cc._MIN_FOLD, 400),
       plan=st.lists(st.tuples(st.sampled_from(["grow", "part", "zeros", "alt", "hump"]),
                               st.integers(0, 200)), min_size=1, max_size=12),
       picks=st.lists(st.integers(1, 400), max_size=40))
def test_adversarial_folds_stay_in_range_and_match_the_stepped_pass(bound, m, n, plan, picks):
    rows = adversarial_rows(bound, m, n, plan)
    folds_against_the_stepped_pass(abs(bound), rows, sorted({k for k in picks if k <= n} | {n}))


def test_folded_eigenvectors_pass_the_collinearity_gate():
    # at N = 200 the eigenvector's determinant profile folds; its Cramer
    # vector must stay within eigenvector's 1e-6 gate of the LAPACK vector
    x, N = dy.phase(0.2), 200
    H = sp.hamiltonian(AMO3, SHIFT, x, N)
    evs = sp.eigenvalues(H)
    for j in range(0, N, 10):
        analytic, fd = sp.hellmann_feynman(AMO3, SHIFT, x, j, N)
        assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-8), j
        assert sp.eigenvector(H, float(evs[j])).collinearity <= 1e-6, j


# ----------------------------------------------------------- energy groups

def group_case(case):
    """(potential, dynamics, energies) for the energy-group tests.

    The largest |E| comes last, so a rescale cadence taken from the first
    energy overflows at it; "free" is V = 0 at E = 0, whose determinants
    vanish exactly at odd k.
    """
    if case == "free":
        return pt.from_triples([], 1.0), SHIFT, np.array([0.0, 0.5, -3.0, 40.0])
    return pt.Potential(dict(DEG3.coeffs), lam=4.0), MAPS[case], np.array([0.0, -1.3, 0.6, 40.0])


def twin_rng(case):
    return np.random.default_rng(7) if case == "doubling" else None


@pytest.mark.parametrize("case", ["shift", "skew", "doubling", "free"])
@pytest.mark.parametrize("m", [20, 300])
def test_energy_groups_match_one_pass_per_energy(case, m):
    # 4 energies x 20 phases fold (80 columns); 4 x 300 columns are too wide
    # to fold, so at m = 300 the one-energy passes (300 columns, which would
    # fold) step site by site too, with folding switched off
    p, dyn, es = group_case(case)
    xs = np.random.default_rng(2).random((m, dyn.d))
    n, checks = 2000, [1, 2, 3, 63, 64, 65, 500, 1001, 2000]
    stepped = mock.patch.object(cc, "_SEGMENT_COLUMNS", 1) if m == 300 else contextlib.nullcontext()
    with stepped:
        for kernel in (cc.batched_log_norms, cc.batched_log_absdet):
            rng = twin_rng(case)
            grouped = kernel(p, dyn, xs, es, n, checks, rng=rng)
            for i, E in enumerate(es):
                twin = twin_rng(case)
                one = kernel(p, dyn, xs, E, n, checks, rng=twin)
                if rng is not None:
                    assert rng.bit_generator.state == twin.bit_generator.state
                for k in checks:
                    assert grouped[k].shape == (es.size, m)
                    np.testing.assert_allclose(grouped[k][i], one[k], rtol=1e-12, atol=1e-12)
    if case == "free":
        dets = cc.batched_log_absdet(p, dyn, xs, es, n, checks)
        for k in checks:
            assert np.all(np.isneginf(dets[k][0]) == (k % 2 == 1))


@pytest.mark.parametrize("m", [1, 20, 300])
@pytest.mark.parametrize("eta", [0.0, 0.05])
def test_energy_offsets_are_a_pass_over_pre_expanded_columns(m, eta):
    # each block is written as block - E_i, one scalar subtraction per
    # energy: the same columns pre-expanded and run at E = 0, with
    # bound + max|E|, give the same bits (4 m columns: they fold at m = 1
    # and 20 and step at m = 300)
    es = np.array([0.0, -1.3, 0.6, 40.0]) + (1j * eta if eta else 0.0)
    xs = cc._phase_batch(SHIFT, np.random.default_rng(4).random((m, 1)))
    n = 20_000 // m
    stops = [k for k in (1, 63, 64, 65, 819, 820, n) if k <= n]
    blocks = list(cc._sites(AMO3, SHIFT, xs, 1, n))
    expanded = [(b[:, None] - es[:, None]).reshape(len(b), -1) for b in blocks]
    bound = AMO3.sup_bound()
    for solutions in (1, 2):
        reads = ([], [])
        grouped = cc._recur(bound, es, blocks, m, solutions, stops,
                            lambda *r: reads[0].append([np.copy(a) for a in r]))
        ref = cc._recur(bound + float(np.max(np.abs(es))), 0.0, expanded, es.size * m,
                        solutions, stops, lambda *r: reads[1].append([np.copy(a) for a in r]))
        for a, b in zip(grouped, ref):
            assert np.array_equal(a, b)
        assert len(reads[0]) == len(reads[1]) > 0
        for a, b in zip(*reads):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_convergence_scan_runs_all_energies_in_one_pass():
    # an array of energies gives each energy the rows of its own scan
    es = np.array([0.0, 0.5, 1.0])
    grouped = ly.convergence_scan(AMO3, SHIFT, es, [50, 100], m_samples=200)
    for E, rows in zip(es, grouped):
        ref = ly.convergence_scan(AMO3, SHIFT, float(E), [50, 100], m_samples=200)
        assert [(r.n, r.flagged) for r in rows] == [(r.n, r.flagged) for r in ref]
        np.testing.assert_allclose([(r.mean, r.stderr, r.diff_2n) for r in rows],
                                   [(r.mean, r.stderr, r.diff_2n) for r in ref], rtol=1e-12)


@pytest.mark.parametrize("dyn, sampler, tasks", [
    (SHIFT, "grid", 1), (SKEW, "grid", 1), (SHIFT, "random", 3), (SHIFT, "orbit", 3),
    (DOUBLING, "grid", 3)])
def test_lyapunov_scan_shares_a_task_only_on_a_shared_phase_set(dyn, sampler, tasks):
    grid = {"E": [0.0, 0.5, 1.0], "n_list": [20, 40], "m_samples": 16, "sampler": sampler}
    assert len(ex.EXPERIMENTS["lyapunov_scan"].prepare(AMO3, dyn, grid)) == tasks
    _, rows = ex.run_experiment("lyapunov_scan", AMO3, dyn, grid, seed=3)
    assert [r[:2] for r in rows] == [(n, E) for E in (0.0, 0.5, 1.0) for n in (20, 40)]


@pytest.mark.parametrize("case", ["shift", "skew", "doubling", "free"])
@pytest.mark.parametrize("m", [20, 300])
def test_one_pass_thouless_logs_match_the_two_kernels(case, m):
    # thouless_check reads log|f_N| and log||M_N|| from one pass; the two
    # kernels it replaced each took a twin of its rng
    p, dyn, es = group_case(case)
    xs = np.random.default_rng(3).random((m, dyn.d))
    n = 999
    for E in es[:3]:
        rngs = [twin_rng(case) for _ in range(3)]
        logdet, lognorm = cc.batched_log_absdet_and_norm(p, dyn, xs, E, n, rng=rngs[0])
        assert np.array_equal(lognorm, cc.batched_log_norms(p, dyn, xs, E, n, rng=rngs[1])[n])
        ref = cc.batched_log_absdet(p, dyn, xs, E, n, rng=rngs[2])[n]
        np.testing.assert_allclose(logdet, ref, rtol=1e-12, atol=1e-12)
        if case == "doubling":
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
            assert rngs[0].bit_generator.state == rngs[2].bit_generator.state
        if case == "free" and E == 0.0:
            assert np.all(np.isneginf(logdet))


# ------------------------------------------------------------- contracts

def test_checkpoints_outside_the_window_are_rejected():
    xs = np.array([[0.2]])
    for bad in ((0, 5), (5, 6)):
        with pytest.raises(ValueError):
            cc.batched_log_norms(AMO3, SHIFT, xs, 0.0, 5, checkpoints=bad)
        with pytest.raises(ValueError):
            cc.batched_log_absdet(AMO3, SHIFT, xs, 0.0, 5, checkpoints=bad)


def test_empty_windows_are_rejected():
    # n = 0 used to give a sup of -inf, or a message about checkpoints
    xs = np.array([[0.2]])
    for kernel in (cc.batched_log_norms, cc.batched_log_absdet):
        with pytest.raises(ValueError, match="needs n >= 1"):
            kernel(AMO3, SHIFT, xs, 0.0, 0)
    with pytest.raises(ValueError, match="needs ell >= 1"):
        ly.sup_growth_rate(AMO3, SHIFT, 0.0, 0)


def test_exact_zeros_survive_rescaling_and_complex_energies():
    # V = 0: f_k = U_k(-E/2), zero at every odd k for E = 0; with a large
    # E the pair is rescaled every site
    free = pt.from_triples([], 1.0)
    xs = np.array([[0.3], [0.6]])
    out = cc.batched_log_absdet(free, SHIFT, xs, 0.0, 9, checkpoints=range(1, 10))
    for k in range(1, 10):
        assert np.all(out[k] == (-math.inf if k % 2 else 0.0))
    big = cc.batched_log_absdet(free, SHIFT, xs, 1e300j, 3, checkpoints=(1, 3))
    assert big[3] == pytest.approx(3 * math.log(1e300), rel=1e-15)  # |f_3| = y^3 + 2y


# ---------------------------------------------------- doubling determinism

@pytest.mark.parametrize("first", ["Tx", "x"])
def test_doubling_draws_one_uniform_per_phase_and_step(first):
    # a window from x itself draws nothing for its first site; the batched
    # kernels all run the window [1, n]
    n, xs = 40, np.random.default_rng(1).random((7, 1))
    a = start(first)
    runs = [lambda rng: cc._site_values(AMO3, DOUBLING, xs, a, a + n - 1, rng)]
    if a == 1:
        runs += [lambda rng: cc.batched_log_norms(AMO3, DOUBLING, xs, 0.3, n, rng=rng),
                 lambda rng: cc.batched_log_absdet(AMO3, DOUBLING, xs, 0.3, n, rng=rng),
                 lambda rng: cc.batched_log_norms(AMO3, DOUBLING, xs, 0.3, n, range(1, n + 1),
                                                  rng=rng)]
    for run in runs:
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        run(rng)
        for _ in range((a + n - 1) * xs.size):
            ref.random()
        assert rng.bit_generator.state == ref.bit_generator.state


def per_step_doubling(p, xs, t0, t1, size, rng):
    """The doubling stream's blocks with one rng draw per step."""
    cur, rows, blocks = xs, [], []
    for t in range(t1):
        if t > 0:
            cur = dy.mod1(2.0 * cur)
            if rng is not None:
                cur = dy.mod1(cur + rng.random(cur.shape) * 2.0 ** -52)
        if t >= t0:
            rows.append(cur[:, 0])
        if len(rows) == size or t == t1 - 1:
            blocks.append(pt.eval_real_many(p, np.array(rows)))
            rows = []
    return blocks


@pytest.mark.parametrize("m, k0, k1, first", [
    (7, 1, 5000, "Tx"), (7, 1, 5000, "x"), (5000, 1, 10, "Tx"), (5000, 3, 11, "x"),
    (30, 700, 2000, "Tx"), (1, 4, 4, "Tx"), (1, 1, 1, "x")])
def test_doubling_block_draws_match_per_step_draws(m, k0, k1, first):
    # one rng.random((B', m, d)) per block gives the per-step draws bit for
    # bit and leaves the rng where they do, pre-window steps included; "x"
    # moves the window one site earlier, so [1, k1] starts at x itself
    xs = np.random.default_rng(8).random((m, 1))
    lo, hi = k0 - 1 + start(first), k1 - 1 + start(first)
    size = max(1, cc._BLOCK_ELEMENTS // m)
    for seed in (None, 11):
        rng = None if seed is None else np.random.default_rng(seed)
        ref_rng = None if seed is None else np.random.default_rng(seed)
        got = list(cc._sites(DEG3, DOUBLING, xs, lo, hi, rng))
        ref = per_step_doubling(DEG3, xs, lo, hi + 1, size, ref_rng)
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert a.shape == b.shape and np.array_equal(a, b)
        if seed is not None:
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_doubling_rows_are_frozen():
    # values from the per-site kernels that preceded the blocked stream
    _, rows = ex.run_experiment(
        "lyapunov_scan", AMO3, DOUBLING,
        {"E": [0.0, 1.0], "n_list": [25, 50, 100], "m_samples": 100,
         "sampler": "random"}, seed=4)
    frozen = [0.4788047260546267, 0.46725405355892674, 0.4568339727825896,
              0.45533674989508705, 0.43996378272412245, 0.44179012924760286]
    assert [r[2] for r in rows] == pytest.approx(frozen, abs=1e-10)
    _, rows = ex.run_experiment("thouless_check", AMO3, DOUBLING,
                                {"E": [0.0], "N": 200, "x_samples": 50}, seed=4)
    assert rows[0][2:4] == pytest.approx((0.4566415931782316, 0.4598366523591185),
                                         abs=1e-10)
