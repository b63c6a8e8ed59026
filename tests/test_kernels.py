"""Property tests: every scan kernel against a plain per-candidate loop.

The reference (``reference.reference_matrix``) evaluates each monic
candidate with reference.eval_int and takes the character from
legendre_euler, one point at a time.  chi_blocks, the window sums at
every degree (at d >= 2 on both sides of the short/long crossover, and
the short route's translation orbits with the crossover out of reach),
and the list kernel's sums over any index list must reproduce it
exactly, and the masked extrema, which take the long route at every
d >= 2, the sums they reduce, over every row or a leading slice of rows,
at any thread count and block size; the translation map must match
g(x + a) built with poly arithmetic, and the index-set helpers the
per-polynomial tests.  The oracle's exact answers are the same gather
(``index_rows`` at f's index), checked against eval_int and
legendre_euler, also at the primes past the int64 guards, where a
refusal must come instead of a wrong residue.  At d = 1 the window sums
take int8 slice sums below SLICE_BELOW points and an overlap-save FFT
from there on; the property tests run both, the FFT by moving
SLICE_BELOW out of reach.  At primes too large for that loop, both
routes are checked against ``reference.shifted_sums`` and the Legendre
autocorrelation.
"""

import tracemalloc
from concurrent.futures import Future
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import (
    WIDE_PRIMES,
    eval_int,
    is_perfect_square,
    legendre_euler,
    reference_matrix,
    shifted_sums,
    sympy_is_squarefree,
)

from hiddenpoly import _kernels
from hiddenpoly.ffield import PrimeModulus, chi_table
from hiddenpoly.oracle import OracleSession
from hiddenpoly.poly import (
    MonicPoly,
    is_squarefree,
    mul,
    poly_from_index,
    poly_index,
)

PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
# keeps p^d * p reference evaluations small
MAX_P = {1: 31, 2: 31, 3: 11}

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def problems(draw):
    d = draw(st.integers(1, 3))
    p = draw(st.sampled_from([q for q in PRIMES if q <= MAX_P[d]]))
    x0 = draw(st.integers(0, p - 1))
    m = draw(st.integers(1, p))
    return p, d, x0, m


def window(p, x0, m):
    return (x0 + np.arange(m, dtype=np.int64)) % p


def all_sums(p, d, x0, m, weights, threads=1):
    """Every window sum in index order: correlation_survivors at bound 0."""
    idx, sums = _kernels.correlation_survivors(p, d, x0, m, weights, 0, threads)
    assert np.array_equal(idx, np.arange(p**d))
    return sums


def masked_reference(sums, mask):
    """(min, max, ascending winners) of the sums that mask selects."""
    sums = sums[: len(mask)]
    top = sums[mask].max()
    return sums[mask].min(), top, np.flatnonzero(mask & (sums == top))


def assert_extrema(got, expected):
    assert isinstance(got[0], int) and isinstance(got[1], int)
    assert got[:2] == tuple(expected[:2])
    assert got[2].dtype == np.int64 and np.array_equal(got[2], expected[2])


def d1_routes(d):
    """SLICE_BELOW as built and, at d = 1, 1, which sends every window to the FFT."""
    return (_kernels.SLICE_BELOW, 1) if d == 1 else (_kernels.SLICE_BELOW,)


@SETTINGS
@given(problems(), st.data())
def test_chi_blocks_match_reference(problem, data):
    p, d, x0, m = problem
    rows = p ** (d - 1)
    lo = data.draw(st.integers(0, rows - 1))
    hi = data.draw(st.integers(lo + 1, rows))
    xs = window(p, x0, m)
    seen = []
    for h, block in _kernels.chi_blocks(p, d, xs, lo, hi):
        assert block.dtype == np.int8 and block.shape[1:] == (m, p)
        assert h == lo + len(seen) // p
        seen.extend(block.transpose(0, 2, 1).reshape(-1, m))
    expected = reference_matrix(p, d, xs)[lo * p : hi * p]
    assert np.array_equal(np.array(seen).reshape(-1, m), expected)


@SETTINGS
@given(problems(), st.data())
def test_window_sums_match_reference(problem, data):
    p, d, x0, m = problem
    draw = st.lists(st.sampled_from([-1, 0, 1]), min_size=m, max_size=m)
    weights = np.array(data.draw(draw), dtype=np.int64)
    rows = data.draw(st.integers(1, p ** (d - 1)))
    expected = reference_matrix(p, d, window(p, x0, m)) @ weights
    for below in d1_routes(d):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "SLICE_BELOW", below)
            for threads in (1, 3):
                got = all_sums(p, d, x0, m, weights, threads=threads)
                assert got.dtype == np.int64
                assert np.array_equal(got, expected)
                # a mask of rows * p entries scans the high-digit rows h < rows
                mask = np.ones(rows * p, dtype=bool)
                part = _kernels.masked_extrema(p, d, x0, m, weights, mask, threads)
                assert_extrema(part, masked_reference(expected, mask))


@SETTINGS
@given(problems(), st.data())
def test_index_sums_match_reference(problem, data):
    # any index list (unsorted, repeated or empty) over a window that may wrap
    # past p - 1 through 0, or over any list of residues; int8 or int64
    # weights, zeros among them, summed in int64 whatever their dtype; in the
    # production blocks and in blocks of one candidate; index_rows gives the
    # int8 rows those sums reduce
    p, d, x0, m = problem
    xs = window(p, x0, m)
    if data.draw(st.booleans()):
        xs = np.array(data.draw(st.lists(st.integers(0, p - 1), max_size=p)), dtype=np.int64)
    dtype = data.draw(st.sampled_from([np.int8, np.int64]))
    values = st.sampled_from([-1, 0, 1]) | st.integers(-100, 100)
    weights = np.array(data.draw(st.lists(values, min_size=len(xs), max_size=len(xs))), dtype)
    idx = data.draw(st.lists(st.integers(0, p**d - 1), max_size=2 * p))
    ref = reference_matrix(p, d, xs)
    rows = _kernels.index_rows(p, d, idx, xs)
    assert rows.dtype == np.int8 and rows.shape == (len(idx), len(xs))
    assert np.array_equal(rows, ref[idx])
    expected = (ref @ weights.astype(np.int64))[idx]
    for cells in (_kernels.BLOCK_CELLS, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "BLOCK_CELLS", cells)
            got = _kernels.index_sums(p, d, idx, xs, weights)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)
    with pytest.raises(ValueError, match="index"):
        _kernels.index_sums(p, d, [p**d], xs, weights)
    with pytest.raises(ValueError, match="index"):
        _kernels.index_rows(p, d, [-1], xs)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_weights_outside_plus_minus_one_are_refused(d):
    p, x0, m = 7, 3, 5
    weights = np.array([1, -1, 0, 2, 1], dtype=np.int64)
    with pytest.raises(ValueError, match="weights"):
        _kernels.masked_extrema(p, d, x0, m, weights, np.ones(p**d, dtype=bool))
    with pytest.raises(ValueError, match="weights"):
        _kernels.correlation_survivors(p, d, x0, m, weights, 1)


def route_spy(monkeypatch):
    """Record the _orbit_sums calls; of the d >= 2 routes only the short one makes them."""
    calls = []
    orbit_sums = _kernels._orbit_sums

    def spy(*args, **kwargs):
        calls.append(args[:2])
        return orbit_sums(*args, **kwargs)

    monkeypatch.setattr(_kernels, "_orbit_sums", spy)
    return calls


@pytest.mark.parametrize("p, d", [(29, 2), (31, 2), (11, 3), (13, 3)])
@pytest.mark.parametrize("long", [False, True], ids=["short", "long"])
def test_both_routes_on_either_side_of_the_crossover(monkeypatch, p, d, long):
    # m is the last window below HANKEL_RATIO * m >= p or the first one at it.
    # The window wraps past p - 1 (x0 + m > p) and carries a zero weight; each
    # route runs in its production blocks and in one-cell blocks (one row per
    # block), over every row and over a leading slice of rows, on 1 and 3 threads
    m = -(-p // _kernels.HANKEL_RATIO) - (not long)
    x0 = p - m // 2
    weights = np.random.default_rng(p * d).integers(-1, 2, size=m)
    weights[m // 2] = 0
    expected = reference_matrix(p, d, window(p, x0, m)) @ weights
    rows = p ** (d - 1) // 2 + 1
    calls = route_spy(monkeypatch)
    for cells in (None, 1):
        if cells:
            monkeypatch.setattr(_kernels, "HANKEL_CELLS", cells)
            monkeypatch.setattr(_kernels, "SCAN_CELLS", cells)
        for threads in (1, 3):
            got = all_sums(p, d, x0, m, weights, threads=threads)
            assert np.array_equal(got, expected)
            mask = np.ones(rows * p, dtype=bool)
            part = _kernels.masked_extrema(p, d, x0, m, weights, mask, threads)
            assert_extrema(part, masked_reference(expected, mask))
        zero = all_sums(p, d, x0, m, np.zeros(m, dtype=np.int64))
        assert zero.dtype == np.int64 and not zero.any()
    assert bool(calls) is not long


@lru_cache(maxsize=None)
def full_reference(p, d):
    """reference_matrix over every point of F_p, read by column for any window."""
    return reference_matrix(p, d, np.arange(p))


# keeps the p^d * p reference evaluations small
ORBIT_MAX_P = {2: 31, 3: 13, 4: 7}


@st.composite
def orbit_problems(draw):
    d = draw(st.integers(2, 4))
    p = draw(st.sampled_from([q for q in PRIMES if q <= ORBIT_MAX_P[d]]))
    x0, m = draw(st.integers(0, p - 1)), draw(st.integers(1, p))
    weights = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=m, max_size=m))
    return p, d, x0, np.array(weights, dtype=np.int64), draw(st.integers(0, m + 1))


@settings(max_examples=30, deadline=None)
@example((3, 3, 2, np.array([1, 0, -1]), 1))  # p | d: the long route whatever m
@given(orbit_problems())
def test_orbit_route_matches_reference(problem):
    # the crossover moved out of reach sends every correlation_survivors window
    # to the orbit route unless p divides d; windows wrap past p - 1 for
    # x0 + m > p and weights carry zeros.  Every sum and the survivors of a
    # bound, in the production blocks on 1 and 3 threads and in blocks of one
    # orbit row on 3
    p, d, x0, weights, bound = problem
    m = len(weights)
    expected = full_reference(p, d)[:, window(p, x0, m)] @ weights
    keep = np.flatnonzero(np.abs(expected) >= bound)
    for cells, thread_counts in ((_kernels.SCAN_CELLS, (1, 3)), (1, (3,))):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "HANKEL_RATIO", 0)
            mp.setattr(_kernels, "SCAN_CELLS", cells)
            calls = route_spy(mp)
            for threads in thread_counts:
                got = all_sums(p, d, x0, m, weights, threads=threads)
                assert got.dtype == np.int64
                assert np.array_equal(got, expected)
                idx, sums = _kernels.correlation_survivors(p, d, x0, m, weights, bound, threads)
                assert idx.dtype == sums.dtype == np.int64
                assert np.array_equal(idx, keep)
                assert np.array_equal(sums, expected[keep])
        assert bool(calls) is bool(d % p)


# keeps the p^d index_sums references small; d = 3 includes p | d at p = 3
EXTREMA_MAX_P = {1: 31, 2: 31, 3: 13, 4: 7}


@st.composite
def extrema_problems(draw):
    d = draw(st.integers(1, 4))
    p = draw(st.sampled_from([q for q in PRIMES if q <= EXTREMA_MAX_P[d]]))
    x0, m = draw(st.integers(0, p - 1)), draw(st.integers(1, p))
    weights = np.array(
        draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=m, max_size=m)), dtype=np.int64)
    if draw(st.booleans()):
        weights[:] = 0  # every sum 0: every selected candidate ties for the max
    rows = draw(st.integers(1, p ** (d - 1)))
    # a random mask of some density, or a mask of one candidate
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    mask = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(rows * p) < density
    mask[draw(st.integers(0, rows * p - 1))] = True
    return p, d, x0, weights, mask


@settings(max_examples=60, deadline=None)
@example((3, 3, 1, np.array([1, -1, 0]), np.arange(27) % 5 == 0))  # p | d: the long route
@example((5, 2, 0, np.zeros(5, dtype=np.int64), np.ones(25, dtype=bool)))  # a 25-way tie
@given(extrema_problems())
def test_masked_extrema_match_reference(problem):
    # against index_sums over every index below len(mask), masked, then min,
    # max and argmax: on the d = 1 slice and FFT routes and at d >= 2 the
    # Hankel route, which the crossover moved out of reach does not change,
    # in the production blocks and in blocks of one row or run, on 1, 2 and 8
    # threads; the winners come ascending
    p, d, x0, weights, mask = problem
    m = len(weights)
    sums = _kernels.index_sums(p, d, np.arange(len(mask)), window(p, x0, m), weights)
    expected = masked_reference(sums, mask)
    assert expected[2][0] == np.flatnonzero(mask)[np.argmax(sums[mask])]
    routes = [("SLICE_BELOW", below) for below in d1_routes(d)] if d == 1 else [
        ("HANKEL_RATIO", ratio) for ratio in (_kernels.HANKEL_RATIO, 0)]
    for name, value in routes:
        for small in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_kernels, name, value)
                calls = route_spy(mp)
                if small:
                    for cells in ("SLICE_RUN", "FFT_RUN", "HANKEL_CELLS", "SCAN_CELLS"):
                        mp.setattr(_kernels, cells, 1)
                for threads in (1, 2, 8):
                    got = _kernels.masked_extrema(p, d, x0, m, weights, mask, threads)
                    assert_extrema(got, expected)
            assert calls == []


def test_long_route_refuses_windows_past_float32_exactness():
    # a window of 2^24 or more points has no exact float32 Hankel product, so
    # both reductions refuse one on the long route (masked_extrema's at every
    # d >= 2) before they read its weights or mask: both are zero-stride views,
    # which any read would copy or scan
    p, m = 16777259, 1 << 24
    weights, mask = np.broadcast_to(np.int8(1), (m,)), np.broadcast_to(True, (p,))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2\\^24"):
            _kernels.masked_extrema(p, 2, 0, m, weights, mask)
        with pytest.raises(ValueError, match="2\\^24"):
            _kernels.correlation_survivors(p, 2, 0, m, weights, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert _kernels._hankel(p, 1) is None  # d = 1 has no long-route limit


# one case per route: d = 1 slices and FFT, d >= 2 orbits and Hankel products
REDUCTION_CASES = [(101, 1, 3, 24), (257, 1, 200, 200), (31, 2, 29, 5), (31, 2, 29, 31),
                   (13, 3, 11, 3), (7, 3, 5, 7)]


@pytest.mark.parametrize("p, d, x0, m", REDUCTION_CASES)
def test_reductions_ignore_threads_and_block_size(monkeypatch, p, d, x0, m):
    # both reductions return exactly what one thread in production blocks
    # returns, on 1, 2 and 3 ranges and in one-cell blocks (one run or row)
    rng = np.random.default_rng(p * d + m)
    weights = rng.integers(-1, 2, size=m)
    mask = rng.random(p**d) < 0.5
    mask[0] = True
    bound = int(np.quantile(np.abs(all_sums(p, d, x0, m, weights)), 0.9))
    want_idx, want_sums = _kernels.correlation_survivors(p, d, x0, m, weights, bound)
    want = _kernels.masked_extrema(p, d, x0, m, weights, mask)
    monkeypatch.setattr(_kernels.os, "cpu_count", lambda: 3)
    for small in (False, True):
        if small:
            for cells in ("SLICE_RUN", "FFT_RUN", "HANKEL_CELLS", "SCAN_CELLS"):
                monkeypatch.setattr(_kernels, cells, 1)
        for threads in (1, 2, 3):
            idx, sums = _kernels.correlation_survivors(p, d, x0, m, weights, bound, threads)
            assert np.array_equal(idx, want_idx) and np.array_equal(sums, want_sums)
            assert_extrema(_kernels.masked_extrema(p, d, x0, m, weights, mask, threads), want)


def test_masked_extrema_refuse_a_mask_off_whole_rows_or_empty():
    p, d, weights = 5, 2, np.ones(5, dtype=np.int64)
    for n in (0, 4, 6, 30):
        with pytest.raises(ValueError, match="whole rows"):
            _kernels.masked_extrema(p, d, 0, p, weights, np.ones(n, dtype=bool))
    with pytest.raises(ValueError, match="no candidate"):
        _kernels.masked_extrema(p, d, 0, p, weights, np.zeros(10, dtype=bool))


@pytest.mark.parametrize("m", [127, 128])
def test_orbit_route_across_the_int8_step(monkeypatch, m):
    # m = 127 is the last window summed in int8, m = 128 the first in int16.
    # f = x^2 - r for a non-residue r has no root, so with weights chi(f(x))
    # its own sum is m, the largest any candidate reaches.  The crossover is
    # moved out of reach so that p = 131 takes the orbit route, the window
    # wraps past p - 1, and blocks of 8 translates read the points in spans
    # of 8 as well as in the production blocks' one span
    p, d, x0 = 131, 2, 131 - 40
    r = next(v for v in range(2, p) if chi_table(PrimeModulus(p))[v] == -1)
    f = p - r  # the index of x^2 - r
    xs = window(p, x0, m)
    weights = full_reference(p, d)[f, xs]
    expected = full_reference(p, d)[:, xs] @ weights
    assert expected[f] == expected.max() == m
    bound = int(np.quantile(np.abs(expected), 0.99))
    keep = np.flatnonzero(np.abs(expected) >= bound)
    assert 1 < len(keep) < p**d
    monkeypatch.setattr(_kernels, "HANKEL_RATIO", 0)
    calls = route_spy(monkeypatch)
    for cells in (_kernels.SCAN_CELLS, 8 * p):
        monkeypatch.setattr(_kernels, "SCAN_CELLS", cells)
        for threads in (1, 3):
            got = all_sums(p, d, x0, m, weights, threads=threads)
            assert np.array_equal(got, expected)
            idx, sums = _kernels.correlation_survivors(p, d, x0, m, weights, bound, threads)
            assert np.array_equal(idx, keep)
            assert np.array_equal(sums, expected[keep])
    assert calls


def shifted(g, a):
    """g(x + a) by poly arithmetic: sum_j s_j (x + a)^j, the powers built with mul."""
    p, modulus = g.modulus.p, g.modulus
    linear = MonicPoly([a], modulus)
    powers = [[1], [a % p, 1]]  # coefficient lists of (x + a)^j, lowest first
    for _ in range(2, g.degree + 1):
        powers.append(list(mul(MonicPoly(powers[-1][:-1], modulus), linear).coeffs) + [1])
    out = [0] * (g.degree + 1)
    for s, power in zip(list(g.coeffs) + [1], powers):
        for i, c in enumerate(power):
            out[i] = (out[i] + s * c) % p
    return MonicPoly(out[:-1], modulus)


# keeps the p^d * p translates small
TRANSLATE_MAX_P = {1: 31, 2: 31, 3: 13, 4: 7}


@st.composite
def translate_problems(draw):
    d = draw(st.integers(1, 4))
    p = draw(st.sampled_from([q for q in PRIMES if q <= TRANSLATE_MAX_P[d]]))
    picks = draw(st.lists(st.integers(0, p**d - 1), min_size=1, max_size=4))
    return p, d, picks, draw(st.integers(-p, 2 * p)), draw(st.integers(-p, 2 * p))


@SETTINGS
@example((3, 3, [0, 11, 26], 1, 5))  # p | d, the only such family with d <= 4
@given(translate_problems())
def test_translate_index_matches_the_shifted_polynomial(problem):
    p, d, picks, a, b = problem
    modulus = PrimeModulus(p)
    table = _kernels.translate_index(p, d, np.arange(p**d)[:, None], np.arange(p))
    assert table.dtype == np.int64 and table.shape == (p**d, p)
    for i in picks:
        g = poly_from_index(d, modulus, i)
        assert table[i].tolist() == [poly_index(shifted(g, s)) for s in range(p)]
    # a group action, for shifts of any sign and size: by a, then by b, is by a + b
    once = _kernels.translate_index(p, d, np.arange(p**d), a)
    assert np.array_equal(_kernels.translate_index(p, d, once, b), table[:, (a + b) % p])
    # an orbit is free, s -> index of g(x + s) a bijection onto its p members,
    # or fixed; every member of an orbit lists the same members
    members = np.sort(table, axis=1)
    distinct = 1 + (np.diff(members, axis=1) != 0).sum(axis=1)
    assert set(distinct.tolist()) <= {1, p}
    assert np.array_equal(members[table[:, 1]], members)
    # the fixed ones exist only when p divides d
    assert bool((distinct == p).all()) is bool(d % p)


def test_correlation_survivors_past_the_int8_range(monkeypatch):
    # m = p = 131 takes the long route, whose sums pass the int8 range (the
    # short route's int16 case is the next test).  Over the whole field the
    # perfect squares (x + a)^2 have chi = 1 off their root, so with one zero
    # weight their sums are 129 or 130
    p, d, x0, m = 131, 2, 7, 131
    weights = np.ones(m, dtype=np.int64)
    weights[5] = 0
    calls = route_spy(monkeypatch)
    corr = all_sums(p, d, x0, m, weights)
    squares = [a * a % p + 2 * a % p * p for a in range(p)]
    # 130 when the root -a sits under the zero weight, at x0 + 5
    assert corr[squares].tolist() == [130 if -a % p == x0 + 5 else 129 for a in range(p)]
    keep = np.flatnonzero(np.abs(corr) >= 30)
    assert 0 < len(keep) < p**d
    for threads in (1, 3):
        idx, sums = _kernels.correlation_survivors(p, d, x0, m, weights, 30, threads=threads)
        assert np.array_equal(idx, keep)
        assert np.array_equal(sums, corr[keep])
    assert calls == []


def test_short_route_past_the_int8_range(monkeypatch):
    # m = 129 >= 2^7 sums in int16 on the short route, which p = 521 > 4 * 129
    # selects.  With all-ones weights a square (x + a)^2 sums to 129, or 128
    # when its root -a lies in the window x0 .. x0 + 128
    p, d, x0, m = 521, 2, 7, 129
    weights = np.ones(m, dtype=np.int64)
    calls = route_spy(monkeypatch)
    corr = all_sums(p, d, x0, m, weights)
    squares = [a * a % p + 2 * a % p * p for a in range(p)]
    assert corr[squares].tolist() == [128 if 0 <= -a % p - x0 < m else 129 for a in range(p)]
    assert np.abs(corr).max() == 129
    keep = np.flatnonzero(np.abs(corr) >= 40)
    assert 0 < len(keep) < p**d
    for threads in (1, 3):
        idx, sums = _kernels.correlation_survivors(p, d, x0, m, weights, 40, threads=threads)
        assert np.array_equal(idx, keep)
        assert np.array_equal(sums, corr[keep])
    assert calls


def test_window_sums_past_the_int16_range(monkeypatch):
    # m >= 2^15: the long route's float32 product, then, with no Hankel
    # matrix, the short route's int32 accumulator.  A public call
    # needs p > 2^15 there, where a single row is a block of m * p > 2^30
    # cells, so the generator runs directly on a window that wraps the field
    # of 13 about 3077 times: each square (x + a)^2 sums to m minus the visits
    # to its root, about 36900, past the int16 range.  The short route yields
    # orbit rows, placed at their indices as correlation_survivors places them
    p, d, m = 13, 2, 40000
    weights = np.ones(m, dtype=np.int64)
    xs = np.arange(m, dtype=np.int64) % p
    expected = reference_matrix(p, d, xs[:p]).sum(axis=1) * (m // p)
    expected += reference_matrix(p, d, xs[: m % p]).sum(axis=1)
    calls = route_spy(monkeypatch)
    for hankel in (_kernels._hankel(p, d), None):
        runs = _kernels._candidate_sums(p, d, 0, weights, 0, p * p, hankel)
        got = np.zeros(p * p, dtype=np.int64)
        for i, c in runs:
            if np.ndim(i):
                got[_kernels._orbit_indices(p, i[:, None], np.arange(p))] = c
            else:
                got[i : i + len(c)] = c
        assert got.max() > np.iinfo(np.int16).max
        assert np.array_equal(got, expected)
        assert bool(calls) is (hankel is None)


def test_long_window_scan_peak_memory():
    # brute's scan at p = 503, its square-free mask built before tracing: the
    # float32 Hankel matrix (p^2 * 4 bytes) sets the peak; the 32-row blocks,
    # about 32 bytes a cell, add about 0.55 MB, one block of every row would
    # add about 4.8 MB, and an int64 array of every sum p^2 * 8 = 2 MB
    p = 503
    weights = np.random.default_rng(0).integers(-1, 2, size=p)
    mask = _kernels.squarefree_mask(p, 2)
    tracemalloc.start()
    try:
        _kernels.masked_extrema(p, 2, 0, p, weights, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p**2 * 4 + 2**20, peak


@pytest.mark.parametrize("threads", [1, 3])
def test_d1_sums_of_a_full_window_are_the_legendre_autocorrelation(threads):
    # sum_x chi(x) chi(x + s) over F_p is p - 1 at s = 0 and -1 elsewhere, so a
    # window of all p points and weights chi checks every sum of the largest FFT
    # blocks exactly
    p = 100003
    chi = chi_table(PrimeModulus(p))
    got = all_sums(p, 1, 0, p, chi, threads=threads)
    assert got[0] == p - 1
    assert (got[1:] == -1).all()
    low, high, winners = _kernels.masked_extrema(p, 1, 0, p, chi, np.ones(p, dtype=bool), threads)
    assert (low, high, winners.tolist()) == (-1, p - 1, [0])


@pytest.mark.parametrize("m", [1, 24, 1000, 10007])
def test_d1_sums_over_many_blocks_and_wraps_match_shifted_sums(m):
    # at p = 10007 a run spans many FFT blocks and the candidates wrap past
    # t = p - 1; the second x0 puts the window itself across 0 as well
    p = 10007
    rng = np.random.default_rng(m)
    weights = rng.integers(-1, 2, size=m)
    for x0 in (int(rng.integers(p)), p - m // 2 - 1):
        expected = shifted_sums(p, x0, weights)
        bound = max(1, int(np.quantile(np.abs(expected), 0.9)))
        keep = np.flatnonzero(np.abs(expected) >= bound)
        for threads in (1, 3):
            got = all_sums(p, 1, x0, m, weights, threads=threads)
            assert np.array_equal(got, expected)
            idx, sums = _kernels.correlation_survivors(p, 1, x0, m, weights, bound, threads)
            assert np.array_equal(idx, keep)
            assert np.array_equal(sums, expected[keep])


@pytest.mark.parametrize("m", [1, 24, 10006, 10007])
def test_d1_runs_end_at_the_doubled_table_not_at_the_wrap(m):
    # a run reads chi2[t : t + n + m - 1], so it may pass t = p - 1 and end at
    # t + n = 2p - m + 1; windows that start at p - 1, p - m and 1 cross that point
    p = 10007
    weights = np.random.default_rng(m).integers(-1, 2, size=m)
    for x0 in sorted({p - 1, p - m, 1}):
        got = all_sums(p, 1, x0, m, weights)
        assert np.array_equal(got, shifted_sums(p, x0, weights))


@pytest.mark.parametrize("m", [127, 128])
def test_d1_routes_on_either_side_of_the_crossover(monkeypatch, m):
    # m = 127 is the last window of int8 slice sums, m = 128 the first of the
    # FFT.  Windows starting at p - 1 and p - m cross the wrap, the weights
    # carry zeros, and each route runs in its production runs and in runs of
    # about 257 candidates, on 1 and 3 threads
    p = 10007
    weights = np.random.default_rng(m).integers(-1, 2, size=m)
    weights[::5] = 0
    runs = []
    sliding_sums = _kernels._sliding_sums

    def spy(*args):
        runs.append(args)
        return sliding_sums(*args)

    monkeypatch.setattr(_kernels, "_sliding_sums", spy)
    cases = [(x0, shifted_sums(p, x0, weights)) for x0 in (p - 1, p - m)]
    for run in (None, 257):
        with pytest.MonkeyPatch.context() as mp:
            if run:
                mp.setattr(_kernels, "SLICE_RUN", run)
                mp.setattr(_kernels, "FFT_RUN", run)
            for x0, expected in cases:
                bound = int(np.quantile(np.abs(expected), 0.9))
                keep = np.flatnonzero(np.abs(expected) >= bound)
                assert 0 < len(keep) < p
                for threads in (1, 3):
                    got = all_sums(p, 1, x0, m, weights, threads=threads)
                    assert np.array_equal(got, expected)
                    idx, sums = _kernels.correlation_survivors(p, 1, x0, m, weights, bound, threads)
                    assert np.array_equal(idx, keep)
                    assert np.array_equal(sums, expected[keep])
    assert bool(runs) is (m == 128)


def test_d1_short_window_scan_is_one_run():
    # short's window at p = 10007 (x0 = 1, m = 8488) needs one FFT run, not a
    # second one for the last candidate past the wrap
    weights = np.ones(8488, dtype=np.int64)
    runs = list(_kernels._candidate_sums(10007, 1, 1, weights, 0, 10007, None))
    assert [(i, len(c)) for i, c in runs] == [(0, 10007)]


def test_scan_pool_is_capped_at_the_cpu_count(monkeypatch):
    # an inline executor records the pool size and runs each range at once, so
    # no thread starts however large the request
    sizes = []

    class Inline:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(_kernels, "ThreadPoolExecutor", Inline)
    monkeypatch.setattr(_kernels.os, "cpu_count", lambda: 3)
    p, weights = 101, np.random.default_rng(0).integers(-1, 2, size=24)
    expected = shifted_sums(p, 5, weights)
    for threads in (2, 3, 10**6):
        got = all_sums(p, 1, 5, 24, weights, threads)
        assert np.array_equal(got, expected)
    expected = all_sums(p, 2, 5, 24, weights)
    assert np.array_equal(all_sums(p, 2, 5, 24, weights, 10**6), expected)
    assert sizes == [2, 3, 3, 3]


def test_d1_sums_off_an_integer_raise():
    # the exactness check itself: a spectrum scaled by 3/2 puts every odd sum
    # half-way between two integers
    p, m = 101, 5
    spectrum = np.conj(np.fft.rfft(np.ones(m), 256))
    assert np.array_equal(_kernels._sliding_sums(p, m, spectrum, 0, p), shifted_sums(p, 0, np.ones(m)))
    with pytest.raises(ArithmeticError, match="off an integer"):
        _kernels._sliding_sums(p, m, 1.5 * spectrum, 0, p)


def test_orbit_scan_peak_memory():
    # two-stage's first sieve round at p = 3001, m = 16: blocks of about
    # SCAN_CELLS = 2^17 int8 sums, the table rows they read and the |c| >= bound
    # temporaries, about 0.8 MiB with about 4700 survivors; the per-point
    # gather of the route before it peaked at about 1.1 MiB
    p = 3001
    weights = np.random.default_rng(0).choice([-1, 1], size=16)
    _kernels.correlation_survivors(p, 2, 1, 16, weights, 14)
    tracemalloc.start()
    try:
        idx, _ = _kernels.correlation_survivors(p, 2, 1, 16, weights, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(idx) > 1000
    assert peak < 2 * 2**20, peak


def test_long_short_window_peak_memory():
    # m = 250 at p = 1009 is about the longest window of the orbit route.  A
    # block reads its table rows in spans of at most 2 * SCAN_CELLS bytes
    # whatever m, so the int16 sums (256 KiB), the table (at most 256 KiB) and
    # the survivor temporaries stay near 1 MiB; R * m gathered windows would
    # take 32 MB
    p, m = 1009, 250
    weights = np.random.default_rng(0).choice([-1, 1], size=m)
    _kernels.correlation_survivors(p, 2, 1, m, weights, 60)
    tracemalloc.start()
    try:
        _kernels.correlation_survivors(p, 2, 1, m, weights, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20, peak


def test_d1_survivor_scan_peak_memory():
    # chi_table's build sets the peak: its 1 MB table beside one 4 MB int64
    # array of the p/2 squares, reduced in place.  The 2 MB int8 doubled table
    # and the slice route's 64 KB int8 runs stay below it
    p = 1000003
    weights = np.random.default_rng(0).integers(-1, 2, size=24)
    _kernels._chi2.cache_clear()
    chi_table.cache_clear()
    tracemalloc.start()
    try:
        _kernels.correlation_survivors(p, 1, 1, 24, weights, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10**6, peak


def test_d1_prefix_scan_peak_memory_with_a_warm_table():
    # two-stage's prefix sieve at p = 1000003: weights chi(x + s) for a hidden
    # shift s and the bound 23 it passes.  With the doubled table cached the
    # scan holds one run of at most SLICE_RUN = 2^16 int8 sums and its
    # |c| >= bound temporaries, about 0.2 MiB; the overlap-save FFT's float64
    # buffers for the same call peaked at about 0.9 MiB
    p, s = 1000003, 249523
    weights = chi_table(PrimeModulus(p))[1 + s : 25 + s].astype(np.int64)
    _kernels.correlation_survivors(p, 1, 1, 24, weights, 23)
    tracemalloc.start()
    try:
        idx, _ = _kernels.correlation_survivors(p, 1, 1, 24, weights, 23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert idx.tolist() == [s]
    assert peak < 2**19, peak


@SETTINGS
@given(problems())
def test_complete_sums_match_reference(problem):
    # the complete sums sweep_weil takes: all-ones weights over the whole field
    p, d, _, _ = problem
    expected = reference_matrix(p, d, np.arange(p)).sum(axis=1)
    ones = np.ones(p, dtype=np.int64)
    for below in d1_routes(d):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "SLICE_BELOW", below)
            for threads in (1, 3):
                got = all_sums(p, d, 0, p, ones, threads=threads)
                assert np.array_equal(got, expected)


@SETTINGS
@given(problems(), st.integers(1, 2**12))
def test_chi_blocks_in_any_block_size_cover_every_row(problem, cells):
    # the moment sweep streams every row in blocks of a chosen size
    p, d, x0, m = problem
    xs = window(p, x0, m)
    blocks = list(_kernels.chi_blocks(p, d, xs, 0, p ** (d - 1), cells))
    assert [h for h, _ in blocks] == list(range(0, p ** (d - 1), len(blocks[0][1])))
    got = np.concatenate([block.transpose(0, 2, 1).reshape(-1, m) for _, block in blocks])
    assert got.dtype == np.int8
    assert np.array_equal(got, reference_matrix(p, d, xs))


# keeps the p^d per-polynomial gcd tests small; p <= d is included from d = 3
SQUAREFREE_MAX_P = {1: 31, 2: 31, 3: 13, 4: 7, 5: 5}


@st.composite
def squarefree_problems(draw):
    d = draw(st.integers(1, 5))
    return draw(st.sampled_from([q for q in PRIMES if q <= SQUAREFREE_MAX_P[d]])), d


@SETTINGS
@given(squarefree_problems(), st.booleans())
@example((3, 3), True)
@example((3, 4), False)
@example((3, 5), True)
@example((5, 5), False)
def test_squarefree_mask_matches_gcd_test(problem, chunked):
    p, d = problem
    modulus = PrimeModulus(p)
    expected = [is_squarefree(poly_from_index(d, modulus, i)) for i in range(p**d)]
    with pytest.MonkeyPatch.context() as mp:
        if chunked:  # one product h^2 * k per chunk
            mp.setattr(_kernels, "BLOCK_CELLS", 1)
        assert _kernels.squarefree_mask(p, d).tolist() == expected


@pytest.mark.parametrize("p, d", [(101, 3), (31, 4), (3, 6)])
def test_squarefree_mask_count(p, d):
    # p^d - p^(d-1) of the monic degree-d polynomials over F_p are square-free, d >= 2
    assert int(_kernels.squarefree_mask(p, d).sum()) == p**d - p ** (d - 1)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(3, 6), (5, 4), (7, 4), (11, 3), (31, 3), (5, 5)]), st.data())
def test_squarefree_mask_matches_sympy_on_a_sample(problem, data):
    p, d = problem
    mask = _kernels.squarefree_mask(p, d)
    modulus = PrimeModulus(p)
    # any candidates, and some the mask clears, which are rare at large p
    idx = data.draw(st.lists(st.integers(0, p**d - 1), min_size=1, max_size=15))
    idx += data.draw(st.lists(st.sampled_from(np.flatnonzero(~mask).tolist()), max_size=5))
    for i in idx:
        assert mask[i] == sympy_is_squarefree(poly_from_index(d, modulus, i)), (p, d, i)


def test_squarefree_mask_peak_memory():
    # the p^d bool mask plus one chunk of about BLOCK_CELLS int64 coefficients and
    # its products: about 0.9 + 1.8 MiB at (31, 4), where the p^3 products h^2 * k
    # of e = 1 taken in one piece would add about 3.9 MiB
    p, d = 31, 4
    _kernels.squarefree_mask(3, 2)  # warm-up
    tracemalloc.start()
    try:
        mask = _kernels.squarefree_mask(p, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mask.nbytes == p**d
    assert peak < p**d + 6 * 8 * _kernels.BLOCK_CELLS, peak


@SETTINGS
@given(st.sampled_from([(p, 2) for p in PRIMES] + [(p, 4) for p in PRIMES if p <= 7]))
def test_perfect_square_indices_match_square_test(problem):
    # the e = D/2 case of the square-free helper (k = 1) lists the perfect squares
    p, degree = problem
    modulus = PrimeModulus(p)
    polys = (poly_from_index(degree, modulus, i) for i in range(p**degree))
    squares = [i for i, f in enumerate(polys) if is_perfect_square(f)]
    got = np.concatenate(list(_kernels._square_multiples(p, degree, degree // 2)))
    assert got.dtype == np.int64
    assert sorted(got.tolist()) == squares  # an index set: order is free, no repeats


def reference_chi(g, xs):
    return [legendre_euler(eval_int(g, int(x)), g.modulus.p) for x in xs]


def euler_chi2(p):
    # stands in for _kernels._chi2 at primes whose 2p-entry table would not fit
    # in memory: entry u is chi(u mod p), by Euler's criterion when it is read
    class Table:
        def __getitem__(self, u):
            u = np.asarray(u)
            return np.array([legendre_euler(int(v), p) for v in u.ravel()],
                            dtype=np.int8).reshape(u.shape)

    return Table()


@SETTINGS
@given(problems(), st.data())
def test_oracle_and_index_rows_match_eval_int(problem, data):
    # the exact oracle answers with the gather of its hidden f's index
    p, d, x0, m = problem
    idx = data.draw(st.integers(0, p**d - 1))
    g = poly_from_index(d, PrimeModulus(p), idx)
    xs = window(p, x0, m)
    assert _kernels.index_rows(p, d, [idx], xs)[0].tolist() == reference_chi(g, xs)
    if is_squarefree(g):
        assert OracleSession(g).query_block(xs).tolist() == reference_chi(g, xs)


@SETTINGS
@given(st.sampled_from(WIDE_PRIMES), st.integers(1, 4), st.data())
def test_oracle_exact_at_wide_primes(p, d, data):
    # exact where the kernels' int64 guards admit (p, d), refused past them
    residues = st.integers(0, p - 1)
    g = MonicPoly(data.draw(st.lists(residues, min_size=d, max_size=d)), PrimeModulus(p))
    assume(is_squarefree(g))
    xs = np.array(data.draw(st.lists(residues, min_size=1, max_size=20)), dtype=np.int64)
    session, admitted = OracleSession(g), d * p * (p - 1) < 2**63 and p**d < 2**63
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_chi2", euler_chi2)
        if admitted:
            expected = reference_chi(g, xs)
            assert session.query_block(xs).tolist() == expected
            assert _kernels.index_rows(p, d, [poly_index(g)], xs)[0].tolist() == expected
        else:
            with pytest.raises(ValueError, match="too large for int64"):
                session.query_block(xs)
            with pytest.raises(ValueError, match="too large for int64"):
                _kernels.index_rows(p, d, [poly_index(g)], xs)
    assert session.query_count == (len(xs) if admitted else 0)


def test_oracle_wide_prime_regression(monkeypatch):
    # past the kernels' int64 guards: a refusal, never a wrong residue.  At
    # p = 3037000493 one residue product fits int64, so d = 1 stays exact, but
    # a sum of two could wrap, so d = 2 is refused
    monkeypatch.setattr(_kernels, "_chi2", euler_chi2)
    p, xs = 3037000493, [0, 1, 3037000492]
    g = MonicPoly([123456789], PrimeModulus(p))
    assert OracleSession(g).query_block(xs).tolist() == reference_chi(g, xs)
    for p, d in ((3037000493, 2), (3037000507, 1), (3037000507, 2), (2**61 - 1, 1)):
        g = MonicPoly([123456789, 987654321][:d], PrimeModulus(p))
        with pytest.raises(ValueError, match="too large for int64"):
            OracleSession(g).query_block([p - 1])


def test_chi_blocks_refuse_int64_overflow_before_allocating():
    # past p = 3037000499 one residue product wraps int64, and at d = 2 the
    # two-term index sum already wraps at 3037000493; either refusal comes
    # before the x-power table or the character table exists
    xs = np.arange(3, dtype=np.int64)
    tracemalloc.start()
    try:
        for p, d in ((3037000507, 1), (3037000507, 2), (3037000493, 2)):
            with pytest.raises(ValueError, match="too large for int64"):
                next(_kernels.chi_blocks(p, d, xs, 0, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak

