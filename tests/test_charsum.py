"""Character-sum computations and bound sweeps.

Every vectorized sum is cross-checked against a plain Python double loop
built on the Euler-criterion character, so the numpy kernels and the
arithmetic they rely on are validated by a fully independent route.
"""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import (
    enumerate_monic,
    eval_int,
    legendre_euler,
    reference_matrix,
    reference_short_sums,
    shifted_sums,
    table_rows,
)

from hiddenpoly import _kernels, charsum
from hiddenpoly.charsum import (
    LinearForm,
    moment_bound,
    moment_sums,
    mult_weil_bound,
    multilinear_form_sums,
    short_char_sums,
    short_weil_bound,
    weil_bound,
)
from hiddenpoly.cli import main
from hiddenpoly.ffield import PrimeModulus
from hiddenpoly.limits import BudgetExceeded
from hiddenpoly.poly import MonicPoly, mul, parse_poly, poly_index, random_squarefree


def _chi(m, v):
    return legendre_euler(v, m.p)


def _direct_sum(f, xs):
    p = f.modulus.p
    total = 0
    for x in xs:
        v = (pow(x, f.degree, p) + sum(c * pow(x, i, p) for i, c in enumerate(f.coeffs))) % p
        total += _chi(f.modulus, v)
    return total


def _complete_sum(f):
    # the complete sums the pair and Weil sweeps read: the scan kernel with
    # all-ones weights over the whole field, at f's index
    p = f.modulus.p
    _, sums = _kernels.correlation_survivors(p, f.degree, 0, p, np.ones(p, dtype=np.int64), 0)
    return int(sums[poly_index(f)])


class TestCompleteSum:
    def test_matches_direct_loop_seeded(self):
        rng = random.Random(0)
        for p in (7, 101):
            m = PrimeModulus(p)
            for _ in range(20):
                d = rng.randrange(1, 4)
                f = MonicPoly(tuple(rng.randrange(p) for _ in range(d)), m)
                assert _complete_sum(f) == _direct_sum(f, range(p))

    def test_linear_sums_vanish(self):
        # sum over a full period of chi(x + s) is 0
        for p in (7, 101):
            m = PrimeModulus(p)
            for s in range(0, p, 13):
                assert _complete_sum(MonicPoly((s,), m)) == 0

    def test_perfect_square_sum(self):
        # chi(g^2) = 1 away from roots of g, so the sum is p - #roots
        m = PrimeModulus(7)
        assert _complete_sum(MonicPoly((2, 6), m)) == 6  # (x+3)^2, one root


class TestShortSum:
    def test_anchor(self):
        # chi(1) + chi(2) + chi(3) over F_7 = 1 + 1 - 1; one sum per M = 1..6
        sums = short_char_sums([parse_poly("x", PrimeModulus(7))])[0]
        assert sums[2] == 1
        assert sums.shape == (6,) and sums.dtype == np.int64

    def test_prefix_recursion(self):
        f = parse_poly("x^2 + x + 3", PrimeModulus(101))
        sums = short_char_sums([f])[0]
        assert len(sums) == 100
        for mm in range(2, 101):
            assert sums[mm - 1] - sums[mm - 2] == _direct_sum(f, [mm])

    def test_matches_direct_loop_seeded(self):
        rng = random.Random(1)
        m = PrimeModulus(101)
        for _ in range(20):
            d = rng.randrange(1, 4)
            f = MonicPoly(tuple(rng.randrange(101) for _ in range(d)), m)
            sums = short_char_sums([f])[0]
            assert len(sums) == 100
            for mm in range(1, 101):
                assert sums[mm - 1] == _direct_sum(f, range(1, mm + 1))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_batch_matches_a_plain_loop(self, data):
        # a batch of 1-20 polynomials of one degree 1-4, repeats included, in one
        # gather, against the reference loop one polynomial at a time; then the
        # same batch times a batch of cofactors, against the loop over the products
        p = data.draw(st.sampled_from((3, 5, 7, 11, 13, 31, 101)))
        d = data.draw(st.integers(1, 4))
        m = PrimeModulus(p)
        poly = st.tuples(*[st.integers(0, p - 1)] * d).map(lambda c: MonicPoly(c, m))
        pool = data.draw(st.lists(poly, min_size=1, max_size=10))
        polys = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
        sums = short_char_sums(polys)
        assert sums.shape == (len(polys), p - 1) and sums.dtype == np.int64
        assert sums.tolist() == reference_short_sums(polys)
        cofactors = data.draw(st.lists(st.sampled_from(pool), min_size=len(polys),
                                       max_size=len(polys)))
        products = [mul(f, g) for f, g in zip(polys, cofactors)]
        assert short_char_sums(polys, cofactors).tolist() == reference_short_sums(products)

    def test_products_past_the_int64_index_range(self):
        # at p = 55109 a quartic's index p^4 passes 2^63: the sweep's products g*h
        # are summed from their quadratic factors, and a quartic alone is refused
        m = PrimeModulus(55109)
        rng = random.Random(0)
        g, h = (random_squarefree(m, 2, rng) for _ in range(2))
        assert short_char_sums([g], [h]).tolist() == reference_short_sums([mul(g, h)])
        with pytest.raises(ValueError, match="too large for int64"):
            short_char_sums([mul(g, h)])
        (table,) = charsum.sweep_weil_short((55109,))
        assert len(table.passed) == 40 and all(table.passed)

    def test_batch_needs_one_field(self):
        with pytest.raises(ValueError, match="one field"):
            short_char_sums([parse_poly("x", PrimeModulus(7)), parse_poly("x", PrimeModulus(11))])
        with pytest.raises(ValueError, match="one field"):
            short_char_sums([])

    def test_batch_needs_one_degree(self):
        m = PrimeModulus(7)
        with pytest.raises(ValueError, match="one degree"):
            short_char_sums([parse_poly("x + 1", m), parse_poly("x^2 + 1", m)])
        with pytest.raises(ValueError, match="one degree"):
            short_char_sums([parse_poly("x + 1", m)], [parse_poly("x^2 + 1", m)])
        with pytest.raises(ValueError, match="as many per argument"):
            short_char_sums([parse_poly("x + 1", m)] * 2, [parse_poly("x + 2", m)])


class TestPairIdentity:
    def test_exhaustive_small_primes(self):
        # every sweep row against a plain loop over (x+a)(x+b); threads change nothing
        tables = charsum.sweep_pair_identity((7, 11))
        assert charsum.sweep_pair_identity((7, 11), threads=3) == tables
        rows = table_rows(tables)
        assert len(rows) == 7**2 + 11**2
        for _, p, _, params, measured, bound, passed in rows:
            a, b = (int(part.split("=")[1]) for part in params.split(";"))
            f = MonicPoly((a * b, a + b), PrimeModulus(p))
            assert measured == _direct_sum(f, range(p))
            assert bound == (p - 1 if a == b else -1)
            assert passed

    def test_rows_match_a_plain_loop_in_order(self):
        # the sweep's rows, built from one array read, against rows built one
        # (a, b) pair at a time: same order, params, values and verdicts
        for p in (7, 13):
            want = []
            for a in range(p):
                for b in range(p):
                    measured = _direct_sum(MonicPoly((a * b % p, (a + b) % p), PrimeModulus(p)),
                                           range(p))
                    expected = p - 1 if a == b else -1
                    want.append(("pair-identity", p, 1, f"a={a};b={b}", float(measured),
                                 float(expected), measured == expected))
            got = table_rows(charsum.sweep_pair_identity((p,)))
            assert got == want
            assert [type(v) for v in got[0]] == [str, int, int, str, float, float, bool]


class TestRecords:
    def test_immutable_and_hashable(self):
        form = LinearForm((1, 2), 3)
        with pytest.raises(AttributeError):
            form.constant = 0
        assert len({form, LinearForm((1, 2), 3), LinearForm((1, 2), 4)}) == 2
        assert form._fields == ("coefficients", "constant")

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_forms_equal_after_reduction_are_refused(self, d):
        # the repeat may sit anywhere in a set of any size, and differ only mod p
        m = PrimeModulus(5)
        forms = [LinearForm((1,) * (d - 1), 0), LinearForm((2,) * (d - 1), 1),
                 LinearForm((-4,) * (d - 1), 10)]
        good = [[LinearForm((0,) * (d - 1), 4)], forms[:2]]
        assert len(multilinear_form_sums(good, d, m)) == 2
        with pytest.raises(ValueError, match="^forms must be pairwise distinct$"):
            multilinear_form_sums([*good, forms], d, m)


def _direct_multilinear(m, d, forms):
    # sum over F_p^d of chi(prod_v L_v(S)) by plain loops in Python ints
    p = m.p
    chi = [_chi(m, v) for v in range(p)]
    total = 0
    for s in itertools.product(range(p), repeat=d):
        prod = 1
        for form in forms:
            shift = sum(c * v for c, v in zip(form.coefficients, s[1:]))
            prod = prod * (s[0] + shift + form.constant) % p
        total += chi[prod]
    return total


def _random_forms(rng, p, d, n_forms):
    forms = []
    while len(forms) < n_forms:
        cand = LinearForm(tuple(rng.randrange(p) for _ in range(d - 1)), rng.randrange(p))
        if cand not in forms:
            forms.append(cand)
    return forms


class TestMultilinear:
    def test_anchor_double_loop(self):
        # d=2, forms S_0 and S_0 + S_1 + 1 over F_5
        m = PrimeModulus(5)
        forms = (LinearForm((0,), 0), LinearForm((1,), 1))
        got = multilinear_form_sums([forms], 2, m)
        direct = 0
        for s0 in range(5):
            for s1 in range(5):
                direct += _chi(m, s0 * ((s0 + s1 + 1) % 5) % 5)
        assert got.dtype == np.int64 and got.tolist() == [direct]
        assert abs(got[0]) <= mult_weil_bound(2, 2, 5)

    def test_single_form_shift_invariance(self):
        # one form: the inner sum over S_0 is 0 for every fixed rest
        m = PrimeModulus(7)
        assert multilinear_form_sums([(LinearForm((3,), 2),)], 2, m).tolist() == [0]

    def test_seeded_against_direct(self):
        # ten sets of 1-3 forms in one batch, each against a plain double loop
        rng = random.Random(2)
        m = PrimeModulus(7)
        sets = [_random_forms(rng, 7, 2, rng.randrange(1, 4)) for _ in range(10)]
        got = multilinear_form_sums(sets, 2, m)
        assert got.tolist() == [_direct_multilinear(m, 2, forms) for forms in sets]

    @pytest.mark.parametrize("block_cells", [_kernels.BLOCK_CELLS, 8])
    @pytest.mark.parametrize("p, d", [(5, 1), (7, 2), (5, 3), (3, 4)])
    def test_every_degree_and_block_size(self, p, d, block_cells, monkeypatch):
        # 8 cells give one set and one row of S_0 per chunk, so both chunk loops run;
        # the batch holds sets of 0-3 forms, the empty product counting p^d
        monkeypatch.setattr(_kernels, "BLOCK_CELLS", block_cells)
        m = PrimeModulus(p)
        rng = random.Random(p * 10 + d)
        sets = [_random_forms(rng, p, d, n_forms) for n_forms in range(4)]
        got = multilinear_form_sums(sets, d, m)
        assert got.tolist() == [_direct_multilinear(m, d, forms) for forms in sets]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mixed_batch_matches_plain_loop(self, d):
        # sets of 1, 2 and 3 forms interleaved in one call come back in call order
        p = 5 if d == 3 else 7
        m = PrimeModulus(p)
        rng = random.Random(d)
        sizes = [rng.choice((1, 2, 3)) for _ in range(12)]
        sets = [_random_forms(rng, p, d, n) for n in sizes]
        got = multilinear_form_sums(sets, d, m)
        assert got.dtype == np.int64 and got.shape == (12,)
        assert got.tolist() == [_direct_multilinear(m, d, forms) for forms in sets]

    def test_batch_spans_several_chunks(self):
        # 20 sets of 10201 cells fill several BLOCK_CELLS chunks and leave a
        # partial last one; at p=257 one set alone needs two chunks of rows.
        # Three forms, because one form sums to 0 and two mostly do, and
        # every expected sum is nonzero, so a skipped chunk cannot pass
        for p, n_sets in ((101, 20), (257, 2)):
            m = PrimeModulus(p)
            rng = random.Random(p)
            sets = [_random_forms(rng, p, 2, 3) for _ in range(n_sets)]
            cells = sum(p * p for _ in sets)
            assert cells > 2 * _kernels.BLOCK_CELLS and cells % _kernels.BLOCK_CELLS
            want = [_direct_multilinear(m, 2, forms) for forms in sets]
            assert all(want)
            assert multilinear_form_sums(sets, 2, m).tolist() == want

    def test_peak_memory_is_chunked(self):
        # the default sweep's 500 sets at p=101: one (sets, rows, p) int64
        # product over the whole batch would take 40.8 MB
        m = PrimeModulus(101)
        rng = random.Random(0)
        sets = [_random_forms(rng, 101, 2, 1 + k % 3) for k in range(500)]
        multilinear_form_sums(sets[:1], 2, m)  # the character table is cached
        tracemalloc.start()
        try:
            multilinear_form_sums(sets, 2, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_duplicate_forms_rejected(self):
        m = PrimeModulus(7)
        forms = (LinearForm((1,), 8), LinearForm((8,), 1))  # equal after reduction
        with pytest.raises(ValueError, match="^forms must be pairwise distinct$"):
            multilinear_form_sums([forms], 2, m)
        # one bad set anywhere in a batch refuses the whole batch
        good = (LinearForm((1,), 2),)
        with pytest.raises(ValueError, match="^forms must be pairwise distinct$"):
            multilinear_form_sums([good, forms, good], 2, m)

    def test_wrong_arity_rejected(self):
        m = PrimeModulus(7)
        with pytest.raises(ValueError, match="^each form needs d-1 S_1..S_{d-1} coefficients$"):
            multilinear_form_sums([(LinearForm((1, 2), 0),)], 2, m)
        with pytest.raises(ValueError, match="^each form needs d-1"):
            multilinear_form_sums([(LinearForm((1,), 0),), (LinearForm((), 0),)], 2, m)
        with pytest.raises(ValueError, match="^d must be at least 1$"):
            multilinear_form_sums([(LinearForm((), 0),)], 0, m)

    def test_budget_counts_the_whole_batch(self):
        # p^d cells per form, summed over the sets; refused before any is scanned
        m = PrimeModulus(7)
        sets = [(LinearForm((1,), 0),), (LinearForm((1,), 0), LinearForm((2,), 0))]
        assert len(multilinear_form_sums(sets, 2, m, budget=3 * 49)) == 2
        with pytest.raises(BudgetExceeded, match="needs ~147 elementary operations"):
            multilinear_form_sums(sets, 2, m, budget=3 * 49 - 1)


def _direct_moment(m, d, column, r):
    # 2r-th moment of one weight column over ALL monic degree-d g, by plain
    # loops in Python ints
    total = 0
    for f in enumerate_monic(d, m):
        inner = sum(int(a) * _chi(m, eval_int(f, x)) for x, a in enumerate(column, 1))
        total += inner ** (2 * r)
    return total


class TestMoment:
    def test_anchor_single_point(self):
        # N=1, r=1, weight 1: sum over monic x+s of chi(1+s)^2 counts
        # the p-1 nonzero values of 1+s
        got = moment_sums(np.ones((1, 1)), 1, [1], PrimeModulus(7))
        assert got.shape == (1, 1) and got[0, 0] == 6

    def test_exact_where_float64_rounds(self):
        # weights aligned with g = x + 3 (its one zero patched to +1) give
        # that g the inner sum 100, so the moment is about 10^20, past
        # float64's 2^53 integer range; a float64 power-and-sum gives
        # 100000000000000049152
        m = PrimeModulus(101)
        w = np.array([[_chi(m, x + 3) or 1] for x in range(1, 102)])
        got = moment_sums(w, 1, [5], m)[0, 0]
        want = _direct_moment(m, 1, w[:, 0], 5)
        assert want == 100000000000000051200
        assert int(got) == want and isinstance(got, int)

    def test_exact_over_several_digits(self):
        # 43^24 is about 2^130, so at p^d = 101 each v^(2r) spans three int64
        # digits of 56 bits; the weights make g = x + 3's inner sum 43
        m = PrimeModulus(101)
        assert (43**24).bit_length() > 2 * (63 - (101).bit_length())
        w = np.array([[_chi(m, x + 3)] for x in range(1, 44)])
        w = np.hstack([w, np.random.default_rng(5).choice(np.array([-1, 1]), size=(43, 1))])
        got = moment_sums(w, 1, [1, 12], m)
        for t in range(2):
            assert got[1, t] == _direct_moment(m, 1, w[:, t], 12)
            assert got[0, t] == _direct_moment(m, 1, w[:, t], 1)
        assert got[1, 0] > 43**24 and isinstance(got[1, 0], int)

    def test_zero_duplicate_and_negated_columns(self):
        # one call over an all-zero column, a column, its duplicate and its
        # negation gives each column the moments of its own single-column call
        m = PrimeModulus(11)
        col = np.array([1, -1, 0, 1, 1])
        other = np.array([0, 1, 1, -1, 0])
        w = np.stack([np.zeros(5, dtype=np.int64), col, other, col, -col, -other], axis=1)
        got = moment_sums(w, 2, [1, 3], m)
        assert got.shape == (2, 6) and (got[:, 0] == 0).all()
        for t in range(6):
            assert list(got[:, t]) == list(moment_sums(w[:, t:t + 1], 2, [1, 3], m)[:, 0])
        assert list(got[:, 1]) == list(got[:, 3]) == list(got[:, 4])
        assert list(got[:, 2]) == list(got[:, 5]) != list(got[:, 1])

    def test_peak_memory_is_streamed(self):
        # the default sweep's largest cell; holding the p^d x T sums in
        # float64, as a dense product would, takes 81.6 MB per array
        m = PrimeModulus(101)
        w = np.random.default_rng(0).choice(np.array([-1, 1]), size=(43, 1000))
        tracemalloc.start()
        try:
            moment_sums(w, 2, [1, 2, 5], m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_seeded_against_direct(self):
        rng = random.Random(3)
        m = PrimeModulus(7)
        for _ in range(10):
            n, t = rng.randrange(1, 5), rng.randrange(1, 4)
            w = np.array([[rng.choice((-1, 0, 1)) for _ in range(t)] for _ in range(n)])
            r = rng.randrange(1, 3)
            got = moment_sums(w, 1, [r], m)
            assert got.shape == (1, t)
            for j in range(t):
                assert got[0, j] == _direct_moment(m, 1, w[:, j], r)

    def test_columns_and_powers_are_independent_calls(self):
        # one call over T columns and rs = [1, 2, 3] gives, entry by entry,
        # the single-column single-r call and the plain loop
        rng = np.random.default_rng(4)
        for p, d in ((7, 1), (7, 2), (11, 2), (101, 1)):
            m = PrimeModulus(p)
            n = int(rng.integers(1, min(p, 12) + 1))
            w = rng.choice(np.array([-1.0, 0.0, 1.0]), size=(n, 6))
            got = moment_sums(w, d, [1, 2, 3], m)
            assert got.shape == (3, 6)
            for i, r in enumerate((1, 2, 3)):
                for t in range(6):
                    assert got[i, t] == moment_sums(w[:, t:t + 1], d, [r], m)[0, 0]
                    assert got[i, t] == _direct_moment(m, d, w[:, t], r)

    def test_includes_non_squarefree(self):
        # the d=2 family must have p^2 members, not p^2 - p; detect by
        # comparing against a direct loop over ALL monic quadratics
        m = PrimeModulus(5)
        w = np.array([[1, 0], [-1, -1]])
        got = moment_sums(w, 2, [1], m)
        for t in range(2):
            assert got[0, t] == _direct_moment(m, 2, w[:, t], 1)

    @settings(max_examples=10, deadline=None)
    @given(p=st.sampled_from((11, 13)), n=st.integers(8, 11), trials=st.integers(1400, 3000),
           seed=st.integers(0, 2**32 - 1))
    @example(p=101, n=3, trials=64, seed=0)
    def test_rows_span_several_blocks(self, p, n, trials, seed):
        # the k columns distinct up to sign stream the p^2 candidates in
        # BLOCK_CELLS // k rows a block; n >= 8 points draw k well above
        # BLOCK_CELLS / p^2, and p < step < p^2 always leaves a partial last block
        w = np.random.default_rng(seed).choice(np.array([-1, 0, 1]), size=(n, trials))
        k = len({max(tuple(col), tuple(-col)) for col in w.T})
        step = _kernels.BLOCK_CELLS // k
        assert step < p * p and p * p % step
        m = PrimeModulus(p)
        sums = reference_matrix(p, 2, range(1, n + 1)) @ w
        rs = [1, 3]
        got = moment_sums(w, 2, rs, m)
        for i, r in enumerate(rs):
            assert list(got[i]) == list((sums.astype(object) ** (2 * r)).sum(axis=0))

    @pytest.mark.parametrize("group_bins", [1, 12, 100, 1 << 12])
    def test_column_groups_match_single_columns(self, monkeypatch, group_bins):
        # N = 5 bins 6 values per class, so the groups hold 1, 2, 16 and all
        # classes; 21 distinct classes leave a partial last group for 2 and 16
        monkeypatch.setattr(charsum, "GROUP_BINS", group_bins)
        m = PrimeModulus(11)
        w = np.array(list(itertools.product((0, 1), repeat=5))[1:22]).T * np.tile([1, -1], 11)[:21]
        assert len({max(tuple(col), tuple(-col)) for col in w.T}) == 21
        rs = [1, 2]
        got = moment_sums(w, 2, rs, m)
        sums = reference_matrix(11, 2, range(1, 6)) @ w
        for i, r in enumerate(rs):
            assert list(got[i]) == list((sums.astype(object) ** (2 * r)).sum(axis=0))
        for t in (0, 7, 20):
            assert list(got[:, t]) == list(moment_sums(w[:, t:t + 1], 2, rs, m)[:, 0])
            assert got[1, t] == _direct_moment(m, 2, w[:, t], 2)

    def test_group_partial_at_the_default_size(self):
        # N = 11 gives groups of 4096 // 12 = 341 classes; 1000 random columns
        # draw k classes with k > 341 and k % 341 != 0
        m = PrimeModulus(11)
        w = np.random.default_rng(8).choice(np.array([-1, 0, 1]), size=(11, 1000))
        k = len({max(tuple(col), tuple(-col)) for col in w.T})
        group = charsum.GROUP_BINS // 12
        assert k > group and k % group
        got = moment_sums(w, 2, [1, 3], m)
        sums = reference_matrix(11, 2, range(1, 12)) @ w
        for i, r in enumerate((1, 3)):
            assert list(got[i]) == list((sums.astype(object) ** (2 * r)).sum(axis=0))
        assert list(got[:, 999]) == list(moment_sums(w[:, 999:], 2, [1, 3], m)[:, 0])

    def test_one_column(self):
        m = PrimeModulus(13)
        w = np.array([[1], [-1], [0], [1], [1], [-1]])
        got = moment_sums(w, 2, [1, 2], m)
        assert got.shape == (2, 1)
        assert got[0, 0] == _direct_moment(m, 2, w[:, 0], 1)
        assert got[1, 0] == _direct_moment(m, 2, w[:, 0], 2)

    def test_one_column_per_group_at_large_n(self):
        # N + 1 > GROUP_BINS / 2, so every group holds one class; the d = 1
        # sums are whole shifts of the character table
        p, n = 4099, 2100
        assert charsum.GROUP_BINS // (n + 1) == 1
        w = np.random.default_rng(9).choice(np.array([-1, 1]), size=(n, 3))
        got = moment_sums(w, 1, [1, 2], PrimeModulus(p))
        for t in range(3):
            sums = shifted_sums(p, 1, w[:, t]).astype(object)
            assert got[0, t] == (sums**2).sum() and got[1, t] == (sums**4).sum()

    def test_one_row_per_block(self, monkeypatch):
        # BLOCK_CELLS = 1 streams the candidates one row at a time
        monkeypatch.setattr(_kernels, "BLOCK_CELLS", 1)
        m = PrimeModulus(7)
        w = np.random.default_rng(10).choice(np.array([-1, 0, 1]), size=(4, 6))
        got = moment_sums(w, 2, [1, 2], m)
        for t in range(6):
            assert got[0, t] == _direct_moment(m, 2, w[:, t], 1)
            assert got[1, t] == _direct_moment(m, 2, w[:, t], 2)

    def test_no_columns(self):
        # T = 0 columns in, T = 0 columns out: one empty row per r
        got = moment_sums(np.zeros((3, 0)), 1, [1, 2], PrimeModulus(7))
        assert got.shape == (2, 0)

    @settings(max_examples=25, deadline=None)
    @given(p=st.sampled_from((7, 11)), d=st.integers(1, 2), data=st.data())
    def test_sign_classes_follow_their_columns(self, p, d, data):
        # a column's moments depend on it only up to sign: negating, duplicating
        # and permuting columns (all-zero ones too) permutes the output the same way
        n = data.draw(st.integers(1, 5))
        cells = st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n)
        base = np.array(data.draw(st.lists(cells, min_size=1, max_size=6)) + [[0] * n]).T
        picks = data.draw(st.lists(st.integers(0, base.shape[1] - 1), min_size=1, max_size=12))
        signs = np.array(data.draw(st.lists(st.sampled_from((-1, 1)),
                                            min_size=len(picks), max_size=len(picks))))
        m = PrimeModulus(p)
        rs = [1, 2]
        want = moment_sums(base, d, rs, m)
        sums = reference_matrix(p, d, range(1, n + 1)) @ base
        for i, r in enumerate(rs):
            assert list(want[i]) == list((sums.astype(object) ** (2 * r)).sum(axis=0))
        got = moment_sums(base[:, picks] * signs, d, rs, m)
        assert got.shape == (2, len(picks))
        assert (got == want[:, picks]).all()

    def test_weight_validation(self):
        m = PrimeModulus(7)
        for bad in (np.ones(3), np.ones((0, 2)), np.ones((8, 1)), np.full((2, 2), 1.5),
                    np.full((2, 2), 0.5), np.full((2, 2), -0.25), np.ones((2, 2, 1))):
            with pytest.raises(ValueError):
                moment_sums(bad, 1, [1], m)
        for rs in ([0], [1, 0], [-1]):
            with pytest.raises(ValueError):
                moment_sums(np.ones((1, 1)), 1, rs, m)
        assert moment_sums(np.full((7, 1), -1.0), 1, [1], m).shape == (1, 1)


class TestBoundFormulas:
    def test_weil(self):
        assert weil_bound(2, 49) == pytest.approx(14.0)
        assert weil_bound(4, 61) == pytest.approx(4 * math.sqrt(61))

    def test_short_weil(self):
        assert short_weil_bound(1, 101) == pytest.approx(math.sqrt(101) * math.log(101))
        assert short_weil_bound(2, 101) == pytest.approx(2 * math.sqrt(101) * math.log(101))

    def test_mult_weil(self):
        assert mult_weil_bound(3, 2, 7) == pytest.approx(6 * 7**1.5)

    def test_moment(self):
        # r=1, N=2, d=1, p=7: 4*2^2*sqrt(7) + 2*2*7
        assert moment_bound(1, 2, 1, 7) == pytest.approx(16 * math.sqrt(7) + 28)


class TestSweeps:
    def test_pair_sweep_shape_and_pass(self):
        tables = charsum.sweep_pair_identity((7,))
        assert [(t.lemma, t.p) for t in tables] == [("pair-identity", 7)]
        assert tables[0]._fields == ("lemma", "p", "d", "params", "measured", "bound", "passed")
        assert len(tables[0].d) == 49 and all(tables[0].passed)

    def test_weil_sweep_small(self):
        tables = charsum.sweep_weil((5, 7))
        assert all(all(t.passed) for t in tables)
        assert {d for t in tables for d in t.d} == {1, 2, 3, 4}

    @settings(max_examples=20, deadline=None)
    @example(p=3)  # 3 | D = 3: the full-scan path
    @example(p=5)  # least non-residue 2
    @example(p=7)  # 3
    @example(p=23)  # 5
    @given(p=st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23, 29, 31)))
    def test_weil_representatives_match_full_scan(self, p):
        # the sweep scans affine-orbit representatives; the max |sum| over
        # non-squares must equal the full scan's at every degree, D = 1 included
        ones = np.ones(p, dtype=np.int64)
        (table,) = charsum.sweep_weil((p,))
        assert table.d == [1, 2, 3, 4]
        for d, measured in zip(table.d, table.measured):
            _, sums = _kernels.correlation_survivors(p, d, 0, p, ones, 0)
            nonsquare = np.ones(p**d, dtype=bool)
            if d % 2 == 0:  # the squares g^2 of every monic root g, by poly arithmetic
                roots = enumerate_monic(d // 2, PrimeModulus(p))
                nonsquare[[poly_index(mul(g, g)) for g in roots]] = False
            assert measured == np.abs(sums[nonsquare]).max()

    def _scanned(self, monkeypatch, primes):
        # the cells each degree scans: the length of the mask it reduces over
        scanned = []
        kernel = _kernels.masked_extrema

        def spy(p, d, x0, m, weights, mask, *args, **kwargs):
            scanned.append(len(mask))
            return kernel(p, d, x0, m, weights, mask, *args, **kwargs)

        monkeypatch.setattr(_kernels, "masked_extrema", spy)
        charsum.sweep_weil(primes)
        return scanned

    def test_weil_scan_sizes(self, monkeypatch):
        # representatives only where p does not divide D > 1; at p = 3, D = 3
        # they happen to reach the same max, so count the cells
        assert self._scanned(monkeypatch, (3, 5)) == [3, 3, 27, 27, 5, 5, 15, 75]

    @pytest.mark.parametrize("p, nonresidue", [(5, 2), (7, 3), (23, 5), (71, 7)])
    def test_weil_scans_affine_representatives(self, monkeypatch, p, nonresidue):
        # s_{D-1} = 0 and s_{D-2} <= n: (n + 1) * p^(D-3) rows of p candidates at D >= 3
        rows = [cells // p for cells in self._scanned(monkeypatch, (p,))]
        assert rows == [1, 1, nonresidue + 1, (nonresidue + 1) * p]

    def test_weil_budget_counts_the_scanned_rows(self):
        # least non-residue 3 at p = 127: 1 + 1 + 4 + 4 * 127 rows of p^2 cells,
        # plus 9 p^2 for the perfect squares
        assert len(table_rows(charsum.sweep_weil((127,), budget=523 * 127**2))) == 4
        with pytest.raises(BudgetExceeded, match="needs ~8435467 elementary operations"):
            charsum.sweep_weil((127,), budget=523 * 127**2 - 1)

    def test_weil_short_sweep_deterministic(self):
        a = charsum.sweep_weil_short((11, 31), seed=0)
        b = charsum.sweep_weil_short((11, 31), seed=0)
        assert a == b
        assert all(all(t.passed) for t in a)
        assert [len(t.d) for t in a] == [40, 40]

    def test_mult_weil_sweep(self):
        tables = charsum.sweep_mult_weil((5, 7), seed=0)
        assert all(all(t.passed) for t in tables)
        assert {t.lemma for t in tables} == {"mult-weil"}

    def test_moment_sweep(self):
        tables = charsum.sweep_moment((7,), seed=0)
        assert all(all(t.passed) for t in tables)
        # r grid at p=7: {1, 2, ceil(ln 7)} collapses to {1, 2}
        assert {d for t in tables for d in t.d} == {1, 2}

    def test_default_sweep_all_pass(self, capsys):
        # the full default grid, through the CLI that reports it
        assert main(["verify-bounds"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert all(row[-1] == "pass" for row in rows)
        lemmas = list(dict.fromkeys(row[0] for row in rows))
        assert lemmas == list(charsum.SWEEPS)
        assert lemmas == ["pair-identity", "weil", "weil-short", "mult-weil", "average"]
