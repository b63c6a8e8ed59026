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
from reference import reference_matrix

from hiddenpoly import _kernels, charsum
from hiddenpoly.charsum import (
    BoundCheckRow,
    LinearForm,
    complete_char_sum,
    moment_bound,
    moment_sums,
    mult_weil_bound,
    multilinear_form_sum,
    pair_identity,
    short_char_sums,
    short_weil_bound,
    weil_bound,
)
from hiddenpoly.cli import main
from hiddenpoly.ffield import PrimeModulus, legendre_euler
from hiddenpoly.poly import MonicPoly, enumerate_monic, is_perfect_square, parse_poly


def _chi(m, v):
    return legendre_euler(m.element(v))


def _direct_sum(f, xs):
    p = f.modulus.p
    total = 0
    for x in xs:
        v = (pow(x, f.degree, p) + sum(c * pow(x, i, p) for i, c in enumerate(f.coeffs))) % p
        total += _chi(f.modulus, v)
    return total


class TestCompleteSum:
    def test_matches_direct_loop_seeded(self):
        rng = random.Random(0)
        for p in (7, 101):
            m = PrimeModulus(p)
            for _ in range(20):
                d = rng.randrange(1, 4)
                f = MonicPoly(tuple(rng.randrange(p) for _ in range(d)), m)
                assert complete_char_sum(f) == _direct_sum(f, range(p))

    def test_linear_sums_vanish(self):
        # sum over a full period of chi(x + s) is 0
        for p in (7, 101):
            m = PrimeModulus(p)
            for s in range(0, p, 13):
                assert complete_char_sum(MonicPoly((s,), m)) == 0

    def test_perfect_square_sum(self):
        # chi(g^2) = 1 away from roots of g, so the sum is p - #roots
        m = PrimeModulus(7)
        assert complete_char_sum(MonicPoly((2, 6), m)) == 6  # (x+3)^2, one root


class TestShortSum:
    def test_anchor(self):
        # chi(1) + chi(2) + chi(3) over F_7 = 1 + 1 - 1; one sum per M = 1..6
        sums = short_char_sums(parse_poly("x", PrimeModulus(7)))
        assert sums[2] == 1
        assert sums.shape == (6,) and sums.dtype == np.int64

    def test_prefix_recursion(self):
        f = parse_poly("x^2 + x + 3", PrimeModulus(101))
        sums = short_char_sums(f)
        assert len(sums) == 100
        for mm in range(2, 101):
            assert sums[mm - 1] - sums[mm - 2] == _direct_sum(f, [mm])

    def test_matches_direct_loop_seeded(self):
        rng = random.Random(1)
        m = PrimeModulus(101)
        for _ in range(20):
            d = rng.randrange(1, 4)
            f = MonicPoly(tuple(rng.randrange(101) for _ in range(d)), m)
            sums = short_char_sums(f)
            assert len(sums) == 100
            for mm in range(1, 101):
                assert sums[mm - 1] == _direct_sum(f, range(1, mm + 1))


class TestPairIdentity:
    def test_exhaustive_small_primes(self):
        for p in (7, 13):
            m = PrimeModulus(p)
            for a in range(p):
                for b in range(p):
                    want = p - 1 if a == b else -1
                    assert pair_identity(m.element(a), m.element(b)) == want

    def test_mismatched_fields_rejected(self):
        with pytest.raises(ValueError):
            pair_identity(PrimeModulus(7).element(1), PrimeModulus(11).element(1))


class TestMultilinear:
    def test_anchor_double_loop(self):
        # d=2, forms S_0 and S_0 + S_1 + 1 over F_5
        m = PrimeModulus(5)
        forms = (LinearForm((0,), 0), LinearForm((1,), 1))
        got = multilinear_form_sum(forms, 2, m)
        direct = 0
        for s0 in range(5):
            for s1 in range(5):
                direct += _chi(m, s0 * ((s0 + s1 + 1) % 5) % 5)
        assert got == direct
        assert abs(got) <= mult_weil_bound(2, 2, 5)

    def test_single_form_shift_invariance(self):
        # one form: the inner sum over S_0 is 0 for every fixed rest
        m = PrimeModulus(7)
        assert multilinear_form_sum((LinearForm((3,), 2),), 2, m) == 0

    def test_seeded_against_direct(self):
        rng = random.Random(2)
        m = PrimeModulus(7)
        for _ in range(10):
            n_forms = rng.randrange(1, 4)
            forms = []
            while len(forms) < n_forms:
                cand = LinearForm((rng.randrange(7),), rng.randrange(7))
                if cand not in forms:
                    forms.append(cand)
            got = multilinear_form_sum(tuple(forms), 2, m)
            direct = 0
            for s0 in range(7):
                for s1 in range(7):
                    prod = 1
                    for form in forms:
                        prod = prod * ((s0 + form.coefficients[0] * s1 + form.constant) % 7) % 7
                    direct += _chi(m, prod)
            assert got == direct

    @pytest.mark.parametrize("block_cells", [_kernels.BLOCK_CELLS, 8])
    @pytest.mark.parametrize("p, d", [(5, 1), (7, 2), (5, 3), (3, 4)])
    def test_every_degree_and_block_size(self, p, d, block_cells, monkeypatch):
        # 8 cells give one row of S_0 per block, so the block loop is exercised
        monkeypatch.setattr(_kernels, "BLOCK_CELLS", block_cells)
        m = PrimeModulus(p)
        rng = random.Random(p * 10 + d)
        for n_forms in range(4):
            forms = set()
            while len(forms) < n_forms:
                forms.add(LinearForm(tuple(rng.randrange(p) for _ in range(d - 1)),
                                     rng.randrange(p)))
            direct = 0
            for s in itertools.product(range(p), repeat=d):
                prod = 1
                for form in forms:
                    shift = sum(c * v for c, v in zip(form.coefficients, s[1:]))
                    prod = prod * (s[0] + shift + form.constant) % p
                direct += _chi(m, prod)
            assert multilinear_form_sum(tuple(forms), d, m) == direct

    def test_duplicate_forms_rejected(self):
        m = PrimeModulus(7)
        forms = (LinearForm((1,), 8), LinearForm((8,), 1))  # equal after reduction
        with pytest.raises(ValueError):
            multilinear_form_sum(forms, 2, m)

    def test_wrong_arity_rejected(self):
        m = PrimeModulus(7)
        with pytest.raises(ValueError):
            multilinear_form_sum((LinearForm((1, 2), 0),), 2, m)


def _direct_moment(m, d, column, r):
    # 2r-th moment of one weight column over ALL monic degree-d g, by plain
    # loops in Python ints
    total = 0
    for f in enumerate_monic(d, m):
        inner = sum(int(a) * _chi(m, f.eval(m.element(x)).value) for x, a in enumerate(column, 1))
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
    @given(p=st.sampled_from((7, 11, 13)), n=st.integers(1, 7), trials=st.integers(1400, 3000),
           seed=st.integers(0, 2**32 - 1))
    @example(p=101, n=3, trials=64, seed=0)
    def test_rows_span_several_blocks(self, p, n, trials, seed):
        # T columns stream the p^2 candidates in BLOCK_CELLS // T rows a
        # block; the drawn sizes always leave a partial last block
        step = _kernels.BLOCK_CELLS // trials
        assert step < p * p and p * p % step
        m = PrimeModulus(p)
        w = np.random.default_rng(seed).choice(np.array([-1, 0, 1]), size=(n, trials))
        sums = reference_matrix(p, 2, range(1, n + 1)) @ w
        rs = [1, 3]
        got = moment_sums(w, 2, rs, m)
        for i, r in enumerate(rs):
            assert list(got[i]) == list((sums.astype(object) ** (2 * r)).sum(axis=0))

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
        rows = charsum.sweep_pair_identity((7,))
        assert len(rows) == 49
        assert all(isinstance(r, BoundCheckRow) for r in rows)
        assert all(r.passed for r in rows)
        assert all(r.lemma == "pair-identity" for r in rows)

    def test_weil_sweep_small(self):
        rows = charsum.sweep_weil((5, 7))
        assert all(r.passed for r in rows)
        degrees = {r.d for r in rows}
        assert degrees == {1, 2, 3, 4}

    @settings(max_examples=20, deadline=None)
    @example(p=3)  # 3 | D = 3: the full-scan path
    @given(p=st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23, 29, 31)))
    def test_weil_representatives_match_full_scan(self, p):
        # the sweep scans translation-orbit representatives; the max |sum| over
        # non-squares must equal the full scan's at every degree, D = 1 included
        ones = np.ones(p, dtype=np.int64)
        rows = charsum.sweep_weil((p,))
        assert [r.d for r in rows] == [1, 2, 3, 4]
        for row in rows:
            sums = _kernels.windowed_correlations(p, row.d, 0, p, ones)
            nonsquare = np.ones(p**row.d, dtype=bool)
            nonsquare[_kernels.perfect_square_indices(p, row.d)] = False
            assert row.measured == np.abs(sums[nonsquare]).max()

    def test_weil_scan_sizes(self, monkeypatch):
        # representatives (p^(D-1) candidates) only where p does not divide D > 1;
        # at p = 3, D = 3 they happen to reach the same max, so count the cells
        scanned = []
        kernel = _kernels.windowed_correlations

        def spy(*args, **kwargs):
            out = kernel(*args, **kwargs)
            scanned.append(len(out))
            return out

        monkeypatch.setattr(_kernels, "windowed_correlations", spy)
        charsum.sweep_weil((3, 5))
        assert scanned == [3, 3, 27, 27, 5, 5, 25, 125]

    def test_weil_short_sweep_deterministic(self):
        a = charsum.sweep_weil_short((11, 31), seed=0)
        b = charsum.sweep_weil_short((11, 31), seed=0)
        assert a == b
        assert all(r.passed for r in a)

    def test_mult_weil_sweep(self):
        rows = charsum.sweep_mult_weil((5, 7), seed=0)
        assert all(r.passed for r in rows)
        assert {r.lemma for r in rows} == {"mult-weil"}

    def test_moment_sweep(self):
        rows = charsum.sweep_moment((7,), seed=0)
        assert all(r.passed for r in rows)
        # r grid at p=7: {1, 2, ceil(ln 7)} collapses to {1, 2}
        assert {r.d for r in rows} == {1, 2}

    def test_default_sweep_all_pass(self, capsys):
        # the full default grid, through the CLI that reports it
        assert main(["verify-bounds"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert all(row[-1] == "pass" for row in rows)
        lemmas = list(dict.fromkeys(row[0] for row in rows))
        assert lemmas == list(charsum.SWEEPS)
        assert lemmas == ["pair-identity", "weil", "weil-short", "mult-weil", "average"]
