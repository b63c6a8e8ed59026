"""Character-sum computations and bound sweeps.

Every vectorized sum is cross-checked against a plain Python double loop
built on the Euler-criterion character, so the numpy kernels and the
arithmetic they rely on are validated by a fully independent route.
"""

import itertools
import math
import random

import pytest

from hiddenpoly import _kernels, charsum
from hiddenpoly.charsum import (
    BoundCheckRow,
    LinearForm,
    WeightVector,
    complete_char_sum,
    moment_bound,
    moment_sum,
    mult_weil_bound,
    multilinear_form_sum,
    pair_identity,
    short_char_sum,
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
        # chi(1) + chi(2) + chi(3) over F_7 = 1 + 1 - 1
        f = parse_poly("x", PrimeModulus(7))
        assert short_char_sum(f, 3) == 1

    def test_prefix_recursion(self):
        f = parse_poly("x^2 + x + 3", PrimeModulus(101))
        for mm in range(2, 100, 7):
            delta = short_char_sum(f, mm) - short_char_sum(f, mm - 1)
            assert delta == _direct_sum(f, [mm])

    def test_window_validation(self):
        f = parse_poly("x", PrimeModulus(7))
        for bad in (0, 7, 8, -1):
            with pytest.raises(ValueError):
                short_char_sum(f, bad)

    def test_matches_direct_loop_seeded(self):
        rng = random.Random(1)
        m = PrimeModulus(101)
        for _ in range(20):
            d = rng.randrange(1, 4)
            f = MonicPoly(tuple(rng.randrange(101) for _ in range(d)), m)
            mm = rng.randrange(1, 101)
            assert short_char_sum(f, mm) == _direct_sum(f, range(1, mm + 1))


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


class TestMoment:
    def test_anchor_single_point(self):
        # N=1, r=1, weight 1: sum over monic x+s of chi(1+s)^2 counts
        # the p-1 nonzero values of 1+s
        got = moment_sum(WeightVector((1.0,)), 1, 1, PrimeModulus(7))
        assert got == 6.0

    def test_seeded_against_direct(self):
        rng = random.Random(3)
        m = PrimeModulus(7)
        for _ in range(10):
            n = rng.randrange(1, 5)
            w = WeightVector(tuple(rng.uniform(-1, 1) for _ in range(n)))
            r = rng.randrange(1, 3)
            got = moment_sum(w, 1, r, m)
            direct = 0.0
            for f in enumerate_monic(1, m):
                inner = sum(
                    a * _chi(m, f.eval(m.element(x)).value)
                    for x, a in zip(range(1, n + 1), w.entries)
                )
                direct += inner ** (2 * r)
            assert got == pytest.approx(direct, rel=1e-12)

    def test_includes_non_squarefree(self):
        # the d=2 family must have p^2 members, not p^2 - p; detect by
        # comparing against a direct loop over ALL monic quadratics
        m = PrimeModulus(5)
        w = WeightVector((1.0, -1.0))
        got = moment_sum(w, 2, 1, m)
        direct = 0.0
        for f in enumerate_monic(2, m):
            inner = sum(
                a * _chi(m, f.eval(m.element(x)).value)
                for x, a in zip((1, 2), w.entries)
            )
            direct += inner**2
        assert got == pytest.approx(direct, rel=1e-12)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WeightVector(())
        with pytest.raises(ValueError):
            WeightVector((1.5,))
        with pytest.raises(ValueError):
            moment_sum(WeightVector((1.0,) * 8), 1, 1, PrimeModulus(7))
        with pytest.raises(ValueError):
            moment_sum(WeightVector((1.0,)), 1, 0, PrimeModulus(7))


class TestBoundFormulas:
    def test_weil(self):
        assert weil_bound(2, 49) == pytest.approx(14.0)
        assert weil_bound(4, 61) == pytest.approx(4 * math.sqrt(61))

    def test_short_weil(self):
        assert short_weil_bound(1, 101) == pytest.approx(math.sqrt(101) * math.log(101))
        assert short_weil_bound(2, 101, constant=3.0) == pytest.approx(
            3.0 * 2 * math.sqrt(101) * math.log(101)
        )

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
