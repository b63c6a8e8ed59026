"""Monic polynomial representation, square-freeness, and enumeration tests.

Square-freeness is validated against degree-2 and degree-3 discriminant
formulas, a route fully independent of the gcd implementation, and
against sympy's square-free test over GF(p).  The enumeration and
perfect-square tests check reference.py's enumerate_monic and
is_perfect_square, and the evaluation test its eval_int, which other
tests lean on, beside the program's own route: the kernels' gather by
index.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    WIDE_PRIMES,
    enumerate_monic,
    eval_int,
    is_perfect_square,
    legendre_euler,
    sympy_is_squarefree,
)

from hiddenpoly import _kernels
from hiddenpoly.ffield import PrimeModulus
from hiddenpoly.poly import (
    MonicPoly,
    format_poly,
    is_squarefree,
    parse_poly,
    poly_from_index,
    poly_index,
    random_squarefree,
    squarefree_count,
)


def _mul(f: MonicPoly, g: MonicPoly) -> MonicPoly:
    """Schoolbook product of two monic polynomials, test-local."""
    p = f.modulus.p
    a = list(f.coeffs) + [1]
    b = list(g.coeffs) + [1]
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    assert out[-1] == 1
    return MonicPoly(tuple(out[:-1]), f.modulus)


class TestMonicPoly:
    def test_eval_matches_power_sum(self):
        rng = random.Random(0)
        for p in (7, 101):
            m = PrimeModulus(p)
            for _ in range(50):
                d = rng.randrange(1, 5)
                coeffs = tuple(rng.randrange(p) for _ in range(d))
                f = MonicPoly(coeffs, m)
                x = rng.randrange(p)
                direct = (pow(x, d, p) + sum(c * pow(x, i, p) for i, c in enumerate(coeffs))) % p
                assert eval_int(f, x) == direct
                # the program evaluates by index, through the scan kernels' gather
                chi = _kernels.index_rows(p, d, [poly_index(f)], [x])[0, 0]
                assert chi == legendre_euler(direct, p)

    def test_degree(self):
        m = PrimeModulus(7)
        assert MonicPoly((3,), m).degree == 1
        assert MonicPoly((2, 6), m).degree == 2

    def test_coeffs_canonical(self):
        m = PrimeModulus(7)
        f = MonicPoly((9, -1), m)
        assert f.coeffs == (2, 6)

    def test_equality_and_hash(self):
        m = PrimeModulus(7)
        assert MonicPoly((3,), m) == MonicPoly((10,), m)
        assert MonicPoly((3,), m) != MonicPoly((3, 0), m)
        assert hash(MonicPoly((3,), m)) == hash(MonicPoly((3,), m))


@st.composite
def monic_polys(draw):
    # small primes and the 61-63-bit primes, where indices and coefficients outgrow int64
    p = draw(st.sampled_from((3, 5, 7, 101, *WIDE_PRIMES)))
    d = draw(st.integers(1, 4))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
    return MonicPoly(coeffs, PrimeModulus(p))


class TestIndexing:
    @settings(deadline=None)
    @given(monic_polys())
    def test_round_trip(self, f):
        idx = poly_index(f)
        assert 0 <= idx < f.modulus.p ** f.degree
        assert poly_from_index(f.degree, f.modulus, idx) == f

    def test_index_order_is_lex_order(self):
        # increasing index sorts by (s_{d-1}, ..., s_0)
        m = PrimeModulus(5)
        polys = [poly_from_index(2, m, i) for i in range(25)]
        keys = [tuple(reversed(f.coeffs)) for f in polys]
        assert keys == sorted(keys)

    def test_out_of_range_rejected(self):
        m = PrimeModulus(5)
        with pytest.raises(ValueError):
            poly_from_index(2, m, 25)
        with pytest.raises(ValueError):
            poly_from_index(2, m, -1)


class TestSquarefree:
    def test_degree_one_always(self):
        m = PrimeModulus(7)
        for s in range(7):
            assert is_squarefree(MonicPoly((s,), m))

    def test_degree_two_discriminant(self):
        # x^2 + bx + c square-free iff b^2 - 4c != 0
        for p in (5, 7, 11):
            m = PrimeModulus(p)
            for b in range(p):
                for c in range(p):
                    f = MonicPoly((c, b), m)
                    assert is_squarefree(f) == ((b * b - 4 * c) % p != 0), (p, b, c)

    def test_degree_three_discriminant(self):
        # x^3 + ax^2 + bx + c: 18abc - 4a^3c + a^2b^2 - 4b^3 - 27c^2
        for p in (5, 7):
            m = PrimeModulus(p)
            for a in range(p):
                for b in range(p):
                    for c in range(p):
                        disc = (
                            18 * a * b * c - 4 * a**3 * c + a**2 * b**2 - 4 * b**3 - 27 * c**2
                        ) % p
                        f = MonicPoly((c, b, a), m)
                        assert is_squarefree(f) == (disc != 0), (p, a, b, c)

    def test_products_with_repeated_factor(self):
        rng = random.Random(2)
        m = PrimeModulus(11)
        for _ in range(50):
            g = MonicPoly((rng.randrange(11),), m)
            h = MonicPoly((rng.randrange(11), rng.randrange(11)), m)
            assert not is_squarefree(_mul(_mul(g, g), h))

    def test_known_non_squarefree(self):
        # (x+3)^2 = x^2 + 6x + 2 over F_7
        m = PrimeModulus(7)
        assert not is_squarefree(MonicPoly((2, 6), m))
        assert is_squarefree(MonicPoly((1, 1), m))


SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


class TestSquarefreeAgainstSympy:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.integers(1, 4), st.data())
    def test_any_monic(self, p, d, data):
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
        f = MonicPoly(coeffs, PrimeModulus(p))
        assert is_squarefree(f) == sympy_is_squarefree(f)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.integers(1, 2), st.integers(0, 2), st.data())
    def test_repeated_factor(self, p, dg, dh, data):
        # g^2 h with deg g^2 h <= 4 is never square-free; sympy must agree
        m = PrimeModulus(p)
        dh = min(dh, 4 - 2 * dg)
        g = MonicPoly(data.draw(st.lists(st.integers(0, p - 1), min_size=dg, max_size=dg)), m)
        f = _mul(g, g)
        if dh:
            f = _mul(f, MonicPoly(data.draw(
                st.lists(st.integers(0, p - 1), min_size=dh, max_size=dh)), m))
        assert not is_squarefree(f)
        assert not sympy_is_squarefree(f)


class TestPerfectSquare:
    def test_squares_detected_exhaustive(self):
        for p in (5, 7):
            m = PrimeModulus(p)
            for g in enumerate_monic(2, m):
                sq = _mul(g, g)
                assert is_perfect_square(sq), str(g)

    def test_square_count(self):
        # monic squares of degree 2m are exactly the p^m squares of monic g
        for p in (5, 7):
            m = PrimeModulus(p)
            n2 = sum(is_perfect_square(f) for f in enumerate_monic(2, m))
            n4 = sum(is_perfect_square(f) for f in enumerate_monic(4, m))
            assert n2 == p
            assert n4 == p * p

    def test_odd_degree_never(self):
        m = PrimeModulus(7)
        for f in itertools.islice(enumerate_monic(3, m), 100):
            assert not is_perfect_square(f)

    def test_anchor(self):
        m = PrimeModulus(7)
        assert is_perfect_square(MonicPoly((2, 6), m))
        assert not is_perfect_square(MonicPoly((3, 6), m))


class TestEnumeration:
    def test_total_count(self):
        for p, d in [(5, 1), (5, 2), (7, 2), (5, 3)]:
            m = PrimeModulus(p)
            assert sum(1 for _ in enumerate_monic(d, m)) == p**d

    def test_squarefree_count_matches_formula(self):
        # p^d - p^{d-1} for d >= 2; p for d = 1
        for p, d in [(5, 1), (5, 2), (7, 2), (11, 2), (5, 3), (7, 3)]:
            m = PrimeModulus(p)
            n = sum(1 for _ in enumerate_monic(d, m, squarefree_only=True))
            assert n == squarefree_count(m, d)
            if d == 1:
                assert n == p
            else:
                assert n == p**d - p ** (d - 1)


class TestFormatParse:
    @settings(deadline=None)
    @given(monic_polys())
    def test_round_trip(self, f):
        assert parse_poly(format_poly(f), f.modulus, f.degree) == f
        # the bare coefficient list "s0,s1,..."
        bare = ",".join(str(c) for c in f.coeffs)
        assert parse_poly(bare, f.modulus, f.degree) == f

    def test_known_strings(self):
        m = PrimeModulus(7)
        assert format_poly(MonicPoly((2, 6), m)) == "x^2 + 6*x + 2"
        assert format_poly(MonicPoly((0, 0), m)) == "x^2"
        assert format_poly(MonicPoly((3,), m)) == "x + 3"
        assert format_poly(MonicPoly((0, 1), m)) == "x^2 + x"

    def test_coefficient_list_form(self):
        m = PrimeModulus(7)
        assert parse_poly("5,3", m) == MonicPoly((5, 3), m)
        assert parse_poly("2", m) == MonicPoly((2,), m)

    def test_degree_check(self):
        m = PrimeModulus(7)
        with pytest.raises(ValueError):
            parse_poly("x^2 + 1", m, degree=1)

    def test_non_monic_rejected(self):
        m = PrimeModulus(7)
        with pytest.raises(ValueError):
            parse_poly("2*x + 1", m)

    def test_garbage_rejected(self):
        m = PrimeModulus(7)
        for bad in ("", "y + 1", "x +", "x^-1", "x^2 + frog"):
            with pytest.raises(ValueError):
                parse_poly(bad, m)


class TestRandomSquarefree:
    def test_reproducible(self):
        m = PrimeModulus(101)
        a = random_squarefree(m, 2, random.Random(7))
        b = random_squarefree(m, 2, random.Random(7))
        assert a == b

    def test_squarefree_and_degree(self):
        m = PrimeModulus(101)
        for seed in range(20):
            f = random_squarefree(m, 2, random.Random(seed))
            assert f.degree == 2
            assert is_squarefree(f)
