"""Field arithmetic, primality, and quadratic-character tests.

The program's one character, the squares table chi_table, is held to
the Euler-criterion reference and to sympy's Legendre symbol, with
hand-computed values frozen in as anchors.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import WIDE_PRIMES, build_state, legendre_euler
from sympy.functions.combinatorial.numbers import legendre_symbol

from hiddenpoly.ffield import (
    PrimeModulus,
    check_int64_products,
    chi_table,
    is_prime_u64,
)
from hiddenpoly.poly import MonicPoly

TEST_PRIMES = (3, 5, 7, 11, 13, 101, 251, 1009, 10007)


class TestPrimality:
    def test_small_primes(self):
        for n in (2, 3, 5, 7, 11, 13, 101, 251, 1009, 10007):
            assert is_prime_u64(n)

    def test_small_composites(self):
        for n in (0, 1, 4, 6, 9, 15, 21, 91, 100, 561, 1729, 10005):
            assert not is_prime_u64(n)

    def test_carmichael_numbers(self):
        # Fermat pseudoprimes to many bases; Miller-Rabin must reject them
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not is_prime_u64(n)

    def test_random_products(self):
        rng = random.Random(0)
        primes = [p for p in range(3, 500) if is_prime_u64(p)]
        for _ in range(200):
            a, b = rng.choice(primes), rng.choice(primes)
            assert not is_prime_u64(a * b)


class TestPrimeModulus:
    def test_rejects_non_primes(self):
        for bad in (0, 1, 4, 15, 100, 561):
            with pytest.raises(ValueError):
                PrimeModulus(bad)

    def test_rejects_two(self):
        # the quadratic character degenerates at p=2
        with pytest.raises(ValueError):
            PrimeModulus(2)

    def test_equality_and_hash(self):
        assert PrimeModulus(7) == PrimeModulus(7)
        assert PrimeModulus(7) != PrimeModulus(11)
        assert hash(PrimeModulus(7)) == hash(PrimeModulus(7))


def _chi(p):
    return chi_table(PrimeModulus(p)).tolist()


class TestLegendre:
    def test_dual_route_agreement_exhaustive(self):
        # the load-bearing check: the squares table vs the Euler-criterion reference
        for p in TEST_PRIMES:
            assert _chi(p) == [legendre_euler(a, p) for a in range(p)], p

    def test_euler_criterion_directly(self):
        # chi(a) = a^((p-1)/2) mod p, via the builtin pow as a third route
        for p in (7, 101, 1009):
            chi = _chi(p)
            for a in range(1, p):
                r = pow(a, (p - 1) // 2, p)
                assert chi[a] == (1 if r == 1 else -1)

    def test_zero(self):
        for p in (3, 7, 101):
            assert _chi(p)[0] == 0

    def test_multiplicative_seeded(self):
        rng = random.Random(4)
        chi = _chi(1009)
        for _ in range(300):
            a, b = rng.randrange(1009), rng.randrange(1009)
            assert chi[a * b % 1009] == chi[a] * chi[b]

    def test_balanced(self):
        # (p-1)/2 residues and (p-1)/2 non-residues
        for p in (7, 101, 251):
            vals = _chi(p)
            assert sum(vals) == 0
            assert vals.count(1) == (p - 1) // 2

    def test_frozen_row_mod_11(self):
        # squares mod 11 are {1, 3, 4, 5, 9}
        assert _chi(11) == [0, 1, -1, 1, 1, 1, -1, -1, -1, 1, -1]

    def test_patched_character(self):
        # the reference state of g = x is the patched character: +1 at 0, chi elsewhere
        for p in (7, 101):
            signs = build_state(MonicPoly((0,), PrimeModulus(p)))
            assert int(signs[0]) == 1
            for a in range(1, p):
                assert int(signs[a]) == int(legendre_symbol(a, p))


class TestLegendreAgainstSympy:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23, 29, 31)), st.integers(-10**9, 10**9))
    def test_matches_sympy(self, p, a):
        want = int(legendre_symbol(a % p, p))
        assert _chi(p)[a % p] == want
        assert legendre_euler(a, p) == want

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(WIDE_PRIMES), st.integers(0, 2**64))
    def test_matches_sympy_on_wide_primes(self, p, a):
        # past the int64 limit no table exists; the reference still answers
        assert legendre_euler(a, p) == int(legendre_symbol(a % p, p))


class TestChiTables:
    def test_table_matches_legendre(self):
        for p in (3, 7, 101, 1009):
            table = chi_table(PrimeModulus(p))
            assert table.dtype == np.int8
            assert len(table) == p
            for a in range(p):
                assert int(table[a]) == int(legendre_symbol(a, p))

    def test_patched_table(self):
        # the reference state of g = x against the table: +1 at 0, the table elsewhere
        for p in (3, 7, 101):
            m = PrimeModulus(p)
            signs = build_state(MonicPoly((0,), m))
            assert int(signs[0]) == 1
            assert (signs[1:] == chi_table(m)[1:]).all()

    def test_tables_are_read_only(self):
        table = chi_table(PrimeModulus(7))
        with pytest.raises(ValueError):
            table[0] = 1


class TestInt64Guard:
    # 3037000493 < isqrt(2^63 - 1) = 3037000499 < 3037000507
    def test_threshold(self):
        check_int64_products(3037000493)
        for p in (3037000507, 2**61 - 1):
            with pytest.raises(ValueError, match="too large for int64"):
                check_int64_products(p)
        # d terms: at d = 2 the largest admissible p halves its square
        with pytest.raises(ValueError, match=r"2 \* p \* \(p - 1\) exceeds"):
            check_int64_products(3037000493, 2)

    def test_chi_table_refuses_before_it_allocates(self):
        # a table at this p would be 3 GB; the refusal traces under 1 MiB
        modulus = PrimeModulus(3037000507)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="too large for int64"):
                chi_table(modulus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
