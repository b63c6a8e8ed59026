"""Field arithmetic, primality, and quadratic-character tests.

The program's two character routes, the squares table chi_table and the
binary Jacobi reduction jacobi_symbol, are held to each other, to the
Euler-criterion reference and to sympy's Legendre and Jacobi symbols,
with hand-computed values frozen in as anchors.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import WIDE_PRIMES, build_state, legendre_euler
from sympy.functions.combinatorial.numbers import jacobi_symbol as sympy_jacobi
from sympy.functions.combinatorial.numbers import legendre_symbol

from hiddenpoly.ffield import (
    PrimeModulus,
    check_int64_products,
    chi_table,
    is_prime_u64,
    jacobi_symbol,
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


class TestLegendre:
    def test_dual_route_agreement_exhaustive(self):
        # the load-bearing check: Jacobi reduction vs the Euler-criterion reference
        for p in TEST_PRIMES:
            for a in range(p):
                assert jacobi_symbol(a, p) == legendre_euler(a, p), (p, a)

    def test_euler_criterion_directly(self):
        # chi(a) = a^((p-1)/2) mod p, via the builtin pow as a third route
        for p in (7, 101, 1009):
            for a in range(1, p):
                r = pow(a, (p - 1) // 2, p)
                want = 1 if r == 1 else -1
                assert jacobi_symbol(a, p) == want

    def test_zero(self):
        for p in (3, 7, 101):
            assert jacobi_symbol(0, p) == 0

    def test_multiplicative_seeded(self):
        rng = random.Random(4)
        for _ in range(300):
            a, b = rng.randrange(1009), rng.randrange(1009)
            assert jacobi_symbol(a * b, 1009) == jacobi_symbol(a, 1009) * jacobi_symbol(b, 1009)

    def test_balanced(self):
        # (p-1)/2 residues and (p-1)/2 non-residues
        for p in (7, 101, 251):
            vals = [jacobi_symbol(a, p) for a in range(p)]
            assert sum(vals) == 0
            assert vals.count(1) == (p - 1) // 2

    def test_frozen_row_mod_11(self):
        # squares mod 11 are {1, 3, 4, 5, 9}
        row = [jacobi_symbol(a, 11) for a in range(11)]
        assert row == [0, 1, -1, 1, 1, 1, -1, -1, -1, 1, -1]

    def test_patched_character(self):
        # the reference state of g = x is the patched character: +1 at 0, chi elsewhere
        for p in (7, 101):
            signs = build_state(MonicPoly((0,), PrimeModulus(p)))
            assert int(signs[0]) == 1
            for a in range(1, p):
                assert int(signs[a]) == jacobi_symbol(a, p)


class TestLegendreAgainstSympy:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23, 29, 31)), st.integers(-10**9, 10**9))
    def test_matches_sympy(self, p, a):
        want = int(legendre_symbol(a % p, p))
        assert jacobi_symbol(a, p) == want
        assert legendre_euler(a, p) == want

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(-10**18, 10**18))
    def test_jacobi_matches_sympy_on_odd_composites(self, i, j, a):
        n = (2 * i + 1) * (2 * j + 1)
        assert jacobi_symbol(a, n) == int(sympy_jacobi(a % n, n))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(WIDE_PRIMES), st.integers(0, 2**64))
    def test_matches_sympy_on_wide_primes(self, p, a):
        want = int(sympy_jacobi(a % p, p))
        assert jacobi_symbol(a, p) == want
        assert legendre_euler(a, p) == want


class TestJacobi:
    def test_frozen_composite_values(self):
        # hand-computed via factorization: (2/15)=(2/3)(2/5)=(-1)(-1)=1 etc.
        assert jacobi_symbol(2, 15) == 1
        assert jacobi_symbol(7, 15) == -1
        assert jacobi_symbol(4, 15) == 1
        assert jacobi_symbol(1, 9) == 1
        assert jacobi_symbol(2, 9) == 1
        assert jacobi_symbol(5, 21) == 1
        assert jacobi_symbol(10, 21) == -1

    def test_multiplicative_in_numerator(self):
        rng = random.Random(5)
        for _ in range(200):
            n = 2 * rng.randrange(1, 500) + 1
            a, b = rng.randrange(n), rng.randrange(n)
            assert jacobi_symbol(a * b, n) == jacobi_symbol(a, n) * jacobi_symbol(b, n)

    def test_periodic_in_numerator(self):
        rng = random.Random(6)
        for _ in range(200):
            n = 2 * rng.randrange(1, 500) + 1
            a = rng.randrange(n)
            assert jacobi_symbol(a, n) == jacobi_symbol(a + n, n)


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
