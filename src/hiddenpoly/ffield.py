"""Prime moduli, validated residues and the quadratic character.

Residues are canonical integers in [0, p-1]; all arithmetic on them in
the package runs on numpy int64 arrays or Python ints, so FpElement is
only a validated residue that knows its modulus.  The quadratic character
(Legendre symbol) is implemented twice on purpose -- once through
Euler's criterion and once through the binary Jacobi reduction -- so
the test suite can check the two routes against each other.  A patched
variant maps 0 to +1; it is the character the measurement simulation
attaches to candidate polynomials.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "PrimeModulus",
    "FpElement",
    "is_prime_u64",
    "jacobi_symbol",
    "legendre",
    "legendre_euler",
    "legendre_ext",
    "check_int64_products",
    "chi_table",
    "chi_ext_table",
]

# Witness set proven deterministic for every n < 3.3 * 10^24, which covers
# the 63-bit moduli this package accepts.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin primality test valid below 2**64."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeModulus:
    """An odd prime p >= 3 defining the ambient field F_p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        p = int(p)
        if p.bit_length() > 63:
            raise ValueError("modulus must fit in 63 bits")
        if p < 3 or p % 2 == 0 or not is_prime_u64(p):
            raise ValueError(f"modulus must be an odd prime >= 3, got {p}")
        self.p = p

    def element(self, value) -> "FpElement":
        return FpElement(value, self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeModulus) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeModulus", self.p))

    def __repr__(self) -> str:
        return f"PrimeModulus({self.p})"


class FpElement:
    """Residue modulo an odd prime, kept as the canonical representative."""

    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus: PrimeModulus):
        if isinstance(value, FpElement):
            value = value.value
        self.value = int(value) % modulus.p
        self.modulus = modulus

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FpElement):
            return self.modulus.p == other.modulus.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.modulus.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.modulus.p))

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.modulus.p})"


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n, by binary reduction."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def legendre(a: FpElement) -> int:
    """Quadratic character of a: 0 at 0, +1 on nonzero squares, -1 otherwise."""
    return jacobi_symbol(a.value, a.modulus.p)


def legendre_euler(a: FpElement) -> int:
    """The same character via Euler's criterion a^((p-1)/2).

    Independent of legendre(); the suite checks the two agree.
    """
    p = a.modulus.p
    r = pow(a.value, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def legendre_ext(a: FpElement) -> int:
    """Patched character: +1 at 0, the quadratic character elsewhere."""
    return 1 if a.value == 0 else legendre(a)


def check_int64_products(p: int, terms: int = 1) -> None:
    """Refuse p where a sum of `terms` products of two residues could wrap int64.

    The bound is terms * p * (p - 1): each product of residues is at most
    (p - 1)^2, with room for one more residue added.  For terms = 1 it
    refuses every p > 3037000499.
    """
    if terms * p * (p - 1) > np.iinfo(np.int64).max:
        raise ValueError(
            f"p={p} is too large for int64 residue arithmetic: "
            f"{terms} * p * (p - 1) exceeds 2^63 - 1"
        )


@lru_cache(maxsize=128)
def chi_table(modulus: PrimeModulus) -> np.ndarray:
    """Quadratic character as a read-only int8 lookup table over [0, p)."""
    p = modulus.p
    check_int64_products(p)
    table = np.full(p, -1, dtype=np.int8)
    table[0] = 0
    # squares of 1..(p-1)/2 hit every quadratic residue exactly once
    roots = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    # squared and reduced in place: one int64 array of p/2 entries, not three
    np.multiply(roots, roots, out=roots)
    table[np.remainder(roots, p, out=roots)] = 1
    table.setflags(write=False)
    return table


@lru_cache(maxsize=128)
def chi_ext_table(modulus: PrimeModulus) -> np.ndarray:
    """Patched character as a read-only int8 lookup table over [0, p)."""
    table = chi_table(modulus).copy()
    table[0] = 1
    table.setflags(write=False)
    return table
