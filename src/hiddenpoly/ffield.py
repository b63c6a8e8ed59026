"""Prime moduli and the quadratic character.

Residues are canonical integers in [0, p-1]; all arithmetic on them in
the package runs on numpy int64 arrays or Python ints.  The program
reads the quadratic character (Legendre symbol) from one table built
from the squares, chi_table.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "PrimeModulus",
    "is_prime_u64",
    "check_int64_products",
    "chi_table",
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

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeModulus) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeModulus", self.p))

    def __repr__(self) -> str:
        return f"PrimeModulus({self.p})"


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

