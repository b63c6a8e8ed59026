"""Monic polynomials over F_p: arithmetic, square-freeness, indexing.

A degree-d monic polynomial is stored as the coefficient tuple
(s_0, ..., s_{d-1}) with the leading coefficient 1 implicit.  The
candidate space of all monic degree-d polynomials is ordered
lexicographically by (s_{d-1}, ..., s_0), i.e. by the integer index
sum_i s_i * p^i; every scan in the package uses that same order.
Values chi(g(x)) are read by that index through ``_kernels``, so no
evaluation lives here.
"""

from __future__ import annotations

import random
from typing import Sequence

from .ffield import PrimeModulus

__all__ = [
    "MonicPoly",
    "mul",
    "is_squarefree",
    "poly_from_index",
    "poly_index",
    "squarefree_count",
    "random_squarefree",
    "parse_poly",
    "format_poly",
]


class MonicPoly:
    """Monic polynomial x^d + s_{d-1} x^{d-1} + ... + s_0 over F_p, d >= 1."""

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs: Sequence, modulus: PrimeModulus):
        if len(coeffs) < 1:
            raise ValueError("degree must be at least 1")
        p = modulus.p
        self.coeffs = tuple(int(c) % p for c in coeffs)
        self.modulus = modulus

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonicPoly):
            return NotImplemented
        return self.modulus.p == other.modulus.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs, self.modulus.p))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MonicPoly({format_poly(self)!r}, p={self.modulus.p})"


def mul(g: MonicPoly, h: MonicPoly) -> MonicPoly:
    """Product of two monic polynomials (again monic, degree adds)."""
    if g.modulus.p != h.modulus.p:
        raise ValueError("polynomials over different fields")
    p = g.modulus.p
    a = list(g.coeffs) + [1]
    b = list(h.coeffs) + [1]
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return MonicPoly(out[:-1], g.modulus)


def _trim(cs: list[int]) -> list[int]:
    i = len(cs)
    while i > 1 and cs[i - 1] == 0:
        i -= 1
    return cs[:i]


def _is_zero(cs: list[int]) -> bool:
    return len(cs) == 1 and cs[0] == 0


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    # remainder of a modulo b; b nonzero, both little-endian and trimmed
    db = len(b) - 1
    if db == 0:
        return [0]
    a = a[:]
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) - 1 >= db and not _is_zero(a):
        factor = a[-1] * inv_lead % p
        shift = len(a) - 1 - db
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bi) % p
        a = _trim(a)
    return a


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a = _trim(a[:])
    b = _trim(b[:])
    while not _is_zero(b):
        a, b = b, _poly_rem(a, b, p)
    return a


def is_squarefree(f: MonicPoly) -> bool:
    """True iff gcd(f, f') is constant (f' the formal derivative)."""
    p = f.modulus.p
    full = list(f.coeffs) + [1]
    deriv = _trim([i * full[i] % p for i in range(1, len(full))])
    if _is_zero(deriv):
        # f is a polynomial in x^p, hence a p-th power
        return False
    return len(_poly_gcd(full, deriv, p)) == 1


def poly_from_index(d: int, modulus: PrimeModulus, index: int) -> MonicPoly:
    """Inverse of poly_index: base-p digits of index are (s_0, ..., s_{d-1})."""
    p = modulus.p
    if not 0 <= index < p**d:
        raise ValueError("index out of range")
    coeffs = []
    t = index
    for _ in range(d):
        coeffs.append(t % p)
        t //= p
    return MonicPoly(coeffs, modulus)


def poly_index(f: MonicPoly) -> int:
    p = f.modulus.p
    idx = 0
    for c in reversed(f.coeffs):
        idx = idx * p + c
    return idx


def squarefree_count(modulus: PrimeModulus, d: int) -> int:
    """Number of square-free monic degree-d polynomials over F_p.

    The closed form p^d - p^(d-1) for d >= 2; every degree-1 monic is
    square-free.
    """
    p = modulus.p
    return p if d == 1 else p**d - p ** (d - 1)


def random_squarefree(modulus: PrimeModulus, d: int, rng: random.Random) -> MonicPoly:
    """Uniform square-free monic polynomial of degree d, by rejection."""
    p = modulus.p
    while True:
        f = MonicPoly([rng.randrange(p) for _ in range(d)], modulus)
        if is_squarefree(f):
            return f


def format_poly(f: MonicPoly) -> str:
    """Render as e.g. 'x^2 + 3*x + 5'; zero coefficients are omitted."""
    d = f.degree
    terms = ["x" if d == 1 else f"x^{d}"]
    for i in range(d - 1, -1, -1):
        c = f.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("x" if c == 1 else f"{c}*x")
        else:
            terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
    return " + ".join(terms)


def parse_poly(text: str, modulus: PrimeModulus, degree: int | None = None) -> MonicPoly:
    """Parse 'x^2 + 3*x + 5' or a bare coefficient list '5,3' = (s_0, s_1).

    The stated degree, when given, must match; the polynomial must be monic.
    """
    s = text.strip().lower()
    if not s:
        raise ValueError("empty polynomial")
    if "x" not in s:
        try:
            coeffs = [int(part) for part in s.split(",")]
        except ValueError:
            raise ValueError(f"bad coefficient list {text!r}") from None
        if degree is not None and len(coeffs) != degree:
            raise ValueError(
                f"coefficient list has length {len(coeffs)}, expected degree {degree}"
            )
        return MonicPoly(coeffs, modulus)

    s = s.replace(" ", "").replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    powers: dict[int, int] = {}
    for term in s.split("+"):
        if not term:
            raise ValueError(f"bad polynomial {text!r}")
        sign = 1
        if term.startswith("-"):
            sign = -1
            term = term[1:]
        try:
            if "x" in term:
                head, _, tail = term.partition("x")
                head = head.rstrip("*")
                coef = 1 if head == "" else int(head)
                power = 1
                if tail:
                    if not tail.startswith("^"):
                        raise ValueError
                    power = int(tail[1:])
            else:
                coef = int(term)
                power = 0
        except ValueError:
            raise ValueError(f"bad term {term!r} in polynomial {text!r}") from None
        powers[power] = powers.get(power, 0) + sign * coef
    d = max(powers)
    if d < 1:
        raise ValueError("degree must be at least 1")
    if degree is not None and d != degree:
        raise ValueError(f"polynomial degree {d} does not match the stated degree {degree}")
    if powers[d] % modulus.p != 1:
        raise ValueError("polynomial must be monic")
    return MonicPoly([powers.get(i, 0) for i in range(d)], modulus)
