"""Character sums over F_p and empirical verification of their bounds.

Sums are computed by direct enumeration in exact integer arithmetic;
floating point appears only in the final comparison against a bound
formula.  Every logarithm in a bound formula is the natural logarithm.

Bounds covered by the sweep drivers (the CSV lemma ids in parentheses):

* complete-sum bound max |sum_x chi(F(x))| <= deg(F) * sqrt(p) over
  monic F that are not perfect squares            (``weil``)
* short-interval variant with window [1, M]       (``weil-short``)
* the exact two-point product-sum identity        (``pair-identity``)
* multilinear average over coefficient space      (``mult-weil``)
* 2r-th moment of weighted short sums             (``average``)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .ffield import FpElement, PrimeModulus, chi_table
from .limits import check_ops
from .poly import MonicPoly

__all__ = [
    "LinearForm",
    "WeightVector",
    "BoundCheckRow",
    "complete_char_sum",
    "short_char_sum",
    "pair_identity",
    "multilinear_form_sum",
    "moment_sum",
    "weil_bound",
    "short_weil_bound",
    "mult_weil_bound",
    "moment_bound",
    "sweep_pair_identity",
    "sweep_weil",
    "sweep_weil_short",
    "sweep_mult_weil",
    "sweep_moment",
    "default_sweep",
]

# Empirical constant for the short-interval bound, pinned from the desk-scale
# measurement recorded by the test suite (max observed ratio stays below 1).
SHORT_WEIL_CONSTANT = 1.0

DEFAULT_WEIL_PRIMES = (5, 7, 11, 13, 31, 61)
DEFAULT_PAIR_PRIMES = (7, 101)
DEFAULT_SHORT_PRIMES = (11, 31, 101)
DEFAULT_MULT_PRIMES = (5, 7, 11)
DEFAULT_MOMENT_PRIMES = (7, 101)


@dataclass(frozen=True)
class BoundCheckRow:
    """One checked instance: a measured value against its bound formula."""

    lemma: str
    p: int
    d: int
    params: str
    measured: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class LinearForm:
    """S_0 + S_1*c_1 + ... + S_{d-1}*c_{d-1} + c_d over F_p.

    The S_0 coefficient is fixed to 1; `coefficients` holds (c_1, ..., c_{d-1})
    and `constant` holds c_d.
    """

    coefficients: tuple[int, ...]
    constant: int

    def reduced(self, p: int) -> "LinearForm":
        return LinearForm(tuple(c % p for c in self.coefficients), self.constant % p)


class WeightVector:
    """Real weights alpha_1, ..., alpha_N (|alpha_x| <= 1) on the window [1, N]."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[float]):
        entries = tuple(float(a) for a in entries)
        if not entries:
            raise ValueError("weight vector must be nonempty")
        if any(abs(a) > 1.0 + 1e-12 for a in entries):
            raise ValueError("weights must satisfy |alpha| <= 1")
        self.entries = entries

    @property
    def window(self) -> int:
        return len(self.entries)


def complete_char_sum(f: MonicPoly) -> int:
    """sum over all of F_p of chi(f(x)); exact integer."""
    p = f.modulus.p
    xs = np.arange(p, dtype=np.int64)
    return int(chi_table(f.modulus)[f.eval_array(xs)].sum())


def short_char_sum(f: MonicPoly, m: int) -> int:
    """sum_{x=1}^{M} chi(f(x)); requires 1 <= M < p (callers clamp)."""
    p = f.modulus.p
    if not 1 <= m < p:
        raise ValueError("window must satisfy 1 <= M < p")
    xs = np.arange(1, m + 1, dtype=np.int64)
    return int(chi_table(f.modulus)[f.eval_array(xs)].sum())


def pair_identity(a: FpElement, b: FpElement) -> int:
    """sum_x chi((x+a)(x+b)): p-1 when a = b, otherwise exactly -1."""
    if a.modulus.p != b.modulus.p:
        raise ValueError("elements of different fields")
    p = a.modulus.p
    xs = np.arange(p, dtype=np.int64)
    vals = ((xs + a.value) % p) * ((xs + b.value) % p) % p
    return int(chi_table(a.modulus)[vals].astype(np.int64).sum())


def multilinear_form_sum(
    forms: Sequence[LinearForm],
    d: int,
    modulus: PrimeModulus,
    budget: int | None = None,
) -> int:
    """sum over (S_0,...,S_{d-1}) in F_p^d of chi(prod_v L_v(S)); exact integer.

    The forms must be pairwise distinct (after reduction mod p).
    """
    p = modulus.p
    if d < 1:
        raise ValueError("d must be at least 1")
    reduced = [f.reduced(p) for f in forms]
    if any(len(f.coefficients) != d - 1 for f in reduced):
        raise ValueError("each form needs d-1 S_1..S_{d-1} coefficients")
    if len(set(reduced)) != len(reduced):
        raise ValueError("forms must be pairwise distinct")
    check_ops(p**d * max(1, len(reduced)), budget, "multilinear form scan")

    chi = chi_table(modulus).astype(np.int64)
    s0 = np.arange(p, dtype=np.int64)
    total = 0
    # the sum runs over all of F_p^d, so (S_1, ..., S_{d-1}) may come in any order
    for rest in itertools.product(range(p), repeat=d - 1):
        prod = np.ones(p, dtype=np.int64)
        for form in reduced:
            shift = form.constant
            for c, s in zip(form.coefficients, rest):
                shift += c * s
            prod = prod * ((s0 + shift) % p) % p
        total += int(chi[prod].sum())
    return total


def moment_sum(
    w: WeightVector,
    d: int,
    r: int,
    modulus: PrimeModulus,
    budget: int | None = None,
) -> float:
    """sum over ALL monic degree-d g of |sum_{x=1}^{N} alpha_x chi(g(x))|^(2r).

    The candidate set is deliberately the full p^d monic family, not just the
    square-free part; the companion bound is stated for that family.
    """
    p = modulus.p
    if r < 1:
        raise ValueError("r must be at least 1")
    n = w.window
    if n > p:
        raise ValueError("weight window cannot exceed p")
    check_ops(p**d * n, budget, "moment scan")
    matrix = _kernels.chi_window_matrix(p, d, 1, n, budget).astype(np.float64)
    inner = matrix @ np.asarray(w.entries, dtype=np.float64)
    return float(np.sum((inner * inner) ** r))


def weil_bound(degree: int, p: int) -> float:
    return degree * math.sqrt(p)


def short_weil_bound(degree: int, p: int, constant: float = SHORT_WEIL_CONSTANT) -> float:
    return constant * degree * math.sqrt(p) * math.log(p)


def mult_weil_bound(n_forms: int, d: int, p: int) -> float:
    return 2.0 * n_forms * p ** (d - 0.5)


def moment_bound(r: int, n: int, d: int, p: int) -> float:
    """4r N^{2r} p^{d-1/2} + (2r)!/r! * N^r * p^d, evaluated in float64."""
    head = 4.0 * r * float(n) ** (2 * r) * p ** (d - 0.5)
    tail = float(math.factorial(2 * r) // math.factorial(r)) * float(n) ** r * float(p**d)
    return head + tail


# ----------------------------------------------------------------------
# Sweep drivers: each returns BoundCheckRow records for the CSV report.
# ----------------------------------------------------------------------


def sweep_pair_identity(primes: Sequence[int] = DEFAULT_PAIR_PRIMES) -> list[BoundCheckRow]:
    """Exhaustive two-point identity check: one row per (a, b) pair."""
    rows = []
    for p in primes:
        modulus = PrimeModulus(p)
        chi = chi_table(modulus).astype(np.int64)
        xs = np.arange(p, dtype=np.int64)
        for a in range(p):
            left = (xs + a) % p
            for b in range(p):
                measured = int(chi[left * ((xs + b) % p) % p].sum())
                expected = p - 1 if a == b else -1
                rows.append(
                    BoundCheckRow(
                        lemma="pair-identity",
                        p=p,
                        d=1,
                        params=f"a={a};b={b}",
                        measured=float(measured),
                        bound=float(expected),
                        passed=measured == expected,
                    )
                )
    return rows


def sweep_weil(
    primes: Sequence[int] = DEFAULT_WEIL_PRIMES,
    max_degree: int = 4,
    threads: int = 1,
    budget: int | None = None,
) -> list[BoundCheckRow]:
    """Exhaustive complete-sum bound check; one row per (p, degree) cell."""
    rows = []
    for p in primes:
        PrimeModulus(p)  # validate
        for degree in range(1, max_degree + 1):
            sums = _kernels.all_monic_char_sums(p, degree, threads=threads, budget=budget)
            # zeroing the perfect squares in place leaves the max of |sum| over
            # the non-squares unchanged and allocates no second p^D array
            sums[_kernels.perfect_square_indices(p, degree, budget)] = 0
            measured = int(np.max(np.abs(sums, out=sums)))
            bound = weil_bound(degree, p)
            rows.append(
                BoundCheckRow(
                    lemma="weil",
                    p=p,
                    d=degree,
                    params=f"monic degree {degree}, non-squares, exhaustive",
                    measured=float(measured),
                    bound=bound,
                    passed=measured <= bound,
                )
            )
    return rows


def _sample_distinct_squarefree(modulus, d, rng):
    from .poly import random_squarefree

    g = random_squarefree(modulus, d, rng)
    while True:
        h = random_squarefree(modulus, d, rng)
        if h != g:
            return g, h


def sweep_weil_short(
    primes: Sequence[int] = DEFAULT_SHORT_PRIMES,
    degrees: Sequence[int] = (1, 2),
    samples: int = 20,
    seed: int = 0,
    constant: float = SHORT_WEIL_CONSTANT,
) -> list[BoundCheckRow]:
    """Short-interval bound on products g*h of distinct square-free monics.

    For each sampled pair the measured value is the worst window
    max_{1<=M<p} |sum_{x=1}^{M} chi((gh)(x))|.  The reported bound uses the
    pinned empirical constant; the true constant is implicit in the O().
    """
    import random as _random

    from .poly import format_poly, mul

    rows = []
    for p in primes:
        modulus = PrimeModulus(p)
        chi = chi_table(modulus)
        xs = np.arange(1, p, dtype=np.int64)
        for d in degrees:
            rng = _random.Random(f"{seed}:{p}:{d}")
            for i in range(samples):
                g, h = _sample_distinct_squarefree(modulus, d, rng)
                product = mul(g, h)
                partial = np.cumsum(chi[product.eval_array(xs)], dtype=np.int64)
                measured = int(np.max(np.abs(partial)))
                bound = short_weil_bound(2 * d, p, constant)
                rows.append(
                    BoundCheckRow(
                        lemma="weil-short",
                        p=p,
                        d=d,
                        params=f"g={format_poly(g)};h={format_poly(h)};worst M",
                        measured=float(measured),
                        bound=bound,
                        passed=measured <= bound,
                    )
                )
    return rows


def sweep_mult_weil(
    primes: Sequence[int] = DEFAULT_MULT_PRIMES,
    d: int = 2,
    max_forms: int = 3,
    samples: int = 500,
    seed: int = 0,
    budget: int | None = None,
) -> list[BoundCheckRow]:
    """Multilinear average bound over seeded random distinct form sets."""
    import random as _random

    rows = []
    for p in primes:
        modulus = PrimeModulus(p)
        rng = _random.Random(f"{seed}:{p}")
        for i in range(samples):
            n_forms = 1 + i % max_forms
            forms: set[LinearForm] = set()
            while len(forms) < n_forms:
                forms.add(
                    LinearForm(
                        tuple(rng.randrange(p) for _ in range(d - 1)),
                        rng.randrange(p),
                    )
                )
            ordered = sorted(forms, key=lambda f: (f.coefficients, f.constant))
            measured = multilinear_form_sum(ordered, d, modulus, budget)
            bound = mult_weil_bound(n_forms, d, p)
            rows.append(
                BoundCheckRow(
                    lemma="mult-weil",
                    p=p,
                    d=d,
                    params=f"sample={i};forms={n_forms}",
                    measured=float(measured),
                    bound=bound,
                    passed=abs(measured) <= bound,
                )
            )
    return rows


def _moment_r_values(p: int) -> tuple[int, ...]:
    return tuple(sorted({1, 2, math.ceil(math.log(p))}))


def _moment_windows(p: int, d: int) -> tuple[int, ...]:
    return tuple(sorted({1, min(5, p), min(math.ceil(d * math.log(p) ** 2), p)}))


def sweep_moment(
    primes: Sequence[int] = DEFAULT_MOMENT_PRIMES,
    ds: Sequence[int] = (1, 2),
    trials: int = 1000,
    seed: int = 0,
    budget: int | None = None,
) -> list[BoundCheckRow]:
    """Moment bound over seeded random +/-1 weight vectors.

    One row per (p, d, r, N) cell; the measured value is the worst moment
    over the trials.
    """
    rows = []
    for p in primes:
        modulus = PrimeModulus(p)
        for d in ds:
            for n in _moment_windows(p, d):
                check_ops(p**d * max(n, trials), budget, "moment sweep cell")
                matrix = _kernels.chi_window_matrix(p, d, 1, n, budget).astype(np.float64)
                rng = np.random.default_rng([seed, p, d, n])
                weights = rng.choice(np.array([-1.0, 1.0]), size=(n, trials))
                inner = matrix @ weights
                sq = inner * inner
                for r in _moment_r_values(p):
                    moments = np.sum(sq**r, axis=0)
                    measured = float(np.max(moments))
                    bound = moment_bound(r, n, d, p)
                    rows.append(
                        BoundCheckRow(
                            lemma="average",
                            p=p,
                            d=d,
                            params=f"r={r};N={n};trials={trials};weights=+-1",
                            measured=measured,
                            bound=bound,
                            passed=measured <= bound,
                        )
                    )
    return rows


def default_sweep(
    seed: int = 0, threads: int = 1, budget: int | None = None
) -> list[BoundCheckRow]:
    """The full default grid used by the CLI report."""
    rows = []
    rows += sweep_pair_identity()
    rows += sweep_weil(threads=threads, budget=budget)
    rows += sweep_weil_short(seed=seed)
    rows += sweep_mult_weil(seed=seed, budget=budget)
    rows += sweep_moment(seed=seed, budget=budget)
    return rows
