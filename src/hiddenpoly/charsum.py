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

Each sweep calls a primitive that is cross-checked against a plain loop:
``sweep_weil_short`` calls ``short_char_sums``, once per (p, d) on all 20
products g*h, read as chi(g) chi(h) by one ``_kernels.index_rows`` gather,
``sweep_mult_weil`` ``multilinear_form_sums``, ``sweep_moment``
``moment_sums``, and
``sweep_pair_identity`` and ``sweep_weil`` the all-F complete-sum scan
kernel: the pair sweep reads every monic quadratic's sum once, through
``correlation_survivors`` at bound 0, and the Weil sweep reduces a
superset of one F per affine orbit x -> ux + a to its least and largest
sum over the non-squares, through ``masked_extrema``, which keeps its max
|sum| exhaustive with no array of sums.
``multilinear_form_sums`` reduces and checks a prime's whole batch of form
sets as one int64 table and evaluates the sets of each size as one chunked
int8 product of the forms' characters.  ``moment_sums`` takes weights in
{-1, 0, 1}, groups columns equal up to sign with one lexsort, streams the
candidates in ``chi_blocks`` row blocks into one histogram of the integer
inner sums per class, binned in column groups of about GROUP_BINS counts,
and sums its moments in int64 base-2^b digits, joined as Python ints.

Every sweep returns one ``BoundTable`` per prime: the lemma id, p and
equal-length columns ``d``, ``params``, ``measured``, ``bound`` and
``passed``, so no record is built per checked instance.  ``LinearForm``
is a NamedTuple; ``BoundTable`` is a NamedTuple of lists.
"""

from __future__ import annotations

import math
import operator
import random
from typing import NamedTuple, Sequence

import numpy as np

from . import _kernels
from .ffield import PrimeModulus
from .limits import check_ops
from .poly import MonicPoly, format_poly, poly_index, random_squarefree

__all__ = [
    "LinearForm",
    "BoundTable",
    "short_char_sums",
    "multilinear_form_sums",
    "moment_sums",
    "weil_bound",
    "short_weil_bound",
    "mult_weil_bound",
    "moment_bound",
    "sweep_pair_identity",
    "sweep_weil",
    "sweep_weil_short",
    "sweep_mult_weil",
    "sweep_moment",
    "SWEEPS",
]

# Empirical constant for the short-interval bound, pinned from the desk-scale
# measurement recorded by the test suite (max observed ratio stays below 1).
SHORT_WEIL_CONSTANT = 1.0

# Histogram counts per column group in `moment_sums`: 2^12 int64 counts are
# 32 KiB, inside a 48 KiB L1d.  At the default sweep's (p=101, d=2, N=43,
# T=1000) cell, one core, one BLAS thread, medians of 15 calls on a 2-core
# Xeon: 2^12 (93 columns) 45-66 ms a call, 2^11 and 2^13 58-85 ms, and one
# group of all 1000 columns 64-88 ms.
GROUP_BINS = 1 << 12


class BoundTable(NamedTuple):
    """One sweep's checked instances at one prime, as equal-length columns."""

    lemma: str
    p: int
    d: list[int]
    params: list[str]
    measured: list[float]
    bound: list[float]
    passed: list[bool]


class LinearForm(NamedTuple):
    """S_0 + S_1*c_1 + ... + S_{d-1}*c_{d-1} + c_d over F_p.

    The S_0 coefficient is fixed to 1; `coefficients` holds (c_1, ..., c_{d-1})
    and `constant` holds c_d.
    """

    coefficients: tuple[int, ...]
    constant: int


def short_char_sums(*factors: Sequence[MonicPoly]) -> np.ndarray:
    """Every short sum of every f: out[k, M-1] = sum_{x=1}^{M} chi(f_k(x)), 1 <= M < p.

    f_k is the product of entry k of every argument.  chi is completely
    multiplicative, so the factors' characters, of one field and one degree
    d, are one ``_kernels.index_rows`` gather: p^d, not p^(d * len(factors)),
    must fit int64.
    """
    flat = [f for polys in factors for f in polys]
    if len({f.modulus.p for f in flat}) != 1:
        raise ValueError("short_char_sums needs polynomials over one field")
    if len({f.degree for f in flat}) != 1 or len({len(polys) for polys in factors}) != 1:
        raise ValueError("short_char_sums needs polynomials of one degree, as many per argument")
    p, d = flat[0].modulus.p, flat[0].degree
    chi = _kernels.index_rows(p, d, [poly_index(f) for f in flat], np.arange(1, p, dtype=np.int64))
    chi = chi.reshape(len(factors), -1, p - 1).prod(axis=0, dtype=np.int8)
    return np.cumsum(chi, axis=1, dtype=np.int64)


def multilinear_form_sums(
    form_sets: Sequence[Sequence[LinearForm]],
    d: int,
    modulus: PrimeModulus,
    budget: int | None = None,
) -> np.ndarray:
    """out[k] = sum over (S_0,...,S_{d-1}) in F_p^d of chi(prod_v L_v(S)) for set k.

    Each set holds pairwise distinct forms (after reduction mod p) whose
    coefficients fit int64; sets may differ in size.  Returns one exact
    int64 sum per set, in order.  Sets of the same size are evaluated
    together as one (sets, rows, p) product of the shifted S_0 axis, in
    chunks of at most about BLOCK_CELLS cells.  chi is completely
    multiplicative, so the product is taken of the forms' characters, in
    int8, and never of the forms mod p.
    """
    p = modulus.p
    if d < 1:
        raise ValueError("d must be at least 1")
    flat = [form for forms in form_sets for form in forms]
    if any(len(c) != d - 1 for c, _ in flat):
        raise ValueError("each form needs d-1 S_1..S_{d-1} coefficients")
    # table[i] = (c_1, ..., c_{d-1}, c_d) of the i-th form of the batch, reduced mod p
    table = np.array([(*c, b) for c, b in flat], dtype=np.int64).reshape(len(flat), d) % p
    sizes = np.array([len(forms) for forms in form_sets], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    # groups[n] = (members, forms): forms[k, v] is form v of the set members[k]
    groups = {}
    for n in sorted(set(sizes.tolist())):
        members = np.flatnonzero(sizes == n)
        forms = table[starts[members, None] + np.arange(n)]
        # sorted within each set, a repeated form sits next to its copy
        ranked = np.take_along_axis(forms, np.lexsort(forms.transpose(2, 0, 1))[..., None], 1)
        if (ranked[:, 1:] == ranked[:, :-1]).all(axis=2).any():
            raise ValueError("forms must be pairwise distinct")
        groups[n] = members, forms
    check_ops(p**d * int(np.maximum(sizes, 1).sum()), budget, "multilinear form scan")

    # the sum runs over all of F_p^d, so the rows (S_1, ..., S_{d-1}) may come
    # in any order; a chunk takes whole sets when one set's p^d cells fit in
    # BLOCK_CELLS, and otherwise one set and a block of rows
    # chi2[s] = chi(s mod p) for 0 <= s < 2p: S_0 plus a shift below p
    chi2 = _kernels._chi2(p)
    s0 = np.arange(p, dtype=np.int64)
    place = p ** np.arange(d - 1, dtype=np.int64)
    rows = p ** (d - 1)
    row_step = min(rows, max(1, _kernels.BLOCK_CELLS // p))
    set_step = max(1, _kernels.BLOCK_CELLS // (rows * p))
    out = np.zeros(len(form_sets), dtype=np.int64)
    for n_forms, (members, forms) in groups.items():
        # coeffs[k, v] = (c_1, ..., c_{d-1}) of form v in set k, consts[k, v] = c_d
        coeffs, consts = forms[..., :-1], forms[..., -1]
        for a in range(0, len(members), set_step):
            c, b = coeffs[a : a + set_step], consts[a : a + set_step]
            for h in range(0, rows, row_step):
                rest = np.arange(h, min(rows, h + row_step), dtype=np.int64)[:, None] // place % p
                # shifts[k, v, r] = L_v(0, rest[r]) for the set members[a + k]
                shifts = (c @ rest.T + b[:, :, None]) % p
                prod = np.ones((len(c), len(rest), p), dtype=np.int8)
                for v in range(n_forms):
                    prod *= chi2[s0 + shifts[:, v, :, None]]
                out[members[a : a + set_step]] += prod.sum(axis=(1, 2), dtype=np.int64)
    return out


def moment_sums(
    weights: np.ndarray,
    d: int,
    rs: Sequence[int],
    modulus: PrimeModulus,
    budget: int | None = None,
) -> np.ndarray:
    """out[i, t] = sum over ALL monic degree-d g of |sum_x w[x-1, t] chi(g(x))|^(2 rs[i]).

    x runs over [1, N] for (N, T) weights with N <= p and every entry in
    {-1, 0, 1}.  Then each inner sum S is an integer with |S| <= N, so the
    candidates are streamed in row blocks into a histogram of |S|, and the
    moments follow from it exactly: the result is an object array of
    Python ints.  |S| does not change when a column is negated, so columns
    equal up to sign share one histogram: each column is flipped so that
    its first nonzero entry is +1, and only the k distinct columns are
    streamed.  Each block of candidates is cast to float32 once, then
    binned G columns at a time, G * (N + 1) about GROUP_BINS and G times
    the block's rows about BLOCK_CELLS, so each bincount fills a slice of
    the histogram small enough to stay in cache; the codes of every group
    are written into the same two buffers.  The budget still counts
    p^d * N * T, an upper bound on that work.  No columns (T = 0) give an
    empty (len(rs), 0) result.  The candidate set is deliberately the full
    p^d monic family, not just the square-free part; the companion bound
    is stated for that family.
    """
    p = modulus.p
    w = np.asarray(weights)
    if w.ndim != 2:
        raise ValueError("weights must be an (N, T) array")
    n, trials = w.shape
    if not 1 <= n <= p:
        raise ValueError("weight window must satisfy 1 <= N <= p")
    if not np.isin(w, (-1, 0, 1)).all():
        raise ValueError("weights must lie in {-1, 0, 1}")
    if any(r < 1 for r in rs):
        raise ValueError("r must be at least 1")
    # the matrix product dominates: at most p^d * N * T multiply-adds
    check_ops(p**d * n * trials, budget, "moment scan")
    if not trials:
        return np.empty((len(rs), 0), dtype=object)
    w8 = w.astype(np.int8)
    # the first nonzero entry of each column (0 for an all-zero column) sets its sign
    first = w8[np.argmax(w8 != 0, axis=0), np.arange(trials)]
    w8 *= np.where(first < 0, -1, 1).astype(np.int8)
    # sorted by its rows, a column opens a new class where it differs from the one before
    order = np.lexsort(w8)
    ranked = w8[:, order]
    new = np.concatenate([[True], (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)])
    classes = ranked[:, new]
    inverse = (np.cumsum(new) - 1)[np.argsort(order)]
    k = classes.shape[1]
    # float32 is exact: every partial sum is an integer of size at most N, and
    # N < 2^24 in any scan that ends: N >= 2^24 means p^d * N >= 2^48 cells
    wf = np.ascontiguousarray(classes.T, dtype=np.float32)
    # class j (row j of wf) counts |S| = v at code j*(N+1) + v, binned in its
    # group's slice of counts; a (rows, N, p) block of c candidates gives
    # (rows, G, p) codes, and c * N and c * G are at most about BLOCK_CELLS
    # (at least one row of p candidates)
    group = min(k, max(1, GROUP_BINS // (n + 1)))
    offsets = np.arange(group, dtype=np.float32) * (n + 1)
    counts = np.zeros(k * (n + 1), dtype=np.int64)
    cells = _kernels.BLOCK_CELLS // max(group, n) * n
    xs = np.arange(1, n + 1, dtype=np.int64) % p
    # every group's codes go to the same two buffers, sized by the first block:
    # a fresh array per group may be mapped anew and page-faulted each time
    fbuf = ibuf = np.empty(0)
    for _, chi in _kernels.chi_blocks(p, d, xs, 0, p ** (d - 1), cells):
        block = chi.astype(np.float32)
        if len(fbuf) < len(block) * group * p:
            fbuf = np.empty(len(block) * group * p, dtype=np.float32)
            ibuf = np.empty(len(fbuf), dtype=np.int64)
        for j in range(0, k, group):
            w_group = wf[j : j + group]
            shape = (len(block), len(w_group), p)
            size = math.prod(shape)
            # a code is below max(GROUP_BINS, N + 1) < 2^24, so still exact in float32
            codes = np.matmul(w_group, block, out=fbuf[:size].reshape(shape))
            np.abs(codes, out=codes)
            codes += offsets[: shape[1], None]
            np.copyto(ibuf[:size].reshape(shape), codes, casting="unsafe")
            counts[j * (n + 1) : (j + group) * (n + 1)] += np.bincount(
                ibuf[:size], minlength=shape[1] * (n + 1))
    # sum_v counts[j, v] * v^(2r) digit by digit, v^(2r) in base 2^b: class j's
    # counts sum to p^d < 2^(63 - b), so each digit's sum is an exact int64
    b = 63 - (p**d).bit_length()
    shifts = range(0, (n ** (2 * max(rs, default=1))).bit_length(), b)
    digits = np.array([[[(v ** (2 * r) >> s) % (1 << b) for v in range(n + 1)] for s in shifts]
                       for r in rs], dtype=np.int64)
    parts = digits.reshape(len(rs), len(shifts), n + 1) @ counts.reshape(k, n + 1).T
    moments = np.array([1 << s for s in shifts], dtype=object) @ parts.astype(object)
    return moments[:, inverse]


def weil_bound(degree: int, p: int) -> float:
    return degree * math.sqrt(p)


def short_weil_bound(degree: int, p: int) -> float:
    return SHORT_WEIL_CONSTANT * degree * math.sqrt(p) * math.log(p)


def mult_weil_bound(n_forms: int, d: int, p: int) -> float:
    return 2.0 * n_forms * p ** (d - 0.5)


def moment_bound(r: int, n: int, d: int, p: int) -> float:
    """4r N^{2r} p^{d-1/2} + (2r)!/r! * N^r * p^d, evaluated in float64."""
    head = 4.0 * r * float(n) ** (2 * r) * p ** (d - 0.5)
    tail = float(math.factorial(2 * r) // math.factorial(r)) * float(n) ** r * float(p**d)
    return head + tail


# ----------------------------------------------------------------------
# Sweep drivers: each returns one BoundTable per prime for the CSV report.
# Every sweep takes (primes, *, seed, threads, budget) and refuses a
# prime whose cells together exceed the budget before computing any.
# ----------------------------------------------------------------------


def sweep_pair_identity(
    primes: Sequence[int] = (7, 101),
    *,
    seed: int = 0,
    threads: int = 1,
    budget: int | None = None,
) -> list[BoundTable]:
    """Exhaustive two-point identity check: one row per (a, b) pair.

    sum_x chi((x+a)(x+b)) is p-1 when a = b and exactly -1 otherwise.
    (x+a)(x+b) is the monic quadratic of index ab + (a+b)p (both mod p),
    so one complete-sum scan of all p^2 quadratics holds every pair sum.
    """
    tables = []
    for p in primes:
        PrimeModulus(p)  # validate
        check_ops(p**3, budget, "pair-identity sweep")
        ones = np.ones(p, dtype=np.int64)
        # bound 0 keeps every sum, in index order
        _, sums = _kernels.correlation_survivors(p, 2, 0, p, ones, 0, threads=threads)
        a, b = np.divmod(np.arange(p * p, dtype=np.int64), p)
        measured = sums[a * b % p + (a + b) % p * p].astype(np.float64)
        expected = np.where(a == b, p - 1.0, -1.0)
        # "a={i};b={j}" as two joined pieces: a quarter of the cost of formatting each
        heads, tails = [f"a={i};b=" for i in range(p)], [str(j) for j in range(p)]
        tables.append(BoundTable(
            "pair-identity", p, [1] * (p * p), [h + t for h in heads for t in tails],
            measured.tolist(), expected.tolist(), (measured == expected).tolist()))
    return tables


def sweep_weil(
    primes: Sequence[int] = (5, 7, 11, 13, 31, 61),
    *,
    seed: int = 0,
    threads: int = 1,
    budget: int | None = None,
) -> list[BoundTable]:
    """Exhaustive complete-sum bound check; one row per (p, degree <= 4) cell.

    The measured value is max |sum_x chi(F(x))| over every monic non-square
    F of the degree, found from affine-orbit representatives.  The map
    F -> u^(-D) * F(u*x + a), u != 0, keeps F monic, keeps it a square or
    not and leaves |sum| unchanged.  When p does not divide D, a translation
    clears s_{D-1}, and the scaling then keeps s_{D-1} = 0 and maps s_{D-2}
    to u^(-2) * s_{D-2}.  So for D >= 3 the F with s_{D-1} = 0 and s_{D-2}
    in {0, 1, n}, n the least quadratic non-residue, meet every orbit; the
    sweep scans the high-digit rows h < (n + 1) * p^(D-3), which hold them,
    and the max over those is the max over all F.  Degree 2 scans its one
    row s_1 = 0; degree 1 and degrees divisible by p scan all p^(D-1) rows.
    Each scan streams to the least and largest sum over a mask of its
    non-squares; measured is max(largest, -least).
    """
    tables = []
    degrees = range(1, 5)
    for p in primes:
        PrimeModulus(p)  # validate
        nonresidue = int(np.argmax(_kernels._chi2(p) < 0))  # the least one
        scans = [p ** (degree - 1) if degree == 1 or degree % p == 0
                 else 1 if degree == 2 else (nonresidue + 1) * p ** (degree - 3)
                 for degree in degrees]
        # p points per scanned candidate, plus squaring the p + p^2 roots (charged 9 p^2)
        check_ops(sum(n * p * p for n in scans) + 9 * p * p, budget, "weil sweep")
        ones = np.ones(p, dtype=np.int64)
        measured = []
        for degree, n in zip(degrees, scans):
            nonsquare = np.ones(n * p, dtype=bool)
            if degree % 2 == 0:
                for squares in _kernels._square_multiples(p, degree, degree // 2):
                    nonsquare[squares[squares < len(nonsquare)]] = False
            # complete sums: all-ones weights over the whole field
            low, high, _ = _kernels.masked_extrema(p, degree, 0, p, ones, nonsquare, threads)
            measured.append(float(max(high, -low)))
        bounds = [weil_bound(degree, p) for degree in degrees]
        params = [f"monic degree {degree}, non-squares, exhaustive" for degree in degrees]
        tables.append(BoundTable("weil", p, list(degrees), params, measured, bounds,
                                 list(map(operator.le, measured, bounds))))
    return tables


def sweep_weil_short(
    primes: Sequence[int] = (11, 31, 101),
    *,
    seed: int = 0,
    threads: int = 1,
    budget: int | None = None,
) -> list[BoundTable]:
    """Short-interval bound on products g*h of distinct square-free monics.

    20 seeded pairs per degree d in {1, 2}.  For each pair the measured
    value is the worst window max_{1<=M<p} |sum_{x=1}^{M} chi((gh)(x))|.
    The reported bound uses the pinned empirical constant; the true
    constant is implicit in the O().
    """
    tables = []
    for p in primes:
        modulus = PrimeModulus(p)
        # 20 pairs per degree, two factors of d offset terms each over p points
        check_ops(20 * (2 + 4) * p, budget, "weil-short sweep")
        ds, params, measured = [], [], []
        for d in (1, 2):
            rng = random.Random(f"{seed}:{p}:{d}")
            pairs = []
            for _ in range(20):
                g = random_squarefree(modulus, d, rng)
                h = random_squarefree(modulus, d, rng)
                while h == g:
                    h = random_squarefree(modulus, d, rng)
                pairs.append((g, h))
            sums = short_char_sums([g for g, _ in pairs], [h for _, h in pairs])
            ds += [d] * len(pairs)
            params += [f"g={format_poly(g)};h={format_poly(h)};worst M" for g, h in pairs]
            measured += np.abs(sums).max(axis=1).astype(np.float64).tolist()
        bounds = [short_weil_bound(2 * d, p) for d in ds]
        tables.append(BoundTable("weil-short", p, ds, params, measured, bounds,
                                 list(map(operator.le, measured, bounds))))
    return tables


def sweep_mult_weil(
    primes: Sequence[int] = (5, 7, 11),
    *,
    seed: int = 0,
    threads: int = 1,
    budget: int | None = None,
) -> list[BoundTable]:
    """Multilinear average bound at d = 2 over 500 seeded sets of 1-3 distinct forms."""
    tables = []
    for p in primes:
        modulus = PrimeModulus(p)
        check_ops(500 * 3 * p**2, budget, "mult-weil sweep")
        rng = random.Random(f"{seed}:{p}")
        form_sets = []
        for i in range(500):
            # (c_1, c_2) per form, the coefficient drawn before the constant
            pairs: set[tuple[int, int]] = set()
            while len(pairs) < 1 + i % 3:
                pairs.add((rng.randrange(p), rng.randrange(p)))
            form_sets.append([LinearForm((c,), b) for c, b in sorted(pairs)])
        sums = multilinear_form_sums(form_sets, 2, modulus, budget)
        sizes = [len(forms) for forms in form_sets]
        bound_of = {n: mult_weil_bound(n, 2, p) for n in (1, 2, 3)}
        bounds = [bound_of[n] for n in sizes]
        tables.append(BoundTable(
            "mult-weil", p, [2] * len(sizes),
            [f"sample={i};forms={n}" for i, n in enumerate(sizes)],
            sums.astype(np.float64).tolist(), bounds,
            list(map(operator.le, np.abs(sums).tolist(), bounds))))
    return tables


def sweep_moment(
    primes: Sequence[int] = (7, 101),
    *,
    seed: int = 0,
    threads: int = 1,
    budget: int | None = None,
) -> list[BoundTable]:
    """Moment bound over 1000 seeded random +/-1 weight vectors, d in {1, 2}.

    One row per (p, d, r, N) cell; the measured value is the worst moment
    over the trials.
    """
    tables = []
    for p in primes:
        modulus = PrimeModulus(p)
        cells = [(d, n) for d in (1, 2)
                 for n in sorted({1, min(5, p), min(math.ceil(d * math.log(p) ** 2), p)})]
        # p^d * N * 1000 multiply-adds per cell, as moment_sums counts them
        check_ops(sum(p**d * n * 1000 for d, n in cells), budget, "moment sweep")
        rs = sorted({1, 2, math.ceil(math.log(p))})
        ds, params, measured, bounds = [], [], [], []
        for d, n in cells:
            rng = np.random.default_rng([seed, p, d, n])
            weights = rng.choice(np.array([-1.0, 1.0]), size=(n, 1000))
            for r, moments in zip(rs, moment_sums(weights, d, rs, modulus, budget)):
                ds.append(d)
                params.append(f"r={r};N={n};trials=1000;weights=+-1")
                measured.append(float(np.max(moments)))
                bounds.append(moment_bound(r, n, d, p))
        tables.append(BoundTable("average", p, ds, params, measured, bounds,
                                 list(map(operator.le, measured, bounds))))
    return tables


# CSV lemma id -> sweep, in report order.  Sweeps are held by name and
# looked up on the module at call time, so a wrapper installed on the
# module afterwards (a tracer, a profiler) sees every call.
SWEEPS = {
    "pair-identity": "sweep_pair_identity",
    "weil": "sweep_weil",
    "weil-short": "sweep_weil_short",
    "mult-weil": "sweep_mult_weil",
    "average": "sweep_moment",
}

