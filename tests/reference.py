"""Plain-loop references for the checks of the program's array code.

``eval_int`` is Horner evaluation at one point in Python ints, and
``legendre_euler`` the quadratic character by Euler's criterion, a route
independent of the program's squares table.  ``reference_matrix``
evaluates each candidate with eval_int and takes its character from
legendre_euler, one point at a time, with none of the array code under
test; the kernel tests and the quantum dense route both check against
it.  ``shifted_sums`` gives the degree-1 window sums the same way, by
whole shifts of that character table, at primes where the candidate
loop would be slow.  ``enumerate_monic`` lists the monic candidates in
index order, and ``is_perfect_square`` decides squares by extracting a
root.  ``build_state`` and ``pair_overlap`` are the dense route to the
quantum Gram matrix: one sign vector per candidate and its exact
rational overlaps.  ``reference_answers`` and ``reference_vote`` are
the noisy oracle's answers and plurality vote, hashed and counted draw
by draw; every oracle call is held to them.  ``sympy_is_squarefree``
decides square-freeness from sympy's square-free factorisation.
``reference_short_sums`` gives every prefix sum of chi(f(x)) one
polynomial and one point at a time, and ``rows_to_csv`` writes the
verify-bounds CSV one record at a time.  WIDE_PRIMES are the large
primes the kernel, poly and character tests draw from, on either side of the
int64 limit.
"""

import hashlib
import struct
from fractions import Fraction

import numpy as np
import sympy

from hiddenpoly.ffield import PrimeModulus
from hiddenpoly.poly import MonicPoly, is_squarefree, mul, poly_from_index

# either side of p(p-1) = 2^63 - 1, where int64 Horner would wrap, and 61/62/63-bit
WIDE_PRIMES = (3037000493, 3037000507, 2**61 - 1, 2**62 - 57, 2**63 - 25)


def eval_int(g, x):
    """g(x) mod p for the MonicPoly g at the integer x, by Horner in Python ints."""
    p = g.modulus.p
    acc = 1  # leading coefficient
    for c in reversed(g.coeffs):
        acc = (acc * x + c) % p
    return acc


def legendre_euler(a, p):
    """Quadratic character of a mod the odd prime p by Euler's criterion a^((p-1)/2)."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def enumerate_monic(d, modulus, squarefree_only=False):
    """All monic degree-d polynomials in index order; squarefree_only drops the others."""
    for i in range(modulus.p**d):
        f = poly_from_index(d, modulus, i)
        if not squarefree_only or is_squarefree(f):
            yield f


def is_perfect_square(f):
    """True iff f = g^2 for some monic g.

    The candidate root is extracted coefficient by coefficient from the
    top (2 is invertible because p is odd) and confirmed by squaring.
    """
    d = f.degree
    if d % 2:
        return False
    p = f.modulus.p
    m = d // 2
    full = list(f.coeffs) + [1]
    g = [0] * m + [1]
    inv2 = pow(2, p - 2, p)
    for j in range(1, m + 1):
        acc = 0
        for u in range(m - j + 1, m):
            acc += g[u] * g[2 * m - j - u]
        g[m - j] = (full[2 * m - j] - acc) * inv2 % p
    root = MonicPoly(g[:-1], f.modulus)
    return mul(root, root) == f


def build_state(g):
    """Sign vector chi_ext(g(x)) for x = 0..p-1 (int8), chi_ext patched to +1 at 0.

    One eval_int and one legendre_euler per point; g must be square-free.
    The candidate state has amplitudes signs / sqrt(p).
    """
    if not is_squarefree(g):
        raise ValueError("candidate states exist only for square-free polynomials")
    p = g.modulus.p
    return np.array([legendre_euler(eval_int(g, x), p) or 1 for x in range(p)], dtype=np.int8)


def pair_overlap(g, h):
    """Single-copy overlap as an exact rational: (sum of sign products) / p."""
    if g.modulus.p != h.modulus.p or g.degree != h.degree:
        raise ValueError("states live in the same candidate family")
    a = build_state(g).astype(np.int64)
    b = build_state(h).astype(np.int64)
    return Fraction(int(np.dot(a, b)), g.modulus.p)


def reference_matrix(p, d, xs, patched=False):
    """[candidate index, j] -> chi(g(xs[j])) by plain loops; patched: chi(0) = +1."""
    modulus = PrimeModulus(p)
    chi = [legendre_euler(v, p) for v in range(p)]
    if patched:
        chi[0] = 1
    rows = []
    for i in range(p**d):
        g = poly_from_index(d, modulus, i)
        rows.append([chi[eval_int(g, int(x))] for x in xs])
    return np.array(rows, dtype=np.int64).reshape(p**d, len(xs))


def sympy_is_squarefree(f):
    """True iff the MonicPoly f has no repeated factor, from sympy's square-free factorisation.

    sympy 1.14's Poly.is_sqf calls a p-th power such as x^3 + 1 over GF(3)
    square-free, because f' = 0 there, so the factorisation decides.
    """
    g = sympy.Poly([1, *reversed(f.coeffs)], sympy.Symbol("x"), modulus=f.modulus.p)
    return all(k == 1 for _, k in g.sqf_list()[1])


def shifted_sums(p, x0, weights):
    """[s] -> sum_j weights[j] * chi(x0 + j + s mod p) for every shift s, in int64.

    The window sums of the degree-1 candidates x + s, one whole shifted
    copy of the character table per weight.
    """
    chi = np.array([legendre_euler(v, p) for v in range(p)], dtype=np.int64)
    sums = np.zeros(p, dtype=np.int64)
    for j, w in enumerate(np.asarray(weights, dtype=np.int64)):
        sums += w * np.roll(chi, -(x0 + j))
    return sums


def reference_answers(seed, gamma, truth, x, first, t):
    """The noisy answers to draws first .. first+t-1 at x, one plain sha256 each.

    Each draw hashes tag + seed + x + draw.  Its first 8 bytes / 2^64
    below gamma keep the truth; otherwise bit 0 of the next 8 picks one of
    the two other values in ascending order.
    """
    wrong = sorted({-1, 0, 1} - {truth})
    answers = []
    for draw in range(first, first + t):
        digest = hashlib.sha256(b"hiddenpoly-oracle" + struct.pack("<QQQ", seed, x, draw)).digest()
        u = int.from_bytes(digest[:8], "little") / 2**64
        pick = int.from_bytes(digest[8:16], "little")
        answers.append(truth if u < gamma else wrong[pick % 2])
    return answers


def reference_vote(seed, gamma, truth, x, first, t):
    """Plurality of all t reference_answers, with no early stop; smallest value on ties."""
    answers = reference_answers(seed, gamma, truth, x, first, t)
    return max((-1, 0, 1), key=lambda v: (answers.count(v), -v))


def reference_short_sums(polys):
    """[k][M-1] = sum_{x=1}^{M} chi(polys[k](x)), 1 <= M < p, by a plain loop per polynomial."""
    out = []
    for f in polys:
        total, sums = 0, []
        for x in range(1, f.modulus.p):
            total += legendre_euler(eval_int(f, x), f.modulus.p)
            sums.append(total)
        out.append(sums)
    return out


def table_rows(tables):
    """Each checked instance of the BoundTables as a plain tuple, in report order.

    (lemma, p, d, params, measured, bound, passed), zipped from the columns.
    """
    return [(t.lemma, t.p, *cells)
            for t in tables for cells in zip(t.d, t.params, t.measured, t.bound, t.passed)]


def rows_to_csv(rows):
    """The verify-bounds CSV of table_rows tuples, one f-string per row."""
    lines = [
        f"{lemma},{p},{d},{params.replace(',', ';')},{measured!r},{bound!r},"
        f"{'pass' if passed else 'fail'}"
        for lemma, p, d, params, measured, bound, passed in rows
    ]
    return "\n".join(["lemma,p,d,params,measured,bound,pass", *lines]) + "\n"
