"""Classical simulation of the k-copy identification measurement.

The state attached to a square-free candidate g is the unit vector with
amplitudes chi_ext(g(x)) / sqrt(p) over x in F_p, where chi_ext is the
patched character (+1 at 0).  k query rounds correspond to the k-fold
tensor power, so overlaps between candidate states are exact rationals
c_gh = (sum_x chi_ext(g(x)) chi_ext(h(x))) / p raised to the k-th power;
the simulation therefore works in this factored form and never
materialises p^k amplitudes.

Translation (tau_a g)(x) = g(x + a) maps square-free candidates to
square-free candidates and preserves every overlap, so the candidates
fall into orbits of size p, or of size 1 for the translation-invariant
candidates that exist only when p divides d.  Everything is read from
one exact integer tensor over orbit representatives g_r,

    C[r, s, t] = sum_x chi_ext(g_r(x)) chi_ext(g_s(x + t)),

since tau_a g_r and tau_b g_s overlap in C[r, s, b - a] / p.  The Gram
matrix G[g, h] = c_gh^k is therefore block-circulant in the shifts, and
its eigenvalues are those of the p Hermitian blocks obtained by a
Fourier transform over t (Gray, "Toeplitz and Circulant Matrices").

The identification POVM scales every projector onto a candidate's
k-copy state by alpha = (1 - 1e-12) / lambda_max of G, leaving a
residual outcome with the remaining mass.  Measuring the state of the
true polynomial f yields outcome f with probability exactly alpha.
sigma_2d, the POVM weight and the outcome distribution all read one
GramMatrix; outcomes are addressed by monic index (poly.poly_index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import _kernels
from .ffield import PrimeModulus, chi_ext_table
from .limits import check_ops
from .poly import MonicPoly, is_squarefree, poly_from_index, poly_index

__all__ = [
    "GramMatrix",
    "PovmResult",
    "build_state",
    "pair_overlap",
    "sigma_2d",
    "sigma_bound",
    "choose_k",
    "gram_matrix",
    "povm_alpha",
    "measurement_distribution",
]

ALPHA_MARGIN = 1e-12


@dataclass
class GramMatrix:
    """G[g, h] = pair_overlap(g, h)^k over the square-free candidates, in orbit form.

    members[r, a] is the index of tau_a g_r; the row of a translation-invariant
    (fixed) orbit is constant.  G[tau_a g_r, tau_b g_s] = (overlaps[r, s, b - a] / p)^k.
    """

    order: int  # number of square-free candidates
    k: int
    d: int
    modulus: PrimeModulus
    members: np.ndarray  # int64, shape (orbits, p)
    overlaps: np.ndarray  # int64, shape (orbits, orbits, p): C[r, s, t]

    @property
    def fixed(self) -> np.ndarray:
        return (self.members == self.members[:, :1]).all(axis=1)


@dataclass
class PovmResult:
    """Scaling alpha, the eigenvalue behind it, and an optional distribution.

    outcomes[i] is the probability of the candidate of monic index i (0 off
    the square-free family); residual_mass is the inconclusive outcome's.
    """

    alpha: float
    lambda_max: float
    k: int
    outcomes: Optional[np.ndarray] = None  # float64, length p^d
    residual_mass: Optional[float] = None


def build_state(g: MonicPoly) -> np.ndarray:
    """Sign vector chi_ext(g(x)) for x = 0..p-1 (int8); g must be square-free.

    The candidate state has amplitudes signs / sqrt(p).
    """
    if not is_squarefree(g):
        raise ValueError("candidate states exist only for square-free polynomials")
    return chi_ext_table(g.modulus)[g.eval_array(np.arange(g.modulus.p, dtype=np.int64))]


def pair_overlap(g: MonicPoly, h: MonicPoly) -> Fraction:
    """Single-copy overlap as an exact rational: (sum of sign products) / p."""
    if g.modulus.p != h.modulus.p or g.degree != h.degree:
        raise ValueError("states live in the same candidate family")
    a = build_state(g).astype(np.int64)
    b = build_state(h).astype(np.int64)
    return Fraction(int(np.dot(a, b)), g.modulus.p)


def sigma_2d(gram: GramMatrix) -> int:
    """Exact max over distinct square-free pairs of |sum_x chi_ext(g) chi_ext(h)|.

    Read from gram's overlap tensor, so any k gives the same value.
    """
    c = np.abs(gram.overlaps)
    diag = np.arange(len(c))
    c[diag, diag, 0] = 0  # (r, r, 0) pairs each candidate with itself
    fixed = np.flatnonzero(gram.fixed)
    c[fixed, fixed] = 0  # so does every shift of a fixed orbit
    return int(c.max(initial=0))


def sigma_bound(modulus: PrimeModulus, d: int) -> float:
    """2 d sqrt(p); the derivation needs p > 3 (callers flag the p = 3 case)."""
    return 2.0 * d * math.sqrt(modulus.p)


def choose_k(d: int, epsilon: float) -> int:
    """Number of query rounds: ceil(2 (d+1) / epsilon)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if d < 1:
        raise ValueError("degree must be at least 1")
    return math.ceil(2 * (d + 1) / epsilon)


def _translates(p: int, d: int, idx: np.ndarray) -> np.ndarray:
    """out[i, a] = index of g(x + a) for the monic degree-d g of index idx[i]."""
    coeffs = idx[:, None] // p ** np.arange(d + 1, dtype=np.int64) % p
    coeffs[:, d] = 1
    powers = np.ones((d + 1, p), dtype=np.int64)  # powers[e] = a^e mod p
    for e in range(1, d + 1):
        powers[e] = powers[e - 1] * np.arange(p) % p
    out = np.zeros((len(idx), p), dtype=np.int64)
    for i in range(d):
        # coefficient i of g(x + a) is sum_{j >= i} c_j binom(j, i) a^(j - i)
        ci = np.zeros_like(out)
        for j in range(i, d + 1):
            ci = (ci + coeffs[:, j, None] * (math.comb(j, i) % p * powers[j - i] % p)) % p
        out += ci * p**i
    return out


def gram_matrix(
    modulus: PrimeModulus, d: int, k: int, *, budget: int | None = None
) -> GramMatrix:
    """Gram matrix of the k-copy candidate states, in translation-orbit form."""
    if k < 1:
        raise ValueError("k must be at least 1")
    p = modulus.p
    # orbit count: p^(d-1) free orbits at most, plus the fixed ones when p | d,
    # which lie in F_p[x^p - x]; the tensor costs m^2 p, the eigensolves ~p m^3 / 2
    m = p ** (d - 1) + (p ** (d // p) if d % p == 0 else 0)
    check_ops(m * m * p + (p // 2 + 1) * m**3, budget, "quantum orbit tensor")
    mask = _kernels.squarefree_mask(p, d, budget)
    if d % p:
        # tau_a moves s_{d-1} by d*a, so each orbit has one member with s_{d-1} = 0
        reps = np.flatnonzero(mask[: p ** (d - 1)])
    else:
        reps = np.unique(_translates(p, d, np.flatnonzero(mask)).min(axis=1))
    signs = np.stack([build_state(poly_from_index(d, modulus, int(r))) for r in reps])
    # C[r, s, t] = sum_x A_r(x) A_s(x + t) is a cyclic cross-correlation; every
    # value is an integer of size at most p, so rint makes the FFT exact
    f = np.fft.rfft(signs.astype(np.float64), axis=1)
    corr = np.fft.irfft(f.conj()[:, None, :] * f[None, :, :], n=p, axis=2)
    return GramMatrix(
        order=int(mask.sum()),
        k=k,
        d=d,
        modulus=modulus,
        members=_translates(p, d, reps),
        overlaps=np.rint(corr).astype(np.int64),
    )


def povm_alpha(gram: GramMatrix) -> PovmResult:
    """alpha = (1 - 1e-12) / lambda_max, so the residual keeps nonnegative mass.

    Lifting G to the (orbit, shift) grid, with weight 1/sqrt(p) on the rows
    and columns of a fixed orbit, is isometric and block-circulant; its
    nonzero spectrum is G's, so lambda_max is the top eigenvalue over the
    Hermitian Fourier blocks, each solved exactly.
    """
    p = gram.modulus.p
    weight = np.where(gram.fixed, 1.0 / math.sqrt(p), 1.0)
    # block p - j is the complex conjugate of block j, same eigenvalues: rfft suffices
    blocks = np.fft.rfft((gram.overlaps / p) ** gram.k, axis=2)
    blocks *= (weight[:, None] * weight[None, :])[:, :, None]
    lam = float(np.linalg.eigvalsh(blocks.transpose(2, 0, 1))[:, -1].max())
    return PovmResult(alpha=(1.0 - ALPHA_MARGIN) / lam, lambda_max=lam, k=gram.k)


def measurement_distribution(f: MonicPoly, gram: GramMatrix) -> PovmResult:
    """Outcome distribution of the POVM applied to the k-copy state of f.

    P(outcome g) = alpha * c_gf^(2k); the correct outcome has probability
    exactly alpha, and the residual outcome absorbs the remaining mass.
    """
    p = gram.modulus.p
    hits = np.argwhere(gram.members == poly_index(f))
    if f.modulus.p != p or f.degree != gram.d or not len(hits):
        raise ValueError("hidden polynomial is not in the candidate family")
    povm = povm_alpha(gram)
    r, a = hits[0]  # f = tau_a g_r
    # G[f, tau_b g_s] = (C[r, s, b - a] / p)^k; the row of a fixed orbit s is
    # constant, so its repeated writes to one index agree
    row = (np.roll(gram.overlaps[r], a, axis=1) / p) ** gram.k
    outcomes = np.zeros(p**gram.d)
    outcomes[gram.members] = povm.alpha * row * row  # diagonal gives alpha exactly
    # summed in candidate order, one term per candidate
    residual = 1.0 - float(outcomes[np.unique(gram.members)].sum())
    return PovmResult(
        alpha=povm.alpha,
        lambda_max=povm.lambda_max,
        k=gram.k,
        outcomes=outcomes,
        residual_mass=residual,
    )
