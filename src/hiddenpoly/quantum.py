"""Classical simulation of the k-copy identification measurement.

The state attached to a square-free candidate g is the unit vector with
amplitudes chi_ext(g(x)) / sqrt(p) over x in F_p, where chi_ext is the
patched character (+1 at 0): the row of chi_table values that the scan
kernels gather for g, with its 0 entries set to +1.  k query rounds
correspond to the k-fold tensor power, so overlaps between candidate
states are exact rationals c_gh = (sum_x chi_ext(g(x)) chi_ext(h(x))) / p
raised to the k-th power; the simulation therefore works in this
factored form and never materialises p^k amplitudes.

Translation (tau_a g)(x) = g(x + a) keeps square-freeness and every
overlap, so the candidates fall into orbits of size p, or of size 1 for
the translation-invariant (fixed) candidates that exist only when p | d.
tau_a g_r and tau_b g_s overlap in C[r, s, b - a] / p, with
C[r, s, t] = sum_x chi_ext(g_r(x)) chi_ext(g_s(x + t)) over orbit
representatives g_r.  Lifted isometrically to the (orbit, shift) grid,
with weight w_r = 1/sqrt(p) on a fixed orbit, G is block-circulant, so
its nonzero spectrum is that of the Hermitian Fourier blocks
H_j[r, s] = w_r w_s sum_t (C[r, s, t] / p)^k e^(-2 pi i j t / p)
(Gray, "Toeplitz and Circulant Matrices").  A fixed orbit's C does not
depend on t, so it drops out of every block but H_0.

Scaling (sigma_u g)(x) = u^(-d) g(ux) keeps every overlap when u^(-d) is
a square: any u for even d, a square u for odd d.  As sigma_u tau_a =
tau_(a/u) sigma_u, it permutes the grid and carries frequency j to u j
up to phases, so H_j and H_(uj) share a spectrum, as do H_j and its
conjugate H_(-j).  So gram_matrix solves H_0, H_1 and, for odd d with
p = 1 (mod 4), H_n (n the least non-residue; for p = 3 (mod 4), -1 is
one and H_n shares H_1's spectrum), streaming row blocks of C from one
FFT correlation; measurement_distribution rebuilds the row of C it reads.

The identification POVM scales every projector onto a candidate's
k-copy state by alpha = (1 - 1e-12) / lambda_max of G, leaving a
residual outcome with the remaining mass.  Measuring the state of the
true polynomial f yields outcome f with probability exactly alpha;
outcomes are addressed by monic index (poly.poly_index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .ffield import PrimeModulus
from .limits import check_ops
from .poly import MonicPoly, poly_index

__all__ = [
    "GramMatrix",
    "PovmResult",
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
    """G[g, h] = c_gh^k over the square-free candidates, in orbit form.

    members[r, a] is the index of tau_a g_r, constant along a fixed orbit's row;
    G[tau_a g_r, tau_b g_s] = (C[r, s, b - a] / p)^k with C[r] = overlap_rows(r).
    """

    order: int  # number of square-free candidates
    k: int
    d: int
    modulus: PrimeModulus
    members: np.ndarray  # int64, shape (orbits, p)
    spectra: np.ndarray  # complex128, shape (orbits, p // 2 + 1): rfft of the sign rows
    blocks: list  # H_0 (float64), then H_1 and H_n (complex128) as solved
    sigma: int  # sigma_2d

    @property
    def fixed(self) -> np.ndarray:
        return (self.members == self.members[:, :1]).all(axis=1)

    def overlap_rows(self, rows) -> np.ndarray:
        """C[rows] as exact integers in float64; rows is an int or a slice."""
        # a cyclic cross-correlation of integers of size at most p: rint makes it exact
        c = np.fft.irfft(self.spectra[rows].conj()[..., None, :] * self.spectra, n=self.modulus.p)
        return np.rint(c, out=c)


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


def sigma_2d(gram: GramMatrix) -> int:
    """Exact max over distinct square-free pairs of |sum_x chi_ext(g) chi_ext(h)|.

    Taken while gram_matrix streams C, so any k gives the same value.
    """
    return gram.sigma


def sigma_bound(modulus: PrimeModulus, d: int) -> float:
    """2 d sqrt(p); the derivation needs p > 3 (callers flag the p = 3 case)."""
    return 2.0 * d * math.sqrt(modulus.p)


def choose_k(d: int, epsilon: float) -> int:
    """Number of query rounds: ceil(2 (d+1) / epsilon)."""
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be {'positive' if epsilon <= 0 else 'finite'}")
    if d < 1:
        raise ValueError("degree must be at least 1")
    return math.ceil(2 * (d + 1) / epsilon)


def _power(x: np.ndarray, k: int) -> np.ndarray:
    # x ** k elementwise by repeated squaring, from the top bit of k down
    out = x.copy()
    for bit in bin(k)[3:]:
        out *= out
        if bit == "1":
            out *= x
    return out


def gram_matrix(
    modulus: PrimeModulus, d: int, k: int, *, budget: int | None = None
) -> GramMatrix:
    """Gram matrix of the k-copy candidate states: orbit form and its distinct blocks."""
    if k < 1:
        raise ValueError("k must be at least 1")
    p = modulus.p
    # solved blocks: one per spectral class (module docstring)
    blocks = 2 if d % 2 == 0 or p % 4 == 3 else 3
    # orbit count: p^(d-1) free orbits at most, plus the fixed ones when p | d, which
    # lie in F_p[x^p - x]; the correlation costs ~m^2 p log2 p, each block's eigensolve ~m^3
    m = p ** (d - 1) + (p ** (d // p) if d % p == 0 else 0)
    check_ops(m * m * p * (p - 1).bit_length() + blocks * m**3, budget, "quantum Gram")
    # charged first: n, the least non-residue, is found without a p-entry table
    freqs = [0, 1]
    if blocks == 3:
        freqs.append(next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1))
    mask = _kernels.squarefree_mask(p, d, budget)
    xs = np.arange(p, dtype=np.int64)  # the points, the shifts a of tau_a and the t of C
    if d % p:
        # tau_a moves s_{d-1} by d*a, so each orbit has one member with s_{d-1} = 0
        reps = np.flatnonzero(mask[: p ** (d - 1)])
    else:
        # each orbit's smallest index, once each and ascending
        first = np.zeros(p**d, dtype=bool)
        first[_kernels.translate_index(p, d, np.flatnonzero(mask)[:, None], xs).min(axis=1)] = True
        reps = np.flatnonzero(first)
    # A_r, the sign row of g_r: chi(g(x)) is 0 only where g(x) = 0, and chi_ext is +1 there
    signs = _kernels.index_rows(p, d, reps, xs)
    spectra = np.fft.rfft(np.where(signs == 0, 1.0, signs), axis=1)
    members = _kernels.translate_index(p, d, reps[:, None], xs)
    gram = GramMatrix(int(mask.sum()), k, d, modulus, members, spectra, [], 0)
    fixed, n = gram.fixed, len(reps)
    # one pass over row blocks of ~2^18 cells of C: sigma, and (C / p)^k against 1 and
    # Re, Im e^(-2 pi i j t / p) per solved j != 0, built for 2^16 shifts t at a time
    sums = np.zeros((2 * len(freqs) - 1, n, n))
    step = max(1, (1 << 18) // (n * p))
    for lo in range(0, n, step):
        c = gram.overlap_rows(slice(lo, lo + step))
        x = _power(c / p, k)
        for t in range(0, p, 1 << 16):
            ts = xs[t : t + (1 << 16)]
            ang = -2 * np.pi / p * (np.outer(freqs[1:], ts) % p)
            waves = np.vstack([np.ones(len(ts)), *(f(a) for a in ang for f in (np.cos, np.sin))])
            sums[:, lo : lo + step] += np.moveaxis(x[..., t : t + len(ts)] @ waves.T, 2, 0)
        for r in range(lo, lo + len(c)):  # sigma skips each candidate's pairs with itself
            c[r - lo, r, slice(None) if fixed[r] else 0] = 0
        gram.sigma = max(gram.sigma, int(c.max(initial=0)), int(-c.min(initial=0)))
    weight = np.where(fixed, 1.0 / math.sqrt(p), 1.0)
    sums *= np.outer(weight, weight)
    gram.blocks = [sums[0], *(sums[i] + 1j * sums[i + 1] for i in range(1, len(sums), 2))]
    return gram


def povm_alpha(gram: GramMatrix) -> PovmResult:
    """alpha = (1 - 1e-12) / lambda_max, lambda_max the top eigenvalue over the solved blocks."""
    lam = max(float(np.linalg.eigvalsh(h)[-1]) for h in gram.blocks)
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
    row = (np.roll(gram.overlap_rows(r), a, axis=1) / p) ** gram.k
    outcomes = np.zeros(p**gram.d)
    outcomes[gram.members] = povm.alpha * row * row  # diagonal gives alpha exactly
    # summed in candidate order, one term per candidate
    family = np.zeros(p**gram.d, dtype=bool)
    family[gram.members] = True
    residual = 1.0 - float(outcomes[family].sum())
    return PovmResult(
        alpha=povm.alpha,
        lambda_max=povm.lambda_max,
        k=gram.k,
        outcomes=outcomes,
        residual_mass=residual,
    )
