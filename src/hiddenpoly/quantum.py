"""Classical simulation of the k-copy identification measurement.

The state attached to a square-free candidate g is the unit vector with
amplitudes chi_ext(g(x)) / sqrt(p) over x in F_p, where chi_ext is the
patched character (+1 at 0).  k query rounds correspond to the k-fold
tensor power, so overlaps between candidate states are exact rationals
c_gh = (sum_x chi_ext(g(x)) chi_ext(h(x))) / p raised to the k-th power;
the simulation therefore works in this factored form and never
materialises p^k amplitudes.

The identification POVM scales every projector onto a candidate's
k-copy state by alpha = (1 - 1e-12) / lambda_max of the Gram matrix
G[g,h] = c_gh^k, leaving a residual outcome with the remaining mass.
Measuring the state of the true polynomial f yields outcome f with
probability exactly alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import _kernels
from .ffield import PrimeModulus, chi_ext_table
from .poly import MonicPoly, is_squarefree, poly_from_index

__all__ = [
    "SignState",
    "GramMatrix",
    "PovmResult",
    "PowerIterationError",
    "build_state",
    "pair_overlap",
    "sigma_2d",
    "sigma_bound",
    "choose_k",
    "gram_matrix",
    "dominant_eigenvalue",
    "povm_alpha",
    "measurement_distribution",
]

DEFAULT_MAX_ORDER = 5000
ALPHA_MARGIN = 1e-12


class PowerIterationError(RuntimeError):
    """Raised when the eigenvalue iteration fails to converge."""


@dataclass
class SignState:
    """Sign pattern of a candidate state; amplitudes are signs / sqrt(p)."""

    poly: MonicPoly
    signs: np.ndarray  # int8, length p, values in {-1, +1}

    @property
    def p(self) -> int:
        return self.poly.modulus.p

    @property
    def norm_squared(self) -> float:
        # signs are +/-1 at every point, so the state is unit by construction
        return float(len(self.signs)) / self.p


@dataclass
class GramMatrix:
    """G[i, j] = pair_overlap(g_i, g_j)^k over the square-free candidates."""

    order: int
    entries: np.ndarray  # float64, shape (order, order)
    k: int
    polys: list[MonicPoly]  # row/column order (lexicographic)


@dataclass
class PovmResult:
    """Scaling alpha, the eigenvalue behind it, and an optional distribution."""

    alpha: float
    lambda_max: float
    k: int
    outcomes: Optional[dict[MonicPoly, float]] = None
    residual_mass: Optional[float] = None


def build_state(g: MonicPoly) -> SignState:
    """Sign vector chi_ext(g(x)) for x = 0..p-1; g must be square-free."""
    if not is_squarefree(g):
        raise ValueError("candidate states exist only for square-free polynomials")
    xs = np.arange(g.modulus.p, dtype=np.int64)
    return SignState(poly=g, signs=chi_ext_table(g.modulus)[g.eval_array(xs)])


def pair_overlap(g: MonicPoly, h: MonicPoly) -> Fraction:
    """Single-copy overlap as an exact rational: (sum of sign products) / p."""
    if g.modulus.p != h.modulus.p or g.degree != h.degree:
        raise ValueError("states live in the same candidate family")
    a = build_state(g).signs.astype(np.int64)
    b = build_state(h).signs.astype(np.int64)
    return Fraction(int(np.dot(a, b)), g.modulus.p)


def sigma_2d(
    modulus: PrimeModulus, d: int, *, max_order: int = DEFAULT_MAX_ORDER
) -> int:
    """Exact max over distinct square-free pairs of |sum_x chi_ext(g) chi_ext(h)|."""
    a, _ = _kernels.sf_sign_matrix(modulus.p, d, max_order)
    af = a.astype(np.float64)
    inner = af @ af.T
    np.fill_diagonal(inner, 0.0)
    return int(round(float(np.max(np.abs(inner)))))


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


def gram_matrix(
    modulus: PrimeModulus,
    d: int,
    k: int,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
) -> GramMatrix:
    """Gram matrix of the k-copy candidate states (square-free, index order)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    p = modulus.p
    a, idx = _kernels.sf_sign_matrix(p, d, max_order)
    af = a.astype(np.float64)
    overlaps = (af @ af.T) / p  # exact integers divided by p
    entries = overlaps**k
    polys = [poly_from_index(d, modulus, int(i)) for i in idx]
    return GramMatrix(order=len(idx), entries=entries, k=k, polys=polys)


def dominant_eigenvalue(
    matrix: np.ndarray, tol: float = 1e-10, max_iter: int = 10**5
) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    Deterministic all-ones start; stops when successive Rayleigh
    quotients agree to relative tolerance tol.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    x = np.full(n, 1.0 / math.sqrt(n))
    lam_prev = None
    for _ in range(max_iter):
        y = matrix @ x
        lam = float(x @ y)
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0
        x = y / norm
        if lam_prev is not None and abs(lam - lam_prev) <= tol * max(1.0, abs(lam)):
            return lam
        lam_prev = lam
    raise PowerIterationError(f"no convergence within {max_iter} iterations")


def povm_alpha(gram: GramMatrix) -> PovmResult:
    """alpha = (1 - 1e-12) / lambda_max, so the residual keeps nonnegative mass.

    The Rayleigh-quotient estimate is floored by max_f (G^2)_ff, also a
    lower bound on lambda_max for PSD G; this keeps every simulated
    outcome distribution subnormalized even when the iteration stops
    early on a tightly clustered spectrum.
    """
    lam_iter = dominant_eigenvalue(gram.entries)
    row_quadratic = float(np.max(np.sum(gram.entries * gram.entries, axis=1)))
    lam = max(lam_iter, row_quadratic)
    return PovmResult(alpha=(1.0 - ALPHA_MARGIN) / lam, lambda_max=lam, k=gram.k)


def measurement_distribution(
    f: MonicPoly,
    d: int,
    k: int,
    *,
    gram: Optional[GramMatrix] = None,
    povm: Optional[PovmResult] = None,
    max_order: int = DEFAULT_MAX_ORDER,
) -> PovmResult:
    """Outcome distribution of the POVM applied to the k-copy state of f.

    P(outcome g) = alpha * c_gf^(2k); the correct outcome has probability
    exactly alpha, and the residual outcome absorbs the remaining mass.
    """
    modulus = f.modulus
    if f.degree != d:
        raise ValueError("hidden polynomial degree does not match d")
    gram = gram or gram_matrix(modulus, d, k, max_order=max_order)
    if gram.k != k:
        raise ValueError("Gram matrix was built for a different k")
    povm = povm or povm_alpha(gram)
    try:
        fi = gram.polys.index(f)
    except ValueError:
        raise ValueError("hidden polynomial is not in the candidate family") from None
    row = gram.entries[fi]
    probs = povm.alpha * row * row  # alpha * c^(2k); diagonal gives alpha exactly
    outcomes = {g: float(pr) for g, pr in zip(gram.polys, probs)}
    residual = 1.0 - float(probs.sum())
    return PovmResult(
        alpha=povm.alpha,
        lambda_max=povm.lambda_max,
        k=k,
        outcomes=outcomes,
        residual_mass=residual,
    )
