"""Recover the hidden polynomial from character queries.

Three algorithms over the square-free monic degree-d candidates:

* brute_force_recover: query every point, return the correlation argmax.
* two_stage_recover: a short window [1, N] keeps the candidates whose
  absolute correlation reaches N - d, then a longer window [1, M]
  confirms with a signed threshold M - d; ties fall back to a full-range
  argmax.  Windows are N = min(ceil(d ln^2 p), p) and
  M = min(ceil(d sqrt(p) ln^2 p), p), natural logs.
* short_window_recover: single-stage signed argmax over [1, M].

brute and short-window share one windowed-argmax body and differ only in
the window.  Every solver records the candidate x window cells it
computed in RecoveryReport.work: the scans cover all p^d monic
candidates, square-free or not, and a fallback each candidate of its pool.

Oracle answers over a window are queried once, cached, and reused by
every candidate, so query counts are exact.  Correctness is guaranteed
for exact oracles (gamma = 1); noisy sessions can be driven best-effort
through repeated queries (reps > 1 takes a plurality per point).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .ffield import PrimeModulus, chi_table
from .limits import check_ops
from .oracle import OracleSession
from .poly import MonicPoly, poly_from_index, squarefree_count

__all__ = [
    "AlgorithmParams",
    "RecoveryReport",
    "brute_force_recover",
    "two_stage_recover",
    "short_window_recover",
    "query_lower_bound",
]


@dataclass(frozen=True)
class AlgorithmParams:
    """Window sizes and acceptance thresholds for the staged recovery."""

    epsilon: float
    N: int
    M: int
    stage1_threshold: int
    stage2_threshold: int

    @classmethod
    def for_problem(
        cls, modulus: PrimeModulus, d: int, epsilon: float = 0.5
    ) -> "AlgorithmParams":
        if d < 1:
            raise ValueError("degree must be at least 1")
        p = modulus.p
        ln = math.log(p)
        n = min(math.ceil(d * ln * ln), p)
        m = min(math.ceil(d * math.sqrt(p) * ln * ln), p)
        if n <= d:
            raise ValueError(f"stage-1 window {n} does not exceed the degree {d}; p too small")
        return cls(
            epsilon=epsilon,
            N=n,
            M=m,
            stage1_threshold=n - d,
            stage2_threshold=m - d,
        )

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "N": self.N,
            "M": self.M,
            "stage1_threshold": self.stage1_threshold,
            "stage2_threshold": self.stage2_threshold,
        }


@dataclass
class RecoveryReport:
    """Outcome and exact accounting for one recovery run."""

    algorithm: str
    recovered: Optional[MonicPoly]
    survivors_stage1: Optional[int]
    survivors_stage2: Optional[int]
    total_queries: int
    distinct_points_queried: int
    stage_seconds: dict[str, float]
    params: Optional[AlgorithmParams]
    fallback: bool = False
    ambiguous: bool = False
    work: int = 0  # candidate x window cells computed; not part of the report

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "algo": self.algorithm,
            "recovered": None if self.recovered is None else str(self.recovered),
            "survivors_stage1": self.survivors_stage1,
            "survivors_stage2": self.survivors_stage2,
            "total_queries": self.total_queries,
            "distinct_points": self.distinct_points_queried,
            "fallback": self.fallback,
            "ambiguous": self.ambiguous,
            "params": None if self.params is None else self.params.to_dict(),
        }
        if include_timing:
            out["elapsed_ms"] = round(sum(self.stage_seconds.values()) * 1000.0, 3)
            out["stage_ms"] = {
                k: round(v * 1000.0, 3) for k, v in self.stage_seconds.items()
            }
        return out


class _WindowCache:
    """Caches oracle answers per residue so each point is queried once."""

    def __init__(self, session: OracleSession, reps: int = 1):
        if reps < 1 or (reps > 1 and reps % 2 == 0):
            raise ValueError("reps must be 1 or a positive odd integer")
        self.session = session
        self.reps = reps
        self.queries_before = session.query_count
        p = session.p
        self.values = np.zeros(p, dtype=np.int64)
        self.seen = np.zeros(p, dtype=bool)

    def window(self, x0: int, m: int) -> np.ndarray:
        # m <= p, so the window's residues are distinct and each unseen one
        # is queried once
        xs = (x0 + np.arange(m, dtype=np.int64)) % self.session.p
        unseen = xs[~self.seen[xs]]
        self.values[unseen] = self.session.query_block(unseen, self.reps)
        self.seen[unseen] = True
        return self.values[xs]

    @property
    def distinct(self) -> int:
        return int(self.seen.sum())

    @property
    def queries(self) -> int:
        return self.session.query_count - self.queries_before


def query_lower_bound(modulus: PrimeModulus, d: int) -> int:
    """ceil(log3 of the square-free candidate count), computed exactly.

    Any strategy issuing fewer ternary-answer queries cannot distinguish
    all candidates.
    """
    n = squarefree_count(modulus, d)
    k = 0
    power = 1
    while power < n:
        power *= 3
        k += 1
    return k


def _argmax_recover(
    algorithm: str,
    session: OracleSession,
    d: int,
    x0: int,
    m: int,
    params: Optional[AlgorithmParams],
    threads: int,
    budget: int | None,
    reps: int,
) -> RecoveryReport:
    # signed correlation argmax over the window x0 .. x0+m-1; ties go to the
    # smallest index and are flagged as ambiguous
    modulus = session.modulus
    p = modulus.p
    check_ops(p**d * m, budget, f"{algorithm} scan")
    cache = _WindowCache(session, reps)
    t0 = time.perf_counter()
    mask = _kernels.squarefree_mask(p, d, budget)
    weights = cache.window(x0, m)
    corr = _kernels.windowed_correlations(p, d, x0, m, weights, threads=threads)
    corr_sf = np.where(mask, corr, np.iinfo(np.int64).min)
    best = int(np.max(corr_sf))
    winners = np.nonzero(corr_sf == best)[0]
    return RecoveryReport(
        algorithm=algorithm,
        recovered=poly_from_index(d, modulus, int(winners[0])),
        survivors_stage1=None,
        survivors_stage2=None,
        total_queries=cache.queries,
        distinct_points_queried=cache.distinct,
        stage_seconds={"scan": time.perf_counter() - t0},
        params=params,
        ambiguous=len(winners) > 1,
        work=p**d * m,
    )


def brute_force_recover(
    session: OracleSession,
    d: int,
    *,
    threads: int = 1,
    budget: int | None = None,
    reps: int = 1,
) -> RecoveryReport:
    """Query all p points and return the full-range correlation argmax."""
    try:  # the windows are reported when they exist; brute does not use them
        params = AlgorithmParams.for_problem(session.modulus, d)
    except ValueError:
        params = None
    return _argmax_recover("brute", session, d, 0, session.p, params, threads, budget, reps)


def short_window_recover(
    session: OracleSession,
    d: int,
    params: Optional[AlgorithmParams] = None,
    *,
    threads: int = 1,
    budget: int | None = None,
    reps: int = 1,
) -> RecoveryReport:
    """Single-stage signed argmax over the window [1, M]."""
    params = params or AlgorithmParams.for_problem(session.modulus, d)
    return _argmax_recover(
        "short-window", session, d, 1, params.M, params, threads, budget, reps
    )


def two_stage_recover(
    session: OracleSession,
    d: int,
    params: Optional[AlgorithmParams] = None,
    *,
    threads: int = 1,
    budget: int | None = None,
    reps: int = 1,
) -> RecoveryReport:
    """Stage-1 sieve on [1, N], signed stage-2 confirmation on [1, M].

    If several candidates clear stage 2 (or none do, which cannot happen
    for an exact oracle), falls back to the full-range correlation argmax
    over the surviving pool; ties break to the lexicographically smallest.
    """
    modulus = session.modulus
    p = modulus.p
    params = params or AlgorithmParams.for_problem(modulus, d)
    cache = _WindowCache(session, reps)
    chi = chi_table(modulus)

    def window_sum(i: int, xs: np.ndarray, weights: np.ndarray) -> int:
        return int(np.dot(weights, chi[poly_from_index(d, modulus, i).eval_array(xs)]))

    t0 = time.perf_counter()
    # the mask carries the d >= 3 budget check, so it comes before any p^d array
    mask = _kernels.squarefree_mask(p, d, budget)
    weights1 = cache.window(1, params.N)
    corr = _kernels.windowed_correlations(p, d, 1, params.N, weights1, threads=threads)
    surv1 = [int(i) for i in np.nonzero(mask & (np.abs(corr) >= params.stage1_threshold))[0]]
    t1 = time.perf_counter()
    stage_seconds = {"stage1": t1 - t0}

    xs2 = np.arange(1, params.M + 1, dtype=np.int64) % p
    weights2 = cache.window(1, params.M)
    surv2 = [i for i in surv1 if window_sum(i, xs2, weights2) >= params.stage2_threshold]
    stage_seconds["stage2"] = time.perf_counter() - t1

    work = p**d * params.N + len(surv1) * params.M
    fallback = len(surv2) != 1
    if not fallback:
        recovered = poly_from_index(d, modulus, surv2[0])
    else:
        # ambiguity: decide on the full range among the surviving pool
        t2 = time.perf_counter()
        pool = surv2 or surv1
        full = cache.window(0, p)
        sums = [window_sum(i, np.arange(p, dtype=np.int64), full) for i in pool]
        recovered = poly_from_index(d, modulus, pool[int(np.argmax(sums))]) if pool else None
        work += len(pool) * p
        stage_seconds["fallback"] = time.perf_counter() - t2

    return RecoveryReport(
        algorithm="two-stage",
        recovered=recovered,
        survivors_stage1=len(surv1),
        survivors_stage2=len(surv2),
        total_queries=cache.queries,
        distinct_points_queried=cache.distinct,
        stage_seconds=stage_seconds,
        params=params,
        fallback=fallback,
        work=work,
    )
