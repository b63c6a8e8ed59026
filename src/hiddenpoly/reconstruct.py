"""Recover the hidden polynomial from character queries.

Three algorithms over the square-free monic degree-d candidates:

* brute_force_recover: query every point, return the correlation argmax.
* two_stage_recover: a short window [1, N] keeps the square-free
  candidates whose absolute correlation reaches N - d, then a longer
  window [1, M] confirms with a signed threshold M - d; ties fall back to
  a full-range argmax.  Windows are N = min(ceil(d ln^2 p), p) and
  M = min(ceil(d sqrt(p) ln^2 p), p), natural logs.
* short_window_recover: single-stage signed argmax over [1, M].

Stage 1 is an exact sieve in rounds: every candidate is scanned over the
first min(N, ROUNDS[0]) points, and each later round adds the points up
to the next boundary (the rest of ROUNDS, then N) for the candidates
still alive, through the candidate-list kernel.  No unread term
w_j chi(g(x_j)) exceeds |w_j|, so |c_N| >= t implies |c_K| >= t -
sum_{j >= K} |w_j| after K points; dropping the candidates below this
bound keeps exactly the full scan's survivors for any weights in
{-1, 0, 1} and any t, with no array over all p^d candidates.  The
square-free test runs on the few survivors alone, not on a p^d mask.

brute and short-window share one windowed-argmax body and differ only in
the window; it reduces each scanned block to its square-free maximum and
winners, so only the p^d bool mask spans the candidates.  Every solver
records in RecoveryReport.work the candidate x window cells of the
unpruned scans: all p^d monic candidates over the scanned window,
square-free or not, and a fallback each candidate of its pool, or all
p^d when the pool is empty.  For two-stage that is p^d * N + survivors
* M whatever the sieve skips, so the count follows from the report
fields alone.

Oracle answers over a window are queried once, cached, and reused by
every candidate, so query counts are exact.  Correctness is guaranteed
for exact oracles (gamma = 1); noisy sessions can be driven best-effort
through repeated queries (reps > 1 takes a plurality per point).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .ffield import PrimeModulus
from .limits import check_ops
from .oracle import OracleSession
from .poly import MonicPoly, is_squarefree, poly_from_index, squarefree_count

__all__ = [
    "AlgorithmParams",
    "RecoveryReport",
    "brute_force_recover",
    "two_stage_recover",
    "short_window_recover",
    "query_lower_bound",
]

# Stage-1 round boundaries (module docstring), fastest at d = 2, p = 1009 .. 3001
ROUNDS = (16, 24)


@dataclass(frozen=True)
class AlgorithmParams:
    """Window sizes and acceptance thresholds for the staged recovery."""

    epsilon: float
    N: int
    M: int
    stage1_threshold: int
    stage2_threshold: int

    @classmethod
    def for_problem(cls, modulus: PrimeModulus, d: int) -> "AlgorithmParams":
        if d < 1:
            raise ValueError("degree must be at least 1")
        p = modulus.p
        ln = math.log(p)
        n = min(math.ceil(d * ln * ln), p)
        m = min(math.ceil(d * math.sqrt(p) * ln * ln), p)
        if n <= d:
            raise ValueError(f"stage-1 window {n} does not exceed the degree {d}; p too small")
        return cls(
            epsilon=0.5,  # reported only; N and M do not depend on it
            N=n,
            M=m,
            stage1_threshold=n - d,
            stage2_threshold=m - d,
        )

    def to_dict(self) -> dict:
        return asdict(self)


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
    # candidate x window cells of the unpruned scans (the stage-1 sieve's
    # pruning is not subtracted); not part of the report
    work: int = 0

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


def _stage1_sieve(
    modulus: PrimeModulus,
    d: int,
    x0: int,
    weights: np.ndarray,
    threshold: int,
    threads: int,
    budget: int | None,
) -> tuple[list[int], list[int]]:
    """Ascending indices i with |c_i| >= threshold, and those sums c_i.

    c_i = sum_j weights[j] * chi(g_i(x0 + j mod p)) over all len(weights)
    points, for every monic degree-d g_i; weights lie in {-1, 0, 1}.  The
    result equals one correlation_survivors call over every point (module
    docstring).
    """
    p = modulus.p
    ends = sorted({min(len(weights), k) for k in ROUNDS} | {len(weights)})
    # rest[k] = sum_{j >= k} |w_j|: no later term can move a sum by more
    rest = np.append(np.cumsum(np.abs(weights[::-1]), dtype=np.int64)[::-1], 0).tolist()
    idx, sums = _kernels.correlation_survivors(
        p, d, x0, ends[0], weights[: ends[0]], threshold - rest[ends[0]], threads=threads
    )
    for a, b in zip(ends, ends[1:]):
        check_ops(len(idx) * (b - a), budget, "stage-1 extension")
        xs = (x0 + np.arange(a, b, dtype=np.int64)) % p
        sums += _kernels.index_sums(p, d, idx, xs, weights[a:b])
        keep = np.abs(sums) >= threshold - rest[b]
        idx, sums = idx[keep], sums[keep]
    return idx.tolist(), sums.tolist()


def _squarefree_winners(
    cache: _WindowCache, d: int, x0: int, m: int, threads: int, budget: int | None
) -> np.ndarray:
    # brute's decode: the square-free argmax indices, ascending, on the cached window
    p = cache.session.p
    mask = _kernels.squarefree_mask(p, d, budget)
    return _kernels.masked_extrema(p, d, x0, m, cache.window(x0, m), mask, threads)[2]


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
    winners = _squarefree_winners(cache, d, x0, m, threads, budget)
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
    over the surviving pool; ties go to the smallest index, flagged ambiguous.
    When noise leaves no stage-1 survivor, the pool is every square-free
    candidate, decoded as brute decodes on the answers already queried.  A
    noisy session is charged for that decode before its first query.
    """
    modulus = session.modulus
    p = modulus.p
    params = params or AlgorithmParams.for_problem(modulus, d)
    # refused before the window cache and the oracle's character table, each
    # of which holds p entries
    check_ops(p**d * min(params.N, ROUNDS[0]), budget, "stage-1 prefix scan")
    if session.gamma < 1:
        check_ops(p**d * p, budget, "noisy fallback decode")
    cache = _WindowCache(session, reps)

    t0 = time.perf_counter()
    weights1 = cache.window(1, params.N)
    passed, _ = _stage1_sieve(
        modulus, d, 1, weights1, params.stage1_threshold, threads, budget
    )
    surv1 = [i for i in passed if is_squarefree(poly_from_index(d, modulus, i))]
    t1 = time.perf_counter()
    stage_seconds = {"stage1": t1 - t0}

    xs2 = np.arange(1, params.M + 1, dtype=np.int64) % p
    weights2 = cache.window(1, params.M)
    sums2 = _kernels.index_sums(p, d, surv1, xs2, weights2)
    surv2 = [i for i, c in zip(surv1, sums2) if c >= params.stage2_threshold]
    stage_seconds["stage2"] = time.perf_counter() - t1

    work = p**d * params.N + len(surv1) * params.M
    fallback, winners = len(surv2) != 1, surv2
    if fallback:
        # ambiguity: decide on the full range among the surviving pool
        t2 = time.perf_counter()
        pool = surv2 or surv1
        if pool:
            sums = _kernels.index_sums(p, d, pool, np.arange(p, dtype=np.int64), cache.window(0, p))
            winners = [pool[i] for i in np.flatnonzero(sums == sums.max())]
            work += len(pool) * p
        else:  # brute's decode: noise took f out of stage 1
            winners = _squarefree_winners(cache, d, 0, p, threads, budget).tolist()
            work += p**d * p
        stage_seconds["fallback"] = time.perf_counter() - t2

    return RecoveryReport(
        algorithm="two-stage",
        recovered=poly_from_index(d, modulus, winners[0]),
        survivors_stage1=len(surv1),
        survivors_stage2=len(surv2),
        total_queries=cache.queries,
        distinct_points_queried=cache.distinct,
        stage_seconds=stage_seconds,
        params=params,
        fallback=fallback,
        ambiguous=len(winners) > 1,
        work=work,
    )
