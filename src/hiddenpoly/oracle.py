"""Black-box access to character values of a hidden polynomial.

A session owns the hidden square-free monic polynomial f and answers
point queries with the quadratic character chi(f(x)) in {-1, 0, 1}
(0 exactly at the roots of f).  With reliability gamma < 1 an answer is
wrong with probability 1 - gamma, uniformly over the two other values
of {-1, 0, 1}.  Noise draws are a pure function of
(rng_seed, x, draw index), so answers do not depend on global query
order and concurrent callers see a consistent oracle.  query_block
answers a whole array of points in one call, with the same answers and
counts as the scalar calls.
"""

from __future__ import annotations

import hashlib
import struct
import threading

import numpy as np

from .ffield import FpElement, PrimeModulus, chi_table, legendre
from .poly import MonicPoly, is_squarefree

_MASK64 = (1 << 64) - 1


class OracleSession:
    """Query interface to a hidden square-free monic polynomial."""

    def __init__(
        self,
        hidden: MonicPoly,
        *,
        gamma: float = 1.0,
        rng_seed: int = 0,
    ):
        if not is_squarefree(hidden):
            raise ValueError("hidden polynomial must be square-free")
        if not 0.5 < gamma <= 1.0:
            raise ValueError("gamma must lie in (1/2, 1]")
        self._hidden = hidden
        self.gamma = float(gamma)
        self.rng_seed = int(rng_seed) & _MASK64
        # the tag and seed open every noise hash; each draw copies this state
        prefix = b"hiddenpoly-oracle" + struct.pack("<Q", self.rng_seed)
        self._noise_prefix = hashlib.sha256(prefix)
        self._count = 0
        self._draws: dict[int, int] = {}
        self._lock = threading.Lock()

    @property
    def hidden(self) -> MonicPoly:
        """Ground truth, exposed for harnesses that must verify recovery."""
        return self._hidden

    @property
    def modulus(self) -> PrimeModulus:
        return self._hidden.modulus

    @property
    def p(self) -> int:
        return self._hidden.modulus.p

    @property
    def degree(self) -> int:
        return self._hidden.degree

    @property
    def query_count(self) -> int:
        return self._count

    def _truth(self, xv: int) -> int:
        return legendre(FpElement(self._hidden.eval_int(xv), self.modulus))

    def _noise_words(self, xv: int, draw: int) -> tuple[float, int]:
        h = self._noise_prefix.copy()
        h.update(struct.pack("<QQ", xv, draw))
        digest = h.digest()
        u = int.from_bytes(digest[:8], "little") / 2.0**64
        pick = int.from_bytes(digest[8:16], "little")
        return u, pick

    def _take_draws(self, xv: int, t: int) -> int:
        # caller holds the lock; returns the first of t fresh draw indices at xv
        draw = self._draws.get(xv, 0)
        self._draws[xv] = draw + t
        return draw

    def _vote(self, xv: int, truth: int, first: int, t: int) -> int:
        # plurality of the noisy answers to draws first .. first+t-1,
        # smallest value on ties; the one body behind every public query
        if self.gamma == 1.0:
            return truth
        wrong = [v for v in (-1, 0, 1) if v != truth]
        counts: dict[int, int] = {}
        for draw in range(first, first + t):
            u, pick = self._noise_words(xv, draw)
            v = truth if u < self.gamma else wrong[pick % len(wrong)]
            counts[v] = counts.get(v, 0) + 1
        best = max(counts.values())
        return min(v for v, c in counts.items() if c == best)

    def _answer(self, x, t: int) -> int:
        xv = x.value if isinstance(x, FpElement) else int(x) % self.p
        with self._lock:
            self._count += t
            first = self._take_draws(xv, t) if self.gamma < 1.0 else 0
        return self._vote(xv, self._truth(xv), first, t)

    def query(self, x) -> int:
        """One oracle answer at x; increments the query counter by one."""
        return self._answer(x, 1)

    def majority_estimate(self, x, t: int) -> int:
        """Plurality of t repeated queries at x; t odd, smallest value on ties."""
        _check_votes(t)
        return self._answer(x, t)

    def query_block(self, xs, reps: int = 1) -> np.ndarray:
        """majority_estimate(x, reps) for every x of xs in order, as int8.

        Counters and noise draws advance exactly as that sequence of
        scalar calls would advance them, so a block and the scalar calls
        are interchangeable.  The truth comes from the cached p-entry
        character table instead of a per-point Jacobi reduction.
        """
        _check_votes(reps)
        xs = np.asarray(xs, dtype=np.int64) % self.p
        truth = chi_table(self.modulus)[self._hidden.eval_array(xs)]
        with self._lock:
            self._count += reps * len(xs)
            if self.gamma == 1.0:
                return truth
            points = xs.tolist()
            firsts = [self._take_draws(xv, reps) for xv in points]
        votes = [
            self._vote(xv, tv, first, reps)
            for xv, tv, first in zip(points, truth.tolist(), firsts)
        ]
        return np.array(votes, dtype=np.int8)


def _check_votes(t: int) -> None:
    if t < 1 or t % 2 == 0:
        raise ValueError("t must be a positive odd integer")
