"""Black-box access to character values of a hidden polynomial.

A session owns the hidden square-free monic polynomial f and answers
point queries with the quadratic character chi(f(x)) in {-1, 0, 1}
(0 exactly at the roots of f).  With reliability gamma < 1 an answer is
wrong with probability 1 - gamma, uniformly over the two other values
of {-1, 0, 1}.  Noise draws are a pure function of (rng_seed, x, draw
index), one sha256 of tag + seed + x + draw each, so answers do not
depend on global query order and concurrent callers see a consistent
oracle.  query_block is the one implementation: it answers an array of
points in one call, the truth read as f's row by ``_kernels.index_rows``
under its int64 limits, and one batched vote stops drawing at a point
once its plurality is decided.  The scalar calls are query_block on one
point.  Points are integers, taken mod p.
"""

from __future__ import annotations

import hashlib
import struct
import threading

import numpy as np

from . import _kernels
from .ffield import PrimeModulus
from .poly import MonicPoly, is_squarefree, poly_index

_MASK64 = (1 << 64) - 1
_PACK = struct.Struct("<QQ").pack
VOTE_CHUNK = 1024  # points per batched vote: bounds its transient digest lists
# the two wrong answers for truth -1, 0, 1 (rows), in ascending order
_WRONG = np.array([[0, 1], [-1, 1], [-1, 0]], dtype=np.int64)


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
    def modulus(self) -> PrimeModulus:
        return self._hidden.modulus

    @property
    def p(self) -> int:
        return self._hidden.modulus.p

    @property
    def query_count(self) -> int:
        return self._count

    def _take_draws(self, xv: int, t: int) -> int:
        # caller holds the lock; returns the first of t fresh draw indices at xv
        draw = self._draws.get(xv, 0)
        self._draws[xv] = draw + t
        return draw

    def _noise(self, points: list, draws: list) -> tuple[np.ndarray, np.ndarray]:
        # (u, pick) per (x, draw): the digest's first 8 bytes / 2^64 and its next 8
        digests = []
        for xv, draw in zip(points, draws):
            h = self._noise_prefix.copy()
            h.update(_PACK(xv, draw))
            digests.append(h.digest())
        words = np.frombuffer(b"".join(digests), "<u8").reshape(-1, 4)
        return words[:, 0].astype(np.float64) / 2.0**64, words[:, 1]

    def _votes(self, points, truth, firsts, t: int) -> np.ndarray:
        # gamma < 1: plurality of draws first .. first+t-1 at each point, smallest value
        # on ties; the one vote body behind every query.  A point is answered once a value
        # holds need = (t+1)/2 votes, which no later draw overturns, or after t draws, so
        # a round takes need - (the largest live count) draws and none past a decision
        truth = np.asarray(truth, dtype=np.int64)
        points, firsts = np.asarray(points, dtype=np.int64), np.asarray(firsts, dtype=np.int64)
        need = (t + 1) // 2
        out = np.empty(len(truth), dtype=np.int8)
        for a in range(0, len(truth), VOTE_CHUNK):
            live = np.arange(a, min(a + VOTE_CHUNK, len(truth)))
            counts, done = np.zeros((len(live), 3), dtype=np.int64), 0
            while len(live):
                r = min(need - int(counts.max()), t - done)
                draws = firsts[live, None] + np.arange(done, done + r)
                u, pick = self._noise(np.repeat(points[live], r).tolist(), draws.ravel().tolist())
                # u < gamma keeps the truth, else bit 0 of pick chooses a wrong value
                right = np.repeat(truth[live], r)
                v = np.where(u < self.gamma, right, _WRONG[right + 1, pick & 1]) + 1
                cells = np.repeat(np.arange(0, 3 * len(live), 3), r) + v
                counts += np.bincount(cells, minlength=3 * len(live)).reshape(-1, 3)
                done += r
                last = (counts.max(axis=1) >= need) | (done == t)
                out[live[last]] = counts[last].argmax(axis=1) - 1
                live, counts = live[~last], counts[~last]
        return out

    def query(self, x) -> int:
        """One oracle answer at x; increments the query counter by one."""
        return int(self.query_block([int(x) % self.p])[0])

    def majority_estimate(self, x, t: int) -> int:
        """Plurality of t repeated queries at x; t odd, smallest value on ties."""
        return int(self.query_block([int(x) % self.p], t)[0])

    def query_block(self, xs, reps: int = 1) -> np.ndarray:
        """The answer at every x of xs in order, as int8; reps odd.

        At gamma = 1 that is chi(f(x)), the row of f's index that
        ``_kernels.index_rows`` gathers.  Otherwise it is the plurality of
        draws first .. first+reps-1 at x, smallest value on ties, where
        first counts the draws earlier calls took at x; a repeated x takes
        the next reps.  The query counter and the draw indices advance by
        reps per point, so splitting a block into calls changes nothing;
        draws after a decided plurality are skipped unseen.
        """
        _check_votes(reps)
        xs = np.asarray(xs, dtype=np.int64) % self.p
        truth = _kernels.index_rows(self.p, self._hidden.degree, [poly_index(self._hidden)], xs)[0]
        with self._lock:
            self._count += reps * len(xs)
            if self.gamma == 1.0:
                return truth
            firsts = [self._take_draws(xv, reps) for xv in xs.tolist()]
        return self._votes(xs, truth, firsts, reps)


def _check_votes(reps: int) -> None:
    if reps < 1 or reps % 2 == 0:
        raise ValueError("reps must be a positive odd integer")
