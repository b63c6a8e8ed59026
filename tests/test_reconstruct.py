"""Recovery algorithm tests: parameters, window cache, all three solvers.

Exhaustive sweeps at tiny primes prove exactness; seeded spot checks
cover the production sizes. Custom parameter objects drive the fallback
branches deterministically, without relying on noise.
"""

import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import enumerate_monic, eval_int, legendre_euler

from hiddenpoly import _kernels, reconstruct
from hiddenpoly.ffield import PrimeModulus
from hiddenpoly.limits import BudgetExceeded
from hiddenpoly.oracle import OracleSession
from hiddenpoly.poly import MonicPoly, parse_poly, random_squarefree
from hiddenpoly.reconstruct import (
    AlgorithmParams,
    _stage1_sieve,
    _WindowCache,
    brute_force_recover,
    query_lower_bound,
    short_window_recover,
    two_stage_recover,
)


class TestAlgorithmParams:
    def test_window_sizes_frozen(self):
        # N = min(ceil(d ln^2 p), p), M = min(ceil(d sqrt(p) ln^2 p), p)
        cases = {
            (101, 1): (22, 101),
            (101, 2): (43, 101),
            (251, 1): (31, 251),
            (251, 2): (62, 251),
            (1009, 1): (48, 1009),
            (10007, 1): (85, 8488),
            (10007, 2): (170, 10007),
        }
        for (p, d), (n, mm) in cases.items():
            params = AlgorithmParams.for_problem(PrimeModulus(p), d)
            assert params.N == n, (p, d)
            assert params.M == mm, (p, d)
            assert params.stage1_threshold == n - d
            assert params.stage2_threshold == mm - d

    def test_formula(self):
        for p in (101, 10007):
            for d in (1, 2):
                params = AlgorithmParams.for_problem(PrimeModulus(p), d)
                assert params.N == min(math.ceil(d * math.log(p) ** 2), p)
                assert params.M == min(math.ceil(d * math.sqrt(p) * math.log(p) ** 2), p)

    def test_degenerate_rejected(self):
        # windows shorter than the candidate degree carry no signal
        with pytest.raises(ValueError):
            AlgorithmParams.for_problem(PrimeModulus(3), 3)

    def test_to_dict_keys(self):
        params = AlgorithmParams.for_problem(PrimeModulus(101), 1)
        assert list(params.to_dict()) == ["epsilon", "N", "M", "stage1_threshold", "stage2_threshold"]


class TestQueryLowerBound:
    def test_matches_integer_log(self):
        for p in (3, 5, 7, 11, 13, 101):
            m = PrimeModulus(p)
            for d in (1, 2):
                n = p if d == 1 else p * p - p
                k = 0
                while 3**k < n:
                    k += 1
                assert query_lower_bound(m, d) == k

    def test_exhaustive_counts_small(self):
        for p in (3, 5, 7, 11, 13):
            m = PrimeModulus(p)
            n = sum(1 for _ in enumerate_monic(2, m, squarefree_only=True))
            k = 0
            while 3**k < n:
                k += 1
            assert query_lower_bound(m, 2) == k


class TestBruteForce:
    def test_exhaustive_degree_one(self):
        for p in (7, 13):
            m = PrimeModulus(p)
            for hidden in enumerate_monic(1, m, squarefree_only=True):
                session = OracleSession(hidden, rng_seed=0)
                report = brute_force_recover(session, 1)
                assert report.recovered == hidden
                assert not report.ambiguous
                assert report.total_queries == p

    def test_exhaustive_degree_two(self):
        m = PrimeModulus(7)
        for hidden in enumerate_monic(2, m, squarefree_only=True):
            session = OracleSession(hidden, rng_seed=0)
            report = brute_force_recover(session, 2)
            assert report.recovered == hidden
            assert not report.ambiguous

    def test_tiny_field_ties_are_flagged(self):
        # at p=5 the five sample points cannot separate every quadratic:
        # ties must be reported as ambiguous, never returned silently
        m = PrimeModulus(5)

        def corr(f, g):
            return sum(
                legendre_euler(eval_int(f, x), 5) * legendre_euler(eval_int(g, x), 5)
                for x in range(5)
            )

        ambiguous = 0
        for hidden in enumerate_monic(2, m, squarefree_only=True):
            session = OracleSession(hidden, rng_seed=0)
            report = brute_force_recover(session, 2)
            if report.ambiguous:
                ambiguous += 1
                # the reported winner ties the truth's self-correlation
                assert corr(report.recovered, hidden) == corr(hidden, hidden)
            else:
                assert report.recovered == hidden
        assert ambiguous == 10

    def test_threads_do_not_change_result(self):
        m = PrimeModulus(251)
        hidden = random_squarefree(m, 2, random.Random(9))
        reports = []
        for threads in (1, 2, 8):
            session = OracleSession(hidden, rng_seed=9)
            reports.append(brute_force_recover(session, 2, threads=threads))
        assert len({r.recovered for r in reports}) == 1
        assert len({r.total_queries for r in reports}) == 1

    def test_budget_guard(self):
        m = PrimeModulus(10007)
        hidden = random_squarefree(m, 2, random.Random(0))
        session = OracleSession(hidden, rng_seed=0)
        with pytest.raises(BudgetExceeded):
            brute_force_recover(session, 2, budget=10**6)


class TestTwoStage:
    def test_exhaustive_degree_one(self):
        m = PrimeModulus(13)
        for hidden in enumerate_monic(1, m, squarefree_only=True):
            session = OracleSession(hidden, rng_seed=0)
            report = two_stage_recover(session, 1)
            assert report.recovered == hidden
            assert not report.fallback

    def test_seeded_degree_two(self):
        m = PrimeModulus(101)
        for seed in range(10):
            hidden = random_squarefree(m, 2, random.Random(seed))
            session = OracleSession(hidden, rng_seed=seed)
            report = two_stage_recover(session, 2)
            assert report.recovered == hidden

    def test_stage1_keeps_truth(self):
        m = PrimeModulus(251)
        for seed in range(5):
            hidden = random_squarefree(m, 2, random.Random(seed))
            session = OracleSession(hidden, rng_seed=seed)
            report = two_stage_recover(session, 2)
            # a truth dropped at stage 1 cannot be confirmed alone at stage 2
            assert report.recovered == hidden
            assert not report.fallback

    def test_subquadratic_window_at_large_prime(self):
        m = PrimeModulus(10007)
        hidden = parse_poly("x + 77", m)
        session = OracleSession(hidden, rng_seed=0)
        report = two_stage_recover(session, 1)
        assert report.recovered == hidden
        assert report.distinct_points_queried == 8488
        assert report.distinct_points_queried < 10007

    def test_forced_fallback_empty_stage2(self):
        # an unreachable stage-2 threshold forces the full-range tiebreak
        m = PrimeModulus(101)
        hidden = parse_poly("x + 30", m)
        params = AlgorithmParams(
            epsilon=0.5, N=22, M=101, stage1_threshold=21, stage2_threshold=102
        )
        session = OracleSession(hidden, rng_seed=0)
        report = two_stage_recover(session, 1, params)
        assert report.fallback
        assert report.recovered == hidden

    def test_forced_fallback_crowded_stage2(self):
        # thresholds low enough that every candidate survives both stages
        m = PrimeModulus(101)
        hidden = parse_poly("x + 30", m)
        params = AlgorithmParams(
            epsilon=0.5, N=22, M=101, stage1_threshold=-1000, stage2_threshold=-1000
        )
        session = OracleSession(hidden, rng_seed=0)
        report = two_stage_recover(session, 1, params)
        assert report.fallback
        assert report.survivors_stage1 == 101
        assert report.recovered == hidden
        assert not report.ambiguous

    @pytest.mark.parametrize(
        "p, d, seed", [(7, 3, 6), (3, 2, 0)], ids=["p7-d3-seed6", "p3-d2-seed0"]
    )
    def test_tied_fallback_is_flagged(self, p, d, seed):
        # the exact oracle cannot tell these hidden polynomials from other pool
        # members: the full-range argmax ties (10 members at 4 for p = 7), and the
        # report must say so instead of returning one of them silently
        m = PrimeModulus(p)
        session = OracleSession(random_squarefree(m, d, random.Random(seed)), rng_seed=seed)
        report = two_stage_recover(session, d)
        assert report.fallback
        assert report.ambiguous

    def test_stage_seconds_keys(self):
        m = PrimeModulus(101)
        session = OracleSession(parse_poly("x + 30", m), rng_seed=0)
        report = two_stage_recover(session, 1)
        assert set(report.stage_seconds) == {"stage1", "stage2"}

    def test_peak_memory_is_streamed(self):
        # scanning stage 1 in full holds p^2 int64 correlations and their
        # absolute values, 61 MiB at p = 2003
        m = PrimeModulus(2003)
        hidden = random_squarefree(m, 2, random.Random(0))
        session = OracleSession(hidden, rng_seed=0)
        tracemalloc.start()
        try:
            report = two_stage_recover(session, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.recovered == hidden
        assert peak < 16 * 2**20

    def test_budget_counts_the_prefix_scan(self):
        # p^2 candidates over min(N, ROUNDS[0]) points, then the survivors' later rounds
        m = PrimeModulus(101)
        hidden = random_squarefree(m, 2, random.Random(0))
        session = OracleSession(hidden, rng_seed=0)
        with pytest.raises(BudgetExceeded):
            two_stage_recover(session, 2, budget=101**2 * reconstruct.ROUNDS[0] - 1)
        report = two_stage_recover(session, 2, budget=101**2 * reconstruct.ROUNDS[0])
        assert report.recovered == hidden


SIEVE_PRIMES = {1: (3, 5, 7, 11, 13, 17, 19, 23, 29, 31), 2: (3, 5, 7, 11, 13, 29, 31),
                3: (3, 5, 7, 11)}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_stage1_sieve_matches_the_full_filter(data):
    """The sieve in rounds keeps exactly the candidates the full scan keeps.

    Windows start anywhere, so some wrap past p - 1; weights include zeros
    on both sides of the first boundary; thresholds run from negative
    (every candidate survives) to unreachable.  Besides the production
    rounds, short first rounds make most windows carry later rounds, and
    one-cell blocks split the candidates into many blocks per thread on
    either d >= 2 route.
    """
    d = data.draw(st.sampled_from([1, 2, 3]))
    p = data.draw(st.sampled_from(SIEVE_PRIMES[d]))
    m = data.draw(st.integers(1, p))
    x0 = data.draw(st.integers(0, p - 1))
    weights = np.array(
        data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=m, max_size=m)),
        dtype=np.int64,
    )
    rounds = data.draw(st.sampled_from([reconstruct.ROUNDS, (1,), (5,), (2, 5)]))
    if data.draw(st.booleans()):
        weights[data.draw(st.integers(0, min(m, rounds[0]) - 1))] = 0
        if m > rounds[0]:
            weights[data.draw(st.integers(rounds[0], m - 1))] = 0
    threshold = data.draw(st.one_of(st.integers(-2, m + 2), st.integers(m - 3, m)))
    _, corr = _kernels.correlation_survivors(p, d, x0, m, weights, 0)
    expected = np.flatnonzero(np.abs(corr) >= threshold)
    for scan_cells, hankel_cells in ((_kernels.SCAN_CELLS, _kernels.HANKEL_CELLS), (1, 1)):
        with mock.patch.object(reconstruct, "ROUNDS", rounds), \
                mock.patch.object(_kernels, "SCAN_CELLS", scan_cells), \
                mock.patch.object(_kernels, "HANKEL_CELLS", hankel_cells):
            for threads in (1, 3):
                idx, sums = _stage1_sieve(
                    PrimeModulus(p), d, x0, weights, threshold, threads, None
                )
                assert idx == expected.tolist()
                assert sums == corr[expected].tolist()


def test_stage1_sieve_sums_int8_answers_in_int64():
    # query_block's raw int8 answers over N = 191 points at p = 1000003: the
    # hidden candidate's sum of 191 would wrap if the tail points were summed
    # in the weights' dtype, and no candidate would survive
    m = PrimeModulus(1000003)
    session = OracleSession(MonicPoly([885440], m), rng_seed=0)
    weights = session.query_block(np.arange(1, 192))
    assert weights.dtype == np.int8
    assert _stage1_sieve(m, 1, 1, weights, 190, 1, None) == ([885440], [191])


class TestWork:
    """RecoveryReport.work counts the candidate x point cells of the unpruned scans.

    Two-stage counts p^d * N for stage 1 although its prefix sieve computes
    fewer cells, so work follows from the report fields alone, as
    perfbench's work_cells derives it, and the bench reports stay fixed.
    """

    def test_scans_cover_every_monic_candidate(self):
        # the seed-0 job of `recover --p 101 --d 2 --algo two-stage`: stage 1 counts
        # all p^2 monic candidates over N = 43 points, stage 2 one survivor over M
        m = PrimeModulus(101)
        session = OracleSession(random_squarefree(m, 2, random.Random(0)), rng_seed=0)
        report = two_stage_recover(session, 2)
        assert (report.fallback, report.survivors_stage1) == (False, 1)
        assert report.work == 101**2 * 43 + 101 == 438744

    def test_fallback_covers_the_pool(self):
        # 7 stage-1 survivors, 3 clear stage 2, and the fallback scans those 3
        m = PrimeModulus(5)
        session = OracleSession(random_squarefree(m, 2, random.Random(0)), rng_seed=0)
        report = two_stage_recover(session, 2)
        assert (report.fallback, report.survivors_stage1, report.survivors_stage2) == (True, 7, 3)
        assert report.work == 5**2 * 5 + 7 * 5 + 3 * 5

    @pytest.mark.parametrize("solver", [brute_force_recover, short_window_recover])
    def test_argmax_covers_every_monic_candidate(self, solver):
        m = PrimeModulus(101)
        session = OracleSession(random_squarefree(m, 2, random.Random(0)), rng_seed=0)
        assert solver(session, 2).work == 101**2 * 101  # M = p here


class TestShortWindow:
    def test_exhaustive_degree_one(self):
        m = PrimeModulus(13)
        for hidden in enumerate_monic(1, m, squarefree_only=True):
            session = OracleSession(hidden, rng_seed=0)
            report = short_window_recover(session, 1)
            assert report.recovered == hidden

    def test_queries_equal_window(self):
        m = PrimeModulus(10007)
        hidden = parse_poly("x + 99", m)
        session = OracleSession(hidden, rng_seed=0)
        report = short_window_recover(session, 1)
        assert report.recovered == hidden
        assert report.total_queries == 8488
        assert report.distinct_points_queried == 8488


class TestNoisyRecovery:
    def test_vote_based_recovery(self):
        # gamma=0.9 with 51 votes per point behaves like an exact oracle
        m = PrimeModulus(101)
        for seed in range(5):
            hidden = random_squarefree(m, 1, random.Random(seed))
            session = OracleSession(hidden, gamma=0.9, rng_seed=seed)
            report = two_stage_recover(session, 1, reps=51)
            assert report.recovered == hidden
            assert report.total_queries == 51 * report.distinct_points_queried

    def test_even_reps_rejected(self):
        m = PrimeModulus(101)
        session = OracleSession(parse_poly("x + 3", m), gamma=0.9, rng_seed=0)
        with pytest.raises(ValueError, match="reps"):
            two_stage_recover(session, 1, reps=2)
        assert session.query_count == 0

    @settings(max_examples=40, deadline=None)
    @example(p=101, d=1, gamma=0.9, reps=3, seed=0)  # stage 1 empties
    @example(p=31, d=2, gamma=0.6, reps=1, seed=0)  # stage 1 empties
    @given(p=st.sampled_from([11, 13, 31, 53, 101]), d=st.integers(1, 2),
           gamma=st.sampled_from([0.6, 0.75, 0.9]), reps=st.sampled_from([1, 3, 5]),
           seed=st.integers(0, 2**16))
    def test_empty_pool_decodes_as_brute(self, p, d, gamma, reps, seed):
        # when noise leaves no stage-1 survivor, the fallback answers what brute
        # answers: each point's first reps draws, decoded over every square-free
        # candidate, with no query past the p points
        m = PrimeModulus(p)
        hidden = random_squarefree(m, d, random.Random(seed))
        report = two_stage_recover(OracleSession(hidden, gamma=gamma, rng_seed=seed), d,
                                   reps=reps)
        if report.survivors_stage1 == 0:
            brute = brute_force_recover(OracleSession(hidden, gamma=gamma, rng_seed=seed), d,
                                        reps=reps)
            assert report.fallback and report.recovered is not None
            assert (report.recovered, report.ambiguous) == (brute.recovered, brute.ambiguous)
            assert report.total_queries == brute.total_queries == reps * p
            params = AlgorithmParams.for_problem(m, d)
            assert report.work == p**d * params.N + p**d * p

    @pytest.mark.parametrize("reps", [1, 5])
    def test_noisy_job_refused_before_any_query(self, reps):
        # the empty-pool decode's p^3 cells pass the default budget at d = 2,
        # p = 1009, so a noisy session is refused before the oracle is asked
        m = PrimeModulus(1009)
        session = OracleSession(random_squarefree(m, 2, random.Random(0)), gamma=0.9)
        calls = []
        session.query_block = lambda *args: calls.append(args)
        with pytest.raises(BudgetExceeded, match="noisy fallback decode needs ~1027243729"):
            two_stage_recover(session, 2, reps=reps)
        assert calls == [] and session.query_count == 0


class TestReportShape:
    def test_dict_keys_frozen(self):
        m = PrimeModulus(101)
        session = OracleSession(parse_poly("x + 30", m), rng_seed=0)
        report = two_stage_recover(session, 1)
        full = report.to_dict()
        assert list(full) == [
            "algo",
            "recovered",
            "survivors_stage1",
            "survivors_stage2",
            "total_queries",
            "distinct_points",
            "fallback",
            "ambiguous",
            "params",
            "elapsed_ms",
            "stage_ms",
        ]
        bare = report.to_dict(include_timing=False)
        assert "elapsed_ms" not in bare
        assert "stage_ms" not in bare

    def test_queries_are_counted_once_per_point(self):
        # the window cache must not re-query overlapping windows
        m = PrimeModulus(101)
        session = OracleSession(parse_poly("x + 30", m), rng_seed=0)
        report = two_stage_recover(session, 1)
        assert report.total_queries == report.distinct_points_queried == 101
        # the same under noise with 3 votes per point, over windows [1, 22] and
        # [1, 60] that overlap, plus the full range whenever stage 2 falls back
        noisy = OracleSession(parse_poly("x + 30", m), gamma=0.9, rng_seed=0)
        params = AlgorithmParams(
            epsilon=0.5, N=22, M=60, stage1_threshold=21, stage2_threshold=59
        )
        report = two_stage_recover(noisy, 1, params, reps=3)
        assert report.distinct_points_queried >= 60
        assert report.total_queries == 3 * report.distinct_points_queried

    def test_window_cache_answers_wrapping_windows_once(self):
        m = PrimeModulus(101)
        f = parse_poly("x^2 + x + 30", m)
        session = OracleSession(f, gamma=0.6, rng_seed=4)
        cache = _WindowCache(session, reps=3)

        def first_answer(x):
            # a point is voted on once, with its first 3 draws
            return OracleSession(f, gamma=0.6, rng_seed=4).majority_estimate(x, 3)

        for x0, length in ((90, 30), (0, 15), (95, 101)):
            xs = [(x0 + j) % 101 for j in range(length)]
            assert cache.window(x0, length).tolist() == [first_answer(x) for x in xs]
        assert cache.distinct == 101
        assert cache.queries == session.query_count == 3 * 101
