"""Recovery algorithm tests: parameters, window cache, all three solvers.

Exhaustive sweeps at tiny primes prove exactness; seeded spot checks
cover the production sizes. Custom parameter objects drive the fallback
branches deterministically, without relying on noise.
"""

import math
import random

import pytest

from hiddenpoly.ffield import PrimeModulus, legendre
from hiddenpoly.limits import BudgetExceeded
from hiddenpoly.oracle import OracleSession
from hiddenpoly.poly import enumerate_monic, parse_poly, random_squarefree
from hiddenpoly.reconstruct import (
    AlgorithmParams,
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
                int(legendre(f.eval(m.element(x)))) * int(legendre(g.eval(m.element(x))))
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

    def test_stage_seconds_keys(self):
        m = PrimeModulus(101)
        session = OracleSession(parse_poly("x + 30", m), rng_seed=0)
        report = two_stage_recover(session, 1)
        assert set(report.stage_seconds) == {"stage1", "stage2"}


class TestWork:
    """RecoveryReport.work counts the candidate x point cells the kernels compute."""

    def test_scans_cover_every_monic_candidate(self):
        # the seed-0 job of `recover --p 101 --d 2 --algo two-stage`: stage 1 scans
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
        with pytest.raises(ValueError):
            two_stage_recover(session, 1, reps=2)


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
