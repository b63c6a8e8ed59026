"""Oracle session tests: exact answers, counters, noise model, voting."""

import hashlib
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import legendre_euler, reference_answers, reference_vote

from hiddenpoly.ffield import PrimeModulus
from hiddenpoly.oracle import OracleSession
from hiddenpoly.poly import MonicPoly, parse_poly, random_squarefree


def _direct_chi(f, x):
    # evaluation and character by routes the oracle does not use
    p = f.modulus.p
    v = (pow(x, f.degree, p) + sum(c * pow(x, i, p) for i, c in enumerate(f.coeffs))) % p
    return legendre_euler(v, p)


class TestExactOracle:
    def test_refuses_indices_past_int64_at_first_query(self):
        # p^4 exceeds 2^63 at p = 65537 while every offset term fits int64: the
        # session constructs, and its first query is a ValueError, never an
        # OverflowError, before any query is counted
        session = OracleSession(random_squarefree(PrimeModulus(65537), 4, random.Random(0)))
        with pytest.raises(ValueError, match="candidate indices"):
            session.query_block([1, 2, 3])
        assert session.query_count == 0

    def test_answers_match_character(self):
        for p in (7, 101):
            m = PrimeModulus(p)
            f = random_squarefree(m, 2, random.Random(0))
            session = OracleSession(f, rng_seed=0)
            for x in range(p):
                assert session.query(x) == _direct_chi(f, x)

    def test_query_counter(self):
        m = PrimeModulus(101)
        session = OracleSession(parse_poly("x + 3", m), rng_seed=0)
        assert session.query_count == 0
        for x in range(10):
            session.query(x)
        session.query(0)  # repeats count too; caching lives in the solver
        assert session.query_count == 11

    def test_accepts_any_integer_representative(self):
        m = PrimeModulus(7)
        session = OracleSession(parse_poly("x + 3", m), rng_seed=0)
        assert session.query(9) == session.query(2) == session.query(-5) == -1
        # a Python int beyond int64 is reduced before it meets numpy: 2^70 + 2 = 4 mod 7
        assert session.query(2**70 + 2) == session.majority_estimate(2**70 + 2, 3) == 0


class TestValidation:
    def test_non_squarefree_hidden_rejected(self):
        m = PrimeModulus(7)
        with pytest.raises(ValueError):
            OracleSession(MonicPoly((2, 6), m))  # (x+3)^2

    def test_gamma_range(self):
        m = PrimeModulus(7)
        f = parse_poly("x + 3", m)
        for bad in (0.0, 0.5, 1.0001, -1.0):
            with pytest.raises(ValueError):
                OracleSession(f, gamma=bad)
        OracleSession(f, gamma=0.51)
        OracleSession(f, gamma=1.0)


class TestNoise:
    def test_exact_gamma_deterministic(self):
        m = PrimeModulus(101)
        f = parse_poly("x + 3", m)
        a = OracleSession(f, rng_seed=0)
        b = OracleSession(f, rng_seed=999)  # seed must not matter at gamma=1
        for x in range(101):
            assert a.query(x) == b.query(x)

    def test_noisy_reproducible(self):
        m = PrimeModulus(101)
        f = parse_poly("x + 3", m)
        a = OracleSession(f, gamma=0.8, rng_seed=5)
        b = OracleSession(f, gamma=0.8, rng_seed=5)
        assert [a.query(x) for x in range(101)] == [b.query(x) for x in range(101)]

    def test_noisy_seed_sensitive(self):
        m = PrimeModulus(101)
        f = parse_poly("x + 3", m)
        a = [OracleSession(f, gamma=0.6, rng_seed=1).query(x) for x in range(101)]
        b = [OracleSession(f, gamma=0.6, rng_seed=2).query(x) for x in range(101)]
        assert a != b

    def test_noise_hash_is_one_sha256_per_draw(self):
        # each draw hashes tag + seed + x + draw as one message; the session
        # reuses a pre-hashed prefix, which must not change a digest
        f = parse_poly("x + 3", PrimeModulus(101))
        session = OracleSession(f, gamma=0.8, rng_seed=2**64 + 2**40 + 7)
        cases = [(0, 0), (5, 3), (100, 2**40), (2**62, 1)]
        u, pick = session._noise([x for x, _ in cases], [draw for _, draw in cases])
        for (xv, draw), got in zip(cases, zip(u, pick)):
            message = b"hiddenpoly-oracle" + struct.pack("<QQQ", 2**40 + 7, xv, draw)
            digest = hashlib.sha256(message).digest()
            want = (int.from_bytes(digest[:8], "little") / 2.0**64,
                    int.from_bytes(digest[8:16], "little"))
            assert (float(got[0]), int(got[1])) == want

    def test_wrong_rate_near_one_minus_gamma(self):
        # each answer is wrong with probability exactly 1 - gamma
        m = PrimeModulus(1009)
        f = parse_poly("x + 3", m)
        session = OracleSession(f, gamma=0.75, rng_seed=0)
        wrong = sum(session.query(x) != _direct_chi(f, x) for x in range(1009))
        # 4 sigma around the mean 252.25
        assert abs(wrong / 1009 - 0.25) < 0.06, wrong

    def test_wrong_answers_stay_in_codomain(self):
        m = PrimeModulus(101)
        f = parse_poly("x + 3", m)
        session = OracleSession(f, gamma=0.51, rng_seed=3)
        # every value of {-1, 0, 1} shows up, 0 only through noise away from x = 98
        assert {session.query(x) for x in range(101)} == {-1, 0, 1}


class TestMajorityVote:
    def test_requires_odd_count(self):
        m = PrimeModulus(7)
        session = OracleSession(parse_poly("x + 3", m), rng_seed=0)
        with pytest.raises(ValueError):
            session.majority_estimate(1, 2)
        with pytest.raises(ValueError):
            session.majority_estimate(1, 0)

    def test_noiseless_majority_is_truth(self):
        m = PrimeModulus(101)
        f = parse_poly("x + 3", m)
        session = OracleSession(f, rng_seed=0)
        for x in range(0, 101, 7):
            assert session.majority_estimate(x, 3) == _direct_chi(f, x)

    def test_majority_failure_rate(self):
        # t=51 votes at gamma=0.9: per-point failure is far below 1e-3,
        # so 10^4 seeded trials should contain at most a handful of misses
        m = PrimeModulus(101)
        f = parse_poly("x + 3", m)
        failures = 0
        trials = 0
        for seed in range(100):
            session = OracleSession(f, gamma=0.9, rng_seed=seed)
            for x in range(0, 100):
                trials += 1
                if session.majority_estimate(x, 51) != _direct_chi(f, x):
                    failures += 1
        assert trials == 10**4
        assert failures / trials < 1e-3, failures

    def test_vote_queries_counted(self):
        m = PrimeModulus(101)
        f = parse_poly("x + 3", m)
        session = OracleSession(f, gamma=0.9, rng_seed=0)
        session.majority_estimate(5, 51)
        assert session.query_count == 51


class TestQueryBlock:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from((3, 7, 13, 31, 101)),
        st.integers(1, 3),
        st.sampled_from((1.0, 0.6, 0.9)),
        st.sampled_from((1, 3, 5)),
        st.data(),
    )
    def test_block_equals_scalar_calls(self, p, d, gamma, reps, data):
        # query, majority_estimate and query_block, interleaved on one session,
        # each answer the reference vote over the next draws at its point
        f = random_squarefree(PrimeModulus(p), d, random.Random(data.draw(st.integers(0, 99))))
        seed = data.draw(st.integers(0, 2**64 - 1))
        session = OracleSession(f, gamma=gamma, rng_seed=seed)
        taken = {}  # draws already taken at each point

        def want(x, t):
            xv = x % p
            first = taken.get(xv, 0)
            taken[xv] = first + t
            truth = _direct_chi(f, xv)
            return truth if gamma == 1.0 else reference_vote(seed, gamma, truth, xv, first, t)

        # repeats and representatives outside [0, p) included
        points = st.lists(st.integers(-2 * p, 2 * p), max_size=40)
        xs = data.draw(points)
        got = session.query_block(np.array(xs, dtype=np.int64), reps)
        assert got.tolist() == [want(x, reps) for x in xs]
        assert session.query_count == reps * len(xs)
        count = session.query_count
        for call in data.draw(st.lists(st.sampled_from(("query", "vote", "block")), max_size=20)):
            more = data.draw(points)
            if call == "query":
                assert [session.query(x) for x in more] == [want(x, 1) for x in more]
                count += len(more)
            elif call == "vote":
                got = [session.majority_estimate(x, reps) for x in more]
                assert got == [want(x, reps) for x in more]
                count += reps * len(more)
            else:
                assert session.query_block(more, reps).tolist() == [want(x, reps) for x in more]
                count += reps * len(more)
            assert session.query_count == count

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((1, 3, 5, 7, 51)),
        st.sampled_from((0.51, 0.6, 0.9, 0.99)),
        st.sampled_from((3, 7, 101)),
        st.data(),
    )
    def test_block_equals_reference_vote(self, t, gamma, p, data):
        f = random_squarefree(PrimeModulus(p), data.draw(st.integers(1, 2)),
                              random.Random(data.draw(st.integers(0, 99))))
        seed = data.draw(st.integers(0, 2**64 - 1))
        session = OracleSession(f, gamma=gamma, rng_seed=seed)
        taken = {}  # draws already taken at each point
        points = st.lists(st.integers(0, p - 1), max_size=30)
        for x in data.draw(points):
            session.query(x)
            taken[x] = taken.get(x, 0) + 1
        earlier = data.draw(points)
        session.query_block(earlier, 3)
        for x in earlier:
            taken[x] = taken.get(x, 0) + 3
        xs = data.draw(points)  # repeats within the block take successive draws
        want = []
        for x in xs:
            want.append(reference_vote(seed, gamma, _direct_chi(f, x), x, taken.get(x, 0), t))
            taken[x] = taken.get(x, 0) + t
        assert session.query_block(xs, t).tolist() == want

    def test_block_across_vote_chunks_equals_reference_vote(self):
        # more points than one batched vote holds, with every point repeated
        f = parse_poly("x + 3", PrimeModulus(1009))
        session = OracleSession(f, gamma=0.6, rng_seed=11)
        xs = np.arange(2600) % 1009
        want = [reference_vote(11, 0.6, _direct_chi(f, x), x, 7 * (i // 1009), 7)
                for i, x in enumerate(xs.tolist())]
        assert session.query_block(xs, 7).tolist() == want
        assert session.query_count == 7 * 2600

    def test_block_stops_drawing_once_the_plurality_is_decided(self, monkeypatch):
        # exactly the draws up to the first with 4 of 7 votes for one value are hashed
        f = parse_poly("x + 3", PrimeModulus(1009))
        session = OracleSession(f, gamma=0.6, rng_seed=11)
        drawn, noise = [], session._noise

        def counted(points, draws):
            drawn.extend(zip(points, draws))
            return noise(points, draws)

        monkeypatch.setattr(session, "_noise", counted)
        session.query_block(range(1009), 7)
        want = []
        for x in range(1009):
            answers = reference_answers(11, 0.6, _direct_chi(f, x), x, 0, 7)
            top = [max(map(answers[:k].count, (-1, 0, 1))) for k in range(1, 8)]
            k = top.index(4) + 1 if 4 in top else 7
            want += [(x, draw) for draw in range(k)]
        assert sorted(drawn) == want
        assert len(want) < 7 * 1009

    def test_requires_odd_reps(self):
        session = OracleSession(parse_poly("x + 3", PrimeModulus(7)), rng_seed=0)
        with pytest.raises(ValueError):
            session.query_block([1, 2], 2)
        assert session.query_count == 0

    def test_empty_block(self):
        session = OracleSession(parse_poly("x + 3", PrimeModulus(7)), gamma=0.9)
        assert session.query_block([], 3).tolist() == []
        assert session.query_count == 0
