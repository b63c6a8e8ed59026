"""Quantum identification simulation tests.

Overlaps are exact rationals, so most checks are zero-tolerance.  The
Gram matrix lives in translation-orbit form; the tests expand it to the
dense candidate x candidate matrix and check it, and the exact block
eigensolve behind alpha, against an independent dense route built from
the square-free sign matrix and numpy's dense symmetric eigensolver.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiddenpoly import _kernels
from hiddenpoly.ffield import PrimeModulus, legendre_ext
from hiddenpoly.limits import BudgetExceeded
from hiddenpoly.poly import MonicPoly, enumerate_monic, parse_poly, poly_from_index, poly_index
from hiddenpoly.quantum import (
    build_state,
    choose_k,
    gram_matrix,
    measurement_distribution,
    pair_overlap,
    povm_alpha,
    sigma_2d,
    sigma_bound,
)


def dense(gram):
    """(polys, entries): the orbit form expanded to the candidate x candidate matrix.

    Candidate tau_a g_r sits at members[r, a]; a fixed orbit is one candidate.
    """
    p = gram.modulus.p
    where = {}
    for r, row in enumerate(gram.members):
        for a, index in enumerate(row):
            where.setdefault(int(index), (r, a))
    order = sorted(where)
    rs = np.array([where[i][0] for i in order])
    shifts = np.array([where[i][1] for i in order])
    counts = gram.overlaps[rs[:, None], rs[None, :], (shifts[None, :] - shifts[:, None]) % p]
    polys = [poly_from_index(gram.d, gram.modulus, i) for i in order]
    return polys, (counts / p) ** gram.k


def dense_route(p, d, k):
    """(indices, A A^T, ((A A^T) / p)^k) from the square-free sign matrix."""
    a, idx = _kernels.sf_sign_matrix(p, d)
    af = a.astype(np.float64)
    inner = af @ af.T
    return idx, inner, (inner / p) ** k


class TestSignState:
    def test_signs_anchor(self):
        # patched character of f(x) = x over F_7, x = 0..6
        signs = build_state(parse_poly("x", PrimeModulus(7)))
        assert signs.dtype == np.int8
        assert tuple(int(s) for s in signs) == (1, 1, 1, -1, 1, -1, -1)

    def test_signs_match_character(self):
        m = PrimeModulus(13)
        f = parse_poly("x^2 + 3*x + 1", m)
        signs = build_state(f)
        for x in range(13):
            assert int(signs[x]) == legendre_ext(f.eval(m.element(x)))

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError):
            build_state(MonicPoly((2, 6), PrimeModulus(7)))  # (x+3)^2


class TestPairOverlap:
    def test_anchors(self):
        m = PrimeModulus(7)
        f, g = parse_poly("x", m), parse_poly("x + 1", m)
        assert pair_overlap(f, f) == Fraction(1)
        assert pair_overlap(f, g) == Fraction(-1, 7)

    def test_symmetry_and_range(self):
        m = PrimeModulus(13)
        polys = list(enumerate_monic(2, m, squarefree_only=True))
        rng = random.Random(0)
        for _ in range(50):
            f, g = rng.choice(polys), rng.choice(polys)
            ov = pair_overlap(f, g)
            assert ov == pair_overlap(g, f)
            assert abs(ov) <= 1

    def test_matches_direct_sum(self):
        m = PrimeModulus(11)
        polys = list(enumerate_monic(1, m, squarefree_only=True))
        for f in polys:
            for g in polys:
                direct = sum(
                    legendre_ext(f.eval(m.element(x))) * legendre_ext(g.eval(m.element(x)))
                    for x in range(11)
                )
                assert pair_overlap(f, g) == Fraction(direct, 11)

    def test_mismatch_rejected(self):
        f = parse_poly("x", PrimeModulus(7))
        g = parse_poly("x", PrimeModulus(11))
        with pytest.raises(ValueError):
            pair_overlap(f, g)
        h = parse_poly("x^2 + x + 1", PrimeModulus(7))
        with pytest.raises(ValueError):
            pair_overlap(f, h)


def sigma(p, d):
    return sigma_2d(gram_matrix(PrimeModulus(p), d, 1))


class TestSigma:
    def test_frozen_values(self):
        assert sigma(7, 1) == 1
        assert sigma(7, 2) == 7
        assert sigma(13, 2) == 11

    def test_bound_degree_one(self):
        for p in (7, 13, 101, 251):
            assert sigma(p, 1) <= sigma_bound(PrimeModulus(p), 1)

    def test_bound_degree_two(self):
        for p in (7, 13):
            assert sigma(p, 2) <= sigma_bound(PrimeModulus(p), 2)

    def test_matches_pairwise_overlaps(self):
        # sigma is the max |p * overlap| over distinct pairs
        m = PrimeModulus(13)
        polys = list(enumerate_monic(1, m, squarefree_only=True))
        best = 0
        for i, f in enumerate(polys):
            for g in polys[i + 1 :]:
                best = max(best, abs(int(pair_overlap(f, g) * 13)))
        assert sigma(13, 1) == best

    def test_budget(self):
        # the refusal lives where the tensor is built, before sigma can read it
        with pytest.raises(BudgetExceeded):
            gram_matrix(PrimeModulus(101), 2, 1, budget=100)


class TestChooseK:
    def test_values(self):
        assert choose_k(1, 0.5) == 8
        assert choose_k(2, 0.25) == 24
        assert choose_k(1, 1.0) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_k(1, 0.0)
        with pytest.raises(ValueError):
            choose_k(0, 0.5)


class TestGramMatrix:
    def test_entry_anchor(self):
        # (overlap of x and x+1)^2 = 1/49 at k=2
        m = PrimeModulus(7)
        polys, entries = dense(gram_matrix(m, 1, 2))
        f, g = parse_poly("x", m), parse_poly("x + 1", m)
        i, j = polys.index(f), polys.index(g)
        assert entries[i, j] == pytest.approx(1 / 49, abs=1e-15)

    def test_diagonal_is_one(self):
        _, entries = dense(gram_matrix(PrimeModulus(101), 1, 8))
        assert (np.diag(entries) == 1.0).all()

    def test_symmetric(self):
        _, entries = dense(gram_matrix(PrimeModulus(13), 2, 3))
        assert (entries == entries.T).all()

    def test_k1_matches_exact_overlaps(self):
        # dual route: float matrix vs rational pair_overlap, exact because
        # every entry is a small integer divided by p
        m = PrimeModulus(13)
        polys, entries = dense(gram_matrix(m, 1, 1))
        for i, f in enumerate(polys):
            for j, g in enumerate(polys):
                assert entries[i, j] == float(pair_overlap(f, g))

    def test_positive_semidefinite(self):
        _, entries = dense(gram_matrix(PrimeModulus(101), 1, 8))
        eigs = np.linalg.eigvalsh(entries)
        assert eigs.min() >= -1e-12

    @pytest.mark.parametrize("p, d, orbits, fixed", [(13, 2, 12, 0), (3, 3, 8, 3), (5, 1, 1, 0)])
    def test_orbits(self, p, d, orbits, fixed):
        # fixed orbits (x^p - x + c and the like) exist only when p | d
        gram = gram_matrix(PrimeModulus(p), d, 1)
        assert gram.members.shape == (orbits, p)
        assert int(gram.fixed.sum()) == fixed
        polys, _ = dense(gram)
        assert gram.order == len(polys) == len(set(polys))


@st.composite
def small_families(draw):
    d = draw(st.integers(1, 3))
    p = draw(st.sampled_from([q for q in (3, 5, 7, 11, 13, 17, 31) if q**d <= 1400]))
    return p, d, draw(st.integers(1, 16))


class TestDenseCrossCheck:
    """The orbit path against ((A A^T) / p)^k from the dense sign matrix."""

    @settings(max_examples=25, deadline=None)
    @given(small_families())
    @example((3, 3, 4))
    @example((3, 6, 5))
    @example((5, 5, 3))
    def test_orbit_path_matches_dense(self, family):
        p, d, k = family
        modulus = PrimeModulus(p)
        gram = gram_matrix(modulus, d, k)
        idx, inner, entries = dense_route(p, d, k)
        polys, expanded = dense(gram)
        assert [poly_from_index(d, modulus, int(i)) for i in idx] == polys
        assert np.array_equal(expanded, entries)

        lam = float(np.linalg.eigvalsh(entries)[-1])
        povm = povm_alpha(gram)
        assert povm.lambda_max == pytest.approx(lam, rel=1e-12, abs=0)
        assert povm.alpha * lam <= 1.0

        np.fill_diagonal(inner, 0.0)
        assert sigma_2d(gram) == int(np.abs(inner).max(initial=0))

        # first, middle and last candidate, and one of a fixed orbit if any
        picks = {0, len(polys) // 2, len(polys) - 1}
        picks.update(idx.tolist().index(i) for i in gram.members[gram.fixed, 0][:1])
        for i in picks:
            dist = measurement_distribution(polys[i], gram)
            assert dist.alpha == povm.alpha and dist.lambda_max == povm.lambda_max
            want = np.zeros(p**d)
            want[idx] = dist.alpha * entries[i] * entries[i]
            assert np.array_equal(dist.outcomes, want)  # and 0 off the family
            assert dist.outcomes[idx[i]] == dist.alpha
            assert dist.residual_mass == 1.0 - float(want[idx].sum())  # candidate order
            assert dist.residual_mass >= 0

    @pytest.mark.parametrize("p", [13, 31])
    def test_alpha_never_exceeds_dense_inverse(self, p):
        # tightly clustered top eigenvalues: an underestimate pushes alpha * lambda over 1
        _, _, entries = dense_route(p, 2, 12)
        povm = povm_alpha(gram_matrix(PrimeModulus(p), 2, 12))
        assert povm.alpha * np.linalg.eigvalsh(entries)[-1] <= 1.0


class TestPovm:
    def test_alpha_feasible(self):
        for p in (13, 101):
            for k in (2, 8):
                gram = gram_matrix(PrimeModulus(p), 1, k)
                povm = povm_alpha(gram)
                assert 0 < povm.alpha < 1
                # weight must not exceed the top eigenvalue's inverse
                top = float(np.linalg.eigvalsh(dense(gram)[1])[-1])
                assert povm.alpha * top <= 1.0

    def test_lambda_at_least_one(self):
        gram = gram_matrix(PrimeModulus(13), 1, 2)
        assert povm_alpha(gram).lambda_max >= 1.0


class TestMeasurementDistribution:
    def test_correct_outcome_equals_alpha(self):
        m = PrimeModulus(101)
        f = parse_poly("x + 3", m)
        dist = measurement_distribution(f, gram_matrix(m, 1, 8))
        assert dist.outcomes[poly_index(f)] == dist.alpha

    def test_total_mass_one(self):
        m = PrimeModulus(101)
        f = parse_poly("x + 3", m)
        dist = measurement_distribution(f, gram_matrix(m, 1, 8))
        total = dist.outcomes.sum() + dist.residual_mass
        assert total == pytest.approx(1.0, abs=1e-12)
        assert dist.residual_mass >= 0

    def test_wrong_outcomes_tiny_at_k8(self):
        m = PrimeModulus(101)
        f = parse_poly("x + 3", m)
        dist = measurement_distribution(f, gram_matrix(m, 1, 8))
        wrong = np.delete(dist.outcomes, poly_index(f)).max()
        assert wrong < 1e-10

    def test_gram_reuse_and_validation(self):
        m = PrimeModulus(13)
        f = parse_poly("x + 3", m)
        gram = gram_matrix(m, 1, 4)
        before = gram.overlaps.copy()
        for g in (f, parse_poly("x + 7", m)):
            dist = measurement_distribution(g, gram)
            assert dist.k == 4  # k is the Gram matrix's, there is no second source
            assert dist.outcomes[poly_index(g)] == dist.alpha
        sigma_2d(gram)
        assert np.array_equal(gram.overlaps, before)  # reuse leaves the tensor intact

    def test_non_member_rejected(self):
        m = PrimeModulus(13)
        gram = gram_matrix(m, 1, 2)
        for f in (
            MonicPoly((1, 4), m),  # degree 2, index 53 is past the d=1 family
            MonicPoly((3, 0), m),  # degree 2 x^2 + 3 shares index 3 with x + 3
            parse_poly("x + 3", PrimeModulus(11)),  # wrong modulus, same index 3
        ):
            with pytest.raises(ValueError):
                measurement_distribution(f, gram)
        with pytest.raises(ValueError):  # not square-free, so not a candidate
            measurement_distribution(parse_poly("x^2", m), gram_matrix(m, 2, 2))


class TestTensorConsistency:
    def test_explicit_kron_matches_powers(self):
        # small copy of the acceptance check, k=2 only
        m = PrimeModulus(7)
        polys = list(enumerate_monic(1, m, squarefree_only=True))
        for f in polys:
            for g in polys:
                sf = build_state(f).astype(np.int64)
                sg = build_state(g).astype(np.int64)
                t = int(np.kron(sf, sf) @ np.kron(sg, sg))
                assert Fraction(t, 49) == pair_overlap(f, g) ** 2
