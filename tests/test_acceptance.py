"""Acceptance checks, one per stated guarantee, with a visible verdict line.

Each test records exactly one [PASS]/[FAIL] line through the `verdicts`
fixture; the conftest terminal-summary hook prints the lines after
capture ends, so they appear in plain `pytest -v` runs. The checks are
ordered: exact recovery, the sub-linear query window, the four
character-sum bounds, the correlation bound, measurement success mass,
tensor-state equivalence, the information floor, and CLI determinism.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from hiddenpoly import charsum, quantum, reconstruct
from hiddenpoly.ffield import PrimeModulus
from hiddenpoly.oracle import OracleSession
from hiddenpoly.poly import enumerate_monic, poly_index, random_squarefree
from hiddenpoly.quantum import build_state, choose_k, gram_matrix, measurement_distribution
from hiddenpoly.reconstruct import query_lower_bound

RECOVERY_GRID = ((101, 1), (1009, 1), (10007, 1), (101, 2), (251, 2))
SEEDS = 25

# query records collected by the recovery grid, re-checked against the
# information floor later in the file
_QUERY_RECORDS: list[tuple[int, int, int, int]] = []


def _verdict(verdicts: list, ok: bool, label: str, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    verdicts.append(f"[{tag}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


class TestExactRecovery:
    def test_full_grid_all_algorithms(self, verdicts):
        t0 = time.time()
        algos = {
            "brute": reconstruct.brute_force_recover,
            "short": reconstruct.short_window_recover,
            "two-stage": reconstruct.two_stage_recover,
        }
        failures = []
        runs = 0
        for p, d in RECOVERY_GRID:
            modulus = PrimeModulus(p)
            floor = query_lower_bound(modulus, d)
            for name, solve in algos.items():
                for seed in range(SEEDS):
                    hidden = random_squarefree(modulus, d, random.Random(seed))
                    session = OracleSession(hidden, rng_seed=seed)
                    report = solve(session, d)
                    runs += 1
                    if report.recovered != hidden:
                        failures.append((p, d, name, seed))
                    _QUERY_RECORDS.append((p, d, report.total_queries, floor))
        elapsed = time.time() - t0
        _verdict(
            verdicts,
            not failures and elapsed < 120.0,
            "exact-oracle recovery",
            f"{runs - len(failures)}/{runs} runs exact across "
            f"{len(RECOVERY_GRID)} sizes x 3 algorithms, {elapsed:.1f}s",
        )


class TestSubLinearWindow:
    def test_two_stage_query_window(self, verdicts):
        p = 10007
        modulus = PrimeModulus(p)
        m_eff = math.ceil(math.sqrt(p) * math.log(p) ** 2)
        assert m_eff < p
        worst = 0
        fallbacks = 0
        ok = True
        for seed in range(SEEDS):
            hidden = random_squarefree(modulus, 1, random.Random(seed))
            session = OracleSession(hidden, rng_seed=seed)
            report = reconstruct.two_stage_recover(session, 1)
            worst = max(worst, report.distinct_points_queried)
            fallbacks += report.fallback
            ok = ok and report.recovered == hidden and report.distinct_points_queried <= m_eff
        ok = ok and fallbacks <= 5
        _verdict(
            verdicts,
            ok,
            "sub-linear query window",
            f"max distinct points {worst} <= {m_eff} < p={p} on {SEEDS} seeds, "
            f"fallbacks {fallbacks}/{SEEDS}",
        )


class TestPairIdentity:
    def test_exhaustive(self, verdicts):
        bad = 0
        total = 0
        for p in (7, 101):
            modulus = PrimeModulus(p)
            for a in range(p):
                for b in range(p):
                    want = p - 1 if a == b else -1
                    got = charsum.pair_identity(modulus.element(a), modulus.element(b))
                    total += 1
                    bad += got != want
        _verdict(
            verdicts,
            bad == 0,
            "two-point identity",
            f"{total} pairs exhaustive over p in (7, 101), {bad} mismatches",
        )


class TestWeilBound:
    def test_exhaustive_low_degree(self, verdicts):
        t0 = time.time()
        rows = charsum.sweep_weil()
        elapsed = time.time() - t0
        bad = [r for r in rows if not r.passed]
        _verdict(
            verdicts,
            not bad and elapsed < 60.0,
            "complete-sum bound",
            f"all monic non-squares, degrees 1-4, p up to 61: "
            f"{len(rows)} cells, {len(bad)} violations, {elapsed:.1f}s",
        )


class TestMomentBound:
    def test_seeded_weight_vectors(self, verdicts):
        rows = charsum.sweep_moment()
        bad = [r for r in rows if not r.passed]
        _verdict(
            verdicts,
            not bad,
            "moment bound",
            f"{len(rows)} (p, d, r, N) cells x 1000 weight vectors, {len(bad)} violations",
        )


class TestMultilinearBound:
    def test_seeded_form_sets(self, verdicts):
        rows = charsum.sweep_mult_weil()
        bad = [r for r in rows if not r.passed]
        _verdict(
            verdicts,
            not bad,
            "multilinear bound",
            f"{len(rows)} sampled form sets (sizes 1-3, d=2), {len(bad)} violations",
        )


class TestCorrelationBound:
    def test_max_pairwise_correlation(self, verdicts):
        worst = []
        ok = True
        for p in (7, 13, 101, 251):
            modulus = PrimeModulus(p)
            sigma = quantum.sigma_2d(gram_matrix(modulus, 1, 1))
            bound = quantum.sigma_bound(modulus, 1)
            ok = ok and sigma <= bound
            worst.append(f"p={p}: {sigma} <= {bound:.1f}")
        _verdict(verdicts, ok, "pairwise correlation bound", "; ".join(worst))


class TestMeasurementSuccess:
    def test_success_mass_large_k(self, verdicts):
        t0 = time.time()
        k = choose_k(1, 0.5)
        ok = k == 8
        details = []
        for p in (101, 251, 1009):
            modulus = PrimeModulus(p)
            gram = gram_matrix(modulus, 1, k)
            hidden = random_squarefree(modulus, 1, random.Random(0))
            dist = measurement_distribution(hidden, gram)
            total = float(dist.outcomes.sum()) + dist.residual_mass
            gap = (1.0 - dist.alpha) * p
            ok = ok and gap <= 10.0
            ok = ok and abs(total - 1.0) <= 1e-9
            ok = ok and abs(dist.outcomes[poly_index(hidden)] - dist.alpha) <= 1e-10
            ok = ok and dist.residual_mass >= 0.0
            details.append(f"p={p}: (1-alpha)p={gap:.2e}")
        elapsed = time.time() - t0
        ok = ok and elapsed < 120.0
        _verdict(
            verdicts,
            ok,
            "measurement success mass",
            f"k={k}, " + "; ".join(details) + f", {elapsed:.1f}s",
        )


class TestTensorEquivalence:
    def test_explicit_tensors_match_overlap_powers(self, verdicts):
        modulus = PrimeModulus(7)
        polys = list(enumerate_monic(1, modulus, squarefree_only=True))
        pairs = 0
        bad = 0
        for k in (1, 2, 3):
            for i, f in enumerate(polys):
                for g in polys[i:]:
                    sf = build_state(f).astype(np.int64)
                    sg = build_state(g).astype(np.int64)
                    tf, tg = sf, sg
                    for _ in range(k - 1):
                        tf = np.kron(tf, sf)
                        tg = np.kron(tg, sg)
                    explicit = Fraction(int(tf @ tg), 7**k)
                    pairs += 1
                    bad += explicit != quantum.pair_overlap(f, g) ** k
        _verdict(
            verdicts,
            bad == 0,
            "tensor-state equivalence",
            f"{pairs} (pair, k) combinations exact in rational arithmetic, {bad} mismatches",
        )


class TestQueryFloor:
    def test_runs_dominate_information_floor(self, verdicts):
        records = list(_QUERY_RECORDS)
        if not records:
            # selective run: regenerate a small grid
            for p, d in ((101, 1), (101, 2)):
                modulus = PrimeModulus(p)
                floor = query_lower_bound(modulus, d)
                for seed in range(5):
                    hidden = random_squarefree(modulus, d, random.Random(seed))
                    for solve in (
                        reconstruct.brute_force_recover,
                        reconstruct.short_window_recover,
                        reconstruct.two_stage_recover,
                    ):
                        session = OracleSession(hidden, rng_seed=seed)
                        report = solve(session, d)
                        records.append((p, d, report.total_queries, floor))
        below = [r for r in records if r[2] < r[3]]

        formula_ok = True
        for p in (3, 5, 7, 11, 13):
            modulus = PrimeModulus(p)
            count = sum(1 for _ in enumerate_monic(2, modulus, squarefree_only=True))
            k = 0
            while 3**k < count:
                k += 1
            formula_ok = formula_ok and query_lower_bound(modulus, 2) == k
        _verdict(
            verdicts,
            not below and formula_ok,
            "information floor",
            f"{len(records)} runs all at or above the ternary floor; "
            f"floor formula matches exhaustive counts for quadratics at p <= 13",
        )


class TestCliDeterminism:
    def test_byte_identical_across_threads(self, verdicts):
        commands = [
            ["recover", "--p", "251", "--d", "2", "--seed", "7", "--algo", "two-stage",
             "--json", "--no-timing"],
            ["verify-bounds", "--lemma", "mult-weil", "--p", "5", "--seed", "3"],
            ["bench", "--p", "101", "--d", "1", "--seeds", "2", "--no-timing"],
        ]
        ok = True
        for base in commands:
            outputs = set()
            for threads in ("1", "2", "8"):
                proc = subprocess.run(
                    [sys.executable, "-m", "hiddenpoly.cli", *base, "--threads", threads],
                    capture_output=True,
                    timeout=300,
                )
                ok = ok and proc.returncode == 0
                outputs.add(proc.stdout)
            ok = ok and len(outputs) == 1
        _verdict(
            verdicts,
            ok,
            "report determinism",
            f"{len(commands)} commands byte-identical across thread counts 1, 2, 8",
        )
