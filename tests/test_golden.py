"""Golden reports: CLI output must stay byte-identical.

Each tests/golden/<name>.txt is the stdout of `hiddenpoly <argv>` for one
command below.  The files were captured before the candidate-scan
kernels were consolidated, so a refactor that changes any reported
number, order or format fails here.  The two quantum files were
captured again when the exact block eigensolve replaced power
iteration, which had underestimated lambda_max, and again when only the
distinct Fourier blocks were solved, summed from a streamed C with the
powers taken by repeated squaring (lambda_max and the four fields
derived from it moved in the last digits).  The noisy brute file was
captured before the batched, early-stopping vote replaced the per-draw
one, and the p = 3001 two-stage file before stage 1 ran in rounds.
Recovery and bench reports use --no-timing; quantum and
verify-bounds print no wall times.  The default verify-bounds report, all
11925 lines of it, is pinned by its sha256 instead of a file.
"""

import hashlib
from pathlib import Path

import pytest

from hiddenpoly.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "recover_d1_p101_brute": "recover --p 101 --d 1 --algo brute --seed 1 --json --no-timing",
    "recover_d1_p101_short": "recover --p 101 --d 1 --algo short --seed 1 --json --no-timing",
    "recover_d1_p101_two_stage":
        "recover --p 101 --d 1 --algo two-stage --seed 1 --json --no-timing",
    "recover_d1_p1009_brute": "recover --p 1009 --d 1 --algo brute --seed 2 --json --no-timing",
    "recover_d1_p1009_short": "recover --p 1009 --d 1 --algo short --seed 2 --json --no-timing",
    "recover_d1_p1009_two_stage":
        "recover --p 1009 --d 1 --algo two-stage --seed 2 --json --no-timing",
    "recover_d2_p101_brute": "recover --p 101 --d 2 --algo brute --seed 3 --json --no-timing",
    "recover_d2_p101_short": "recover --p 101 --d 2 --algo short --seed 3 --json --no-timing",
    "recover_d2_p101_two_stage": "recover --p 101 --d 2 --algo two-stage --seed 3 --no-timing",
    "recover_d1_p1009_noisy": "recover --p 1009 --d 1 --algo two-stage --gamma 0.9 --reps 3 "
                              "--seed 4 --json --no-timing",
    # seven votes at gamma 0.6 reach draws 4-7 and the tie rule on many points
    "recover_d1_p1009_noisy_brute": "recover --p 1009 --d 1 --algo brute --gamma 0.6 --reps 7 "
                                    "--seed 1 --json --no-timing",
    "recover_d2_p251_two_stage":
        "recover --p 251 --d 2 --seed 7 --algo two-stage --json --no-timing",
    # every candidate's first round takes the d >= 2 short route, and thousands
    # of candidates reach the later rounds
    "recover_d2_p3001_two_stage":
        "recover --p 3001 --d 2 --algo two-stage --seed 0 --no-timing",
    "quantum_d1_p101": "quantum --p 101 --d 1 --json",
    "quantum_d2_p13": "quantum --p 13 --d 2 --json",
    "bounds_pair_identity": "verify-bounds --lemma pair-identity --p 7",
    "bounds_weil": "verify-bounds --lemma weil --p 5 7 11",
    "bounds_weil_short": "verify-bounds --lemma weil-short --p 11 --seed 1",
    "bounds_mult_weil": "verify-bounds --lemma mult-weil --p 5 --seed 3",
    "bounds_average": "verify-bounds --lemma average --p 7 --seed 2",
    "bench_small": "bench --p 101 --d 1 --seeds 2 --no-timing",
    "bench_default": "bench --no-timing",
}

# sha256 of `verify-bounds --threads 1` stdout: every sweep at its default primes
DEFAULT_BOUNDS_SHA256 = "f9a3ef3bde5a77277c255c5719716f0ac2943eb26df7de3336d820e3f0b729d2"

# the scans that split work across threads, rerun with other thread counts
THREADED = ("recover_d1_p1009_brute", "recover_d1_p1009_two_stage", "recover_d2_p101_brute",
            "recover_d1_p1009_noisy_brute", "recover_d2_p251_two_stage",
            "recover_d2_p3001_two_stage", "bounds_pair_identity", "bounds_weil", "bench_small")


def _stdout(capsys, argv: list[str]) -> bytes:
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("name", COMMANDS)
def test_report_matches_golden(name, capsys):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert _stdout(capsys, COMMANDS[name].split()) == expected


@pytest.mark.parametrize("threads", ["2", "8"])
@pytest.mark.parametrize("name", THREADED)
def test_threads_do_not_change_reports(name, threads, capsys):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert _stdout(capsys, COMMANDS[name].split() + ["--threads", threads]) == expected


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(COMMANDS)


def test_default_bounds_report_is_pinned(capsys):
    out = _stdout(capsys, ["verify-bounds", "--threads", "1"])
    assert out.count(b"\n") == 11925
    assert hashlib.sha256(out).hexdigest() == DEFAULT_BOUNDS_SHA256
