"""The CLI's documented contracts as one table of rows, and the runner that checks them.

Each row names a `hiddenpoly` command, the --threads counts it runs at and
the exit code it must return.  Optional fields hold a relation over the
report's fields, the CSV's row count (every row `pass`), the sha256 of
stdout, bounds on the child's peak RSS and wall time, and the refusal
shape: exit 2, nothing on stdout and exactly one `error:` line on stderr.
The runner runs a row once per thread count and requires stdout, stderr
and the exit code to be byte-identical across them.

    python tests/contracts.py

runs every row against the `hiddenpoly` console script on PATH, prints one
line per run (row id, thread count, exit code, wall seconds, peak MB) and
then one line per failure, and exits 1 if any row failed.  The tier-1
suite runs the light rows through `python -m hiddenpoly.cli`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

# read, not imported: the runner needs neither numpy nor hiddenpoly, only the command
DEFAULT_BOUNDS_SHA256 = re.search(r'^DEFAULT_BOUNDS_SHA256 = "([0-9a-f]{64})"$',
                                  Path(__file__).with_name("test_golden.py").read_text(),
                                  re.M)[1]
CSV_HEADER = "lemma,p,d,params,measured,bound,pass"
QUANTUM = "p_correct == alpha and residual_mass >= 0"

# Spawns the command, waits for it and writes its peak RSS (KiB) to the fd in
# argv[1].  It imports neither numpy nor hiddenpoly: a spawned child's ru_maxrss
# starts from its parent's resident set, and RUSAGE_CHILDREN keeps the largest
# child any earlier run left.
LAUNCHER = """
import os, sys
pid = os.posix_spawnp(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
os.write(int(sys.argv[1]), str(usage.ru_maxrss).encode())
sys.exit(os.waitstatus_to_exitcode(status))
"""


@dataclass(frozen=True)
class Row:
    id: str
    argv: str  # the command after `hiddenpoly`, split on whitespace; --threads is appended
    threads: tuple[int, ...] = (1,)
    exit: int = 0
    report: str | None = None  # a Python expression over the JSON or `key: value` report
    csv_rows: int | None = None
    sha256: str | None = None
    max_rss_mb: float | None = None
    max_wall_s: float | None = None
    refusal: bool = False
    light: bool = False  # also run by the tier-1 suite


def refusal(id: str, argv: str, **limits) -> Row:
    return Row(id, argv, exit=2, refusal=True, **limits)


REFUSED_FAST = {"max_wall_s": 1.0, "max_rss_mb": 100.0, "light": True}

ROWS = (
    # budget refusals exit 2 before the allocation they guard
    refusal("refuse-two-stage-d3-p10007", "recover --p 10007 --d 3 --algo two-stage",
            **REFUSED_FAST),
    refusal("refuse-two-stage-d3-budget", "recover --p 10007 --d 3 --algo two-stage --budget 1000",
            **REFUSED_FAST),
    refusal("refuse-two-stage-d2-budget", "recover --p 1009 --d 2 --algo two-stage --budget 1000",
            **REFUSED_FAST),
    # p^5 does not fit int64: the budget refuses before any index or query exists
    refusal("refuse-two-stage-d5-p10007", "recover --p 10007 --d 5", **REFUSED_FAST),
    # a noisy two-stage job is charged its p^(d+1)-cell fallback decode before any query
    refusal("refuse-two-stage-noisy-d2-p1009", "recover --p 1009 --d 2 --gamma 0.9 --reps 5",
            **REFUSED_FAST),
    # before the p-entry window cache and character table
    refusal("refuse-recover-d1-p100000007", "recover --p 100000007 --d 1", **REFUSED_FAST),
    refusal("refuse-quantum-d2-p10007", "quantum --p 10007 --d 2", **REFUSED_FAST),
    # odd d, p = 1 (mod 4): before the non-residue n is looked up
    refusal("refuse-quantum-d1-p1000000009", "quantum --p 1000000009 --d 1", **REFUSED_FAST),
    refusal("refuse-pair-identity-budget",
            "verify-bounds --lemma pair-identity --p 101 --budget 1000"),
    # usage errors
    refusal("usage-verify-bounds-bare-p", "verify-bounds --p"),
    refusal("usage-bench-bare-p", "bench --p"),
    refusal("usage-bench-bare-algos", "bench --p 101 --algos --seeds 1 --no-timing"),
    refusal("usage-bench-seeds-0", "bench --p 101 --seeds 0"),
    # exact-oracle recovery: query counts and answers, and --threads never changes a report
    Row("two-stage-d1-p1000003", "recover --p 1000003 --d 1 --seed 0 --no-timing --json",
        threads=(1, 2), report="total_queries == 190869 and match is True", max_rss_mb=58.0),
    Row("brute-d1-p30011", "recover --p 30011 --d 1 --algo brute --no-timing --json",
        threads=(1, 2), report="match is True"),
    Row("brute-d2-p251", "recover --p 251 --d 2 --seed 7 --algo brute --json --no-timing",
        threads=(1, 2, 8), report="match is True", light=True),
    Row("two-stage-d2-p251", "recover --p 251 --d 2 --seed 7 --algo two-stage --json --no-timing",
        threads=(1, 2, 8), light=True),
    Row("two-stage-d2-p3001", "recover --p 3001 --d 2 --algo two-stage --no-timing --json",
        threads=(1, 2), report="match is True"),
    Row("two-stage-d3-p211", "recover --p 211 --d 3 --algo two-stage --no-timing --json",
        threads=(1, 2), report="match is True"),
    # two-stage's default-budget edges on the translation-orbit scan
    Row("two-stage-d2-p7901", "recover --p 7901 --d 2 --algo two-stage --no-timing --json",
        threads=(1, 2), report="match is True", max_rss_mb=100.0),
    Row("two-stage-d3-p389", "recover --p 389 --d 3 --algo two-stage --no-timing --json",
        threads=(1, 2), report="match is True", max_rss_mb=100.0),
    # p^3 = 1.03e9 cells of float32 Hankel products need a budget above the default
    Row("brute-d2-p1009", "recover --p 1009 --d 2 --algo brute --budget 2000000000 --no-timing "
        "--json", threads=(1, 2), report="match is True", max_rss_mb=100.0),
    Row("short-d2-p1009", "recover --p 1009 --d 2 --algo short --budget 2000000000 --no-timing "
        "--json", threads=(1, 2), report="match is True", max_rss_mb=100.0),
    # the square-free mask is built from its complement, so a d=3 brute run is mostly its scan
    Row("brute-d3-p101", "recover --p 101 --d 3 --algo brute --no-timing --json",
        threads=(1, 2), report="match is True", max_wall_s=5.0),
    # the streamed argmax holds the p^d bool mask but no array of all p^d sums
    Row("brute-d4-p61", "recover --p 61 --d 4 --algo brute --no-timing --json",
        report="match is True", max_rss_mb=80.0, light=True),
    Row("short-d4-p53", "recover --p 53 --d 4 --algo short --no-timing --json",
        report="match is True", max_rss_mb=70.0, light=True),
    # at p = 5 some quadratics are indistinguishable: flagged, never returned silently
    Row("brute-d2-p5-tie", "recover --p 5 --d 2 --seed 2 --algo brute --no-timing --json",
        exit=1, report="ambiguous is True and match is False"),
    # the batched noisy vote: the same queries and answer at any thread count
    Row("noisy-d1-p10007", "recover --p 10007 --d 1 --gamma 0.9 --reps 5 --seed 0 --no-timing "
        "--json", threads=(1, 2),
        report="total_queries == 50035 and recovered == 'x + 6311' and match is True"),
    # noise takes f out of stage 1; the fallback decodes every candidate on the cached answers
    Row("noisy-d1-p101-empty-pool", "recover --p 101 --d 1 --gamma 0.9 --reps 3 --seed 0 "
        "--no-timing --json", threads=(1, 2, 8),
        report="survivors_stage1 == 0 and total_queries == 303 and match is True", light=True),
    # quantum: the measured outcome carries the POVM weight
    Row("quantum-d2-p37", "quantum --p 37 --d 2 --seed 0 --json --no-timing",
        report=QUANTUM + " and alpha * lambda_max <= 1"),
    Row("quantum-d1-p10007", "quantum --p 10007 --d 1 --json", report=QUANTUM),
    Row("quantum-d3-p13", "quantum --p 13 --d 3 --json --no-timing", threads=(1, 2),
        report=QUANTUM),
    Row("quantum-d2-p211", "quantum --p 211 --d 2", report=QUANTUM, max_wall_s=2.0,
        max_rss_mb=100.0, light=True),
    Row("quantum-d3-p23", "quantum --p 23 --d 3", report=QUANTUM, max_wall_s=2.0,
        max_rss_mb=100.0, light=True),
    # bound sweeps: every row passes, at any thread count
    Row("pair-identity-default", "verify-bounds --lemma pair-identity", threads=(1, 2),
        csv_rows=10250),
    Row("weil-default", "verify-bounds --lemma weil", threads=(1, 2), csv_rows=24),
    Row("weil-p3-127", "verify-bounds --lemma weil --p 3 127", csv_rows=8),
    Row("average-default", "verify-bounds --lemma average", threads=(1, 2), csv_rows=30),
    Row("weil-short-default", "verify-bounds --lemma weil-short", threads=(1, 2), csv_rows=120),
    # 500 form sets per default prime, one batched multilinear call per prime
    Row("mult-weil-default", "verify-bounds --lemma mult-weil", threads=(1, 2), csv_rows=1500),
    Row("mult-weil-p5", "verify-bounds --lemma mult-weil --p 5 --seed 3", threads=(1, 2, 8),
        csv_rows=500, light=True),
    # the whole default grid at the pinned sha256; the moment sweep streams
    Row("verify-bounds-default", "verify-bounds", threads=(1, 2), sha256=DEFAULT_BOUNDS_SHA256,
        max_rss_mb=100.0),
    Row("bench-p101", "bench --p 101 --d 1 --seeds 2 --no-timing", threads=(1, 2, 8), light=True),
)


@dataclass(frozen=True)
class Run:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    rss_mb: float


def launch(cli: Sequence[str], argv: Sequence[str]) -> Run:
    """Run cli + argv to completion through LAUNCHER."""
    read, write = os.pipe()
    start = time.perf_counter()
    try:
        # -I -S: the launcher needs only os and sys, and starts in a quarter of the time
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", LAUNCHER, str(write), *cli,
                               *argv], capture_output=True, pass_fds=(write,), timeout=600)
    finally:
        os.close(write)
    wall_s = time.perf_counter() - start
    with os.fdopen(read) as f:
        rss_kib = int(f.read() or 0)  # empty when the command could not be spawned
    return Run(proc.returncode, proc.stdout, proc.stderr, wall_s, rss_kib / 1024)


def _report(stdout: bytes) -> dict:
    text = stdout.decode()
    if text.startswith("{"):
        return json.loads(text)
    return {key: json.loads(value) for key, value in (line.split(": ", 1) for line in
                                                       text.splitlines())}


def _check_output(row: Row, run: Run) -> list[str]:
    problems = []
    if row.refusal:
        lines = run.stderr.decode().splitlines()
        if run.stdout or len(lines) != 1 or not lines[0].startswith("error:"):
            problems.append(f"not a one-line refusal: stdout {run.stdout[:200]!r}, "
                            f"stderr {run.stderr[:400]!r}")
    if row.report is not None:
        try:
            holds = eval(row.report, {}, _report(run.stdout))
        except (ValueError, NameError, TypeError) as exc:
            problems.append(f"report unreadable: {exc}")
        else:
            if not holds:
                problems.append(f"report fails {row.report}: {run.stdout[:400]!r}")
    if row.csv_rows is not None:
        head, *lines = run.stdout.decode().splitlines() or [""]
        passed = sum(line.endswith(",pass") for line in lines)
        if head != CSV_HEADER or len(lines) != row.csv_rows or passed != row.csv_rows:
            problems.append(f"CSV header {head!r}, {len(lines)} rows, {passed} pass; "
                            f"expected {row.csv_rows} rows, all pass")
    if row.sha256 is not None and (digest := hashlib.sha256(run.stdout).hexdigest()) != row.sha256:
        problems.append(f"stdout sha256 {digest}, pinned {row.sha256}")
    return problems


def run_row(row: Row, cli: Sequence[str]) -> list[str]:
    """Run row at each of its thread counts; return its failures, each prefixed by its id."""
    problems = []
    runs: list[Run] = []
    for threads in row.threads:
        run = launch(cli, [*row.argv.split(), "--threads", str(threads)])
        print(f"{row.id:<30} threads={threads} exit={run.code} {run.wall_s:6.2f} s "
              f"{run.rss_mb:6.1f} MB", flush=True)
        if run.code != row.exit:
            problems.append(f"exit {run.code} at --threads {threads}, expected {row.exit}: "
                            f"stderr {run.stderr[-400:]!r}")
        if row.max_wall_s is not None and run.wall_s > row.max_wall_s:
            problems.append(f"{run.wall_s:.2f} s at --threads {threads}, bound {row.max_wall_s} s")
        if row.max_rss_mb is not None and run.rss_mb > row.max_rss_mb:
            problems.append(f"peak RSS {run.rss_mb:.1f} MB at --threads {threads}, "
                            f"bound {row.max_rss_mb} MB")
        if runs and (run.code, run.stdout, run.stderr) != (runs[0].code, runs[0].stdout,
                                                           runs[0].stderr):
            problems.append(f"output at --threads {threads} differs from "
                            f"--threads {row.threads[0]}")
        runs.append(run)
    problems += _check_output(row, runs[0])
    return [f"{row.id}: {problem}" for problem in problems]


def main() -> int:
    failures = [failure for row in ROWS for failure in run_row(row, ["hiddenpoly"])]
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"{len(ROWS)} rows, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
