"""Workload definitions and per-job output checks.

A workload is a fixed list of CLI invocations (a "pass").  The worker
feeds the list through ``hiddenpoly.cli.main`` repeatedly, one job in
flight, until the run's time is used.  Job seeds come from the workload
seed, so the same ``--seed`` always gives the same hidden polynomials;
no job seed is chosen by hand.  Why each workload exists is written in
``README.md`` next to this file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# Tail percentiles considered, highest first; a run reports the highest
# one that leaves at least TAIL_BEYOND jobs above it.
TAIL_GRID = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10

# Report fields that carry wall time; every other field is a counter that
# must repeat exactly across passes and thread counts.
TIMING_FIELDS = ("elapsed_ms", "stage_ms")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output must show."""

    kind: str  # "recover", "refuse", "quantum" or "bounds"
    label: str  # groups jobs of one configuration across seeds
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)  # exact report fields


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple  # (kind, label, argv without --seed, expect, seeds per pass)
    min_passes: int  # guarantees the jobs the tail percentile needs
    thread_check: bool = False  # rerun recover jobs with --threads 2

    def jobs(self, seed: int) -> list[Job]:
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for kind, label, argv, expect, copies in self.configs:
            for _ in range(copies):
                job_argv = tuple(argv)
                if kind != "refuse":
                    job_argv += ("--seed", str(rng.randrange(2**31)))
                out.append(Job(kind, label, job_argv, dict(expect)))
        return out

    def tail_percentile(self) -> int:
        """Highest grid percentile with TAIL_BEYOND jobs above it in the
        smallest run this workload makes; 100 (the slowest job) if none has."""
        n = self.min_passes * sum(c[4] for c in self.configs)
        for q in TAIL_GRID:
            if n * (100 - q) / 100 >= TAIL_BEYOND:
                return q
        return 100


def _recover(p, d, algo, *extra):
    return ("recover", "--p", str(p), "--d", str(d), "--algo", algo,
            "--json", "--threads", "1") + extra


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "recover-d1",
            "exact oracle, d=1: oracle-bound, so query savings and a batched oracle show here",
            (
                ("recover", "two-stage p=10007", _recover(10007, 1, "two-stage"),
                 {"total_queries": 8488, "query_lower_bound": 9}, 1),
                ("recover", "two-stage p=100003", _recover(100003, 1, "two-stage"), {}, 1),
                ("recover", "two-stage p=1000003", _recover(1000003, 1, "two-stage"),
                 {"total_queries": 190869, "query_lower_bound": 13}, 1),
                ("recover", "short p=10007", _recover(10007, 1, "short"), {}, 1),
                ("recover", "brute p=30011", _recover(30011, 1, "brute"), {}, 1),
            ),
            min_passes=8,
        ),
        Workload(
            "recover-noisy",
            "noisy oracle with 5 votes per point: sha256 noise, voting and the fallback argmax",
            (
                ("recover", "two-stage p=10007 gamma=0.9 reps=5",
                 _recover(10007, 1, "two-stage", "--gamma", "0.9", "--reps", "5"),
                 {"total_queries": 50035, "distinct_points": 10007, "fallback": True}, 4),
            ),
            min_passes=10,
        ),
        Workload(
            "recover-d2",
            "exact oracle, d=2: scan kernel and square-free mask bound, oracle about 1%",
            (
                ("recover", "two-stage p=1009", _recover(1009, 2, "two-stage"), {}, 1),
                ("recover", "two-stage p=2003", _recover(2003, 2, "two-stage"), {}, 1),
                ("recover", "two-stage p=3001", _recover(3001, 2, "two-stage"), {}, 1),
                ("recover", "brute p=503", _recover(503, 2, "brute"), {}, 1),
                ("recover", "short p=503", _recover(503, 2, "short"), {}, 1),
                ("refuse", "brute p=1009 d=3", _recover(1009, 3, "brute"), {}, 1),
            ),
            min_passes=7,
            thread_check=True,
        ),
        Workload(
            "analysis",
            "quantum Gram and eigen steps plus the default bound sweeps; no recovery runs",
            (
                ("quantum", "quantum d=1 p=1009",
                 ("quantum", "--p", "1009", "--d", "1", "--json", "--threads", "1"), {}, 1),
                ("quantum", "quantum d=1 p=2003",
                 ("quantum", "--p", "2003", "--d", "1", "--json", "--threads", "1"), {}, 1),
                ("quantum", "quantum d=2 p=31",
                 ("quantum", "--p", "31", "--d", "2", "--json", "--threads", "1"), {}, 1),
                ("quantum", "quantum d=2 p=37",
                 ("quantum", "--p", "37", "--d", "2", "--json", "--threads", "1"), {}, 1),
                ("bounds", "verify-bounds default",
                 ("verify-bounds", "--threads", "1"), {}, 1),
            ),
            min_passes=2,
        ),
    )
}


def counters(job: Job, stdout: str):
    """The part of a job's output that must repeat exactly."""
    if job.kind in ("recover", "quantum"):
        report = json.loads(stdout)
        for key in TIMING_FIELDS:
            report.pop(key, None)
        return json.dumps(report, sort_keys=True)
    return stdout


def check(job: Job, rc: int, stdout: str, stderr: str, raised: str | None) -> list[str]:
    """Reasons the job's outcome is wrong; empty when it is right."""
    if raised is not None:
        return [f"raised {raised}"]
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    if job.kind == "refuse":
        lines = stderr.splitlines()
        if rc != 2 or stdout or len(lines) != 1 or not lines[0].startswith("error:"):
            return [f"refusal exited {rc} with stderr {stderr!r}"]
        return []
    if job.kind == "bounds":
        rows = stdout.splitlines()
        problems = [] if rc == 0 else [f"exit {rc}"]
        if not rows or rows[0] != "lemma,p,d,params,measured,bound,pass" or len(rows) < 2:
            problems.append("malformed CSV")
        problems += [f"fail row {r}" for r in rows[1:] if not r.endswith(",pass")]
        return problems
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"exit {rc}, report is not JSON"]
    problems = []
    if job.kind == "quantum":
        if rc != 0:
            problems.append(f"exit {rc}")
        if report["p_correct"] != report["alpha"]:
            problems.append("p_correct != alpha")
        if report["residual_mass"] < 0:
            problems.append("residual_mass < 0")
        return problems
    # recover: an exact oracle must match; a noisy run is best-effort and may
    # answer null (exit 1), but a wrong non-null answer is always a failure
    matched = report["match"]
    noisy = "--gamma" in job.argv
    if not matched and not (noisy and report["recovered"] is None):
        problems.append(f"recovered {report['recovered']!r}, hidden {report['hidden']!r}")
    if rc != (0 if matched else 1):
        problems.append(f"exit {rc} with match={matched}")
    reps = report["reps"]
    if report["total_queries"] != reps * report["distinct_points"]:
        problems.append("total_queries != reps * distinct_points")
    if report["total_queries"] < report["query_lower_bound"]:
        problems.append("fewer queries than the information floor")
    for key, value in job.expect.items():
        if report[key] != value:
            problems.append(f"{key}={report[key]!r}, expected {value!r}")
    return problems
