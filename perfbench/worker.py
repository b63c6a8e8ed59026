"""One workload run in a fresh interpreter; started by run.py.

Imports hiddenpoly from the checkout's ``src``, runs one warm-up job,
then feeds the workload's job list through ``hiddenpoly.cli.main`` pass
after pass, one job in flight, and checks every output.  With
``--trace 1`` untraced and traced passes alternate.  The last stdout
line is a JSON object for run.py; with ``--setup-only`` the worker stops
after the warm-up.

With ``--core`` the worker pins itself to one core before numpy loads;
probe.py runs on the same core and publishes its counters in the file
named by ``--probe-file``.  Around each job the worker reads them and
states the job's CPU time in probe iterations (``Run.run_pass``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import mmap
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from probe import RECORD  # noqa: E402
from workloads import WORKLOADS, check, counters  # noqa: E402

WARM_UP = ["recover", "--p", "101", "--d", "1", "--no-timing"]
MIN_PROBE_ITERATIONS = 16
PROBE_WARM_UP = 500  # probe iterations before the first pass
PROBE_WAIT_S = 30


class ProbeReader:
    """Reads the counters probe.py publishes: (iterations, probe CPU seconds)."""

    def __init__(self, path):
        with open(path, "rb") as f:
            self.shared = mmap.mmap(f.fileno(), RECORD.size, access=mmap.ACCESS_READ)

    def read(self) -> tuple[int, float]:
        while True:
            n, cpu, again = RECORD.unpack(self.shared[:])
            if n == again:  # not caught halfway through a write
                return n, cpu


def execute(cli, job):
    """Run one job in-process; returns (seconds, CPU seconds, rc, stdout,
    stderr, traceback or None)."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    rc = None
    cpu = time.process_time()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(job.argv))
        except Exception:  # a job that raises is a counted failure, not a crash
            raised = traceback.format_exc()
    seconds = time.perf_counter() - start
    return seconds, time.process_time() - cpu, rc, out.getvalue(), err.getvalue(), raised


class Run:
    def __init__(self, cli, jobs):
        self.cli = cli
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counters: dict[int, object] = {}  # job index -> counters of its first run

    def run_job(self, index, job):
        seconds, cpu, rc, out, err, raised = execute(self.cli, job)
        self.attempted += 1
        problems = check(job, rc, out, err, raised)
        if not problems:
            seen = counters(job, out)
            if self.counters.setdefault(index, seen) != seen:
                problems.append("counters differ from the first run of this job")
        self.failed += bool(problems)
        self.problems += [f"{job.label} {' '.join(job.argv)}: {p}" for p in problems]
        return seconds, cpu, out

    def run_pass(self, probe, tracer=None):
        """Each job's wall seconds, its output, and its probe window: the
        job's CPU seconds, and the probe's iterations and CPU seconds
        from the end of the previous job to the end of this one."""
        times, outputs, windows = [], [], []
        last = probe.read()
        for index, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = index
            seconds, cpu, out = self.run_job(index, job)
            now = probe.read()
            times.append(seconds)
            outputs.append(out)
            windows.append((cpu, now[0] - last[0], now[1] - last[1]))
            last = now
        return times, outputs, windows


def in_probe_units(windows) -> list[float]:
    """Each job's CPU seconds over the probe's CPU seconds per iteration
    while the job ran; a job too short to see MIN_PROBE_ITERATIONS uses
    the probe's rate over the whole pass."""
    n_pass = sum(n for _, n, _ in windows)
    if n_pass < MIN_PROBE_ITERATIONS:
        raise RuntimeError("the probe made no progress during a pass")
    pass_rate = sum(spent for _, _, spent in windows) / n_pass
    return [cpu / (spent / n if n >= MIN_PROBE_ITERATIONS else pass_rate)
            for cpu, n, spent in windows]


def machine_facts(core) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "core": core,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced spans to this file")
    ap.add_argument("--core", type=int, default=None, help="run on this core only")
    ap.add_argument("--probe-file", default=None, help="counters of probe.py on that core")
    args = ap.parse_args()
    if args.core is not None:
        # before numpy loads, so that every thread the process starts stays there
        os.sched_setaffinity(0, {args.core})

    import hiddenpoly
    from hiddenpoly import cli

    if Path(hiddenpoly.__file__).resolve().parent != ROOT / "src" / "hiddenpoly":
        print(f"error: imported hiddenpoly from {hiddenpoly.__file__}", file=sys.stderr)
        return 2
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(WARM_UP)
    ready = time.monotonic()
    if rc != 0:
        print("error: warm-up job failed", file=sys.stderr)
        return 1
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    from metrics import COUNTERS, layer_metrics
    from tracer import Tracer

    if args.probe_file is None:
        print("error: --probe-file is required", file=sys.stderr)
        return 2
    probe = ProbeReader(args.probe_file)
    waited = time.monotonic() + PROBE_WAIT_S
    while probe.read()[0] < PROBE_WARM_UP:  # let the probe load numpy and settle
        if time.monotonic() > waited:
            print("error: the probe did not start", file=sys.stderr)
            return 1
        time.sleep(0.01)

    workload = WORKLOADS[args.workload]
    jobs = workload.jobs(args.seed)
    run = Run(cli, jobs)
    untraced: list[list[float]] = []
    windows: list[list[tuple]] = []
    traced: list[list[float]] = []
    layers: list[dict] = []
    breakdowns: list[dict] = []
    dumps: list[dict] = []

    if args.trace:
        # the first pass fills caches and faults pages in; left out of both sides of
        # trace.overhead_s so that the difference is the tracing alone
        run.run_pass(probe)
    start = time.perf_counter()
    while True:
        trace_now = bool(args.trace) and len(traced) < len(untraced)
        if trace_now:
            tracer = Tracer()
            tracer.install(hiddenpoly)
            try:
                times, outputs, _ = run.run_pass(probe, tracer)
            finally:
                tracer.uninstall()
            traced.append(times)
            m, breakdown = layer_metrics(tracer, jobs, outputs)
            layers.append(m)
            breakdowns.append(breakdown)
            dumps.append(tracer.dump())
        else:
            times, outputs, w = run.run_pass(probe)
            untraced.append(times)
            windows.append(w)
        passes = len(untraced) + len(traced)
        elapsed = time.perf_counter() - start
        enough = len(traced) >= 1 if args.trace else len(untraced) >= workload.min_passes
        if enough and elapsed + 0.5 * elapsed / passes > args.seconds:
            break

    if workload.thread_check:
        # counters must not depend on --threads; run each recover job once with 2 workers
        for index, job in enumerate(jobs):
            if job.kind == "recover":
                argv = list(job.argv)
                argv[argv.index("--threads") + 1] = "2"
                run.run_job(index, dataclasses.replace(job, argv=tuple(argv)))

    def job_list_total(passes):
        # each job's median over passes, summed over the job list
        return sum(statistics.median(col) for col in zip(*passes))

    relative = [in_probe_units(w) for w in windows]

    if args.trace:
        for name in COUNTERS:
            if len({json.dumps(m[name]) for m in layers}) != 1:
                run.problems.append(f"{name} differs between traced passes")
    result = {
        "ready": ready,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "facts": machine_facts(args.core),
        "labels": [job.label for job in jobs],
        "job_seconds": untraced,
        "job_relative": relative,
        "probe_windows": windows,
        "wall_s": job_list_total(untraced),
        "cpu_rel": job_list_total(relative),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        names = layers[0].keys()
        result["per_layer"] = {n: statistics.median(m[n] for m in layers) for n in names}
        result["per_layer"]["trace.overhead_s"] = job_list_total(traced) - result["wall_s"]
        result["traced_job_seconds"] = traced
        result["breakdown"] = breakdowns[len(breakdowns) // 2]
        if args.spans:
            Path(args.spans).write_text(json.dumps({"jobs": result["labels"], "passes": dumps}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
