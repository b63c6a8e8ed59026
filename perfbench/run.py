"""hiddenpoly benchmark: the command-line entry point.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload recover-d1 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --all     # every workload, untraced and traced

One run starts fresh interpreters only: a few that import hiddenpoly
and run the warm-up job (to time set-up), then one worker that runs the
workload (see worker.py) on one core, next to the reference loop of
probe.py at low priority.  It prints a few human-readable lines and, as
the last stdout line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Result files and spans go to
``.perfbench/`` in the checkout.  ``--all`` also rewrites BENCHMARK.json
from the definitions in metrics.py and workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, FUNCTION_TIMES, PER_LAYER, UNITS, percentile  # noqa: E402
from probe import RECORD as PROBE_RECORD  # noqa: E402
from tracer import layer_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

METRIC_OF = {fn: metric for metric, fns in FUNCTION_TIMES.items() for fn in fns}
RUN_SECONDS = 15
SETUP_SAMPLES = 10  # set-up-only interpreters per run
DEADLINE_S = 170  # the whole run, set-up included
BLAS_THREADS = "1"  # the worker runs on one core, next to the probe


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("PYTHONPATH", None)
    return env


def start(script: str, args: list[str], **kwargs) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(HERE / script), *args],
                            env=child_env(), cwd=ROOT, text=True, **kwargs)


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish(proc: subprocess.Popen, deadline: float) -> dict:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker ran past the deadline") from None
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def setup_samples(common: list[str], count: int, deadline: float) -> list[float]:
    """Seconds from spawning a fresh interpreter until its warm-up job returned."""
    samples = []
    for _ in range(count):
        t0 = time.monotonic()
        proc = start("worker.py", common + ["--setup-only"], stdout=subprocess.PIPE)
        samples.append(finish(proc, deadline)["ready"] - t0)
    return samples


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    # half the set-up samples before the workload and half after, so that
    # their median spans the whole run
    setups = setup_samples(common, SETUP_SAMPLES // 2, deadline)

    # the worker and the probe share the last core of the machine; see probe.py
    core = max(os.sched_getaffinity(0))
    counters = OUT / f"probe-{os.getpid()}.bin"
    counters.write_bytes(bytes(PROBE_RECORD.size))
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    extra = ["--trace", str(trace), "--core", str(core), "--probe-file", str(counters)]
    extra += ["--spans", str(spans)] if trace else []
    probe = start("probe.py", ["--core", str(core), "--file", str(counters)])
    try:
        worker = start("worker.py", common + extra, stdout=subprocess.PIPE)
        result = finish(worker, deadline)
        if probe.poll() is not None:
            raise RuntimeError(f"the probe exited {probe.returncode} during the run")
    finally:
        stop(probe)
        counters.unlink()
    setups += setup_samples(common, SETUP_SAMPLES - len(setups), deadline)
    result["setup_samples"] = setups

    if trace:
        metrics = result["per_layer"]
    else:
        times = [t for row in result["job_seconds"] for t in row]
        relative = [t for row in result["job_relative"] for t in row]
        q = WORKLOADS[workload].tail_percentile()
        result["tail"] = {"percentile": q, "jobs": len(times),
                          "jobs_beyond": round(len(times) * (100 - q) / 100)}
        result["not_gated"] = {
            "wall_s": (result["wall_s"], "s"),
            "job_s_p50": (statistics.median(times), "s"),
            f"job_s_p{q}": (percentile(times, q), "s"),
            "job_rel_p50": (statistics.median(relative), "probe"),
            f"job_rel_p{q}": (percentile(relative, q), "probe"),
        }
        metrics = {
            "setup_s": statistics.median(setups),
            "cpu_rel": result["cpu_rel"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
    expected = {spec[0] for spec in (PER_LAYER if trace else END_TO_END)}
    if set(metrics) != expected:
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ expected)} missing or unknown")
    result["metrics"] = metrics
    return result


def report_line(result: dict) -> str:
    metrics = {name: {"value": value, "unit": UNITS[name]}
               for name, value in result["metrics"].items()}
    return json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def describe(workload: str, seed: int, trace: int, result: dict) -> None:
    facts = result["facts"]
    print(f"workload {workload} seed {seed} trace {trace}: "
          f"{len(result['job_seconds'])} untraced passes of {len(result['labels'])} jobs; "
          + ", ".join(f"{k}={v}" for k, v in facts.items()))
    if "tail" in result:
        t = result["tail"]
        print(f"job_s_tail is p{t['percentile']} of {t['jobs']} jobs "
              f"({t['jobs_beyond']} beyond it)")
    for problem in result["problems"][:20]:
        print(f"problem: {problem}")
    for label, functions in sorted(result.get("breakdown", {}).items()):
        # self-time shares of one job, by layer and by per-layer metric
        total = sum(functions.values()) or 1.0
        layers, parts = defaultdict(float), defaultdict(float)
        for name, seconds in functions.items():
            layers[layer_of(name)] += seconds
            parts[METRIC_OF.get(name, name)] += seconds
        top = sorted(parts.items(), key=lambda kv: -kv[1])[:2]
        print(f"  {label}: " + ", ".join(f"{k} {v / total:.0%}" for k, v in
                                          sorted(layers.items(), key=lambda kv: -kv[1]))
              + "; largest: " + ", ".join(f"{k} {v / total:.0%}" for k, v in top))
    for name, (value, unit) in result.get("not_gated", {}).items():
        print(f"  {name} = {value:.6g} {unit} (reported, not gated)")
    for name, value in result["metrics"].items():
        print(f"  {name} = {value:.6g} {UNITS[name]}")


def write_manifest() -> None:
    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n")


def main() -> int:
    # on SIGTERM, unwind through the finally blocks that stop the children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    args = ap.parse_args()
    if not (ROOT / "src" / "hiddenpoly" / "__init__.py").is_file():
        print(f"error: no hiddenpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.all and args.workload is None:
        ap.error("--workload is required without --all")
    OUT.mkdir(exist_ok=True)
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.all
            else [(args.workload, args.trace)])
    ok = True
    for workload, trace in runs:
        try:
            result = run_one(workload, args.seed, args.seconds, trace)
        except RuntimeError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        (OUT / f"{workload}-seed{args.seed}-trace{trace}.json").write_text(json.dumps(result))
        describe(workload, args.seed, trace, result)
        line = report_line(result)
        ok = ok and json.loads(line)["correct"]
        print(line)
    if args.all:
        write_manifest()
        print(json.dumps({"correct": ok}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
