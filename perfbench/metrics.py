"""Metric definitions and how they are computed from a run.

End-to-end metrics come from untraced passes; per-layer metrics from
traced passes.  ``cpu_rel`` is the job list's CPU time in iterations of
the probe's reference loop (probe.py), which cancels the host's changes
of core speed; wall-clock job times are reported next to it, not gated.
A per-layer time is the sum over one pass of the job list, a counter is
per pass too.  ``*_cells``, ``*_bytes``, ``gram_order``
and ``work_cells`` are computed from call arguments, array shapes and
report fields: they are not measured memory traffic.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from tracer import layer_of

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("cpu_rel", "probe", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# name, unit, better; counters first, then times
PER_LAYER = (
    ("oracle.queries", "count", "lower"),
    ("oracle.self_s", "s", "lower"),
    ("oracle.us_per_query", "us", "lower"),
    ("oracle.votes_per_point", "ratio", "lower"),
    ("oracle.queries_per_recovery", "count", "lower"),
    ("oracle.queries_over_floor", "ratio", "lower"),
    ("reconstruct.stage1_s", "s", "lower"),
    ("reconstruct.stage2_s", "s", "lower"),
    ("reconstruct.fallback_s", "s", "lower"),
    ("reconstruct.scan_s", "s", "lower"),
    ("reconstruct.self_s", "s", "lower"),
    ("reconstruct.survivors_stage1", "count", "lower"),
    ("reconstruct.fallback_rate", "ratio", "lower"),
    ("reconstruct.match_rate", "ratio", "higher"),
    ("reconstruct.distinct_points", "count", "lower"),
    ("reconstruct.work_cells", "count", "lower"),
    ("kernels.self_s", "s", "lower"),
    ("kernels.corr_calls", "count", "lower"),
    ("kernels.corr_s", "s", "lower"),
    ("kernels.corr_cells", "count", "lower"),
    ("kernels.corr_ns_per_cell", "ns", "lower"),
    ("kernels.mask_s", "s", "lower"),
    ("kernels.mask_bytes", "B", "lower"),
    ("kernels.sign_matrix_s", "s", "lower"),
    ("kernels.char_sums_s", "s", "lower"),
    ("kernels.window_matrix_s", "s", "lower"),
    ("kernels.perfect_squares_s", "s", "lower"),
    ("quantum.self_s", "s", "lower"),
    ("quantum.sigma_s", "s", "lower"),
    ("quantum.gram_s", "s", "lower"),
    ("quantum.eigen_s", "s", "lower"),
    ("quantum.distribution_s", "s", "lower"),
    ("quantum.gram_order", "count", "lower"),
    ("quantum.gram_bytes", "B", "lower"),
    ("charsum.self_s", "s", "lower"),
    ("charsum.pair_identity_s", "s", "lower"),
    ("charsum.weil_s", "s", "lower"),
    ("charsum.weil_short_s", "s", "lower"),
    ("charsum.mult_weil_s", "s", "lower"),
    ("charsum.moment_s", "s", "lower"),
    ("charsum.rows", "count", "higher"),
    ("charsum.rows_failed", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# Metric names that are deterministic counts; they must repeat exactly.
COUNTERS = tuple(n for n, unit, _ in PER_LAYER if unit in ("count", "ratio", "B"))

# Self-time metrics of single functions (module-qualified span names).
FUNCTION_TIMES = {
    "kernels.corr_s": ("_kernels.windowed_correlations",),
    "kernels.mask_s": ("_kernels.squarefree_mask",),
    "kernels.sign_matrix_s": ("_kernels.sf_sign_matrix",),
    "kernels.char_sums_s": ("_kernels.all_monic_char_sums",),
    "kernels.window_matrix_s": ("_kernels.chi_window_matrix",),
    "kernels.perfect_squares_s": ("_kernels.perfect_square_indices",),
    "quantum.sigma_s": ("quantum.sigma_2d", "quantum.sigma_bound"),
    "quantum.gram_s": ("quantum.gram_matrix",),
    "quantum.eigen_s": ("quantum.povm_alpha", "quantum.dominant_eigenvalue"),
    "quantum.distribution_s": ("quantum.measurement_distribution",),
}

# Whole-sweep times, children included.
SWEEP_TIMES = {
    "charsum.pair_identity_s": "charsum.sweep_pair_identity",
    "charsum.weil_s": "charsum.sweep_weil",
    "charsum.weil_short_s": "charsum.sweep_weil_short",
    "charsum.mult_weil_s": "charsum.sweep_mult_weil",
    "charsum.moment_s": "charsum.sweep_moment",
}

STAGES = ("stage1", "stage2", "fallback", "scan")


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def work_cells(report: dict) -> int:
    """Candidate x window cells the solver scanned, from report fields."""
    p, d, algo = report["p"], report["d"], report["algo"]
    space = p**d
    params = report["params"]
    if algo == "brute":
        return space * p
    if algo == "short-window":
        return space * params["M"]
    surv1 = report["survivors_stage1"] or 0
    surv2 = report["survivors_stage2"] or 0
    cells = space * params["N"] + surv1 * params["M"]
    if report["fallback"]:
        cells += (surv2 or surv1) * p
    return cells


def layer_metrics(tracer, jobs, outputs) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and self time per job label and function.

    ``outputs`` holds each job's stdout, in job order.
    """
    self_t = tracer.self_times()
    by_fn = defaultdict(float)  # self time
    inclusive = defaultdict(float)
    by_layer = defaultdict(float)
    per_label = defaultdict(lambda: defaultdict(float))
    calls = defaultdict(int)
    job_of_span = {}
    for sid, name, start, end, parent, job in tracer.spans:
        by_fn[name] += self_t[sid]
        inclusive[name] += end - start
        by_layer[layer_of(name)] += self_t[sid]
        per_label[jobs[job].label][name] += self_t[sid]
        calls[name] += 1
        job_of_span[sid] = job
    queries = 0
    for (parent, method), (n, seconds) in tracer.oracle.items():
        by_layer["oracle"] += seconds
        per_label[jobs[job_of_span[parent]].label][f"oracle.OracleSession.{method}"] += seconds
        if method == "query":
            queries += n
    computed = defaultdict(int)
    gram_order = 0
    for extra in tracer.computed.values():
        gram_order = max(gram_order, extra.get("gram_order", 0))
        for key in ("corr_cells", "mask_bytes"):
            computed[key] += extra.get(key, 0)

    reports = [json.loads(out) for job, out in zip(jobs, outputs) if job.kind == "recover"]
    stages = {s: sum(r.get("stage_ms", {}).get(s, 0.0) for r in reports) / 1000.0 for s in STAGES}
    distinct = sum(r["distinct_points"] for r in reports)
    rows = [row for job, out in zip(jobs, outputs) if job.kind == "bounds"
            for row in out.splitlines()[1:]]

    m = {
        "oracle.queries": queries,
        "oracle.self_s": by_layer["oracle"],
        "oracle.us_per_query": by_layer["oracle"] / queries * 1e6 if queries else 0.0,
        "oracle.votes_per_point": queries / distinct if distinct else 0.0,
        "oracle.queries_per_recovery":
            statistics.median(r["total_queries"] for r in reports) if reports else 0,
        "oracle.queries_over_floor":
            statistics.median(r["total_queries"] / r["query_lower_bound"] for r in reports)
            if reports else 0.0,
        "reconstruct.survivors_stage1": sum(r["survivors_stage1"] or 0 for r in reports),
        "reconstruct.fallback_rate":
            sum(r["fallback"] for r in reports) / len(reports) if reports else 0.0,
        "reconstruct.match_rate":
            sum(r["match"] for r in reports) / len(reports) if reports else 0.0,
        "reconstruct.distinct_points": distinct,
        "reconstruct.work_cells": sum(work_cells(r) for r in reports),
        "kernels.corr_calls": calls["_kernels.windowed_correlations"],
        "kernels.corr_cells": computed["corr_cells"],
        "kernels.mask_bytes": computed["mask_bytes"],
        "quantum.gram_order": gram_order,
        "quantum.gram_bytes": gram_order * gram_order * 8,
        "charsum.rows": len(rows),
        "charsum.rows_failed": sum(not row.endswith(",pass") for row in rows),
    }
    for stage, seconds in stages.items():
        m[f"reconstruct.{stage}_s"] = seconds
    for layer in ("reconstruct", "kernels", "quantum", "charsum", "cli"):
        m[f"{layer}.self_s"] = by_layer[layer]
    for metric, names in FUNCTION_TIMES.items():
        m[metric] = sum(by_fn[n] for n in names)
    for metric, name in SWEEP_TIMES.items():
        m[metric] = inclusive[name]
    m["kernels.corr_ns_per_cell"] = (
        m["kernels.corr_s"] / m["kernels.corr_cells"] * 1e9 if m["kernels.corr_cells"] else 0.0
    )
    return m, {label: dict(v) for label, v in per_label.items()}
