"""Outside-in tracing of hiddenpoly's layers.

The package is not edited: ``Tracer.install`` replaces each traced
module's public functions with timing wrappers at run time and
``uninstall`` puts the originals back.  Every wrapped call becomes one
span ``(id, name, start, end, parent, job)``.  ``OracleSession.query``
and ``majority_estimate`` run 10^5-10^6 times per pass, so instead of a
span per call they add to one ``[calls, seconds]`` record per enclosing
span; a query made inside a vote is counted but not timed again.  Spans
stay in memory until the run ends.

A span's self time is its duration minus the time of its child spans and
oracle records.  ``ffield``, ``poly`` and ``limits`` are not wrapped:
their functions are too small to time alone, so their time lands in the
caller's self time.
"""

from __future__ import annotations

import inspect
import time

LAYERS = ("oracle", "reconstruct", "_kernels", "quantum", "charsum", "cli")
ORACLE_METHODS = ("query", "majority_estimate")


def layer_of(span_name: str) -> str:
    """Metric prefix of a span's layer: "_kernels" becomes "kernels",
    because metric names may not start with "_"."""
    return span_name.split(".", 1)[0].lstrip("_")


def _public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name, None)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, fn


def _corr_cells(bound, result):
    a = bound.arguments
    return {"corr_cells": a["p"] ** a["d"] * a["m"]}


# Counters computed from a call's arguments or result shape, not measured.
COMPUTED = {
    "_kernels.windowed_correlations": _corr_cells,
    "_kernels.squarefree_mask": lambda bound, result: {"mask_bytes": int(result.nbytes)},
    "quantum.gram_matrix": lambda bound, result: {"gram_order": int(result.order)},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, job)
        self.oracle: dict[tuple, list] = {}  # (parent, method) -> [calls, seconds]
        self.computed: dict[int, dict] = {}  # span id -> computed counters
        self.job = -1
        self._stack = [0]  # span ids; 0 is "outside any span"
        self._next = 1
        self._voting: list[bool] = []  # non-empty while a majority vote runs
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------

    def install(self, package) -> None:
        for layer in LAYERS:
            module = getattr(package, layer)
            if layer == "oracle":
                cls = module.OracleSession
                for method in ORACLE_METHODS:
                    orig = getattr(cls, method)
                    self._saved.append((cls, method, orig))
                    setattr(cls, method, self._oracle_wrapper(orig, method))
                continue
            for name, fn in list(_public_functions(module)):
                self._saved.append((module, name, fn))
                setattr(module, name, self._span_wrapper(fn, f"{layer}.{name}"))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    # -- wrappers -----------------------------------------------------

    def _span_wrapper(self, fn, name):
        stack, spans = self._stack, self.spans
        computed = COMPUTED.get(name)
        signature = inspect.signature(fn) if computed else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.job))
            if computed is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.computed[sid] = computed(bound, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _oracle_wrapper(self, orig, method):
        stack, records, voting = self._stack, self.oracle, self._voting
        clock = time.perf_counter

        def wrapper(session, *args, **kwargs):
            key = (stack[-1], method)
            rec = records.get(key)
            if rec is None:
                rec = records[key] = [0, 0.0]
            rec[0] += 1
            if voting:
                return orig(session, *args, **kwargs)
            if method == "majority_estimate":
                voting.append(True)
            start = clock()
            try:
                return orig(session, *args, **kwargs)
            finally:
                rec[1] += clock() - start
                if method == "majority_estimate":
                    voting.pop()

        wrapper.__wrapped__ = orig
        return wrapper

    # -- analysis -----------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the duration of its direct children."""
        own = {sid: end - start for sid, _, start, end, _, _ in self.spans}
        child = dict.fromkeys(own, 0.0)
        for sid, _, start, end, parent, _ in self.spans:
            if parent in child:
                child[parent] += end - start
        for (parent, _), (_, seconds) in self.oracle.items():
            if parent in child:
                child[parent] += seconds
        return {sid: own[sid] - child[sid] for sid in own}

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "oracle": [[parent, method, calls, seconds]
                       for (parent, method), (calls, seconds) in self.oracle.items()],
            "computed": {str(k): v for k, v in self.computed.items()},
        }
