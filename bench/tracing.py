"""Per-layer spans for the traced run, recorded from outside the package.

``Tracer.installed()`` rebinds, for the duration of a ``with`` block, the
public functions that ``run_pipeline`` and its callees look up as module
attributes, to wrappers that record a span (name, start, end, parent,
op id) per call.  Every rebound attribute is restored on exit, also when
the block raises.  Nothing under ``src/`` changes.

Spans stay in memory; ``write_jsonl`` writes them out when the run ends.
Counters that need a call's arguments or result (focal-set pairs, bytes
read and written) are computed by ``end_op`` after the op has returned,
so they add nothing to any span.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import time
from contextlib import contextmanager

#: span name "<module>.<function>" -> modules of evicrit that look the
#: function up as an attribute at call time (the home module included
#: where a caller uses it there)
TRACED: dict[str, tuple[str, ...]] = {
    "pipeline.run_pipeline": ("pipeline",),
    "pipeline.ingest_scores": ("pipeline",),
    "pipeline.ingest_matrices": ("pipeline",),
    "pipeline.ingest_priors": ("pipeline",),
    "pipeline.load_ri_table": ("pipeline",),
    "pipeline.load_bpa_fixtures": ("pipeline",),
    "ahp.aggregate_geometric": ("pipeline", "ahp"),
    "ahp.consistency": ("pipeline", "ahp"),
    "ahp.principal_eigenvalue": ("ahp",),
    "entropy.build_table": ("pipeline", "entropy"),
    "fuzzy.membership": ("pipeline",),
    "fuzzy.rating_label": ("pipeline",),
    "fuzzy.to_bpa": ("pipeline",),
    "evidence.murphy_combine": ("pipeline",),
    "evidence.average_bpas": ("pipeline", "evidence"),
    "evidence.dempster_combine": ("evidence",),
    "evidence.pignistic": ("pipeline",),
    "evidence.rank": ("pipeline",),
    "core.unit_normalized": ("core", "evidence", "fuzzy"),
    "report.write_manifest": ("report",),
    "report.emit_report": ("report",),
    "report.emit_chart": ("report",),
}

#: spans whose arguments or result feed a counter
_INPUT_SPANS = ("pipeline.ingest_scores", "pipeline.ingest_matrices",
                "pipeline.ingest_priors", "pipeline.load_ri_table",
                "pipeline.load_bpa_fixtures")
_CAPTURED = frozenset(_INPUT_SPANS + ("evidence.dempster_combine",
                                      "report.emit_report", "report.emit_chart"))

#: counters that must repeat exactly for a given seed
COUNTS = ("pipeline.input_bytes", "fuzzy.calls", "evidence.dempster_combine_calls",
          "evidence.focal_pairs", "evidence.empty_pair_share",
          "core.unit_normalized_calls", "report.bytes_written")

ROOT = "op"
#: layers whose share of the op is reported; "pipeline" is the root's only
#: child on pipeline workloads, so its share carries no information
LAYERS = ("ingest", "ahp", "entropy", "fuzzy", "evidence", "core", "report")


def _paths(result) -> list:
    return list(result) if isinstance(result, (list, tuple)) else [result]


class Tracer:
    """Spans of the traced ops of one run, plus per-op counters."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.op_id = -1
        self.wrapped: list[str] = []
        self.op_counters: list[dict[str, float]] = []
        self._stack: list[int] = []
        self._captured: list[tuple] = []
        self._op_start = 0
        self._origin = time.perf_counter()

    def _wrap(self, name: str, fn):
        spans, stack, captured = self.spans, self._stack, self._captured
        keep = name in _CAPTURED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if keep:
                captured.append((name, args + tuple(kwargs.values()), result))
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every traced attribute for the block; restore all on exit."""
        rebound = []
        try:
            for name, lookups in TRACED.items():
                home, attr = name.split(".")
                original = getattr(importlib.import_module(f"evicrit.{home}"), attr, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(name, original)
                for module_name in lookups:
                    module = importlib.import_module(f"evicrit.{module_name}")
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)
                        rebound.append((module, attr, original))
            self.wrapped = sorted({f"{m.__name__}.{a}" for m, a, _ in rebound})
            yield self
        finally:
            for module, attr, original in reversed(rebound):
                setattr(module, attr, original)

    def run_op(self, op, state):
        """Call ``op(state)`` under a root span; return (output, seconds)."""
        self.op_id += 1
        self._op_start = len(self.spans)
        self._captured.clear()
        root = self._wrap(ROOT, op)
        started = time.perf_counter()
        output = root(state)
        return output, time.perf_counter() - started

    def end_op(self) -> dict[str, float]:
        """Per-layer totals and counters of the op just run (untimed)."""
        first = self._op_start
        mine = self.spans[first:]
        duration = [end - start for _, start, end, _, _ in mine]
        totals: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_time = list(duration)
        for pos, (name, _, _, parent, _) in enumerate(mine):
            totals[name] = totals.get(name, 0.0) + duration[pos]
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                self_time[parent - first] -= duration[pos]
        root_time = totals[ROOT]
        if abs(math.fsum(self_time) - root_time) > 1e-9:
            raise AssertionError("child spans plus self times do not add up "
                                 "to the root span")

        pairs = empty = input_bytes = written = 0
        for name, args, result in self._captured:
            if name == "evidence.dempster_combine":
                f1, f2 = args[0].focal(), args[1].focal()
                pairs += len(f1) * len(f2)
                empty += sum(1 for a, _ in f1 for b, _ in f2 if a.bits & b.bits == 0)
            elif name in _INPUT_SPANS:
                input_bytes += os.path.getsize(args[0])
            else:
                written += sum(os.path.getsize(p) for p in _paths(result))
        self._captured.clear()

        counters = {
            "op_ms": 1e3 * root_time,
            "pipeline.self_ms": 1e3 * math.fsum(
                t for (name, *_), t in zip(mine, self_time)
                if name == "pipeline.run_pipeline"),
            "pipeline.input_bytes": input_bytes,
            "fuzzy.calls": sum(c for n, c in calls.items() if n.startswith("fuzzy.")),
            "evidence.dempster_combine_calls": calls.get("evidence.dempster_combine", 0),
            "evidence.focal_pairs": pairs,
            "evidence.empty_pair_share": empty / pairs if pairs else 0.0,
            "core.unit_normalized_calls": calls.get("core.unit_normalized", 0),
            "report.bytes_written": written,
        }
        for name in TRACED:
            counters[f"{name}_ms"] = 1e3 * totals.get(name, 0.0)
        # share of the op spent inside each layer: outermost spans only
        for layer in LAYERS:
            outer = 0.0
            for pos, (name, _, _, parent, _) in enumerate(mine):
                if _layer(name) == layer and not _has_ancestor(mine, parent, first, layer):
                    outer += duration[pos]
            counters[f"share.{layer}"] = outer / root_time
        self.op_counters.append(counters)
        return counters

    def medians(self) -> dict[str, float]:
        """Median of each counter over the traced ops; counts, which
        ``varying_counts`` checks to be equal in every op, as they are."""
        first = self.op_counters[0]
        return {k: first[k] if k in COUNTS else
                statistics.median(c[k] for c in self.op_counters) for k in first}

    def varying_counts(self) -> list[str]:
        """Counters that are not identical across the traced ops; the code
        under test is deterministic, so each one marks a tracing fault."""
        first = self.op_counters[0]
        return [k for k in COUNTS if any(c[k] != first[k] for c in self.op_counters)]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for index, (name, start, end, parent, op_id) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": index, "name": name, "op": op_id, "parent": parent,
                    "start_us": round((start - self._origin) * 1e6, 3),
                    "end_us": round((end - self._origin) * 1e6, 3),
                }) + "\n")


def _layer(name: str) -> str:
    """Layer of a span: "ingest" for the pipeline's input loaders, else its module."""
    return "ingest" if name in _INPUT_SPANS else name.split(".")[0]


def _has_ancestor(spans, parent: int, first: int, layer: str) -> bool:
    while parent >= 0:
        name, _, _, parent, _ = spans[parent - first]
        if _layer(name) == layer:
            return True
    return False
