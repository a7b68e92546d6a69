"""Outside-in span tracing for the end-to-end benchmark.

Nothing under ``src/`` knows it is being traced: :func:`installed`
replaces the public entry points of each layer with wrappers that record
a span (name, start, end, parent, thread) in a :class:`Recorder`, and
puts the originals back on exit.  Spans stay in memory until the run
ends; :func:`layer_metrics` then folds them into the per-layer numbers
and :func:`write_chrome_trace` writes a ``trace_event`` file that
``chrome://tracing`` and Perfetto open.

A span's *self* time is its duration minus the durations of its children.
Children always run on the parent's thread (the parent stack is
per-thread), so they never overlap one another.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional

import numpy as np

#: Kernel names ``Device.launch`` is called with on the benchmarked paths.
KERNELS = (
    "pick-label",
    "update-vertex",
    "warp-multi",
    "warp-shared-ht",
    "smem-cms-ht",
    "thread-per-vertex",
    "global-hash",
    "frontier-expand",
    "frontier-compact",
)


class Span(NamedTuple):
    """One recorded call."""

    id: int
    parent: Optional[int]
    name: str
    tid: int
    phase: str
    start: float
    end: float
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; safe to use from several threads.

    ``phase`` is stamped on every span when it opens.  Workloads set it to
    ``"timed"`` once set-up is over, so per-layer numbers cover the timed
    operations only.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "setup"
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Record the enclosed block as one span; yields its attribute dict."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        phase = self.phase
        attrs: dict = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, parent, name, threading.get_ident(), phase,
                     start, end, attrs)
            )

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None):
        """``fn`` recording a span per call.

        ``note(args, result)`` returns counts to attach to the span; it runs
        after the span has closed, so its cost lands in the parent's self
        time, not in this layer's.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
            if note is not None:
                attrs.update(note(args, result))
            return result

        return traced


def _wrap_launch(recorder: Recorder, original: Callable) -> Callable:
    """``Device.launch`` is a context manager: time the kernel body too."""

    @contextlib.contextmanager
    def launch(self, name, **kwargs):
        with recorder.span("kernel." + name):
            with original(self, name, **kwargs) as counters:
                yield counters

    return launch


def _targets():
    """``(owner, attribute, span name, note)`` of every wrapped entry point.

    Module-level functions are patched in the module that *calls* them
    (``repro.pipeline.incremental`` imports ``plan_slide`` and friends by
    name), so the wrapper is what the caller looks up.
    """
    from repro.core.framework import GLPEngine
    from repro.core.results import LPResult
    from repro.gpusim.device import Device
    from repro.pipeline import incremental
    from repro.pipeline.detector import ClusterDetector
    from repro.pipeline.seeds import SeedStore
    from repro.pipeline.transactions import TransactionStream
    from repro.serving import service
    from repro.serving.loadgen import LoadGenerator

    def run_note(_args, result):
        return {
            "iterations": result.num_iterations,
            "edges": sum(s.processed_edges for s in result.iterations),
            "modeled_s": result.total_seconds,
        }

    return [
        (TransactionStream, "__init__", "transactions.generate", None),
        (TransactionStream, "window_transactions",
         "transactions.window_transactions", None),
        (incremental.SlidingWindowDetector, "slide", "incremental.slide", None),
        (incremental.IncrementalWindowBuilder, "slide",
         "incremental.builder_slide",
         lambda _a, diff: {"pairs": diff.num_pairs_after,
                           "changed": diff.num_changed}),
        (incremental.IncrementalWindowBuilder, "build", "incremental.build",
         None),
        (incremental, "warm_start_seeds", "incremental.warm_start_seeds",
         None),
        (incremental, "from_edge_arrays", "graph.from_edge_arrays", None),
        (incremental, "compute_window_diff", "dynlp.compute_window_diff",
         None),
        (incremental, "plan_slide", "dynlp.plan_slide",
         lambda _a, plan: {"affected": plan.num_affected,
                           "ratio": plan.affected_ratio,
                           "incremental": int(plan.incremental)}),
        (SeedStore, "window_seeds", "seeds.window_seeds", None),
        (ClusterDetector, "detect", "detector.detect", None),
        (GLPEngine, "run", "engine.run", run_note),
        (Device, "h2d", "gpusim.h2d",
         lambda args, _r: {"bytes": int(args[1].nbytes)}),
        (LPResult, "labels_hash", "results.labels_hash", None),
        (service, "score_user", "service.score_user",
         lambda args, _r: {"user": int(args[3])}),
        (LoadGenerator, "schedule", "loadgen.schedule", None),
    ]


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every layer entry point for the duration of the block."""
    from repro.gpusim.device import Device

    saved = []
    try:
        for owner, attr, name, note in _targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, note))
        original = vars(Device)["launch"]
        saved.append((Device, "launch", original))
        Device.launch = _wrap_launch(recorder, original)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def self_times(spans: List[Span]) -> Dict[int, float]:
    """``{span id: duration minus the durations of its children}``."""
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


def percentile(values, q: float) -> float:
    """``np.percentile`` that reads 0 for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans: List[Span], ops: int) -> Dict[str, float]:
    """Per-layer metrics of the timed phase.

    Every ``*_s`` metric is seconds per timed operation (a slide, or an LP
    run on ``lp_batch``), inclusive of the layer's children unless it is a
    ``*_self_s``.  Counts are per operation too.  Layers a workload never
    calls read 0.
    """
    ops = max(1, ops)
    timed = [s for s in spans if s.phase == "timed"]
    own = self_times(timed)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in timed:
        by_name[span.name].append(span)

    def per_op(name: str) -> float:
        return sum(s.duration for s in by_name[name]) / ops

    def self_per_op(name: str) -> float:
        return sum(own[s.id] for s in by_name[name]) / ops

    def attr_mean(name: str, key: str) -> float:
        values = [s.attrs[key] for s in by_name[name]]
        return float(np.mean(values)) if values else 0.0

    def setup_mean(name: str) -> float:
        values = [s.duration for s in spans
                  if s.phase == "setup" and s.name == name]
        return float(np.mean(values)) if values else 0.0

    runs = by_name["engine.run"]
    run_seconds = sum(s.duration for s in runs)
    edges = sum(s.attrs["edges"] for s in runs)
    modeled = sum(s.attrs["modeled_s"] for s in runs)
    plans = by_name["dynlp.plan_slide"]
    slides = by_name["incremental.slide"]
    attributed = [
        (s.duration - own[s.id]) / s.duration for s in slides if s.duration > 0
    ]
    lookups_us = [s.duration * 1e6 for s in by_name["service.score_user"]]

    metrics = {
        "transactions.generate_s": setup_mean("transactions.generate"),
        "transactions.window_transactions_s":
            per_op("transactions.window_transactions"),
        "incremental.slide_s": per_op("incremental.slide"),
        "incremental.slide_self_s": self_per_op("incremental.slide"),
        "incremental.builder_slide_s": per_op("incremental.builder_slide"),
        "incremental.build_s": per_op("incremental.build"),
        "incremental.warm_start_seeds_s":
            per_op("incremental.warm_start_seeds"),
        "incremental.window_pairs":
            attr_mean("incremental.builder_slide", "pairs"),
        "graph.from_edge_arrays_s": per_op("graph.from_edge_arrays"),
        "dynlp.plan_slide_s": per_op("dynlp.plan_slide"),
        "dynlp.compute_window_diff_s": per_op("dynlp.compute_window_diff"),
        "dynlp.diff_pairs": attr_mean("incremental.builder_slide", "changed"),
        "dynlp.affected_vertices": attr_mean("dynlp.plan_slide", "affected"),
        "dynlp.affected_ratio": attr_mean("dynlp.plan_slide", "ratio"),
        "dynlp.incremental_plan_ratio":
            sum(s.attrs["incremental"] for s in plans) / max(1, len(slides)),
        "seeds.window_seeds_s": per_op("seeds.window_seeds"),
        "detector.detect_s": per_op("detector.detect"),
        "detector.detect_self_s": self_per_op("detector.detect"),
        "engine.run_s": run_seconds / ops,
        "engine.self_s": self_per_op("engine.run"),
        "engine.iterations": attr_mean("engine.run", "iterations"),
        "engine.processed_edges": edges / ops,
        "engine.modeled_s": modeled / ops,
        "engine.host_s_per_modeled_s":
            run_seconds / modeled if modeled else 0.0,
        "engine.edges_per_s": edges / run_seconds if run_seconds else 0.0,
    }
    for kernel in KERNELS:
        name = "kernel." + kernel
        metrics[name + ".host_s"] = per_op(name)
        metrics[name + ".launches"] = len(by_name[name]) / ops
    metrics.update({
        "gpusim.h2d_s": per_op("gpusim.h2d"),
        "gpusim.h2d_bytes":
            sum(s.attrs["bytes"] for s in by_name["gpusim.h2d"]) / ops,
        "results.labels_hash_s": per_op("results.labels_hash"),
        "service.lookup_us_p50": percentile(lookups_us, 50),
        "service.lookup_us_p99": percentile(lookups_us, 99),
        "loadgen.schedule_s": setup_mean("loadgen.schedule"),
        "trace.attributed_min_ratio": min(attributed) if attributed else 0.0,
    })
    return metrics


def lookup_seconds_by_user(spans: List[Span]) -> Dict[int, List[float]]:
    """Timed ``score_user`` durations per user, in call order."""
    out: Dict[int, List[float]] = defaultdict(list)
    for span in sorted(spans, key=lambda s: s.start):
        if span.phase == "timed" and span.name == "service.score_user":
            out[span.attrs["user"]].append(span.duration)
    return out


def slide_starts(spans: List[Span]) -> List[float]:
    """Start times of the timed slides, in order."""
    return sorted(
        s.start for s in spans
        if s.phase == "timed" and s.name == "incremental.slide"
    )


def write_chrome_trace(spans: List[Span], path: Path) -> None:
    """Write the spans as a Chrome ``trace_event`` JSON file."""
    if not spans:
        return
    origin = min(s.start for s in spans)
    tids: Dict[int, int] = {}
    events = []
    for span in sorted(spans, key=lambda s: s.start):
        tid = tids.setdefault(span.tid, len(tids) + 1)
        args = dict(span.attrs, phase=span.phase)
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "pid": 1,
            "tid": tid,
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "args": args,
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
