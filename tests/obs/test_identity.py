"""Differential tests: observability must not change any result.

Every hook only *reads* engine and device state; enabling tracing and
metrics must leave labels, counters and modeled timings bitwise identical.
This is the contract that lets the instrumentation live permanently in the
hot paths.
"""

import numpy as np
import pytest

from repro import obs
from repro.algorithms import ClassicLP
from repro.core.framework import GLPEngine
from repro.core.multigpu import MultiGPUEngine
from repro.pipeline import (
    ClusterDetector,
    FraudDetectionPipeline,
    TransactionStream,
    TransactionStreamConfig,
)


def _run(engine_factory, graph, **kwargs):
    return engine_factory().run(
        graph, ClassicLP(), max_iterations=5, **kwargs
    )


def _assert_identical(baseline, observed):
    assert np.array_equal(baseline.labels, observed.labels)
    assert baseline.labels.tobytes() == observed.labels.tobytes()
    assert baseline.labels_hash() == observed.labels_hash()
    assert baseline.num_iterations == observed.num_iterations
    assert baseline.total_seconds == pytest.approx(
        observed.total_seconds, rel=1e-12, abs=0.0
    )
    assert (
        baseline.total_counters.as_dict()
        == observed.total_counters.as_dict()
    )


@pytest.mark.parametrize(
    "factory",
    [
        GLPEngine,
        lambda: GLPEngine(frontier="auto"),
        lambda: MultiGPUEngine(2),
    ],
    ids=["glp-dense", "glp-frontier", "multigpu"],
)
def test_engine_results_unchanged_under_observation(powerlaw_graph, factory):
    baseline = _run(factory, powerlaw_graph)
    with obs.observe() as session:
        observed = _run(factory, powerlaw_graph)
    _assert_identical(baseline, observed)
    # The session actually recorded something — it wasn't a vacuous pass.
    assert session.tracer.num_events > 0
    assert len(session.metrics) > 0


def test_trace_has_one_span_per_kernel_launch(powerlaw_graph):
    engine = GLPEngine()
    with obs.observe() as session:
        engine.run(powerlaw_graph, ClassicLP(), max_iterations=5)
    kernel_events = [
        e for e in session.tracer.events if e.get("cat") == "kernel"
    ]
    assert len(kernel_events) == len(engine.device.timeline)
    by_name = {}
    for event in kernel_events:
        by_name[event["name"]] = by_name.get(event["name"], 0) + 1
    for record in engine.device.timeline:
        assert by_name.get(record.name, 0) > 0


def test_pipeline_results_unchanged_under_observation():
    def run_pipeline():
        stream = TransactionStream(
            TransactionStreamConfig(num_days=8, seed=11)
        )
        detector = ClusterDetector(GLPEngine(), max_iterations=10)
        return FraudDetectionPipeline(stream, detector).run_window(4)

    baseline = run_pipeline()
    with obs.observe():
        observed = run_pipeline()
    assert baseline.num_clusters == observed.num_clusters
    assert baseline.num_fraud_clusters == observed.num_fraud_clusters
    assert baseline.lp_seconds == pytest.approx(
        observed.lp_seconds, rel=1e-12, abs=0.0
    )
    assert baseline.metrics.f1 == observed.metrics.f1


def test_disabled_span_is_shared_nullcontext():
    """With no session, obs.span() allocates nothing per call."""
    assert obs.span("a") is obs.span("b")
    with obs.span("noop"):
        pass
    assert obs.tracer() is None
    assert obs.metrics() is None


def test_observe_restores_previous_session():
    with obs.observe() as outer:
        with obs.observe() as inner:
            assert obs.session() is inner
        assert obs.session() is outer
    assert obs.session() is None


@pytest.mark.parametrize(
    "factory",
    [
        GLPEngine,
        lambda: __import__(
            "repro.core.hybrid", fromlist=["HybridEngine"]
        ).HybridEngine(),
        lambda: MultiGPUEngine(2),
    ],
    ids=["glp", "hybrid", "multigpu"],
)
def test_journal_and_flight_change_nothing(powerlaw_graph, factory):
    """The journal/flight layers must be as invisible as trace/metrics:
    identical labels with them fully on, fully off, or session-off."""
    baseline = _run(factory, powerlaw_graph)
    with obs.observe(journal=True) as on:
        journaled = _run(factory, powerlaw_graph)
    with obs.observe(journal=False):
        unjournaled = _run(factory, powerlaw_graph)
    _assert_identical(baseline, journaled)
    _assert_identical(baseline, unjournaled)
    # The journaled session actually recorded the attempt chain.
    assert on.journal.events_for(event="engine.attempt.end")


@pytest.mark.parametrize(
    "factory",
    [
        GLPEngine,
        lambda: GLPEngine(frontier="auto"),
        lambda: __import__(
            "repro.core.hybrid", fromlist=["HybridEngine"]
        ).HybridEngine(),
        lambda: MultiGPUEngine(2),
    ],
    ids=["glp-dense", "glp-frontier", "hybrid", "multigpu"],
)
def test_memory_tracking_changes_nothing(powerlaw_graph, factory):
    """--mem-profile on vs off must yield bitwise-identical results on
    every engine: the tracker only reads device state."""
    from repro.obs.memory import track

    baseline = _run(factory, powerlaw_graph)
    with obs.observe(), track() as tracker:
        tracked = _run(factory, powerlaw_graph)
    untracked = _run(factory, powerlaw_graph)
    _assert_identical(baseline, tracked)
    _assert_identical(baseline, untracked)
    assert tracker.reconciled


def test_sliding_sweeps_identical_under_memory_tracking():
    """Acceptance: memory profiling on vs off yields bitwise-identical
    labels hashes across a dense and an incremental window sweep."""
    from repro.obs.memory import track

    def sweep(incremental):
        from repro.pipeline.incremental import SlidingWindowDetector

        stream = TransactionStream(
            TransactionStreamConfig(num_days=10, seed=11)
        )
        engine = (
            GLPEngine(frontier="auto") if incremental else GLPEngine()
        )
        detector = SlidingWindowDetector(
            stream,
            ClusterDetector(engine, max_iterations=10),
            incremental=incremental,
        )
        detector.start(0, 6)
        hashes = []
        for _ in range(2):
            _, result = detector.slide()
            hashes.append(result.lp_result.labels_hash())
        return hashes

    for incremental in (False, True):
        baseline = sweep(incremental)
        with obs.observe(), track() as tracker:
            tracked = sweep(incremental)
        assert tracked == baseline
        report = tracker.report()
        assert report["reconciled"] is True
        assert report["devices"]  # the sweep was actually tracked


def test_sliding_detector_identical_under_full_observability():
    """Acceptance: journal + SLO + flight enabled vs disabled yields
    bitwise-identical labels across a dense and an incremental sweep."""
    from repro.obs.slo import evaluate_slos, load_slo_spec

    def sweep(incremental):
        from repro.pipeline.incremental import SlidingWindowDetector

        stream = TransactionStream(
            TransactionStreamConfig(num_days=10, seed=11)
        )
        engine = (
            GLPEngine(frontier="auto") if incremental else GLPEngine()
        )
        detector = SlidingWindowDetector(
            stream,
            ClusterDetector(engine, max_iterations=10),
            incremental=incremental,
        )
        detector.start(0, 6)
        hashes = []
        for _ in range(2):
            _, result = detector.slide()
            hashes.append(result.lp_result.labels_hash())
        return hashes

    for incremental in (False, True):
        baseline = sweep(incremental)
        with obs.observe() as session:
            observed = sweep(incremental)
            slo_report = evaluate_slos(
                load_slo_spec("benchmarks/serving_slo.toml"),
                session.metrics,
            )
        assert observed == baseline
        assert session.journal.events_for(event="slide.end")
        # Evaluating SLOs reads the registry without touching results.
        # (one verdict per objective in the committed serving spec)
        assert len(slo_report.verdicts) == 10
