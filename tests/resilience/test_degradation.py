"""Graceful degradation: run_auto ladder + sliding-window detector."""

import numpy as np
import pytest

from repro import ClassicLP, GLPEngine, SeededFraudLP, obs
from repro.baselines.cpu_serial import SerialEngine
from repro.core.hybrid import HybridEngine, device_footprint, run_auto
from repro.core.multigpu import MultiGPUEngine
from repro.errors import OutOfDeviceMemoryError
from repro.graph.generators import planted_partition_graph
from repro.gpusim.config import TITAN_V
from repro.pipeline.detector import ClusterDetector
from repro.pipeline.incremental import SlidingWindowDetector
from repro.pipeline.transactions import (
    TransactionStream,
    TransactionStreamConfig,
)
from repro.resilience import FaultPlan, RetryPolicy, inject


@pytest.fixture(scope="module")
def graph():
    graph, _ = planted_partition_graph(240, 6, 8.0, 0.9, seed=7)
    return graph


@pytest.fixture(scope="module")
def stream():
    return TransactionStream(
        TransactionStreamConfig(
            num_users=800,
            num_products=400,
            num_days=12,
            transactions_per_day=400,
            num_rings=3,
            ring_size=6,
            seed=33,
        )
    )


def degradation_count(session):
    total = 0.0
    for entry in session.metrics.to_dict()["metrics"]:
        if entry["name"] == "resilience_degradations_total":
            total += entry["value"]
    return total


class TestRunAutoLadder:
    def test_oom_steps_down_to_hybrid(self, graph):
        reference = GLPEngine().run(graph, ClassicLP(), max_iterations=8)
        with obs.observe() as session:
            # One injected OOM during GLP residency setup; hybrid's later
            # allocations sit past the one-shot spec and succeed.
            with inject(FaultPlan.parse("oom@2")):
                result, engine = run_auto(
                    graph, ClassicLP(), max_iterations=8
                )
            assert isinstance(engine, HybridEngine)
            assert result.labels_hash() == reference.labels_hash()
            assert degradation_count(session) == 1

    def test_persistent_oom_falls_to_cpu_serial(self, graph):
        reference = GLPEngine().run(graph, ClassicLP(), max_iterations=8)
        with obs.observe() as session:
            with inject(FaultPlan.parse("oom@2x999")):
                result, engine = run_auto(
                    graph, ClassicLP(), max_iterations=8
                )
            assert isinstance(engine, SerialEngine)
            assert result.labels_hash() == reference.labels_hash()
            assert degradation_count(session) == 2

    def test_degrade_false_raises(self, graph):
        with inject(FaultPlan.parse("oom@2")):
            with pytest.raises(OutOfDeviceMemoryError):
                run_auto(
                    graph, ClassicLP(), max_iterations=8, degrade=False
                )


class TestDeviceFootprint:
    def test_frontier_mode_charges_reversed_csr(self, graph):
        dense = device_footprint(graph, ClassicLP())
        sparse = device_footprint(graph, ClassicLP(), frontier="auto")
        assert sparse > dense
        extra = graph.offsets.nbytes + graph.indices.nbytes
        assert sparse == dense + extra + graph.num_vertices

    def test_footprint_matches_engine_residency(self, graph):
        """Regression: the old estimate charged only the label arrays'
        worth on top of the CSR, so a frontier-mode graph that "fit" the
        estimate OOMed inside the engine.  ``device_footprint`` must be
        exactly what the engine allocates."""
        footprint = device_footprint(graph, ClassicLP(), frontier="auto")
        fits = TITAN_V.with_memory(footprint)
        GLPEngine(spec=fits, frontier="auto").run(
            graph, ClassicLP(), max_iterations=2
        )
        with pytest.raises(OutOfDeviceMemoryError):
            GLPEngine(spec=TITAN_V.with_memory(footprint - 1),
                      frontier="auto").run(
                graph, ClassicLP(), max_iterations=2
            )

    def test_run_auto_respects_frontier_residency(self, graph):
        """A device sized to the *dense* footprint must not get the pure
        engine in frontier mode — the old estimate picked it and crashed."""
        dense = device_footprint(graph, ClassicLP())
        spec = TITAN_V.with_memory(int(dense / 0.9) + 64)
        result, engine = run_auto(
            graph, ClassicLP(), spec=spec, frontier="auto",
            max_iterations=6,
        )
        assert isinstance(engine, HybridEngine)
        reference = GLPEngine().run(graph, ClassicLP(), max_iterations=6)
        assert np.array_equal(result.labels, reference.labels)


class TestDetectorDegradation:
    def test_window_sweep_survives_device_oom(self, stream):
        """The acceptance criterion: a window sweep completes under
        injected device OOM by stepping down the ladder, not by raising."""
        detector = SlidingWindowDetector(
            stream, ClusterDetector(GLPEngine())
        )
        with obs.observe() as session:
            with inject(FaultPlan.parse("oom@2x999999")):
                window, result = detector.start(0, 6)
                for _ in range(3):
                    window, result = detector.slide()
            assert window.start_day == 3
            assert result.clusters
            assert degradation_count(session) > 0

    def test_degrade_false_propagates(self, stream):
        detector = SlidingWindowDetector(
            stream, ClusterDetector(GLPEngine()), degrade=False
        )
        with inject(FaultPlan.parse("oom@2x999999")):
            with pytest.raises(OutOfDeviceMemoryError):
                detector.start(0, 6)

    def test_failed_slide_rolls_back_and_replays(self, stream):
        detector = SlidingWindowDetector(
            stream, ClusterDetector(GLPEngine()), degrade=False
        )
        detector.start(0, 6)
        days_before = set(detector.builder.days)
        with obs.observe() as session:
            with inject(FaultPlan.parse("oom@2x999999")):
                with pytest.raises(OutOfDeviceMemoryError):
                    detector.slide()
            # Builder and warm-start state rolled back to the pre-slide
            # snapshot...
            assert set(detector.builder.days) == days_before
            replays = [
                entry["value"]
                for entry in session.metrics.to_dict()["metrics"]
                if entry["name"] == "pipeline_slide_replays_total"
            ]
            assert replays == [1]
        # ... so the same slide replays cleanly once the fault clears.
        window, result = detector.slide()
        assert window.start_day == 1
        assert result.clusters

    def test_degraded_detection_matches_primary(self, stream):
        clean = SlidingWindowDetector(
            stream, ClusterDetector(GLPEngine())
        )
        window, result = clean.start(0, 6)

        degraded = SlidingWindowDetector(
            stream, ClusterDetector(GLPEngine())
        )
        with inject(FaultPlan.parse("oom@2x999999")):
            dwindow, dresult = degraded.start(0, 6)
        assert np.array_equal(
            result.lp_result.labels, dresult.lp_result.labels
        )


def spy_run(monkeypatch, engine_cls, calls):
    """Record ``(engine, sorted run kwarg names)`` for each ``run`` call."""
    real = engine_cls.run

    def run(self, graph, program, **kwargs):
        calls.append((self, sorted(kwargs)))
        return real(self, graph, program, **kwargs)

    monkeypatch.setattr(engine_cls, "run", run)


class TestLadderRungs:
    def test_multigpu_primary_degrades_onto_its_own_device_spec(
        self, stream, monkeypatch
    ):
        """Regression: the hybrid rung was built on a default Titan V
        (12 GiB) because the multi-GPU engine has no ``.device``."""
        spec = TITAN_V.with_memory(150_000)
        calls = []
        spy_run(monkeypatch, HybridEngine, calls)
        detector = SlidingWindowDetector(
            stream, ClusterDetector(MultiGPUEngine(2, spec=spec))
        )
        # The multi-GPU engine allocates nothing, so fault a launch.
        with inject(FaultPlan.parse("kernel@1")):
            _, result = detector.start(0, 6)
        ((hybrid, _),) = calls
        assert result.lp_result.engine == HybridEngine.name
        assert hybrid.device.spec.global_mem_bytes == 150_000

    def test_each_rung_receives_its_own_run_kwargs(
        self, stream, monkeypatch
    ):
        """Primary: ``initial_frontier`` and ``retry_policy``; each
        fallback rung (hybrid, serial): ``retry_policy`` only — it still
        recovers, but reruns the full computation."""
        detector = SlidingWindowDetector(
            stream,
            ClusterDetector(
                GLPEngine(frontier="auto"), retry_policy=RetryPolicy()
            ),
            incremental=True,
        )
        detector.start(0, 6)
        calls = []
        for engine_cls in (GLPEngine, HybridEngine, SerialEngine):
            spy_run(monkeypatch, engine_cls, calls)
        with inject(FaultPlan.parse("oom@1x999999")):
            detector.slide()
        assert detector.last_plan.incremental
        received = {type(engine).__name__: names for engine, names in calls}
        assert received == {
            "GLPEngine": ["initial_frontier", "max_iterations", "retry_policy"],
            "HybridEngine": ["max_iterations", "retry_policy"],
            "SerialEngine": ["max_iterations", "retry_policy"],
        }
        assert len(calls) == 3
