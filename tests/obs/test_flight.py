"""Tests for the flight recorder and its post-mortem bundles.

Ring-buffer bounding, bundle payloads (events, metrics, fault plan,
context annotations), dump-to-disk, and the acceptance scenario: a
chaos-injected fault whose post-mortem correlation chain reconstructs
the failed slide — plan, attempts, recovery decisions, degradation.
"""

import json

import pytest

from repro import ClassicLP, GLPEngine, obs
from repro.errors import OutOfDeviceMemoryError
from repro.obs.flight import FLIGHT_SCHEMA_VERSION, FlightRecorder
from repro.pipeline.detector import ClusterDetector
from repro.pipeline.incremental import SlidingWindowDetector
from repro.pipeline.transactions import (
    TransactionStream,
    TransactionStreamConfig,
)
from repro.resilience import FaultPlan, inject


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


class TestRing:
    def test_bounded_at_capacity(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(10):
            recorder.record({"seq": i, "event": f"e{i}"})
        assert len(recorder) == 3
        assert [e["seq"] for e in recorder.tail()] == [7, 8, 9]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_session_ring_capacity_configurable(self):
        with obs.observe(flight_capacity=2) as session:
            for _ in range(5):
                obs.emit("evt")
            assert len(session.flight) == 2
            assert len(session.journal) == 5  # journal is unbounded


class TestDump:
    def test_bundle_payload(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record({"seq": 1, "event": "a"})
        bundle = recorder.dump(
            trigger="degradation",
            ids={"run_id": "run-x", "slide_id": "slide-0002",
                 "attempt_id": ""},
            context={"checkpoint": {"iteration": 3}},
            metrics={"metrics": []},
            details={"kind": "oom"},
        )
        assert bundle["schema_version"] == FLIGHT_SCHEMA_VERSION
        assert bundle["trigger"] == "degradation"
        assert bundle["run_id"] == "run-x"
        assert bundle["slide_id"] == "slide-0002"
        assert bundle["details"] == {"kind": "oom"}
        assert bundle["context"]["checkpoint"]["iteration"] == 3
        assert bundle["fault_plan"] is None  # nothing installed
        assert [e["event"] for e in bundle["events"]] == ["a"]
        assert recorder.bundles == [bundle]

    def test_dump_writes_file_when_dir_configured(self, tmp_path):
        recorder = FlightRecorder(capacity=4, dump_dir=str(tmp_path))
        recorder.record({"seq": 1, "event": "a"})
        recorder.dump(trigger="unrecovered-fault")
        recorder.dump(trigger="degradation")
        paths = sorted(p.name for p in tmp_path.iterdir())
        assert paths == ["postmortem-001.json", "postmortem-002.json"]
        with open(tmp_path / "postmortem-001.json") as fh:
            doc = json.load(fh)
        assert doc["trigger"] == "unrecovered-fault"
        assert recorder.bundles[0]["path"].endswith("postmortem-001.json")

    def test_flight_dump_helper_noop_when_disabled(self):
        assert obs.flight_dump("degradation") is None

    def test_flight_dump_captures_active_fault_plan(self):
        with obs.observe():
            with inject(FaultPlan.parse("oom@2x3")):
                bundle = obs.flight_dump("unrecovered-fault", kind="oom")
        assert bundle["fault_plan"]["plan"] == "oom@2x3"
        assert bundle["fault_plan"]["fired"] == []  # nothing ran yet
        # The dump itself is journaled, so the bundle's last ring event
        # is its own flight.dump marker.
        assert bundle["events"][-1]["event"] == "flight.dump"
        assert bundle["events"][-1]["trigger"] == "unrecovered-fault"


class TestPostMortemAcceptance:
    def test_degradation_bundle_reconstructs_failed_slide(self, stream):
        """Acceptance: under a persistent injected OOM the detector
        degrades down the ladder; every degradation leaves a bundle whose
        ring holds the failed slide's full causal chain."""
        detector = SlidingWindowDetector(
            stream, ClusterDetector(GLPEngine())
        )
        with obs.observe() as session:
            with inject(FaultPlan.parse("oom@2x999999")):
                detector.start(0, 6)
            bundles = session.flight.bundles
        assert bundles, "degradation produced no post-mortem bundle"
        bundle = bundles[0]
        assert bundle["trigger"] == "degradation"
        assert bundle["run_id"] == session.run_id
        assert bundle["slide_id"] == "slide-0001"
        assert bundle["details"]["source"] == "GLP"
        assert bundle["details"]["kind"] == "oom"
        assert bundle["fault_plan"]["plan"] == "oom@2x999999"
        assert bundle["fault_plan"]["fired"]
        # The ring reconstructs the chain: slide start -> plan ->
        # degradation, all under the failed slide's correlation ID.
        chain = [e["event"] for e in bundle["events"]]
        for needed in ("slide.start", "slide.plan",
                       "resilience.degradation", "flight.dump"):
            assert needed in chain, f"{needed} missing from {chain}"
        assert chain.index("slide.start") < chain.index("slide.plan")
        assert chain.index("slide.plan") < chain.index(
            "resilience.degradation"
        )
        slide_events = [e for e in bundle["events"] if e["slide_id"]]
        assert all(e["slide_id"] == "slide-0001" for e in slide_events)
        # Metrics snapshot rode along.
        names = {m["name"] for m in bundle["metrics"]["metrics"]}
        assert "resilience_degradations_total" in names

    def test_fault_chain_with_recovery_then_degradation(self, stream):
        """A transient fault that exhausts its retry budget: the bundle
        chain shows attempts, the injected fault, recovery decisions and
        the eventual ladder step."""
        from repro.resilience import RetryPolicy

        detector = SlidingWindowDetector(
            stream,
            ClusterDetector(
                GLPEngine(), retry_policy=RetryPolicy(max_retries=1)
            ),
        )
        with obs.observe() as session:
            with inject(FaultPlan.parse("kernel@3x999999")):
                detector.start(0, 6)
            bundle = session.flight.bundles[0]
        chain = [e["event"] for e in bundle["events"]]
        assert "engine.attempt.start" in chain
        assert "fault.injected" in chain
        assert "engine.attempt.fault" in chain
        assert "recovery.fault" in chain
        assert "recovery.restore" in chain
        assert "resilience.degradation" in chain
        decisions = [
            e["decision"] for e in bundle["events"]
            if e["event"] == "recovery.fault"
        ]
        assert decisions == ["retry", "retry-budget-exhausted"]
        # Two attempts were made before the ladder stepped down.
        starts = [
            e for e in bundle["events"]
            if e["event"] == "engine.attempt.start"
        ]
        assert len(starts) == 2
        assert starts[0]["attempt_id"] != starts[1]["attempt_id"]

    def test_unrecovered_fault_dumps_before_raising(self, stream, tmp_path):
        detector = SlidingWindowDetector(
            stream, ClusterDetector(GLPEngine()), degrade=False
        )
        with obs.observe() as session:
            session.flight.dump_dir = str(tmp_path)
            with inject(FaultPlan.parse("oom@2x999999")):
                with pytest.raises(OutOfDeviceMemoryError):
                    detector.start(0, 6)
            assert len(session.flight.bundles) == 1
            bundle = session.flight.bundles[0]
        assert bundle["trigger"] == "unrecovered-fault"
        assert bundle["details"]["engine"] == "GLP"
        assert bundle["details"]["error"] == "InjectedOOMFault"
        # Written to disk for offline `repro obs report --postmortem`.
        with open(tmp_path / "postmortem-001.json") as fh:
            doc = json.load(fh)
        assert doc["trigger"] == "unrecovered-fault"

    def test_bundle_validates_against_schema_checker(
        self, schema_checker, stream, tmp_path
    ):
        detector = SlidingWindowDetector(
            stream, ClusterDetector(GLPEngine())
        )
        with obs.observe() as session:
            session.flight.dump_dir = str(tmp_path)
            with inject(FaultPlan.parse("oom@2x999999")):
                detector.start(0, 6)
        path = tmp_path / "postmortem-001.json"
        schema_checker.check_postmortem(str(path))  # SystemExit on violation
