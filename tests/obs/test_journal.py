"""Tests for the correlated event journal (``repro.obs.journal``).

Covers the journal data structure, the module-level ``emit`` /
``correlate`` / ``mint_id`` helpers and their zero-cost disabled
behaviour, the JSONL round-trip with its ``journal.meta`` header, and the
end-to-end correlation chains the engines / recovery layer / sliding
detector write — including the metric-consistency contract across slide
rollback + replay.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro import ClassicLP, GLPEngine, obs
from repro.core.hybrid import HybridEngine
from repro.core.multigpu import MultiGPUEngine
from repro.errors import KernelAbortFault, OutOfDeviceMemoryError
from repro.graph.generators import planted_partition_graph
from repro.obs.journal import (
    JOURNAL_SCHEMA_VERSION,
    Journal,
    mint_run_id,
    read_journal,
)
from repro.pipeline.detector import ClusterDetector
from repro.pipeline.incremental import SlidingWindowDetector
from repro.pipeline.transactions import (
    TransactionStream,
    TransactionStreamConfig,
)
from repro.resilience import FaultPlan, RetryPolicy, inject
from tests.core.test_hybrid import small_spec_for

#: The three device engines that share the run driver.
ENGINES = {
    "glp": lambda graph: GLPEngine(),
    "hybrid": lambda graph: HybridEngine(spec=small_spec_for(graph, 0.5)),
    "multigpu": lambda graph: MultiGPUEngine(2),
}


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


class TestJournalUnit:
    def test_envelope_and_seq(self):
        journal = Journal(run_id="run-test")
        first = journal.record("a.start", slide_id="slide-0001")
        second = journal.record("a.end", fields={"ok": True})
        assert first["seq"] == 1 and second["seq"] == 2
        assert first["run_id"] == "run-test"
        assert first["slide_id"] == "slide-0001"
        assert first["attempt_id"] == ""
        assert isinstance(first["ts_us"], int) and first["ts_us"] >= 0
        assert second["ok"] is True

    def test_payload_cannot_override_envelope(self):
        journal = Journal()
        record = journal.record(
            "evt", fields={"seq": 999, "run_id": "spoof", "x": 1}
        )
        assert record["seq"] == 1
        assert record["run_id"] == journal.run_id
        assert record["x"] == 1

    def test_numpy_payloads_coerced_to_json_clean(self):
        journal = Journal()
        journal.record(
            "evt",
            fields={"n": np.int64(7), "f": np.float32(0.5), "a": [1, 2]},
        )
        # Round-trips through json without a custom encoder.
        parsed = json.loads(journal.to_jsonl().splitlines()[1])
        assert parsed["n"] == 7
        assert parsed["f"] == 0.5

    def test_events_for_filters(self):
        journal = Journal()
        journal.record("a", slide_id="s1")
        journal.record("a", slide_id="s2")
        journal.record("b", slide_id="s1", attempt_id="t1")
        assert len(journal.events_for(event="a")) == 2
        assert len(journal.events_for(slide_id="s1")) == 2
        assert len(journal.events_for(event="b", attempt_id="t1")) == 1
        assert journal.slide_ids() == ["s1", "s2"]

    def test_jsonl_roundtrip_with_meta_header(self, tmp_path):
        journal = Journal()
        journal.record("a", slide_id="s1", fields={"k": 1})
        journal.record("b")
        path = tmp_path / "journal.jsonl"
        journal.write(str(path))
        records = read_journal(str(path))
        meta, events = records[0], records[1:]
        assert meta["event"] == "journal.meta"
        assert meta["seq"] == 0
        assert meta["schema_version"] == JOURNAL_SCHEMA_VERSION
        assert meta["run_id"] == journal.run_id
        assert meta["num_events"] == 2
        assert [e["event"] for e in events] == ["a", "b"]
        assert all(e["run_id"] == journal.run_id for e in events)

    def test_mint_run_id_unique(self):
        assert mint_run_id() != mint_run_id()
        assert mint_run_id().startswith("run-")


class TestDisabledHelpers:
    def test_emit_is_noop_without_session(self):
        obs.emit("anything", x=1)  # must not raise
        assert obs.journal() is None
        assert obs.flight() is None

    def test_mint_id_empty_when_disabled(self):
        assert obs.mint_id("slide") == ""

    def test_correlate_passthrough_when_disabled(self):
        with obs.correlate(slide_id="slide-0001"):
            obs.emit("evt")
        assert obs.session() is None

    def test_emit_is_noop_without_journal(self):
        with obs.observe(journal=False) as session:
            obs.emit("evt")
            assert session.journal is None
            assert session.flight is None
            assert obs.mint_id("slide") == ""


class TestCorrelation:
    def test_mint_id_sequential_per_kind(self):
        with obs.observe() as session:
            assert session.mint_id("slide") == "slide-0001"
            assert session.mint_id("slide") == "slide-0002"
            assert session.mint_id("attempt") == "attempt-0001"

    def test_correlate_scopes_and_restores(self):
        with obs.observe() as session:
            with obs.correlate(slide_id="slide-0001"):
                obs.emit("outer")
                with obs.correlate(attempt_id="attempt-0001"):
                    obs.emit("inner")
                obs.emit("after-inner")
            obs.emit("after-outer")
            events = {e["event"]: e for e in session.journal.events}
        assert events["outer"]["slide_id"] == "slide-0001"
        assert events["outer"]["attempt_id"] == ""
        assert events["inner"]["attempt_id"] == "attempt-0001"
        assert events["after-inner"]["attempt_id"] == ""
        assert events["after-outer"]["slide_id"] == ""

    def test_emit_feeds_flight_ring(self):
        with obs.observe() as session:
            obs.emit("evt", x=1)
            assert len(session.flight) == 1
            assert session.flight.tail()[0]["event"] == "evt"

    def test_span_inherits_correlation_ids(self):
        with obs.observe() as session:
            with obs.correlate(slide_id="slide-0001", attempt_id="a-1"):
                with obs.span("work"):
                    pass
        spans = [e for e in session.tracer.events if e.get("ph") == "X"]
        args = spans[0]["args"]
        assert args["slide_id"] == "slide-0001"
        assert args["attempt_id"] == "a-1"


    def test_ids_never_cross_threads(self):
        """IDs a worker thread scopes stay in that thread: an event the
        loop thread emits meanwhile carries none of them."""
        entered, emitted = threading.Event(), threading.Event()

        def worker():
            with obs.correlate(slide_id="slide-x"):
                entered.set()
                assert emitted.wait(10)
                obs.emit("worker")

        async def main():
            task = asyncio.create_task(asyncio.to_thread(worker))
            await asyncio.sleep(0)  # let the task hand off to its thread
            assert entered.wait(10)
            obs.emit("loop")
            emitted.set()
            await task

        with obs.observe() as session:
            asyncio.run(main())
        events = {e["event"]: e for e in session.journal.events}
        assert events["loop"]["slide_id"] == ""
        assert events["worker"]["slide_id"] == "slide-x"


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestEngineAttemptChain:
    def test_clean_run_records_one_attempt(self, graph, engine):
        with obs.observe() as session:
            ENGINES[engine](graph).run(graph, ClassicLP(), max_iterations=6)
        starts = session.journal.events_for(event="engine.attempt.start")
        ends = session.journal.events_for(event="engine.attempt.end")
        assert len(starts) == 1 and len(ends) == 1
        assert starts[0]["attempt_id"] == ends[0]["attempt_id"]
        assert ends[0]["outcome"] == "ok"

    def test_faulted_run_chains_attempts_through_recovery(self, graph, engine):
        """One injected transient fault: attempt 1 faults, recovery
        restores, attempt 2 finishes — all under distinct attempt IDs."""
        with obs.observe() as session:
            with inject(FaultPlan.parse("kernel@3")):
                ENGINES[engine](graph).run(
                    graph, ClassicLP(), max_iterations=6,
                    retry_policy=RetryPolicy(max_retries=2),
                )
        journal = session.journal
        starts = journal.events_for(event="engine.attempt.start")
        faults = journal.events_for(event="engine.attempt.fault")
        restores = journal.events_for(event="recovery.restore")
        decisions = journal.events_for(event="recovery.fault")
        ends = journal.events_for(event="engine.attempt.end")
        assert len(starts) == 2
        assert len(faults) == 1 and faults[0]["kind"] == "kernel"
        assert len(restores) == 1
        assert [d["decision"] for d in decisions] == ["retry"]
        assert len(ends) == 1 and ends[0]["outcome"] == "ok"
        # The fault, its recovery decision and the restore all carry the
        # *failed* attempt's ID; the successful end carries the new one.
        failed_id = starts[0]["attempt_id"]
        assert faults[0]["attempt_id"] == failed_id
        assert decisions[0]["attempt_id"] == failed_id
        assert restores[0]["attempt_id"] == failed_id
        assert ends[0]["attempt_id"] == starts[1]["attempt_id"]
        assert ends[0]["attempt_id"] != failed_id
        # fault.injected from the simulator hook lands in the same chain.
        injected = journal.events_for(event="fault.injected")
        assert len(injected) == 1
        assert injected[0]["attempt_id"] == failed_id

    def test_checkpoint_events_carry_path_annotation(self, graph, engine):
        with obs.observe() as session:
            ENGINES[engine](graph).run(
                graph, ClassicLP(), max_iterations=6,
                retry_policy=RetryPolicy(),
            )
            ckpts = session.journal.events_for(event="recovery.checkpoint")
            assert ckpts
            assert all("iteration" in c for c in ckpts)
            assert session.context["checkpoint"]["iteration"] == int(
                ckpts[-1]["iteration"]
            )


class TestSlideChain:
    def test_slide_chain_is_complete_and_correlated(self, stream):
        detector = SlidingWindowDetector(
            stream,
            ClusterDetector(GLPEngine(frontier="auto")),
            incremental=True,
        )
        with obs.observe() as session:
            detector.start(0, 6)
            detector.slide()
            detector.slide()
        journal = session.journal
        slides = journal.slide_ids()
        assert slides == ["slide-0001", "slide-0002", "slide-0003"]
        cold = journal.events_for(slide_id=slides[0])
        assert [e["event"] for e in cold[:2]] == ["slide.start", "slide.plan"]
        assert cold[0]["kind"] == "cold"
        for sid in slides[1:]:
            chain = [e["event"] for e in journal.events_for(slide_id=sid)]
            assert chain[0] == "slide.start"
            assert "slide.diff" in chain
            assert "slide.plan" in chain
            assert "slide.detect" in chain
            assert chain[-1] == "slide.end"
        # Every event written during the sweep belongs to some slide.
        assert all(e["slide_id"] for e in journal.events)
        # Plan payloads carry the DynLP decision verbatim.
        plans = journal.events_for(event="slide.plan", slide_id=slides[-1])
        assert plans[0]["mode"] in ("incremental", "full")
        assert "reason" in plans[0] and "num_affected" in plans[0]

    def test_replay_metrics_consistent_with_journal(self, stream):
        """Satellite: a rolled-back slide must count one replay, keep the
        latency histograms at successful-slides-only, and journal the
        replay under the failed slide's ID (no double counting)."""
        detector = SlidingWindowDetector(
            stream, ClusterDetector(GLPEngine()), degrade=False
        )
        with obs.observe() as session:
            detector.start(0, 6)
            with inject(FaultPlan.parse("oom@2x999999")):
                with pytest.raises(OutOfDeviceMemoryError):
                    detector.slide()
            detector.slide()  # replay succeeds once the fault clears

            m = session.metrics
            journal = session.journal
            assert m.counter("pipeline_slide_replays_total").value == 1
            replays = journal.events_for(event="slide.replay")
            assert len(replays) == 1
            assert replays[0]["error"] == "InjectedOOMFault"
            # 3 slide IDs minted: cold, failed, replayed.
            assert len(journal.slide_ids()) == 3
            failed_id = replays[0]["slide_id"]
            failed_chain = [
                e["event"] for e in journal.events_for(slide_id=failed_id)
            ]
            assert "slide.end" not in failed_chain
            assert failed_chain[-1] == "slide.replay"
            # Latency histograms observed only the 2 *successful* slides.
            e2e = m.histogram("pipeline_e2e_modeled_seconds")
            serving = m.histogram("pipeline_serving_latency_seconds")
            assert e2e.count == 2
            assert serving.count == 2
            ends = journal.events_for(event="slide.end")
            assert len(ends) == e2e.count
