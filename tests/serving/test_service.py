"""Tests for the asyncio streaming scoring service.

Covers admission control (shed / deadline expiry), scoring semantics
(flagged users, unknown users, empty windows), slide-driven state
versioning, observability output, and the served-vs-batch ``labels_hash``
identity — including the soak run with an injected device fault.
"""

import asyncio
import gc
import time
import weakref

import numpy as np
import pytest

from repro import obs
from repro.errors import ServingError
from repro.pipeline.transactions import (
    TransactionStream,
    TransactionStreamConfig,
)
from repro.resilience import FaultPlan, count_events, inject
from repro.serving import (
    DayEnd,
    LoadGenConfig,
    LoadGenerator,
    ScoringService,
    TxnBatch,
    batch_labels_hash,
)
from repro.types import NO_LABEL


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


def run(coro):
    return asyncio.run(coro)


def make_service(stream, **kwargs):
    kwargs.setdefault("window_days", 6)
    return ScoringService(stream, **kwargs)


class TestConstruction:
    def test_bad_geometry_rejected(self, stream):
        with pytest.raises(ServingError):
            make_service(stream, window_days=0)
        with pytest.raises(ServingError):
            make_service(stream, window_days=13)
        with pytest.raises(ServingError):
            make_service(stream, start_day=8, window_days=6)

    def test_bad_policy_and_queue_rejected(self, stream):
        with pytest.raises(ServingError):
            make_service(stream, policy="drop-oldest")
        with pytest.raises(ServingError):
            make_service(stream, queue_capacity=0)
        with pytest.raises(ServingError):
            make_service(stream, deadline_seconds=-1.0)

    def test_score_before_start_rejected(self, stream):
        service = make_service(stream)
        with pytest.raises(ServingError):
            service.state


class TestScoring:
    def test_unknown_user_scores_unlabeled(self, stream):
        async def main():
            service = make_service(stream)
            await service.start()
            response = await service.score(10**9)
            await service.stop()
            return response

        response = run(main())
        assert response.outcome == "scored"
        assert response.label == int(NO_LABEL)
        assert response.flagged is False

    def test_flagged_user_scores_flagged(self, stream):
        async def main():
            service = make_service(stream)
            state = await service.start()
            assert state.flagged, "detection found no clusters"
            user = min(state.flagged)
            response = await service.score(user)
            await service.stop()
            return response

        response = run(main())
        assert response.outcome == "scored"
        assert response.flagged is True
        assert response.window_version == 0

    def test_shed_when_queue_full(self, stream):
        async def main():
            service = make_service(stream, queue_capacity=1)
            await service.start()
            # Stop the worker so nothing drains, then fill the queue:
            # the next admission must shed, not block or queue forever.
            await service.stop()
            service._queue.put_nowait(
                (time.perf_counter(), 0, asyncio.get_running_loop().create_future())
            )
            return await service.score(1)

        response = run(main())
        assert response.outcome == "shed"
        assert response.label == int(NO_LABEL)

    def test_zero_deadline_expires_queued_requests(self, stream):
        async def main():
            service = make_service(
                stream, policy="deadline", deadline_seconds=0.0
            )
            await service.start()
            response = await service.score(3)
            await service.stop()
            return response

        response = run(main())
        assert response.outcome == "expired"

    def test_shed_policy_never_expires(self, stream):
        async def main():
            service = make_service(
                stream, policy="shed", deadline_seconds=0.0
            )
            await service.start()
            response = await service.score(3)
            await service.stop()
            return response

        assert run(main()).outcome == "scored"

    def test_score_now_synchronous_lookup(self, stream):
        async def main():
            service = make_service(stream)
            await service.start()
            response = service.score_now(10**9)
            await service.stop()
            return response

        response = run(main())
        assert response.outcome == "scored"
        assert response.label == int(NO_LABEL)


class TestLifecycle:
    def test_stopped_service_is_collectable(self, stream):
        """Stopping cancels the workers without leaving the service
        reachable from their cancellation tracebacks."""

        async def main():
            service = make_service(stream)
            await service.start()
            await service.score(3)
            await service.stop()
            await service.stop()  # idempotent
            ref = weakref.ref(service)
            del service
            gc.collect()
            # Checked while the loop is still running, as a long-lived
            # server would see it.
            return ref() is None

        assert run(main())


class TestServe:
    @pytest.fixture(scope="class")
    def served(self, stream):
        generator = LoadGenerator(
            stream, LoadGenConfig(qps=250.0, seed=7)
        )
        events = generator.schedule(6, 3)
        service = make_service(stream)
        with obs.observe() as session:
            report = run(service.serve(events))
        return events, service, report, session

    def test_every_request_answered(self, served):
        events, _, report, _ = served
        from repro.serving.loadgen import ScoreRequest

        n_requests = sum(1 for e in events if isinstance(e, ScoreRequest))
        assert report.requests_total == n_requests
        assert (
            report.scored + report.shed + report.expired
            == report.requests_total
        )
        assert report.latency.count == report.requests_total

    def test_slides_advance_window(self, served):
        _, service, report, _ = served
        assert report.slides == 3
        assert service.state.version == 3
        assert service.state.start_day == 3
        assert report.final_window_start_day == 3

    def test_serving_metrics_emitted(self, served):
        _, _, _, session = served
        names = {m["name"] for m in session.metrics.to_dict()["metrics"]}
        assert "serving_requests_total" in names
        assert "serving_request_latency_seconds" in names
        assert "serving_slides_total" in names
        assert "serving_ingest_batches_total" in names

    def test_journal_has_serve_events(self, served):
        _, _, _, session = served
        events = {r["event"] for r in session.journal.events}
        assert "serve.start" in events
        assert "serve.slide" in events
        assert "serve.end" in events

    def test_report_round_trips(self, served):
        _, _, report, _ = served
        doc = report.as_dict()
        assert doc["requests_total"] == report.requests_total
        assert doc["sustained_qps"] > 0
        assert "labels_hash" in report.to_text() or doc["final_labels_hash"]


class TestIdentity:
    def test_served_state_matches_batch_recompute(self, stream):
        """The tentpole invariant: at every probed slide the service's
        incremental label state is bitwise identical to a from-scratch
        non-incremental batch rerun of the same history."""
        generator = LoadGenerator(stream, LoadGenConfig(qps=60.0, seed=2))
        events = generator.schedule(6, 2)
        service = make_service(stream, probe_every=1)
        report = run(service.serve(events))
        assert report.probes == 2
        assert report.probe_mismatches == 0
        assert report.final_labels_hash == batch_labels_hash(
            stream, 0, 6, 2
        )


    def test_probes_add_no_journal_events(self, stream):
        """The oracle replays in a fresh context: a probed run journals
        exactly the slides an unprobed one does."""
        generator = LoadGenerator(stream, LoadGenConfig(qps=60.0, seed=2))
        events = generator.schedule(6, 3)
        starts = {}
        for probe_every in (0, 1):
            service = make_service(stream, probe_every=probe_every)
            with obs.observe() as session:
                report = run(service.serve(events))
            starts[probe_every] = len(
                session.journal.events_for(event="slide.start")
            )
        assert report.probes == 3
        assert starts[1] == starts[0] == 4

    def test_probes_consume_no_planned_faults(self, stream):
        """The identity oracle drives no simulated device: under a plan
        that OOMs every allocation, a probed run fires exactly the faults
        an unprobed one does, and every probe still matches."""
        generator = LoadGenerator(stream, LoadGenConfig(qps=60.0, seed=2))
        events = generator.schedule(6, 3)
        fired = {}
        for probe_every in (0, 1):
            service = make_service(stream, probe_every=probe_every)
            with inject(FaultPlan.parse("oom@1x999999")) as injector:
                report = run(service.serve(events))
            fired[probe_every] = len(injector.events)
        assert report.probes == 3
        assert report.probe_mismatches == 0
        assert fired[0] > 0
        assert fired[1] == fired[0]


class TestCorrelation:
    def test_serve_events_carry_no_slide_ids(self, stream):
        """Slides correlate their events in the worker thread; the loop
        thread's ``serve.*`` events, emitted mid-slide under overload,
        never pick up a ``slide_id``."""
        generator = LoadGenerator(stream, LoadGenConfig(qps=3000.0, seed=4))
        events = generator.schedule(6, 3)
        service = make_service(stream, queue_capacity=1)
        with obs.observe() as session:
            run(service.serve(events))
        serve = [
            e for e in session.journal.events
            if e["event"].startswith("serve.")
        ]
        assert any(e["event"] == "serve.overload" for e in serve)
        assert [e for e in serve if e["slide_id"]] == []
        slides = session.journal.events_for(event="slide.start")
        assert all(e["slide_id"] for e in slides)


class TestSoak:
    def test_bursty_load_with_device_fault(self, stream):
        """Soak: bursty load, a device fault injected mid-stream.

        The ladder must degrade the engine (never the answer): the run
        completes, degradations are recorded, SLO verdicts evaluate, and
        the final served labels still match the batch rerun bitwise.
        """
        from repro.obs.slo import evaluate_slos, load_slo_spec

        generator = LoadGenerator(
            stream,
            LoadGenConfig(qps=300.0, burst_factor=5.0, seed=13),
        )
        events = generator.schedule(6, 3)
        service = make_service(stream)
        with obs.observe() as session:
            # Every allocation of every device OOMs: each slide's GPU
            # attempt faults and steps down the degradation ladder.
            with inject(FaultPlan.parse("oom@1x999999")):
                report = run(service.serve(events))
        entries = session.metrics.to_dict()["metrics"]
        degradations = sum(
            e["value"]
            for e in entries
            if e["name"] == "resilience_degradations_total"
        )
        assert degradations >= 1
        assert report.slides == 3
        assert report.scored > 0
        # SLO spec evaluates against the soak metrics; the degradation
        # budget records the injected-fault breach.
        slo = evaluate_slos(
            load_slo_spec("benchmarks/serving_slo.toml"), session.metrics
        )
        verdicts = {v.slo.name: v for v in slo.verdicts}
        assert not verdicts["degradation-budget"].ok
        assert verdicts["serve-identity-budget"].ok
        # Fault-free batch rerun: degraded slides recompute in full, so
        # the served labels are still bitwise identical.
        assert report.final_labels_hash == batch_labels_hash(
            stream, 0, 6, 3
        )

    def test_slide_failure_keeps_serving_old_state(self, stream):
        # The workers see the fault plan of the task that starts them, so
        # the plan is installed before start() and spares the cold start's
        # allocations: every allocation after them OOMs.
        with count_events() as cold:
            make_service(stream, degrade=False).detector.start(0, 6)
        plan = FaultPlan.parse(f"oom@{cold.counts['alloc'] + 1}x999999")

        async def main():
            service = make_service(stream, degrade=False, window_days=6)
            with inject(plan):
                await service.start()
                version0 = service.state.version
                await service.ingest(TxnBatch(t=0.1, day=6, count=50))
                await service.ingest(DayEnd(t=1.0, day=6))
                await service._ingest_queue.join()
            assert service.state.version == version0
            response = await service.score(3)
            await service.stop()
            return service, response

        with obs.observe() as session:
            service, response = run(main())
        assert response.outcome in ("scored", "expired")
        entries = session.metrics.to_dict()["metrics"]
        failures = sum(
            e["value"]
            for e in entries
            if e["name"] == "serving_slide_failures_total"
        )
        assert failures == 1
