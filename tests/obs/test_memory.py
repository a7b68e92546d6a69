"""Device-memory telemetry: tracker, watermarks, planner accuracy.

The load-bearing contract is *exact reconciliation*: at every tracked
event the sum of per-category live bytes must equal
``Device.allocated_bytes``, and the tracked peak must equal the device's
own high-water mark.  On top of that: category tagging threaded through
``alloc_scope``, the ``transfer_summary()`` differential audit, Chrome
counter-track export, the ``device_footprint`` planner-accuracy gate,
flight-recorder allocation snapshots and the schema checker.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.algorithms import ClassicLP
from repro.core.framework import GLPEngine
from repro.errors import DeviceError, OutOfDeviceMemoryError
from repro.gpusim import hooks
from repro.gpusim.config import TITAN_V, DeviceSpec
from repro.gpusim.device import Device
from repro.obs.memory import (
    CATEGORIES,
    MEMORY_SCHEMA_VERSION,
    PLANNER_ERROR_THRESHOLD,
    alloc_scope,
    render_memory_report,
    track,
)

@pytest.fixture
def tracker():
    with track() as t:
        yield t


# ---------------------------------------------------------------------------
# Reconciliation: the watermark report must agree with the device exactly.
# ---------------------------------------------------------------------------
class TestReconciliation:
    def test_every_event_reconciles_exactly(self, powerlaw_graph, tracker):
        engine = GLPEngine()
        engine.run(powerlaw_graph, ClassicLP(), max_iterations=5)
        report = tracker.report()
        assert report["schema_version"] == MEMORY_SCHEMA_VERSION
        assert report["reconciled"] is True
        (dev,) = report["devices"]
        assert dev["mismatches"] == 0
        assert dev["num_events"] == len(dev["events"]) > 0
        for event in dev["events"]:
            assert event["reconciled"] is True
            assert event["live_bytes"] == event["device_allocated_bytes"]

    def test_tracked_peak_equals_device_high_water_mark(
        self, powerlaw_graph, tracker
    ):
        engine = GLPEngine()
        engine.run(powerlaw_graph, ClassicLP(), max_iterations=5)
        (dev,) = tracker.report()["devices"]
        assert dev["peak_bytes"] == engine.device.peak_allocated_bytes > 0
        assert sum(dev["categories_at_peak"].values()) == dev["peak_bytes"]

    def test_categories_are_from_the_enum(self, powerlaw_graph, tracker):
        engine = GLPEngine(frontier="frontier")
        engine.run(powerlaw_graph, ClassicLP(), max_iterations=5)
        (dev,) = tracker.report()["devices"]
        seen = set(dev["category_peaks"])
        assert seen <= set(CATEGORIES)
        # The frontier engine stages CSR, reversed CSR, labels and the
        # frontier bitmap — all four must be attributed, not lumped
        # into "scratch".
        assert {"csr", "reversed-csr", "labels", "frontier"} <= seen

    def test_adopts_preexisting_allocations(self):
        device = Device()
        with alloc_scope("labels", "warm"):
            handle = device.alloc((100,), np.int64)
        with track() as tracker:
            with alloc_scope("scratch", "later"):
                extra = device.alloc((10,), np.int64)
            (dev,) = tracker.report()["devices"]
            assert dev["live_bytes"] == device.allocated_bytes
            assert dev["categories_at_peak"]["labels"] == handle.nbytes
            device.free(extra)
            device.free(handle)

    def test_timeline_monotone_across_clock_resets(self, powerlaw_graph):
        with track() as tracker:
            engine = GLPEngine()
            engine.run(powerlaw_graph, ClassicLP(), max_iterations=3)
            engine.run(powerlaw_graph, ClassicLP(), max_iterations=3)
            (dev,) = tracker.report()["devices"]
        ts = [event["ts"] for event in dev["events"]]
        assert ts == sorted(ts)


# ---------------------------------------------------------------------------
# Allocation scopes and the free paths.
# ---------------------------------------------------------------------------
class TestScopesAndFrees:
    def test_alloc_scope_rejects_unknown_category(self):
        with pytest.raises(ValueError, match="unknown allocation category"):
            with alloc_scope("heap"):
                pass

    def test_alloc_scope_nests_and_restores(self):
        with alloc_scope("csr", "outer"):
            with alloc_scope("labels", "inner"):
                assert hooks.MEMSCOPE.get() == ("labels", "inner")
            assert hooks.MEMSCOPE.get() == ("csr", "outer")
        assert hooks.MEMSCOPE.get() is None

    def test_track_restores_previous_tracker(self):
        with track() as outer:
            with track() as inner:
                assert hooks.MEMORY.get() is inner
            assert hooks.MEMORY.get() is outer
        assert hooks.MEMORY.get() is None

    def test_free_all_reports_released_bytes(self, tracker):
        device = Device()
        with alloc_scope("scratch", "test"):
            handles = [device.alloc((100,), np.int64) for _ in range(3)]
        expected = sum(h.nbytes for h in handles)
        released = device.free_all()
        assert released == expected
        assert device.allocated_bytes == 0
        (dev,) = tracker.report()["devices"]
        assert dev["freed_all_bytes"] == expected
        assert dev["freed_all_calls"] == 1
        free_events = [e for e in dev["events"] if e["op"] == "free_all"]
        assert len(free_events) == 1
        assert free_events[0]["bytes"] == expected
        assert free_events[0]["freed"] == 3
        assert free_events[0]["live_bytes"] == 0

    def test_use_after_free_names_category_and_origin(self):
        device = Device()
        with alloc_scope("frontier", "glp.residency"):
            handle = device.alloc((10,), np.int64)
        device.free(handle)
        with pytest.raises(DeviceError) as excinfo:
            device.d2h(handle)
        message = str(excinfo.value)
        assert "frontier" in message
        assert "glp.residency" in message

    def test_free_wrong_category_accounting_stays_consistent(self, tracker):
        device = Device()
        with alloc_scope("csr", "a"):
            a = device.alloc((10,), np.int64)
        with alloc_scope("labels", "b"):
            b = device.alloc((20,), np.int64)
        device.free(a)
        (dev,) = tracker.report()["devices"]
        assert "csr" not in dev["categories_at_peak"] or True
        assert dev["live_bytes"] == b.nbytes == device.allocated_bytes
        device.free(b)
        (dev,) = tracker.report()["devices"]
        assert dev["live_bytes"] == 0


# ---------------------------------------------------------------------------
# Satellite 1: transfer_summary() vs the tracker's journaled transfers.
# ---------------------------------------------------------------------------
class TestTransferAudit:
    def test_tracker_totals_match_device_summary_glp(
        self, powerlaw_graph, tracker
    ):
        engine = GLPEngine()
        engine.run(powerlaw_graph, ClassicLP(), max_iterations=5)
        assert tracker.transfer_totals(0) == engine.device.transfer_summary()

    def test_tracker_totals_match_device_summary_hybrid_window(self):
        """Differential audit across a hybrid run with streamed deltas:
        byte totals and counts must agree exactly — no double counting
        between ``_record_memcpy`` and ``stream_to_device/host``."""
        import dataclasses

        from repro.core.hybrid import HybridEngine
        from repro.graph.generators.rmat import rmat_graph

        graph = rmat_graph(10, 6.0, seed=3, name="rmat-hybrid")
        label_bytes = (graph.num_vertices + 1) * 8
        spec = dataclasses.replace(
            TITAN_V, global_mem_bytes=5 * label_bytes + 64_000
        )
        with track() as tracker:
            engine = HybridEngine(spec=spec)
            engine.run(graph, ClassicLP(), max_iterations=5)
            summary = engine.device.transfer_summary()
            totals = tracker.transfer_totals(0)
        assert totals == summary
        # The run actually streamed label deltas (the interesting path).
        (dev,) = tracker.report()["devices"]
        assert dev["transfers"]["h2d"]["streamed_count"] > 0
        assert dev["exchange_bytes"] > 0

    def test_summary_excludes_counter_resets(self):
        """transfer_summary() must survive PerfCounters resets — its
        totals come from device-level accumulators, not counters."""
        device = Device()
        device.h2d(np.arange(100, dtype=np.int64))
        device.counters.reset()
        summary = device.transfer_summary()
        assert summary["h2d"]["bytes"] == 800
        assert summary["h2d"]["count"] == 1


# ---------------------------------------------------------------------------
# Planner accuracy: device_footprint predictions vs measured peaks.
# ---------------------------------------------------------------------------
class TestPlannerAccuracy:
    def test_glp_footprint_prediction_is_exact(self, powerlaw_graph, tracker):
        engine = GLPEngine()
        engine.run(powerlaw_graph, ClassicLP(), max_iterations=5)
        (row,) = tracker.planner_accuracy()
        assert row["engine"] == "GLP"
        assert row["source"] == "device_footprint"
        assert row["error_ratio"] == 0.0
        assert row["within_threshold"] is True
        assert tracker.analysis_report().findings == []

    def test_underestimate_is_an_error_finding(self, powerlaw_graph):
        with track() as tracker:
            engine = GLPEngine()
            engine.run(powerlaw_graph, ClassicLP(), max_iterations=5)
            peak = engine.device.peak_allocated_bytes
            tracker.note_prediction(
                "SyntheticPlanner", engine.device, int(peak * 0.5)
            )
            report = tracker.analysis_report()
        findings = [
            f
            for f in report.findings
            if f.rule == "memory-planner-underestimate"
        ]
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert "SyntheticPlanner@gpu0" in findings[0].location

    def test_overestimate_is_a_warning_finding(self, powerlaw_graph):
        with track() as tracker:
            engine = GLPEngine()
            engine.run(powerlaw_graph, ClassicLP(), max_iterations=5)
            peak = engine.device.peak_allocated_bytes
            tracker.note_prediction(
                "SyntheticPlanner", engine.device, int(peak * 2.0)
            )
            report = tracker.analysis_report()
        findings = [
            f
            for f in report.findings
            if f.rule == "memory-planner-overestimate"
        ]
        assert len(findings) == 1
        assert findings[0].severity == "warning"

    def test_within_threshold_prediction_yields_no_finding(
        self, powerlaw_graph
    ):
        with track() as tracker:
            engine = GLPEngine()
            engine.run(powerlaw_graph, ClassicLP(), max_iterations=5)
            peak = engine.device.peak_allocated_bytes
            near = int(peak * (1.0 + PLANNER_ERROR_THRESHOLD / 2))
            tracker.note_prediction("NearPlanner", engine.device, near)
            rows = {
                row["engine"]: row for row in tracker.planner_accuracy()
            }
        assert rows["NearPlanner"]["within_threshold"] is True
        hybrid_rows = [
            f
            for f in tracker.analysis_report().findings
            if "NearPlanner" in f.location
        ]
        assert hybrid_rows == []

    def test_hybrid_plan_prediction_within_threshold(self):
        from repro.bench import datasets as bench_datasets
        from repro.algorithms import SeededFraudLP
        from repro.core.hybrid import run_auto

        window = bench_datasets.taobao_window(100)
        seeds = bench_datasets.window_seeds(100)
        with track() as tracker:
            _, engine = run_auto(
                window.graph,
                SeededFraudLP(seeds),
                spec=bench_datasets.FIG7_DEVICE,
                max_iterations=3,
                stop_on_convergence=False,
            )
            rows = tracker.planner_accuracy()
        assert engine.name == "GLP-Hybrid"
        (row,) = [r for r in rows if r["engine"] == "GLP-Hybrid"]
        assert row["within_threshold"] is True


# ---------------------------------------------------------------------------
# Satellite 3: Chrome-trace counter tracks.
# ---------------------------------------------------------------------------
class TestCounterTracks:
    def test_counter_track_round_trip(self, powerlaw_graph, tmp_path):
        path = tmp_path / "trace.json"
        with obs.observe() as session:
            with track():
                GLPEngine().run(
                    powerlaw_graph, ClassicLP(), max_iterations=5
                )
            session.tracer.write(str(path))
        doc = json.loads(path.read_text())
        counters = [
            e for e in doc["traceEvents"] if e.get("ph") == "C"
        ]
        assert counters
        names = {e["name"] for e in counters}
        assert names == {"gpu0 device memory"}
        for event in counters:
            assert event["pid"] == 2  # DEVICE_PID
            assert all(
                isinstance(v, int) for v in event["args"].values()
            )

    def test_one_track_per_device_and_monotone_ts(self):
        with obs.observe() as session:
            with track():
                devices = [Device(TITAN_V, index=i) for i in range(2)]
                for device in devices:
                    with alloc_scope("scratch", "test"):
                        handle = device.alloc((1000,), np.int64)
                    device.free(handle)
        counters = [
            e for e in session.tracer.events if e.get("ph") == "C"
        ]
        names = sorted({e["name"] for e in counters})
        assert names == ["gpu0 device memory", "gpu1 device memory"]
        for name in names:
            ts = [e["ts"] for e in counters if e["name"] == name]
            assert ts == sorted(ts)

    def test_freed_categories_drop_to_zero_in_track(self):
        with obs.observe() as session:
            with track():
                device = Device()
                with alloc_scope("labels", "test"):
                    handle = device.alloc((100,), np.int64)
                device.free(handle)
        counters = [
            e for e in session.tracer.events if e.get("ph") == "C"
        ]
        assert counters[-1]["args"]["labels"] == 0

    def test_no_counter_events_without_session(self, powerlaw_graph):
        with track() as tracker:
            GLPEngine().run(powerlaw_graph, ClassicLP(), max_iterations=3)
        assert tracker.report()["devices"]  # tracked fine without tracer


# ---------------------------------------------------------------------------
# OOM snapshots and flight-recorder bundles.
# ---------------------------------------------------------------------------
class TestOomAndFlight:
    def test_oom_is_journaled_with_live_table(self):
        import dataclasses

        spec = dataclasses.replace(
            TITAN_V, name="tiny", global_mem_bytes=4096
        )
        with track() as tracker:
            device = Device(spec)
            with alloc_scope("labels", "test"):
                device.alloc((256,), np.int64)
            with pytest.raises(OutOfDeviceMemoryError):
                device.alloc((1 << 20,), np.int64)
            (dev,) = tracker.report()["devices"]
        assert dev["oom_count"] == 1
        oom_events = [e for e in dev["events"] if e["op"] == "oom"]
        assert len(oom_events) == 1
        assert oom_events[0]["bytes"] == (1 << 20) * 8
        assert oom_events[0]["live_bytes"] == 2048

    def test_allocation_snapshot_shape(self, tracker):
        device = Device()
        with alloc_scope("csr", "test"):
            handle = device.alloc((100,), np.int64)
        snapshot = tracker.allocation_snapshot()
        assert snapshot["reconciled"] is True
        (dev,) = snapshot["devices"]
        assert dev["live_bytes"] == handle.nbytes
        assert dev["by_category"] == {"csr": handle.nbytes}
        device.free(handle)

    def test_flight_bundle_carries_allocation_table(self, powerlaw_graph):
        with obs.observe() as session:
            with track():
                device = Device()
                with alloc_scope("exchange", "test"):
                    device.alloc((64,), np.int64)
                bundle = session.flight.dump(trigger="test-oom")
        assert bundle["memory"] is not None
        (dev,) = bundle["memory"]["devices"]
        assert dev["by_category"] == {"exchange": 512}

    def test_flight_bundle_memory_is_none_without_tracker(self):
        with obs.observe() as session:
            bundle = session.flight.dump(trigger="no-tracker")
        assert bundle["memory"] is None


# ---------------------------------------------------------------------------
# Report rendering and the schema checker.
# ---------------------------------------------------------------------------
class TestReportAndChecker:
    def _report_for(self, graph):
        with track() as tracker:
            GLPEngine().run(graph, ClassicLP(), max_iterations=5)
            return tracker.report()

    def test_render_memory_report(self, powerlaw_graph):
        report = self._report_for(powerlaw_graph)
        text = render_memory_report(report)
        assert "reconciled: yes" in text
        assert "gpu0" in text
        assert "planner accuracy" in text

    def test_checker_accepts_real_report(
        self, schema_checker, powerlaw_graph, tmp_path
    ):
        path = tmp_path / "memory.json"
        path.write_text(json.dumps(self._report_for(powerlaw_graph)))
        schema_checker.check_memory(str(path))

    def test_checker_rejects_unreconciled_event(
        self, schema_checker, powerlaw_graph, tmp_path
    ):
        report = self._report_for(powerlaw_graph)
        report["devices"][0]["events"][0]["live_bytes"] += 1
        path = tmp_path / "memory.json"
        path.write_text(json.dumps(report))
        with pytest.raises(SystemExit):
            schema_checker.check_memory(str(path))

    def test_checker_rejects_unexplained_peak(
        self, schema_checker, powerlaw_graph, tmp_path
    ):
        report = self._report_for(powerlaw_graph)
        report["devices"][0]["peak_bytes"] += 4096
        path = tmp_path / "memory.json"
        path.write_text(json.dumps(report))
        with pytest.raises(SystemExit):
            schema_checker.check_memory(str(path))

    def test_bench_payload_gains_memory_block(self):
        from repro.bench.baseline import compare_payloads, run_scenario

        payload = run_scenario("dense_classic", mem_profile=True)
        assert payload["memory"]["reconciled"] is True
        rows = payload["memory"]["planner"]["accuracy"]
        assert rows and all(r["within_threshold"] for r in rows)
        # The memory block must not trip the perf gate.
        bare = dict(payload)
        del bare["memory"]
        assert compare_payloads(bare, payload, {
            "rel_tol_seconds": 0.05,
            "rel_tol_counters": 0.02,
            "rel_tol_ratio": 0.05,
        }) == []
