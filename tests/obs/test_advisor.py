"""Tests for the roofline bottleneck advisor.

The load-bearing property is *exact attribution*: per kernel, the six
cause buckets must sum to the kernel's modeled seconds (ISSUE acceptance:
within 1e-9), and the advisor's totals must reconcile with the profiler
over the same timeline.  The synthetic tests then pin each verdict to a
hand-built launch record, and the identity test proves that building a
report never perturbs an engine run.
"""

import numpy as np
import pytest

from repro import obs
from repro.algorithms import ClassicLP
from repro.core.framework import GLPEngine
from repro.core.multigpu import MultiGPUEngine
from repro.errors import ObservabilityError
from repro.gpusim.config import TITAN_V
from repro.gpusim.counters import PerfCounters
from repro.gpusim.device import Device
from repro.gpusim.timing import KernelTiming
from repro.obs.advisor import (
    CAUSE_KEYS,
    KERNEL_VERDICTS,
    AdvisorReport,
    attribute_launch,
)
from repro.obs.profile import ProfileReport


@pytest.fixture()
def engine_and_report(powerlaw_graph):
    engine = GLPEngine()
    engine.run(
        powerlaw_graph,
        ClassicLP(),
        max_iterations=6,
        stop_on_convergence=False,
    )
    return engine, AdvisorReport.from_engine(engine)


class TestExactAttribution:
    def test_causes_sum_to_kernel_seconds(self, engine_and_report):
        _, report = engine_and_report
        assert report.kernels
        for kernel in report.kernels:
            assert sum(kernel.causes.values()) == pytest.approx(
                kernel.seconds, abs=1e-9
            )

    def test_reconciles_with_profiler(self, engine_and_report):
        engine, report = engine_and_report
        profile = ProfileReport.from_engine(engine)
        assert report.kernel_seconds == pytest.approx(
            profile.kernel_seconds, abs=1e-12
        )
        by_name = {row.name: row for row in profile.rows}
        for kernel in report.kernels:
            assert kernel.seconds == pytest.approx(
                by_name[kernel.name].seconds, abs=1e-12
            )
            assert kernel.launches == by_name[kernel.name].launches

    def test_total_causes_sum_to_total_seconds(self, engine_and_report):
        _, report = engine_and_report
        assert sum(report.total_causes().values()) == pytest.approx(
            report.kernel_seconds, abs=1e-9
        )

    def test_every_launch_attributes_exactly(self, engine_and_report):
        engine, _ = engine_and_report
        for record in engine.device.timeline:
            causes = attribute_launch(
                record.timing, record.counters, engine.device.spec
            )
            assert set(causes) == set(CAUSE_KEYS)
            assert sum(causes.values()) == pytest.approx(
                record.timing.total_seconds, rel=1e-12
            )


def _timing(spec, counters, *, memory_seconds=0.0):
    """Roofline timing for hand-built counters (compute side exact)."""
    compute_cycles = (
        counters.warp_instructions
        + (counters.shared_load_ops + counters.shared_store_ops) / 32
        + counters.shared_bank_conflicts
        + counters.shared_atomic_serialized_ops
        * spec.shared_atomic_cost_cycles
        + counters.global_atomic_serialized_ops
        * spec.global_atomic_cost_cycles
    )
    return KernelTiming(
        compute_seconds=compute_cycles / spec.warp_throughput,
        memory_seconds=memory_seconds,
        launch_overhead=spec.kernel_launch_overhead,
    )


class TestSyntheticVerdicts:
    """Each verdict from a launch built to exhibit exactly that cause."""

    spec = TITAN_V

    def attribute(self, counters, *, memory_seconds=0.0):
        timing = _timing(self.spec, counters, memory_seconds=memory_seconds)
        causes = attribute_launch(timing, counters, self.spec)
        assert sum(causes.values()) == pytest.approx(
            timing.total_seconds, rel=1e-12
        )
        return max(CAUSE_KEYS, key=lambda c: causes[c]), causes

    def test_memory_bound(self):
        counters = PerfCounters(
            warp_instructions=10, active_lane_sum=320
        )
        dominant, _ = self.attribute(counters, memory_seconds=1e-3)
        assert dominant == "global_memory"

    def test_compute_bound(self):
        counters = PerfCounters(
            warp_instructions=10**9, active_lane_sum=32 * 10**9
        )
        dominant, causes = self.attribute(counters)
        assert dominant == "compute_issue"
        assert causes["divergence"] == pytest.approx(0.0, abs=1e-15)

    def test_divergence_bound(self):
        # Packed warps would need ~3% of these issue slots: almost all
        # lanes idle.
        counters = PerfCounters(
            warp_instructions=10**9, active_lane_sum=10**9
        )
        dominant, _ = self.attribute(counters)
        assert dominant == "divergence"

    def test_conflict_bound(self):
        counters = PerfCounters(
            warp_instructions=10**6,
            active_lane_sum=32 * 10**6,
            shared_bank_conflicts=10**9,
        )
        dominant, _ = self.attribute(counters)
        assert dominant == "bank_conflicts"

    def test_atomic_bound(self):
        counters = PerfCounters(
            warp_instructions=10**6,
            active_lane_sum=32 * 10**6,
            global_atomic_serialized_ops=10**8,
        )
        dominant, _ = self.attribute(counters)
        assert dominant == "atomics"

    def test_latency_bound(self):
        counters = PerfCounters(warp_instructions=1, active_lane_sum=32)
        dominant, _ = self.attribute(counters)
        assert dominant == "launch_overhead"


class TestVerdictsAndFindings:
    def test_verdicts_in_enum(self, engine_and_report):
        _, report = engine_and_report
        verdicts = report.verdicts()
        assert verdicts
        assert set(verdicts.values()) <= KERNEL_VERDICTS

    def test_findings_ranked_by_severity(self, engine_and_report):
        _, report = engine_and_report
        severities = [f.severity for f in report.findings]
        assert severities == sorted(severities, reverse=True)

    def test_every_finding_has_hint(self, engine_and_report):
        _, report = engine_and_report
        assert report.findings
        for finding in report.findings:
            assert finding.hint
            assert finding.kernel
            assert finding.message

    def test_to_dict_round_trips_json(self, engine_and_report):
        import json

        _, report = engine_and_report
        doc = json.loads(report.to_json())
        assert doc["kernels"]
        for kernel in doc["kernels"]:
            assert sum(kernel["causes"].values()) == pytest.approx(
                kernel["seconds"], abs=1e-9
            )

    def test_to_text_renders(self, engine_and_report):
        _, report = engine_and_report
        text = report.to_text(top=2)
        assert "roofline bottleneck advisor" in text
        assert "findings" in text


class TestEdgeCases:
    def test_empty_device(self):
        report = AdvisorReport.from_devices([Device(TITAN_V)])
        assert report.kernels == []
        assert report.findings == []
        assert report.transfer_fraction == 0.0
        assert "no kernel launches" in report.to_text()

    def test_no_devices_rejected(self):
        with pytest.raises(ObservabilityError):
            AdvisorReport.from_devices([])

    def test_engine_without_device_rejected(self):
        with pytest.raises(ObservabilityError):
            AdvisorReport.from_engine(object())

    def test_multigpu_engine(self, powerlaw_graph):
        engine = MultiGPUEngine(2)
        engine.run(
            powerlaw_graph,
            ClassicLP(),
            max_iterations=3,
            stop_on_convergence=False,
        )
        report = AdvisorReport.from_engine(engine)
        assert report.num_devices == 2
        for kernel in report.kernels:
            assert sum(kernel.causes.values()) == pytest.approx(
                kernel.seconds, abs=1e-9
            )


class TestAdvisorIdentity:
    def test_building_report_changes_nothing(self, powerlaw_graph):
        engine_plain = GLPEngine()
        baseline = engine_plain.run(
            powerlaw_graph,
            ClassicLP(),
            max_iterations=5,
            stop_on_convergence=False,
        )
        engine_advised = GLPEngine()
        with obs.observe():
            advised = engine_advised.run(
                powerlaw_graph,
                ClassicLP(),
                max_iterations=5,
                stop_on_convergence=False,
            )
            AdvisorReport.from_engine(engine_advised)
        assert np.array_equal(baseline.labels, advised.labels)
        assert baseline.total_seconds == advised.total_seconds
        assert (
            baseline.total_counters.as_dict()
            == advised.total_counters.as_dict()
        )
