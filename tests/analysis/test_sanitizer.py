"""Dynamic sanitizer tests against the seeded broken-kernel fixtures.

Every fixture hazard must be flagged with exact attribution (rule, kernel,
array, space, offset) and every ``fixed`` variant must come back clean —
the two halves of the racecheck contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import analysis
from repro.gpusim import hooks, warp
from repro.gpusim.config import DeviceSpec
from repro.gpusim.device import Device

from tests.analysis.fixtures import (
    broken_missing_barrier,
    broken_shared_counter,
)


def _report(device):
    report = device.sanitizer_report()
    assert report is not None
    return report


def _only(report, rule):
    matches = [f for f in report.findings if f.rule == rule]
    assert len(matches) == 1, report.to_text()
    return matches[0]


class TestBrokenSharedCounter:
    def test_non_atomic_counter_is_flagged(self):
        device = Device(sanitize=True)
        broken_shared_counter.run_broken_shared_counter(device)
        report = _report(device)
        assert report.has_hazards
        finding = _only(report, "racecheck-non-atomic-rmw")
        assert finding.kernel == "broken-shared-counter"
        assert finding.array == "counter"
        assert finding.space == "shared"
        assert finding.offset == 0
        # A sample of conflicting (warp, lane) actors is attached.
        assert finding.actors
        assert all(len(actor) == 2 for actor in finding.actors)

    def test_atomic_counter_is_clean(self):
        device = Device(sanitize=True)
        broken_shared_counter.run_fixed_shared_counter(device)
        assert _report(device).findings == []


class TestBrokenTile:
    def test_missing_barrier_is_flagged(self):
        device = Device(sanitize=True)
        broken_missing_barrier.run_broken_tile_kernel(device)
        report = _report(device)
        finding = _only(report, "racecheck-read-write")
        assert finding.kernel == "broken-tile"
        assert finding.array == "tile"
        assert finding.space == "shared"
        # All 32 tile words race; they fold into one finding.
        assert finding.count == broken_missing_barrier.TILE_WORDS

    def test_barrier_orders_the_phases(self):
        device = Device(sanitize=True)
        broken_missing_barrier.run_fixed_tile_kernel(device)
        assert _report(device).findings == []

    def test_oob_shared_index_is_flagged(self):
        device = Device(sanitize=True)
        broken_missing_barrier.run_oob_tile_kernel(device)
        finding = _only(_report(device), "racecheck-oob-shared")
        assert finding.kernel == "oob-tile"
        assert finding.array == "tile"
        assert finding.offset == broken_missing_barrier.TILE_WORDS


class TestSynccheck:
    def test_empty_mask_intrinsic_is_flagged(self):
        device = Device(sanitize=True)
        active = np.zeros((2, 32), dtype=bool)
        active[1, 0] = True
        with device.launch("empty-ballot"):
            warp.ballot_sync(active, active)
        finding = _only(_report(device), "synccheck-empty-mask")
        assert finding.kernel == "empty-ballot"
        assert finding.array == "ballot_sync"

    def test_barrier_divergence_is_flagged(self):
        device = Device(sanitize=True)
        with device.launch("divergent-barrier"):
            device.barrier(expected_warps=4, arrived_warps=3)
        finding = _only(_report(device), "synccheck-barrier-divergence")
        assert finding.kernel == "divergent-barrier"

    def test_warp_reduce_max_empty_rows_are_supported(self):
        # Empty-active warps are documented to return the fill value, so
        # the sanitizer must NOT treat them like the *_sync intrinsics.
        device = Device(sanitize=True)
        values = np.arange(64, dtype=np.int64).reshape(2, 32)
        with device.launch("reduce-fill"):
            warp.warp_reduce_max(np.zeros((2, 32), dtype=bool), values, -1)
        assert _report(device).findings == []


class TestScoping:
    def test_unnamed_traffic_is_never_checked(self):
        device = Device()
        with device.launch("unsanitized"):
            device.memory.load_sequential(128, 8)
        assert device.sanitizer_report() is None

    def test_per_launch_opt_in(self):
        device = Device()
        with device.launch("opted-in", sanitize=True):
            device.barrier(expected_warps=2, arrived_warps=1)
        assert _report(device).has_hazards

    def test_per_launch_opt_out_under_session(self):
        with analysis.sanitize() as session:
            device = Device()
            with device.launch("opted-out", sanitize=False):
                device.barrier(expected_warps=2, arrived_warps=1)
        assert session.report().findings == []

    def test_spec_level_opt_in(self):
        device = Device(DeviceSpec(sanitize=True))
        broken_shared_counter.run_broken_shared_counter(device)
        assert _report(device).has_hazards

    def test_ambient_session_spans_devices(self):
        with analysis.sanitize() as session:
            broken_shared_counter.run_broken_shared_counter(Device())
            broken_missing_barrier.run_broken_tile_kernel(Device())
        report = session.report()
        assert report.checked == 2
        rules = set(report.counts_by_rule())
        assert "racecheck-non-atomic-rmw" in rules
        assert "racecheck-read-write" in rules

    def test_sanitize_restores_previous_session(self):
        with analysis.sanitize() as outer:
            with analysis.sanitize() as inner:
                assert hooks.SESSION.get() is inner
            assert hooks.SESSION.get() is outer
        assert hooks.SESSION.get() is None


def test_report_serialization_roundtrip(tmp_path):
    import json

    device = Device(sanitize=True)
    broken_shared_counter.run_broken_shared_counter(device)
    report = _report(device)
    path = tmp_path / "report.json"
    report.write(str(path))
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == analysis.SCHEMA_VERSION
    assert doc["source"] == "sanitizer"
    assert doc["num_errors"] == len(report.errors)
    assert doc["findings"][0]["rule"] in analysis.RULES
