"""Tests for the global-memory coalescing model."""

import tracemalloc

import numpy as np
import pytest

from repro.gpusim import hooks
from repro.gpusim.config import DeviceSpec
from repro.gpusim.counters import PerfCounters
from repro.gpusim.memory import (
    GlobalMemoryModel,
    count_sector_transactions,
    default_warp_ids,
)


@pytest.fixture
def model():
    counters = PerfCounters()
    return GlobalMemoryModel(DeviceSpec(), counters), counters


class TestSectorCounting:
    def test_fully_coalesced_warp(self):
        # 32 consecutive 8-byte words = 256 bytes = 8 sectors of 32B.
        addresses = np.arange(32) * 8
        warps = np.zeros(32, dtype=np.int64)
        assert count_sector_transactions(addresses, warps, 32) == 8

    def test_fully_scattered_warp(self):
        # Each lane hits its own sector: 32 transactions.
        addresses = np.arange(32) * 4096
        warps = np.zeros(32, dtype=np.int64)
        assert count_sector_transactions(addresses, warps, 32) == 32

    def test_same_address_broadcast(self):
        addresses = np.zeros(32, dtype=np.int64)
        warps = np.zeros(32, dtype=np.int64)
        assert count_sector_transactions(addresses, warps, 32) == 1

    def test_two_warps_do_not_coalesce_together(self):
        addresses = np.zeros(64, dtype=np.int64)
        warps = np.concatenate([np.zeros(32), np.ones(32)]).astype(np.int64)
        assert count_sector_transactions(addresses, warps, 32) == 2

    def test_empty(self):
        assert count_sector_transactions(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 32
        ) == 0

    def test_huge_warp_ids_no_overflow(self):
        # Warp-step keys reach 2^40+; counting must not overflow.
        addresses = np.array([0, 0, 32, 32], dtype=np.int64)
        warps = np.array([1 << 45, 1 << 45, 1 << 45, 1 << 50], dtype=np.int64)
        assert count_sector_transactions(addresses, warps, 32) == 3

    def test_default_warp_ids(self):
        ids = default_warp_ids(70, 32)
        assert ids[0] == 0 and ids[31] == 0
        assert ids[32] == 1 and ids[69] == 2


class TestGlobalMemoryModel:
    def test_sequential_load_rounds_up(self, model):
        mem, counters = model
        assert mem.load_sequential(1, 8) == 1  # partial sector
        assert counters.global_load_transactions == 1

    def test_sequential_load_bulk(self, model):
        mem, counters = model
        transactions = mem.load_sequential(1000, 8)
        assert transactions == 250  # 8000 B / 32 B
        assert counters.global_load_transactions == 250

    def test_sequential_store(self, model):
        mem, counters = model
        mem.store_sequential(4, 8)
        assert counters.global_store_transactions == 1
        assert counters.global_load_transactions == 0

    def test_gather_counts_actual_sectors(self, model):
        mem, counters = model
        # Gather of consecutive indices = coalesced.
        coalesced = mem.load_gather(np.arange(32), 8)
        counters.reset()
        scattered = mem.load_gather(np.arange(32) * 1000, 8)
        assert scattered > coalesced

    def test_zero_elements(self, model):
        mem, counters = model
        assert mem.load_sequential(0, 8) == 0
        assert mem.load_gather(np.empty(0, dtype=np.int64), 8) == 0

    def test_load_segments(self, model):
        mem, counters = model
        # Two segments of 4 x 8B starting at aligned offsets: 1 sector each.
        n = mem.load_segments(
            np.array([0, 100]), np.array([4, 4]), 8
        )
        # Segment at element 100 -> byte 800, spans sector 25 only.
        assert n == 2

    def test_load_segments_unaligned_spans_two_sectors(self, model):
        mem, _ = model
        # 4 elements of 8B starting at element 3 -> bytes 24..56: sectors 0,1.
        n = mem.load_segments(np.array([3]), np.array([4]), 8)
        assert n == 2

    def test_load_segments_empty_segment_free(self, model):
        mem, _ = model
        assert mem.load_segments(np.array([5]), np.array([0]), 8) == 0


class _Listener:
    """A sanitizer stand-in that keeps every access it is shown."""

    def __init__(self):
        self.accesses = []

    def record(self, space, array, offsets, *, kind, warp_ids=None):
        self.accesses.append((space, array, np.array(offsets), kind))


class TestSequentialSanitizerOffsets:
    """Sequential accesses build their O(n) sanitizer offsets only when a
    sanitizer listens."""

    N = 10**6

    def _peak_growth(self, access):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            access()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("method", ["load_sequential", "store_sequential"])
    def test_no_offsets_without_a_sanitizer(self, model, method):
        mem, _ = model
        access = getattr(mem, method)
        assert hooks.ACTIVE.get() is None
        growth = self._peak_growth(lambda: access(self.N, 8, array="labels"))
        assert growth < 64 * 1024
        # The control: a listener makes the access build its offsets.
        with hooks.installed(hooks.ACTIVE, _Listener()):
            growth = self._peak_growth(
                lambda: access(self.N, 8, array="labels")
            )
        assert growth >= self.N * 8

    def test_sanitized_run_records_the_same_offsets(self, model):
        mem, _ = model
        with hooks.installed(hooks.ACTIVE, _Listener()) as listener:
            mem.load_sequential(70, 8, array="labels")
            mem.store_sequential(33, 4, array="best-labels")
            mem.load_sequential(50, 8)  # unnamed: accounting only
            mem.store_sequential(0, 8, array="labels")  # empty: nothing
        assert [(a[0], a[1], a[3]) for a in listener.accesses] == [
            ("global", "labels", "read"),
            ("global", "best-labels", "write"),
        ]
        assert np.array_equal(listener.accesses[0][2], np.arange(70))
        assert np.array_equal(listener.accesses[1][2], np.arange(33))

    @pytest.mark.parametrize("num_elements", [0, 1, 31, 32, 1000, 10**6])
    def test_transactions_do_not_depend_on_a_listener(self, num_elements):
        counts = []
        for listener in (None, _Listener()):
            counters = PerfCounters()
            mem = GlobalMemoryModel(DeviceSpec(), counters)
            with hooks.installed(hooks.ACTIVE, listener):
                returned = (
                    mem.load_sequential(num_elements, 8, array="labels"),
                    mem.store_sequential(num_elements, 4, array="labels"),
                )
            counts.append(
                (
                    returned,
                    counters.global_load_transactions,
                    counters.global_store_transactions,
                )
            )
        assert counts[0] == counts[1]
        expected = (-(-num_elements * 8 // 32), -(-num_elements * 4 // 32))
        assert counts[0] == (expected, *expected)
