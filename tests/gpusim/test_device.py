"""Tests for device memory management, transfers and launch bookkeeping."""

import numpy as np
import pytest

from repro.errors import DeviceError, OutOfDeviceMemoryError
from repro.gpusim.config import DeviceSpec, TITAN_V, titan_v_scaled
from repro.gpusim.device import Device


@pytest.fixture
def tiny_device():
    return Device(TITAN_V.with_memory(1024))


class TestAllocation:
    def test_alloc_tracks_bytes(self, tiny_device):
        handle = tiny_device.alloc((10,), np.int64)
        assert tiny_device.allocated_bytes == 80
        assert tiny_device.free_bytes == 1024 - 80

    def test_alloc_over_capacity_raises(self, tiny_device):
        with pytest.raises(OutOfDeviceMemoryError):
            tiny_device.alloc((1000,), np.int64)

    def test_free_releases(self, tiny_device):
        handle = tiny_device.alloc((10,), np.int64)
        tiny_device.free(handle)
        assert tiny_device.allocated_bytes == 0
        assert handle.freed

    def test_double_free_is_noop(self, tiny_device):
        handle = tiny_device.alloc((10,), np.int64)
        tiny_device.free(handle)
        tiny_device.free(handle)
        assert tiny_device.allocated_bytes == 0

    def test_foreign_handle_rejected(self, tiny_device):
        other = Device(TITAN_V)
        handle = other.alloc((10,), np.int64)
        with pytest.raises(DeviceError):
            tiny_device.free(handle)

    def test_fragmentation_recovery(self, tiny_device):
        handles = [tiny_device.alloc((10,), np.int64) for _ in range(12)]
        for handle in handles:
            tiny_device.free(handle)
        big = tiny_device.alloc((128,), np.int64)
        assert big.nbytes == 1024

    def test_free_all(self, tiny_device):
        for _ in range(3):
            tiny_device.alloc((10,), np.int64)
        tiny_device.free_all()
        assert tiny_device.allocated_bytes == 0

    def test_zeros(self):
        device = Device()
        handle = device.zeros((5,), np.float64)
        assert np.all(handle.data == 0.0)


class TestTransfers:
    def test_h2d_copies_and_times(self):
        device = Device()
        host = np.arange(1000)
        handle = device.h2d(host)
        assert np.array_equal(handle.data, host)
        assert device.counters.h2d_bytes == host.nbytes
        assert device.transfer_seconds > 0
        # The device copy is independent of the host array.
        host[0] = 999
        assert handle.data[0] == 0

    def test_h2d_shares_read_only_owning_array(self):
        device = Device()
        host = np.arange(1000)
        host.setflags(write=False)
        handle = device.h2d(host)
        assert np.shares_memory(handle.data, host)
        assert np.array_equal(device.d2h(handle), host)

    def test_h2d_copies_read_only_view_of_writeable_base(self):
        device = Device()
        base = np.arange(1000)
        view = base[:500]
        view.setflags(write=False)
        handle = device.h2d(view)
        assert not np.shares_memory(handle.data, base)
        # Writes through the base must not reach the device copy.
        base[0] = 999
        assert handle.data[0] == 0

    def test_h2d_accounting_equal_for_shared_and_copied(self):
        from repro.obs.memory import track

        def upload(host):
            device = Device()
            with track() as tracker:
                device.h2d(host)
            # The tracker's device report holds its events and transfer
            # totals.
            return (
                device.counters.h2d_bytes,
                device.transfer_summary(),
                device.transfer_seconds,
                tracker.report()["devices"],
            )

        shared = np.arange(1000)
        shared.setflags(write=False)
        copied = np.arange(1000)
        assert upload(shared) == upload(copied)

    def test_d2h_roundtrip(self):
        device = Device()
        handle = device.h2d(np.arange(10))
        back = device.d2h(handle)
        assert np.array_equal(back, np.arange(10))
        assert device.counters.d2h_bytes == back.nbytes

    def test_d2h_freed_array_rejected(self):
        device = Device()
        handle = device.h2d(np.arange(10))
        device.free(handle)
        with pytest.raises(DeviceError):
            device.d2h(handle)

    def test_transfer_time_scales_with_bytes(self):
        device = Device()
        a = device.h2d(np.zeros(100))
        t_small = device.transfer_seconds
        device.h2d(np.zeros(100_000))
        assert device.transfer_seconds > 10 * t_small


class TestLaunchBookkeeping:
    def test_launch_records_timeline(self):
        device = Device()
        with device.launch("k1"):
            device.memory.load_sequential(1000, 8)
        with device.launch("k2"):
            device.counters.warp_instructions += 500
        assert [r.name for r in device.timeline] == ["k1", "k2"]
        assert device.kernel_seconds > 0
        assert device.counters.kernel_launches == 2

    def test_kernel_breakdown_accumulates(self):
        device = Device()
        for _ in range(3):
            with device.launch("same"):
                device.memory.load_sequential(10, 8)
        breakdown = device.kernel_breakdown()
        assert set(breakdown) == {"same"}
        assert breakdown["same"] == pytest.approx(device.kernel_seconds)

    def test_reset_timing(self):
        device = Device()
        with device.launch("k"):
            device.memory.load_sequential(10, 8)
        device.h2d(np.zeros(10))
        device.reset_timing()
        assert device.kernel_seconds == 0
        assert device.transfer_seconds == 0
        assert device.counters.kernel_launches == 0

    def test_discount_transfer_clamps_at_zero(self):
        device = Device()
        device.h2d(np.zeros(1000))
        device.discount_transfer(100.0)
        assert device.transfer_seconds == 0.0
        with pytest.raises(DeviceError):
            device.discount_transfer(-1.0)


class TestSpecs:
    def test_scaled_spec(self):
        spec = titan_v_scaled(0.001)
        assert spec.global_mem_bytes == int(TITAN_V.global_mem_bytes * 0.001)
        assert spec.mem_bandwidth == TITAN_V.mem_bandwidth

    def test_scaled_spec_rejects_nonpositive(self):
        with pytest.raises(DeviceError):
            titan_v_scaled(0.0)

    def test_spec_validation(self):
        with pytest.raises(DeviceError):
            DeviceSpec(warp_size=31)
        with pytest.raises(DeviceError):
            DeviceSpec(num_sms=0)

    def test_with_memory(self):
        spec = TITAN_V.with_memory(123)
        assert spec.global_mem_bytes == 123
        assert spec.name == TITAN_V.name
