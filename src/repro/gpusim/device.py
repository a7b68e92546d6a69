"""The simulated GPU device: allocations, transfers and kernel bookkeeping.

A :class:`Device` owns

* a capacity-checked allocation table (:class:`DeviceArray` handles),
* the accounting models (global memory, shared memory, atomics),
* a :class:`~repro.gpusim.counters.PerfCounters` instance, and
* a timeline of kernel launches with per-launch timing breakdowns.

Kernels run inside ``with device.launch("kernel-name"):`` blocks; the device
snapshots counters on entry and converts the delta into elapsed time on exit
via the roofline model.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import DeviceError, OutOfDeviceMemoryError
from repro.gpusim import hooks
from repro.gpusim.atomics import AtomicsModel
from repro.gpusim.config import TITAN_V, DeviceSpec
from repro.gpusim.counters import PerfCounters
from repro.gpusim.memory import GlobalMemoryModel
from repro.gpusim.sharedmem import SharedMemoryModel
from repro.gpusim.timing import KernelTiming, kernel_time, transfer_time


def _immutable(array: np.ndarray) -> bool:
    """Whether ``array`` and every array in its ``.base`` chain are
    read-only — so nothing can write its memory.  A read-only view of a
    writeable array (or of a non-numpy buffer) does not qualify."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return array is None


@dataclass
class DeviceArray:
    """Handle to a device-resident array.

    The payload is an ordinary numpy array (the simulator executes on the
    host), but the handle tracks residency so capacity checks and transfer
    accounting behave like the real device.
    """

    data: np.ndarray
    device: "Device" = field(repr=False)
    freed: bool = False
    #: Semantic allocation category (csr, labels, frontier, ...) captured
    #: from the ambient :data:`repro.gpusim.hooks.MEMSCOPE` at allocation.
    category: str = "scratch"
    #: The engine scope that made the allocation (e.g. ``glp.residency``).
    origin: str = ""

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def _check_alive(self) -> None:
        if self.freed:
            where = f" from {self.origin}" if self.origin else ""
            raise DeviceError(
                f"use of freed DeviceArray "
                f"(category={self.category!r}{where}, "
                f"{self.nbytes} B, shape={tuple(self.shape)})"
            )


@dataclass(frozen=True)
class LaunchRecord:
    """One entry of the device timeline."""

    name: str
    timing: KernelTiming
    counters: PerfCounters

    @property
    def seconds(self) -> float:
        return self.timing.total_seconds


class Device:
    """A simulated GPU."""

    def __init__(
        self,
        spec: DeviceSpec = TITAN_V,
        *,
        index: int = 0,
        sanitize: Optional[bool] = None,
        sanitizer=None,
    ) -> None:
        self.spec = spec
        self.index = index
        # Sanitizer attachment: device-level default (spec.sanitize or the
        # constructor override), an explicitly-supplied Sanitizer, or —
        # resolved per launch — the ambient repro.analysis session.
        self._sanitize = spec.sanitize if sanitize is None else bool(sanitize)
        self._sanitizer = sanitizer
        self.counters = PerfCounters()
        self.memory = GlobalMemoryModel(spec, self.counters)
        self.shared = SharedMemoryModel(spec, self.counters)
        self.atomics = AtomicsModel(spec, self.counters)
        self._allocated_bytes = 0
        self._peak_allocated_bytes = 0
        self._live_arrays: Dict[int, DeviceArray] = {}
        self.timeline: List[LaunchRecord] = []
        self._transfer_seconds = 0.0
        # Per-direction transfer accounting for the nvprof-style report
        # (raw modeled seconds, before any hybrid overlap credit).  Bytes
        # are accumulated here too — not read back from PerfCounters — so
        # counts, bytes and seconds always reset together and
        # transfer_summary() stays internally consistent.
        self._h2d_count = 0
        self._h2d_bytes = 0
        self._h2d_seconds = 0.0
        self._d2h_count = 0
        self._d2h_bytes = 0
        self._d2h_seconds = 0.0

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------
    @property
    def allocated_bytes(self) -> int:
        return self._allocated_bytes

    @property
    def peak_allocated_bytes(self) -> int:
        """High-water mark of :attr:`allocated_bytes` since the last reset."""
        return self._peak_allocated_bytes

    @property
    def free_bytes(self) -> int:
        return self.spec.global_mem_bytes - self._allocated_bytes

    def alloc(self, shape, dtype) -> DeviceArray:
        """Allocate an uninitialized device array."""
        data = np.empty(shape, dtype=dtype)
        return self._register(data)

    def zeros(self, shape, dtype) -> DeviceArray:
        """Allocate a zero-initialized device array."""
        data = np.zeros(shape, dtype=dtype)
        return self._register(data)

    def _register(self, data: np.ndarray, *, kind: str = "alloc") -> DeviceArray:
        injector = hooks.FAULTS.get()
        if injector is not None:
            injector.on_alloc(self.index, data.nbytes)
        if data.nbytes > self.free_bytes:
            tracker = hooks.MEMORY.get()
            if tracker is not None:
                tracker.on_oom(self, data.nbytes)
            raise OutOfDeviceMemoryError(
                f"allocation of {data.nbytes} B exceeds free device memory "
                f"({self.free_bytes} of {self.spec.global_mem_bytes} B)"
            )
        scope = hooks.MEMSCOPE.get()
        if scope is not None:
            handle = DeviceArray(
                data=data, device=self, category=scope[0], origin=scope[1]
            )
        else:
            handle = DeviceArray(data=data, device=self)
        self._allocated_bytes += data.nbytes
        if self._allocated_bytes > self._peak_allocated_bytes:
            self._peak_allocated_bytes = self._allocated_bytes
        self._live_arrays[id(handle)] = handle
        tracker = hooks.MEMORY.get()
        if tracker is not None:
            tracker.on_alloc(self, handle, kind)
        return handle

    def free(self, handle: DeviceArray) -> None:
        """Release a device array."""
        if handle.freed:
            return
        if id(handle) not in self._live_arrays:
            raise DeviceError("array does not belong to this device")
        del self._live_arrays[id(handle)]
        self._allocated_bytes -= handle.nbytes
        handle.freed = True
        tracker = hooks.MEMORY.get()
        if tracker is not None:
            tracker.on_free(self, handle)

    def live_allocations(self) -> List[DeviceArray]:
        """Snapshot of the live allocation table (insertion order)."""
        return list(self._live_arrays.values())

    def free_all(self) -> int:
        """Release every live allocation; return the bytes it freed."""
        released = 0
        count = 0
        for handle in list(self._live_arrays.values()):
            released += handle.nbytes
            count += 1
            self.free(handle)
        tracker = hooks.MEMORY.get()
        if tracker is not None:
            tracker.on_free_all(self, released, count)
        return released

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def h2d(self, host_array: np.ndarray) -> DeviceArray:
        """Copy a host array onto the device (PCIe-timed).

        An immutable array is registered as it is instead of copied: no
        reference can write it, so the simulated device copy could never
        differ from it.  Accounting is the same either way.
        """
        injector = hooks.FAULTS.get()
        if injector is not None:
            injector.on_transfer(self.index, host_array.nbytes, "h2d")
        host_array = np.ascontiguousarray(host_array)
        handle = self._register(
            host_array if _immutable(host_array) else host_array.copy(),
            kind="h2d",
        )
        seconds = transfer_time(host_array.nbytes, self.spec)
        self._record_memcpy("[memcpy HtoD]", host_array.nbytes, seconds)
        self.counters.h2d_bytes += host_array.nbytes
        self._transfer_seconds += seconds
        self._h2d_count += 1
        self._h2d_bytes += host_array.nbytes
        self._h2d_seconds += seconds
        tracker = hooks.MEMORY.get()
        if tracker is not None:
            tracker.on_transfer(
                self, "h2d", host_array.nbytes, seconds, streamed=False
            )
        return handle

    def d2h(self, handle: DeviceArray) -> np.ndarray:
        """Copy a device array back to the host (PCIe-timed)."""
        handle._check_alive()
        injector = hooks.FAULTS.get()
        if injector is not None:
            injector.on_transfer(self.index, handle.nbytes, "d2h")
        seconds = transfer_time(handle.nbytes, self.spec)
        self._record_memcpy("[memcpy DtoH]", handle.nbytes, seconds)
        self.counters.d2h_bytes += handle.nbytes
        self._transfer_seconds += seconds
        self._d2h_count += 1
        self._d2h_bytes += handle.nbytes
        self._d2h_seconds += seconds
        tracker = hooks.MEMORY.get()
        if tracker is not None:
            tracker.on_transfer(
                self, "d2h", handle.nbytes, seconds, streamed=False
            )
        return handle.data.copy()

    def _record_memcpy(self, name: str, nbytes: int, seconds: float) -> None:
        """Emit a modeled-clock memcpy span when tracing is active."""
        active = obs.tracer()
        if active is not None:
            active.device_span(
                self.index,
                name,
                self.kernel_seconds + self._transfer_seconds,
                seconds,
                cat="memcpy",
                args={"bytes": int(nbytes)},
            )

    def stream_to_device(self, nbytes: int) -> None:
        """Account an H2D stream that leaves no allocation behind.

        The hybrid engine ships per-iteration label deltas this way: the
        bytes cross PCIe (and are timed) but never live in the allocation
        table.
        """
        injector = hooks.FAULTS.get()
        if injector is not None:
            injector.on_transfer(self.index, nbytes, "h2d")
        seconds = transfer_time(nbytes, self.spec)
        self._record_memcpy("[memcpy HtoD]", nbytes, seconds)
        self.counters.h2d_bytes += nbytes
        self._transfer_seconds += seconds
        self._h2d_count += 1
        self._h2d_bytes += nbytes
        self._h2d_seconds += seconds
        tracker = hooks.MEMORY.get()
        if tracker is not None:
            tracker.on_transfer(self, "h2d", nbytes, seconds, streamed=True)

    def stream_to_host(self, nbytes: int) -> None:
        """Account a D2H stream that reads no allocation (label deltas)."""
        injector = hooks.FAULTS.get()
        if injector is not None:
            injector.on_transfer(self.index, nbytes, "d2h")
        seconds = transfer_time(nbytes, self.spec)
        self._record_memcpy("[memcpy DtoH]", nbytes, seconds)
        self.counters.d2h_bytes += nbytes
        self._transfer_seconds += seconds
        self._d2h_count += 1
        self._d2h_bytes += nbytes
        self._d2h_seconds += seconds
        tracker = hooks.MEMORY.get()
        if tracker is not None:
            tracker.on_transfer(self, "d2h", nbytes, seconds, streamed=True)

    def transfer_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-direction transfer totals (count, bytes, raw seconds).

        All three fields per direction are accumulated by the same
        code paths and reset together by :meth:`reset_timing`, so they
        reconcile exactly against any external transfer journal (bytes
        used to be read from :class:`PerfCounters`, which resets on a
        different schedule — ``reset_timing(reset_counters=False)`` left
        counts and bytes describing different sets of transfers).
        """
        return {
            "h2d": {
                "count": self._h2d_count,
                "bytes": self._h2d_bytes,
                "seconds": self._h2d_seconds,
            },
            "d2h": {
                "count": self._d2h_count,
                "bytes": self._d2h_bytes,
                "seconds": self._d2h_seconds,
            },
        }

    # ------------------------------------------------------------------
    # Kernel bookkeeping
    # ------------------------------------------------------------------
    def _resolve_sanitizer(self, sanitize: Optional[bool]):
        """The sanitizer this launch should attach to, or ``None``.

        ``sanitize=False`` opts a launch out entirely; otherwise the
        device's own sanitizer wins, one is created lazily when sanitizing
        was requested, and the ambient ``repro.analysis`` session is the
        fallback.
        """
        if sanitize is False:
            return None
        if self._sanitizer is not None:
            return self._sanitizer
        if sanitize or self._sanitize:
            # Imported lazily: gpusim must stay loadable without the
            # analysis package.
            from repro.analysis.sanitizer import Sanitizer

            self._sanitizer = Sanitizer(
                warp_size=self.spec.warp_size,
                num_banks=self.spec.num_shared_banks,
            )
            return self._sanitizer
        return hooks.SESSION.get()

    def sanitizer_report(self):
        """This device's sanitizer report, or ``None`` if never sanitized."""
        if self._sanitizer is None:
            return None
        return self._sanitizer.report()

    def barrier(
        self,
        *,
        expected_warps: Optional[int] = None,
        arrived_warps: Optional[int] = None,
    ) -> None:
        """Mark a block-wide ``__syncthreads`` for the sanitizer.

        Zero-cost: barriers are already folded into the timing model's
        per-phase costs, so this only advances the sanitizer's
        happens-before epoch (and checks divergence when arrival counts
        are supplied).  A no-op when no sanitizer is attached.
        """
        active = hooks.ACTIVE.get()
        if active is not None:
            active.barrier(
                expected_warps=expected_warps, arrived_warps=arrived_warps
            )

    @contextlib.contextmanager
    def launch(
        self, name: str, *, sanitize: Optional[bool] = None
    ) -> Iterator[PerfCounters]:
        """Run a kernel body; time it from the counter delta on exit."""
        injector = hooks.FAULTS.get()
        if injector is not None:
            injector.on_launch(self.index, name)
        snapshot = self.counters.copy()
        self.counters.kernel_launches += 1
        san = self._resolve_sanitizer(sanitize)
        if san is not None:
            san.begin_kernel(name, device_index=self.index)
        try:
            with hooks.installed(hooks.ACTIVE, san):
                yield self.counters
        finally:
            if san is not None:
                san.end_kernel()
        delta = self.counters.delta_since(snapshot)
        timing = kernel_time(delta, self.spec)
        active = obs.tracer()
        if active is not None:
            # Kernel spans live on the modeled clock: this launch starts
            # where the device's accumulated modeled time currently ends.
            active.device_span(
                self.index,
                name,
                self.kernel_seconds + self._transfer_seconds,
                timing.total_seconds,
                cat="kernel",
                args={
                    "global_transactions": delta.global_transactions,
                    "lane_utilization": round(delta.lane_utilization, 4),
                    "memory_bound": timing.memory_bound,
                },
            )
        self.timeline.append(
            LaunchRecord(name=name, timing=timing, counters=delta)
        )

    # ------------------------------------------------------------------
    # Timing queries
    # ------------------------------------------------------------------
    @property
    def kernel_seconds(self) -> float:
        """Total modeled kernel time since the last reset."""
        return sum(record.seconds for record in self.timeline)

    @property
    def transfer_seconds(self) -> float:
        """Total modeled PCIe transfer time since the last reset."""
        return self._transfer_seconds

    @property
    def elapsed_seconds(self) -> float:
        """Kernel + transfer time (the paper's "elapsed time" metric)."""
        return self.kernel_seconds + self._transfer_seconds

    def kernel_breakdown(self) -> Dict[str, float]:
        """Per-kernel-name cumulative seconds."""
        breakdown: Dict[str, float] = {}
        for record in self.timeline:
            breakdown[record.name] = (
                breakdown.get(record.name, 0.0) + record.seconds
            )
        return breakdown

    def reset_timing(self, *, reset_counters: bool = True) -> None:
        """Clear the timeline (and optionally counters) for a fresh run."""
        self.timeline.clear()
        self._transfer_seconds = 0.0
        self._h2d_count = 0
        self._h2d_bytes = 0
        self._h2d_seconds = 0.0
        self._d2h_count = 0
        self._d2h_bytes = 0
        self._d2h_seconds = 0.0
        # A fresh run measures its own high-water mark on top of whatever
        # is still resident (normally nothing — engines free on exit).
        self._peak_allocated_bytes = self._allocated_bytes
        if reset_counters:
            self.counters.reset()

    def discount_transfer(self, seconds: float) -> None:
        """Remove overlapped transfer time (hybrid-mode copy/compute overlap).

        The hybrid engine overlaps PCIe copies with kernel execution; it
        calls this to credit back the hidden portion.
        """
        if seconds < 0:
            raise DeviceError("overlap credit must be non-negative")
        self._transfer_seconds = max(0.0, self._transfer_seconds - seconds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Device(index={self.index}, spec={self.spec.name!r}, "
            f"allocated={self._allocated_bytes}B)"
        )
