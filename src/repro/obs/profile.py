"""nvprof-style per-kernel profiler report over the device timeline.

Every :meth:`Device.launch` already records a
:class:`~repro.gpusim.device.LaunchRecord` with the launch's counter delta
and roofline timing; this module aggregates those records into the table
``nvprof --print-gpu-summary`` would print on real hardware:

====================  =================================================
``launches``          kernel launch count
``seconds``           total modeled kernel time (sums to the run's
                      kernel time exactly — the timeline *is* the run)
``avg/min/max``       per-launch modeled time spread
``global_txn``        global-memory sector transactions (32 B)
``lane_utilization``  SIMT lane occupancy, launch-weighted
``bank_conflicts``    shared-memory bank-conflict replays
``atomic_serialized`` serialized atomic ops (global + shared)
====================  =================================================

PCIe memcpys appear as bracketed pseudo-rows (``[memcpy HtoD]``), exactly
like nvprof, listed in a separate section so the kernel section's time
column still reconciles against :attr:`LPResult.total_seconds`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ObservabilityError
from repro.gpusim.counters import PerfCounters

#: Bump when the JSON export changes incompatibly.
SCHEMA_VERSION = 1

#: Columns ``--sort-by`` accepts, mapped to row attributes.
SORT_KEYS = {
    "time": "seconds",
    "launches": "launches",
    "transactions": "global_transactions",
    "bank_conflicts": "shared_bank_conflicts",
    "atomics": "atomic_serialized_ops",
    "name": "name",
}


@dataclass
class KernelRow:
    """Aggregated statistics of every launch sharing one kernel name."""

    name: str
    launches: int = 0
    seconds: float = 0.0
    min_seconds: float = float("inf")
    max_seconds: float = 0.0
    counters: PerfCounters = field(default_factory=PerfCounters)

    def accumulate(self, seconds: float, counters: PerfCounters) -> None:
        self.launches += 1
        self.seconds += seconds
        self.min_seconds = min(self.min_seconds, seconds)
        self.max_seconds = max(self.max_seconds, seconds)
        self.counters.add(counters)

    @property
    def avg_seconds(self) -> float:
        return self.seconds / self.launches if self.launches else 0.0

    @property
    def global_transactions(self) -> int:
        return self.counters.global_transactions

    @property
    def lane_utilization(self) -> float:
        return self.counters.lane_utilization

    @property
    def shared_bank_conflicts(self) -> int:
        return self.counters.shared_bank_conflicts

    @property
    def atomic_serialized_ops(self) -> int:
        return (
            self.counters.global_atomic_serialized_ops
            + self.counters.shared_atomic_serialized_ops
        )

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "launches": self.launches,
            "seconds": self.seconds,
            "avg_seconds": self.avg_seconds,
            "min_seconds": 0.0 if self.launches == 0 else self.min_seconds,
            "max_seconds": self.max_seconds,
            "global_transactions": self.global_transactions,
            "lane_utilization": self.lane_utilization,
            "shared_bank_conflicts": self.shared_bank_conflicts,
            "atomic_serialized_ops": self.atomic_serialized_ops,
            "counters": self.counters.as_dict(include_derived=True),
        }


@dataclass(frozen=True)
class MemcpyRow:
    """One PCIe transfer direction, aggregated (nvprof's bracketed rows)."""

    name: str
    count: int
    bytes: int
    seconds: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "bytes": self.bytes,
            "seconds": self.seconds,
        }


class ProfileReport:
    """Per-kernel aggregation of one or more devices' launch timelines."""

    def __init__(
        self,
        rows: List[KernelRow],
        memcpys: List[MemcpyRow],
        *,
        num_devices: int = 1,
    ) -> None:
        self.rows = rows
        self.memcpys = memcpys
        self.num_devices = num_devices

    # ------------------------------------------------------------------
    @classmethod
    def from_devices(cls, devices: Sequence) -> "ProfileReport":
        """Aggregate the timelines of one or more simulated devices."""
        if not devices:
            raise ObservabilityError("no devices to profile")
        rows: Dict[str, KernelRow] = {}
        h2d = {"count": 0, "bytes": 0, "seconds": 0.0}
        d2h = {"count": 0, "bytes": 0, "seconds": 0.0}
        for device in devices:
            for record in device.timeline:
                row = rows.get(record.name)
                if row is None:
                    row = rows[record.name] = KernelRow(name=record.name)
                row.accumulate(record.seconds, record.counters)
            summary = device.transfer_summary()
            for bucket, key in ((h2d, "h2d"), (d2h, "d2h")):
                for k in bucket:
                    bucket[k] += summary[key][k]
        memcpys = [
            MemcpyRow(name="[memcpy HtoD]", **h2d),
            MemcpyRow(name="[memcpy DtoH]", **d2h),
        ]
        return cls(
            list(rows.values()),
            [m for m in memcpys if m.count],
            num_devices=len(devices),
        )

    @classmethod
    def from_engine(cls, engine) -> "ProfileReport":
        """Profile whatever devices ``engine`` drives."""
        if not getattr(engine, "devices", None):
            raise ObservabilityError(
                f"engine {engine!r} exposes no simulated device"
            )
        return cls.from_devices(engine.devices)

    # ------------------------------------------------------------------
    @property
    def kernel_seconds(self) -> float:
        """Total modeled kernel time (the table's reconciliation total)."""
        return sum(row.seconds for row in self.rows)

    @property
    def transfer_seconds(self) -> float:
        return sum(row.seconds for row in self.memcpys)

    @property
    def total_launches(self) -> int:
        return sum(row.launches for row in self.rows)

    def sorted_rows(self, sort_by: str = "time") -> List[KernelRow]:
        try:
            attr = SORT_KEYS[sort_by]
        except KeyError:
            raise ObservabilityError(
                f"unknown sort key {sort_by!r}; expected one of "
                f"{sorted(SORT_KEYS)}"
            ) from None
        reverse = sort_by != "name"
        return sorted(
            self.rows, key=lambda r: getattr(r, attr), reverse=reverse
        )

    # ------------------------------------------------------------------
    def to_dict(self, *, sort_by: str = "time") -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "num_devices": self.num_devices,
            "kernel_seconds": self.kernel_seconds,
            "transfer_seconds": self.transfer_seconds,
            "total_launches": self.total_launches,
            "kernels": [r.as_dict() for r in self.sorted_rows(sort_by)],
            "memcpys": [m.as_dict() for m in self.memcpys],
        }

    def to_json(
        self, *, sort_by: str = "time", indent: Optional[int] = None
    ) -> str:
        return json.dumps(self.to_dict(sort_by=sort_by), indent=indent)

    def to_text(self, *, sort_by: str = "time") -> str:
        """The nvprof-style table."""
        total = self.kernel_seconds
        header = (
            f"{'Time(%)':>8}  {'Time':>11}  {'Calls':>6}  {'Avg':>11}  "
            f"{'GlobalTxn':>12}  {'LaneUtil':>8}  {'BankConf':>9}  "
            f"{'AtomSer':>8}  Name"
        )
        lines = [
            f"==== modeled GPU activities "
            f"({self.num_devices} device{'s' if self.num_devices > 1 else ''}) ====",
            header,
            "-" * len(header),
        ]
        for row in self.sorted_rows(sort_by):
            share = row.seconds / total if total else 0.0
            lines.append(
                f"{share:>7.2%}  {_fmt_time(row.seconds):>11}  "
                f"{row.launches:>6}  {_fmt_time(row.avg_seconds):>11}  "
                f"{row.global_transactions:>12,}  "
                f"{row.lane_utilization:>8.1%}  "
                f"{row.shared_bank_conflicts:>9,}  "
                f"{row.atomic_serialized_ops:>8,}  {row.name}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'':>8}  {_fmt_time(total):>11}  {self.total_launches:>6}  "
            f"{'':>11}  {'':>12}  {'':>8}  {'':>9}  {'':>8}  [kernel total]"
        )
        for row in self.memcpys:
            avg = row.seconds / row.count if row.count else 0.0
            lines.append(
                f"{'':>8}  {_fmt_time(row.seconds):>11}  {row.count:>6}  "
                f"{_fmt_time(avg):>11}  "
                f"{row.bytes:>12,}B {'':>8}  {'':>9}  {'':>8}  {row.name}"
            )
        return "\n".join(lines)


def _fmt_time(seconds: float) -> str:
    """Engineering-format a modeled duration (nvprof style)."""
    if seconds >= 1.0:
        return f"{seconds:.4f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.4f}ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.3f}us"
    return f"{seconds * 1e9:.1f}ns"
