"""Performance counters collected by the simulator.

Every kernel accumulates into a :class:`PerfCounters` instance; the timing
model (:mod:`repro.gpusim.timing`) turns a counter delta into elapsed time.
Counters are also first-class experiment outputs: the ablation analysis
(Table 3) and the theory validation report global-transaction counts
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class PerfCounters:
    """Mutable bundle of simulated hardware event counts.

    All ``*_transactions`` counters are in units of device memory sectors
    (32 bytes); ``warp_instructions`` are warp-level issue slots;
    ``active_lane_sum`` accumulates the number of non-idle lanes per issued
    warp instruction, so ``active_lane_sum / (warp_instructions * 32)`` is
    SIMT lane utilization.
    """

    global_load_transactions: int = 0
    global_store_transactions: int = 0
    global_atomic_ops: int = 0
    global_atomic_serialized_ops: int = 0
    shared_atomic_serialized_ops: int = 0
    shared_load_ops: int = 0
    shared_store_ops: int = 0
    shared_bank_conflicts: int = 0
    warp_instructions: int = 0
    active_lane_sum: int = 0
    warps_launched: int = 0
    kernel_launches: int = 0
    h2d_bytes: int = 0
    d2h_bytes: int = 0

    def add(self, other: "PerfCounters") -> "PerfCounters":
        """In-place accumulate ``other`` into ``self``; returns ``self``."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def subtract(self, other: "PerfCounters") -> "PerfCounters":
        """In-place ``self - other``; returns ``self``."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) - getattr(other, f.name))
        return self

    def __add__(self, other: "PerfCounters") -> "PerfCounters":
        result = PerfCounters()
        result.add(self)
        result.add(other)
        return result

    def copy(self) -> "PerfCounters":
        return PerfCounters(**{f.name: getattr(self, f.name) for f in fields(self)})

    def delta_since(self, snapshot: "PerfCounters") -> "PerfCounters":
        """Counter difference ``self - snapshot`` (for per-kernel deltas)."""
        result = PerfCounters()
        for f in fields(self):
            setattr(
                result, f.name, getattr(self, f.name) - getattr(snapshot, f.name)
            )
        return result

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    @property
    def global_transactions(self) -> int:
        """All global-memory sector transactions (loads + stores + atomics)."""
        return (
            self.global_load_transactions
            + self.global_store_transactions
            + self.global_atomic_ops
        )

    @property
    def lane_utilization(self) -> float:
        """Fraction of SIMT lanes doing useful work (1.0 = perfectly packed)."""
        if self.warp_instructions == 0:
            return 0.0
        return self.active_lane_sum / (self.warp_instructions * 32)

    @property
    def shared_accesses(self) -> int:
        """All shared-memory lane operations (loads + stores)."""
        return self.shared_load_ops + self.shared_store_ops

    @property
    def bank_conflict_rate(self) -> float:
        """Bank-conflict replays per shared access (0.0 on empty runs)."""
        accesses = self.shared_accesses
        if accesses == 0:
            return 0.0
        return self.shared_bank_conflicts / accesses

    @property
    def atomic_serialization_rate(self) -> float:
        """Serialized replays per global atomic op (0.0 on empty runs)."""
        if self.global_atomic_ops == 0:
            return 0.0
        return self.global_atomic_serialized_ops / self.global_atomic_ops

    @property
    def avg_active_lanes(self) -> float:
        """Mean non-idle lanes per issued warp instruction (0.0 if none)."""
        if self.warp_instructions == 0:
            return 0.0
        return self.active_lane_sum / self.warp_instructions

    def as_dict(self, *, include_derived: bool = False) -> dict:
        """Plain-dict view for reports and JSON dumps.

        With ``include_derived`` the dict additionally carries the derived
        ratio properties — the diff-friendly form the profiler report
        embeds per kernel row.  Every ratio is guarded against empty runs
        (zero shared accesses, zero warp instructions, zero atomics) and
        yields ``0.0`` instead of dividing by zero.
        """
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if include_derived:
            out["global_transactions"] = self.global_transactions
            out["lane_utilization"] = self.lane_utilization
            out["bank_conflict_rate"] = self.bank_conflict_rate
            out["atomic_serialization_rate"] = self.atomic_serialization_rate
            out["avg_active_lanes"] = self.avg_active_lanes
        return out

    def __repr__(self) -> str:
        interesting = {
            k: v for k, v in self.as_dict().items() if v
        }
        parts = [f"{k}={v}" for k, v in interesting.items()]
        parts.append(f"global_transactions={self.global_transactions}")
        parts.append(f"lane_utilization={self.lane_utilization:.3f}")
        return f"PerfCounters({', '.join(parts)})"
