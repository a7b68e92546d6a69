"""Roofline bottleneck advisor: per-kernel cause attribution + findings.

The profiler (:mod:`repro.obs.profile`) tells you *where* modeled time
goes; this module tells you *why*.  It replays each
:class:`~repro.gpusim.device.LaunchRecord` of the device timeline through
the same roofline decomposition the timing model uses
(:func:`repro.gpusim.timing.kernel_time`) and attributes every launch's
modeled seconds to one of six causes:

====================  ==================================================
``global_memory``     DRAM sector traffic (the roofline's memory side,
                      charged when the launch is memory-bound)
``compute_issue``     useful warp-issue slots + shared-memory lane ops
``divergence``        issue slots wasted on idle SIMT lanes
``bank_conflicts``    shared-memory bank-conflict replay cycles
``atomics``           serialized atomic cycles (shared + global)
``launch_overhead``   the fixed per-launch cost
====================  ==================================================

The attribution is *exact by construction*: the dominant component is
computed as the residual of the launch's total modeled time minus the
other components, so per kernel the causes sum to the kernel's modeled
seconds to within floating-point noise (``tests/obs/test_advisor.py``
enforces 1e-9).  Because ``max(compute, memory)`` hides the loser under
the roofline, the hidden side is reported per kernel
(``memory_seconds`` / ``compute_seconds``) but attributed zero time.

On top of the per-kernel breakdown the advisor emits ranked *findings*
— human-readable bottleneck statements with paper-grounded remediation
hints — and a machine-readable *verdict* per kernel (``memory-bound`` /
``conflict-bound`` / ``atomic-bound`` / ``divergence-bound`` /
``compute-bound`` / ``latency-bound``).  PCIe transfers are diagnosed
separately (``transfer-bound`` finding above a configurable share), so
the kernel section still reconciles against the run's kernel time.
Device-memory pressure likewise gets its own finding-level
``memory-capacity-bound`` verdict (with spill/shard hints) when a
device's peak residency exceeds :data:`MEMORY_PRESSURE_THRESHOLD` of
capacity — close enough to the admission line
(:data:`repro.core.hybrid.RESIDENCY_FRACTION`) that the next growth step
would force a ladder degradation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ObservabilityError
from repro.gpusim.counters import PerfCounters
from repro.gpusim.timing import KernelTiming

#: Attribution buckets, in report order.
CAUSE_KEYS = (
    "global_memory",
    "compute_issue",
    "divergence",
    "bank_conflicts",
    "atomics",
    "launch_overhead",
)

#: Machine-readable verdict for each dominant cause.
CAUSE_TO_VERDICT = {
    "global_memory": "memory-bound",
    "compute_issue": "compute-bound",
    "divergence": "divergence-bound",
    "bank_conflicts": "conflict-bound",
    "atomics": "atomic-bound",
    "launch_overhead": "latency-bound",
}

#: Every verdict ``KernelDiagnosis.verdict`` may produce (kernel-side).
KERNEL_VERDICTS = frozenset(CAUSE_TO_VERDICT.values())

#: Section 4 / Section 5 remediation hints per verdict.
HINTS = {
    "memory-bound": (
        "global-memory traffic dominates: skip unchanged vertices with "
        "frontier/delta propagation, keep CSR reads coalesced, and avoid "
        "re-reading the label array (Section 4.2; simulator.md §5)"
    ),
    "conflict-bound": (
        "shared-memory bank conflicts serialize the CMS/HT updates: "
        "consider CMS row padding (odd stride) or hashing labels before "
        "bank indexing so same-bank lanes spread out (Section 4.2)"
    ),
    "atomic-bound": (
        "atomic serialization dominates: move counting off global atomics "
        "into the shared-memory CMS+HT path, or warp-aggregate updates "
        "before issuing the atomic (Section 4.2, Table 3)"
    ),
    "divergence-bound": (
        "SIMT lanes idle on imbalanced degrees: map low-degree vertices "
        "with the warp-centric multi-vertex (warp-ballot) strategy so "
        "whole warps stay packed (Section 4.2, Table 3)"
    ),
    "compute-bound": (
        "issue-rate bound with packed lanes: reduce per-edge instruction "
        "count or let the shared-memory CMS+HT path absorb more vertices "
        "(raise the high-degree threshold, Section 5.3)"
    ),
    "latency-bound": (
        "fixed launch overhead dominates these short kernels: fuse the "
        "per-iteration map kernels (PickLabel/UpdateVertex) or batch "
        "several iterations per launch"
    ),
    "transfer-bound": (
        "PCIe transfers dominate elapsed time: ship per-iteration label "
        "deltas instead of full arrays and overlap copies with kernels "
        "(hybrid streaming, Section 3.1; paper's <10% target)"
    ),
    "memory-capacity-bound": (
        "device memory is nearly full: spill cold CSR chunks to the host "
        "(hybrid overflow streaming, Section 3.1), shard the graph across "
        "devices (multi-GPU edge partitioning), or drop the reversed CSR "
        "by running dense instead of frontier mode"
    ),
}

#: Findings below this share of total kernel time are noise, not advice.
FINDING_MIN_SHARE = 0.01

#: Transfer share of elapsed time above which a transfer finding fires
#: (the paper's Section 5.4 "<10% visible transfer overhead" target).
TRANSFER_SHARE_THRESHOLD = 0.10

#: Peak-allocation share of device capacity above which a
#: ``memory-capacity-bound`` finding fires (run_auto's ladder admits
#: GLP residency up to ``repro.core.hybrid.RESIDENCY_FRACTION`` of
#: capacity, so 0.8 flags runs one growth step away from a forced
#: degradation).
MEMORY_PRESSURE_THRESHOLD = 0.80


def attribute_launch(
    timing: KernelTiming, counters: PerfCounters, spec
) -> Dict[str, float]:
    """Attribute one launch's modeled seconds to the six causes.

    The returned values sum to ``timing.total_seconds`` exactly (the
    dominant bucket is the residual of the total minus the others).
    """
    causes = dict.fromkeys(CAUSE_KEYS, 0.0)
    total = timing.total_seconds
    overhead = timing.launch_overhead
    causes["launch_overhead"] = overhead
    if timing.memory_bound:
        # The whole exposed roofline is DRAM traffic; compute hides under.
        causes["global_memory"] = total - overhead
        return causes
    throughput = spec.warp_throughput
    causes["bank_conflicts"] = counters.shared_bank_conflicts / throughput
    causes["atomics"] = (
        counters.shared_atomic_serialized_ops * spec.shared_atomic_cost_cycles
        + counters.global_atomic_serialized_ops
        * spec.global_atomic_cost_cycles
    ) / throughput
    wasted_slots = max(
        0.0,
        counters.warp_instructions
        - counters.active_lane_sum / spec.warp_size,
    )
    causes["divergence"] = wasted_slots / throughput
    # Useful issue slots + shared-memory lane ops, as the exact residual.
    causes["compute_issue"] = (
        total
        - overhead
        - causes["bank_conflicts"]
        - causes["atomics"]
        - causes["divergence"]
    )
    return causes


@dataclass
class KernelDiagnosis:
    """Accumulated cause attribution of every launch sharing one name."""

    name: str
    launches: int = 0
    seconds: float = 0.0
    #: Exposed roofline seconds per cause (sums to ``seconds``).
    causes: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(CAUSE_KEYS, 0.0)
    )
    #: Raw roofline sides, for the "hidden under the max" context.
    memory_seconds: float = 0.0
    compute_seconds: float = 0.0
    memory_bound_launches: int = 0
    counters: PerfCounters = field(default_factory=PerfCounters)

    def accumulate(
        self, timing: KernelTiming, counters: PerfCounters, spec
    ) -> None:
        self.launches += 1
        self.seconds += timing.total_seconds
        for cause, value in attribute_launch(timing, counters, spec).items():
            self.causes[cause] += value
        self.memory_seconds += timing.memory_seconds
        self.compute_seconds += timing.compute_seconds
        if timing.memory_bound:
            self.memory_bound_launches += 1
        self.counters.add(counters)

    # ------------------------------------------------------------------
    @property
    def dominant_cause(self) -> str:
        """The cause carrying the most attributed seconds."""
        return max(CAUSE_KEYS, key=lambda c: self.causes[c])

    @property
    def verdict(self) -> str:
        """Machine-readable bottleneck class of this kernel."""
        return CAUSE_TO_VERDICT[self.dominant_cause]

    def cause_shares(self) -> Dict[str, float]:
        """Each cause's fraction of this kernel's modeled seconds."""
        if self.seconds <= 0.0:
            return dict.fromkeys(CAUSE_KEYS, 0.0)
        return {c: v / self.seconds for c, v in self.causes.items()}

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "launches": self.launches,
            "seconds": self.seconds,
            "verdict": self.verdict,
            "causes": dict(self.causes),
            "cause_shares": self.cause_shares(),
            "memory_seconds": self.memory_seconds,
            "compute_seconds": self.compute_seconds,
            "memory_bound_launches": self.memory_bound_launches,
        }


@dataclass(frozen=True)
class Finding:
    """One ranked, human-readable bottleneck statement."""

    kernel: str
    verdict: str
    #: Seconds attributed to the finding's cause.
    seconds: float
    #: Share of the run's total kernel time those seconds represent
    #: (transfer findings use the share of elapsed time instead).
    severity: float
    message: str
    hint: str

    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "verdict": self.verdict,
            "seconds": self.seconds,
            "severity": self.severity,
            "message": self.message,
            "hint": self.hint,
        }


#: Human labels for the cause buckets (used in finding messages).
_CAUSE_LABELS = {
    "global_memory": "global-memory traffic",
    "compute_issue": "warp issue throughput",
    "divergence": "warp divergence / idle lanes",
    "bank_conflicts": "shared-memory bank conflicts",
    "atomics": "atomic serialization",
    "launch_overhead": "kernel launch overhead",
}


class AdvisorReport:
    """Bottleneck attribution of one or more devices' launch timelines."""

    def __init__(
        self,
        kernels: List[KernelDiagnosis],
        *,
        transfer_summary: Optional[dict] = None,
        num_devices: int = 1,
        memory_summary: Optional[List[dict]] = None,
    ) -> None:
        self.kernels = sorted(
            kernels, key=lambda k: k.seconds, reverse=True
        )
        self.transfer_summary = transfer_summary or {
            "h2d": {"count": 0, "bytes": 0, "seconds": 0.0},
            "d2h": {"count": 0, "bytes": 0, "seconds": 0.0},
        }
        self.num_devices = num_devices
        #: Per-device peak residency rows: ``{"device", "peak_bytes",
        #: "capacity_bytes"}`` — drives the memory-capacity-bound finding.
        self.memory_summary = memory_summary or []
        self.findings = self._rank_findings()

    # ------------------------------------------------------------------
    @classmethod
    def from_devices(cls, devices: Sequence) -> "AdvisorReport":
        """Diagnose the timelines of one or more simulated devices."""
        if not devices:
            raise ObservabilityError("no devices to advise on")
        kernels: Dict[str, KernelDiagnosis] = {}
        transfers = {
            "h2d": {"count": 0, "bytes": 0, "seconds": 0.0},
            "d2h": {"count": 0, "bytes": 0, "seconds": 0.0},
        }
        memory_summary = []
        for device in devices:
            for record in device.timeline:
                diag = kernels.get(record.name)
                if diag is None:
                    diag = kernels[record.name] = KernelDiagnosis(
                        name=record.name
                    )
                diag.accumulate(record.timing, record.counters, device.spec)
            summary = device.transfer_summary()
            for direction in ("h2d", "d2h"):
                for key in transfers[direction]:
                    transfers[direction][key] += summary[direction][key]
            memory_summary.append(
                {
                    "device": device.index,
                    "peak_bytes": int(device.peak_allocated_bytes),
                    "capacity_bytes": int(device.spec.global_mem_bytes),
                }
            )
        return cls(
            list(kernels.values()),
            transfer_summary=transfers,
            num_devices=len(devices),
            memory_summary=memory_summary,
        )

    @classmethod
    def from_engine(cls, engine) -> "AdvisorReport":
        """Diagnose whatever devices ``engine`` drives."""
        if not getattr(engine, "devices", None):
            raise ObservabilityError(
                f"engine {engine!r} exposes no simulated device"
            )
        return cls.from_devices(engine.devices)

    # ------------------------------------------------------------------
    @property
    def kernel_seconds(self) -> float:
        """Total attributed kernel time (reconciles with the profiler)."""
        return sum(k.seconds for k in self.kernels)

    @property
    def transfer_seconds(self) -> float:
        return (
            self.transfer_summary["h2d"]["seconds"]
            + self.transfer_summary["d2h"]["seconds"]
        )

    @property
    def transfer_fraction(self) -> float:
        """Transfer share of elapsed (kernel + transfer) time."""
        elapsed = self.kernel_seconds + self.transfer_seconds
        if elapsed <= 0.0:
            return 0.0
        return self.transfer_seconds / elapsed

    def total_causes(self) -> Dict[str, float]:
        """Run-wide seconds per cause, across all kernels."""
        totals = dict.fromkeys(CAUSE_KEYS, 0.0)
        for kernel in self.kernels:
            for cause, value in kernel.causes.items():
                totals[cause] += value
        return totals

    def verdicts(self) -> Dict[str, str]:
        """``{kernel name: verdict}`` — the baseline layer's fingerprint."""
        return {k.name: k.verdict for k in self.kernels}

    # ------------------------------------------------------------------
    def _rank_findings(self) -> List[Finding]:
        total = self.kernel_seconds
        findings: List[Finding] = []
        for kernel in self.kernels:
            if kernel.seconds <= 0.0 or total <= 0.0:
                continue
            cause = kernel.dominant_cause
            seconds = kernel.causes[cause]
            severity = seconds / total
            if severity < FINDING_MIN_SHARE:
                continue
            verdict = kernel.verdict
            share_of_kernel = seconds / kernel.seconds
            message = (
                f"{kernel.name} loses {share_of_kernel:.0%} of its modeled "
                f"time ({seconds * 1e6:.3f}us over {kernel.launches} "
                f"launches) to {_CAUSE_LABELS[cause]}"
            )
            findings.append(
                Finding(
                    kernel=kernel.name,
                    verdict=verdict,
                    seconds=seconds,
                    severity=severity,
                    message=message,
                    hint=HINTS[verdict],
                )
            )
        if self.transfer_fraction > TRANSFER_SHARE_THRESHOLD:
            findings.append(
                Finding(
                    kernel="[memcpy]",
                    verdict="transfer-bound",
                    seconds=self.transfer_seconds,
                    severity=self.transfer_fraction,
                    message=(
                        f"H2D/D2H transfers take "
                        f"{self.transfer_fraction:.0%} of elapsed time "
                        f"({self.transfer_seconds * 1e6:.3f}us over "
                        f"{self.transfer_summary['h2d']['count']} H2D + "
                        f"{self.transfer_summary['d2h']['count']} D2H "
                        f"copies)"
                    ),
                    hint=HINTS["transfer-bound"],
                )
            )
        for row in self.memory_summary:
            capacity = row.get("capacity_bytes", 0)
            if not capacity:
                continue
            fraction = row.get("peak_bytes", 0) / capacity
            if fraction <= MEMORY_PRESSURE_THRESHOLD:
                continue
            findings.append(
                Finding(
                    kernel=f"[gpu{row.get('device', 0)} memory]",
                    verdict="memory-capacity-bound",
                    seconds=0.0,
                    severity=fraction,
                    message=(
                        f"peak device residency "
                        f"{row['peak_bytes']} B is {fraction:.0%} of "
                        f"capacity ({capacity} B); the next growth step "
                        f"forces a ladder degradation"
                    ),
                    hint=HINTS["memory-capacity-bound"],
                )
            )
        findings.sort(key=lambda f: f.severity, reverse=True)
        return findings

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "num_devices": self.num_devices,
            "kernel_seconds": self.kernel_seconds,
            "transfer_seconds": self.transfer_seconds,
            "transfer_fraction": self.transfer_fraction,
            "total_causes": self.total_causes(),
            "memory": [dict(row) for row in self.memory_summary],
            "kernels": [k.as_dict() for k in self.kernels],
            "findings": [f.as_dict() for f in self.findings],
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_text(self, *, top: Optional[int] = None) -> str:
        """The human-readable advisor report."""
        lines = [
            f"==== roofline bottleneck advisor ({self.num_devices} "
            f"device{'s' if self.num_devices > 1 else ''}) ===="
        ]
        if not self.kernels:
            lines.append("no kernel launches recorded")
            return "\n".join(lines)
        lines.append(
            f"kernel time {self.kernel_seconds * 1e6:.3f}us, transfers "
            f"{self.transfer_seconds * 1e6:.3f}us "
            f"({self.transfer_fraction:.1%} of elapsed)"
        )
        header = (
            f"{'Time(%)':>8}  {'Time':>11}  {'Calls':>6}  "
            f"{'Verdict':>16}  {'DomCause%':>9}  Name"
        )
        lines.append("")
        lines.append(header)
        lines.append("-" * len(header))
        total = self.kernel_seconds
        for kernel in self.kernels:
            share = kernel.seconds / total if total else 0.0
            dom = kernel.cause_shares()[kernel.dominant_cause]
            lines.append(
                f"{share:>7.2%}  {kernel.seconds * 1e6:>9.3f}us  "
                f"{kernel.launches:>6}  {kernel.verdict:>16}  "
                f"{dom:>8.1%}  {kernel.name}"
            )
        lines.append("")
        lines.append("findings (ranked by attributed share):")
        findings = self.findings if top is None else self.findings[:top]
        if not findings:
            lines.append("  none above the reporting threshold")
        for rank, finding in enumerate(findings, 1):
            lines.append(
                f"  {rank}. [{finding.verdict}] {finding.message}"
            )
            lines.append(f"     hint: {finding.hint}")
        return "\n".join(lines)
