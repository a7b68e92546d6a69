"""Deterministic fault injection for the simulated device.

A :class:`FaultPlan` is a seeded, fully deterministic schedule of device
faults expressed against the device's *event streams*:

* ``alloc``  — one event per allocation (``Device.alloc``/``zeros``/``h2d``);
* ``transfer`` — one event per PCIe copy (``h2d``/``d2h``/``stream_*``);
* ``launch`` — one event per kernel launch.

Each :class:`FaultSpec` names a fault kind, the 1-based event index it
fires at, and how many consecutive events it covers.  Kinds map to the
typed exceptions of :mod:`repro.errors`:

=============  =========================  ==========  ====================
kind           exception                  stream      recovery
=============  =========================  ==========  ====================
``oom``        ``InjectedOOMFault``       alloc       degradation ladder
``transfer``   ``TransferFault``          transfer    bounded retry
``kernel``     ``KernelAbortFault``       launch      bounded retry
``ecc``        ``EccCorruptionFault``     launch      checkpoint restore
=============  =========================  ==========  ====================

The :class:`FaultInjector` executes a plan.  It attaches through the
import-free :mod:`repro.gpusim.hooks` slot ``FAULTS``, so with
no injector installed the device pays one slot read plus a ``None``
check per event — counters, labels and timings stay bitwise identical,
the same zero-perturbation contract the sanitizer and :mod:`repro.obs`
honor.  Because the plan is a pure function of (seed, event sequence) and
the simulator is deterministic, the same plan against the same workload
always fires the same fault sequence — which is what makes chaos sweeps
reproducible and resume-identity testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ContextManager, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import (
    DeviceFault,
    EccCorruptionFault,
    InjectedOOMFault,
    KernelAbortFault,
    ResilienceError,
    TransferFault,
)
from repro.gpusim import hooks

#: Fault kind -> (event stream, exception class).
FAULT_KINDS: Dict[str, Tuple[str, type]] = {
    "oom": ("alloc", InjectedOOMFault),
    "transfer": ("transfer", TransferFault),
    "kernel": ("launch", KernelAbortFault),
    "ecc": ("launch", EccCorruptionFault),
}

#: The device event streams faults are scheduled against.
EVENT_STREAMS = ("alloc", "transfer", "launch")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: ``kind`` at the ``at``-th matching event.

    ``repeat`` widens the spec to ``repeat`` *consecutive* events starting
    at ``at`` — retried work advances the global event counters, so a
    ``repeat`` larger than the retry budget models a persistent failure
    that exhausts recovery.  ``device`` restricts the spec to one device
    index (``None`` matches every device).
    """

    kind: str
    at: int
    repeat: int = 1
    device: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ResilienceError(
                f"unknown fault kind {self.kind!r}; known: "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.at < 1:
            raise ResilienceError("fault event index 'at' is 1-based")
        if self.repeat < 1:
            raise ResilienceError("fault repeat count must be >= 1")

    @property
    def stream(self) -> str:
        return FAULT_KINDS[self.kind][0]

    def covers(self, index: int) -> bool:
        """Whether this spec fires on the ``index``-th stream event."""
        return self.at <= index < self.at + self.repeat

    def render(self) -> str:
        text = f"{self.kind}@{self.at}"
        if self.repeat > 1:
            text += f"x{self.repeat}"
        if self.device is not None:
            text += f"/dev{self.device}"
        return text


def _parse_int(chunk: str, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ResilienceError(
            f"bad fault spec {chunk!r}: {what} must be an int"
        ) from None


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired."""

    kind: str
    stream: str
    index: int
    device: int
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "stream": self.stream,
            "index": int(self.index),
            "device": int(self.device),
            "detail": self.detail,
        }


class FaultPlan:
    """A deterministic schedule of :class:`FaultSpec` entries."""

    def __init__(
        self, specs: Sequence[FaultSpec] = (), *, seed: Optional[int] = None
    ) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan({self.render()!r})"

    def render(self) -> str:
        """The plan in ``parse``-able spec syntax."""
        return ",".join(spec.render() for spec in self.specs)

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse ``kind@N[xR][/devD]`` specs, comma separated.

        Examples: ``"transfer@3"``, ``"oom@2,kernel@7x4"``,
        ``"ecc@5/dev1"``.
        """
        specs: List[FaultSpec] = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "@" not in chunk:
                raise ResilienceError(
                    f"bad fault spec {chunk!r}: expected kind@N[xR][/devD]"
                )
            kind, _, rest = chunk.partition("@")
            device: Optional[int] = None
            if "/" in rest:
                rest, _, dev = rest.partition("/")
                if not dev.startswith("dev"):
                    raise ResilienceError(
                        f"bad fault spec {chunk!r}: device is '/devD'"
                    )
                device = _parse_int(chunk, dev[3:], "device index")
            repeat = 1
            if "x" in rest:
                rest, _, rep = rest.partition("x")
                repeat = _parse_int(chunk, rep, "repeat count")
            at = _parse_int(chunk, rest, "event index")
            specs.append(
                FaultSpec(kind=kind.strip(), at=at, repeat=repeat,
                          device=device)
            )
        if not specs:
            raise ResilienceError(f"empty fault plan {text!r}")
        return cls(specs)

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        num_faults: int = 1,
        kinds: Sequence[str] = ("transfer", "kernel", "ecc"),
        stream_totals: Dict[str, int],
    ) -> "FaultPlan":
        """A seeded random plan bounded by observed event-stream totals.

        ``stream_totals`` maps each event stream to the number of events a
        fault-free run produced (measure with :func:`count_events`); fault
        indices are drawn uniformly inside those bounds, so every planned
        fault actually fires.  The same seed always yields the same plan.
        """
        usable = [
            kind for kind in kinds
            if stream_totals.get(FAULT_KINDS[kind][0], 0) > 0
        ]
        if not usable:
            raise ResilienceError(
                "no fault kind has events to fire against "
                f"(stream totals: {stream_totals})"
            )
        rng = np.random.default_rng(seed)
        specs = []
        for _ in range(num_faults):
            kind = usable[int(rng.integers(0, len(usable)))]
            total = stream_totals[FAULT_KINDS[kind][0]]
            specs.append(
                FaultSpec(kind=kind, at=int(rng.integers(1, total + 1)))
            )
        return cls(specs, seed=seed)


class FaultInjector:
    """Executes a :class:`FaultPlan` against the device event streams.

    Stateful: global per-stream event counters advance monotonically
    across devices and engine retries, so a spec with ``repeat == 1``
    fires exactly once and the retried work then succeeds.  All fired
    faults are recorded in :attr:`events`.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.counts: Dict[str, int] = {s: 0 for s in EVENT_STREAMS}
        self.events: List[FaultEvent] = []

    # ------------------------------------------------------------------
    def _advance(self, stream: str, device: int, detail: str) -> None:
        self.counts[stream] += 1
        index = self.counts[stream]
        for spec in self.plan.specs:
            if spec.stream != stream or not spec.covers(index):
                continue
            if spec.device is not None and spec.device != device:
                continue
            event = FaultEvent(
                kind=spec.kind,
                stream=stream,
                index=index,
                device=device,
                detail=detail,
            )
            self.events.append(event)
            m = obs.metrics()
            if m is not None:
                m.inc("resilience_faults_injected_total", kind=spec.kind)
            obs.emit(
                "fault.injected",
                kind=spec.kind,
                stream=stream,
                index=index,
                device=device,
                detail=detail,
            )
            exc_class = FAULT_KINDS[spec.kind][1]
            raise exc_class(
                f"injected {spec.kind} fault at {stream} event {index} "
                f"on device {device} ({detail})"
            )

    # Device-side hooks (called from repro.gpusim.device) ---------------
    def on_alloc(self, device: int, nbytes: int) -> None:
        self._advance("alloc", device, f"{nbytes}B")

    def on_transfer(self, device: int, nbytes: int, direction: str) -> None:
        self._advance("transfer", device, f"{direction} {nbytes}B")

    def on_launch(self, device: int, name: str) -> None:
        self._advance("launch", device, name)

    # ------------------------------------------------------------------
    def fired(self, kind: Optional[str] = None) -> List[FaultEvent]:
        """Fired fault events, optionally filtered by kind."""
        if kind is None:
            return list(self.events)
        return [e for e in self.events if e.kind == kind]


class _EventCounter:
    """Counts device events without raising (for plan calibration)."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {s: 0 for s in EVENT_STREAMS}

    def on_alloc(self, device: int, nbytes: int) -> None:
        self.counts["alloc"] += 1

    def on_transfer(self, device: int, nbytes: int, direction: str) -> None:
        self.counts["transfer"] += 1

    def on_launch(self, device: int, name: str) -> None:
        self.counts["launch"] += 1


def inject(plan: FaultPlan) -> ContextManager[FaultInjector]:
    """Install ``plan`` for the duration of the block.

    The inner of two nested installs shadows the outer one, which is
    restored on exit.
    """
    return hooks.installed(hooks.FAULTS, FaultInjector(plan))


def count_events() -> ContextManager[_EventCounter]:
    """Count alloc/transfer/launch events of the enclosed workload.

    Use the resulting totals as ``stream_totals`` for
    :meth:`FaultPlan.random` so seeded chaos plans always land on events
    that exist.
    """
    return hooks.installed(hooks.FAULTS, _EventCounter())
