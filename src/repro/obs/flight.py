"""Flight recorder: bounded event ring buffer + post-mortem bundles.

Production post-mortems rarely need the whole history — they need the
last few hundred events before the crash plus the state that explains
them.  The :class:`FlightRecorder` keeps a bounded ring of the journal's
most recent events (it is fed by :func:`repro.obs.emit`, so it costs one
``deque.append`` per event and nothing when observability is off) and,
when something unrecoverable happens, :meth:`dump` captures a
*post-mortem bundle*:

* the trigger (``unrecovered-fault`` / ``degradation``) and its details,
* the ambient correlation IDs (``run_id`` / ``slide_id`` / ``attempt_id``),
* the last-N journal events,
* a full metrics snapshot,
* the active fault plan and every fault it has fired so far
  (via the import-free :mod:`repro.gpusim.hooks` registry),
* the live device-memory allocation table (per-category live bytes and
  watermarks) when a :class:`repro.obs.memory.MemoryTracker` is
  installed — on an OOM this is the table at the moment of death,
* session context annotations — the latest checkpoint pointer and slide
  diff summary the resilience/pipeline layers registered via
  :func:`repro.obs.annotate`.

Bundles accumulate in memory (``recorder.bundles``) and are additionally
written to ``dump_dir`` as ``postmortem-<seq>.json`` when a directory is
configured (CLI: ``--flight-dir``).  The dump triggers live in the
degradation ladder, :func:`repro.core.hybrid.run_ladder` (each step and
an unrecovered fault) — the one place a fault escapes the recovery
layer.
"""

from __future__ import annotations

import collections
import json
import os
from typing import Deque, Dict, List, Optional

#: Bump when the bundle payload changes incompatibly.
FLIGHT_SCHEMA_VERSION = 1

#: Default ring capacity — enough for several slides' causal chains.
DEFAULT_CAPACITY = 256


def _active_fault_plan() -> Optional[dict]:
    """The installed fault injector's plan + fired events, if any.

    Duck-typed through :mod:`repro.gpusim.hooks` so ``repro.obs`` never
    imports ``repro.resilience`` (which imports ``repro.obs``).
    """
    from repro.gpusim import hooks

    injector = hooks.FAULTS.get()
    if injector is None:
        return None
    plan = getattr(injector, "plan", None)
    events = getattr(injector, "events", [])
    return {
        "plan": plan.render() if plan is not None else "",
        "fired": [event.as_dict() for event in events],
    }


def _active_memory_snapshot() -> Optional[dict]:
    """The installed memory tracker's allocation table, if any.

    Duck-typed like :func:`_active_fault_plan`: when a
    :class:`repro.obs.memory.MemoryTracker` is installed, an OOM
    post-mortem carries exactly what was device-resident (per-category
    live bytes and watermarks) at the moment the allocation failed.
    """
    from repro.gpusim import hooks

    tracker = hooks.MEMORY.get()
    if tracker is None:
        return None
    snapshot = getattr(tracker, "allocation_snapshot", None)
    if snapshot is None:
        return None
    return snapshot()


class FlightRecorder:
    """Bounded ring of recent journal events + post-mortem dumps."""

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_CAPACITY,
        dump_dir: Optional[str] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.dump_dir = dump_dir
        self._ring: Deque[dict] = collections.deque(maxlen=capacity)
        self.bundles: List[dict] = []
        self._dumped = 0

    def __len__(self) -> int:
        return len(self._ring)

    def record(self, event: dict) -> None:
        """Feed one journal record into the ring (oldest falls out)."""
        self._ring.append(event)

    def tail(self) -> List[dict]:
        """The buffered events, oldest first."""
        return list(self._ring)

    # ------------------------------------------------------------------
    def dump(
        self,
        *,
        trigger: str,
        ids: Optional[Dict[str, str]] = None,
        context: Optional[Dict[str, object]] = None,
        metrics: Optional[dict] = None,
        details: Optional[Dict[str, object]] = None,
    ) -> dict:
        """Capture a post-mortem bundle (and write it when configured)."""
        self._dumped += 1
        ids = ids or {}
        bundle = {
            "schema_version": FLIGHT_SCHEMA_VERSION,
            "trigger": trigger,
            "run_id": ids.get("run_id", ""),
            "slide_id": ids.get("slide_id", ""),
            "attempt_id": ids.get("attempt_id", ""),
            "details": dict(details or {}),
            "context": dict(context or {}),
            "fault_plan": _active_fault_plan(),
            "memory": _active_memory_snapshot(),
            "metrics": metrics if metrics is not None else {"metrics": []},
            "events": self.tail(),
        }
        self.bundles.append(bundle)
        if self.dump_dir is not None:
            os.makedirs(self.dump_dir, exist_ok=True)
            path = os.path.join(
                self.dump_dir, f"postmortem-{self._dumped:03d}.json"
            )
            with open(path, "w") as fh:
                json.dump(bundle, fh, indent=2, sort_keys=True, default=str)
                fh.write("\n")
            bundle["path"] = path
        return bundle
