"""Device-memory telemetry: allocation tracker, residency timeline and
watermark profiler.

Device memory is the load-bearing resource of the whole reproduction —
:func:`repro.core.framework.device_footprint` decides the GPU→hybrid→CPU
degradation ladder, hybrid spilling is charged against it, and injected
OOMs drive the resilience story.  This module gives it the observability
the kernel clock already has:

* a :class:`MemoryTracker` installed through the import-free
  :mod:`repro.gpusim.hooks` slot :data:`~repro.gpusim.hooks.MEMORY`
  (by :func:`track`) receives
  every ``Device.alloc``/``free``/``free_all``/``h2d``/``d2h``/stream
  event and maintains per-device live-bytes and high-water-mark time
  series on the **modeled clock** (``device.elapsed_seconds``);
* every allocation is tagged with a semantic **category** — one of
  :data:`CATEGORIES` — threaded from the engines via the
  :func:`alloc_scope` context manager (which sets the ambient
  :data:`~repro.gpusim.hooks.MEMSCOPE` tag the device copies onto each
  :class:`~repro.gpusim.device.DeviceArray`);
* the timeline is exported as Chrome-trace **counter tracks** (one per
  device, ``ph: "C"``) next to the existing kernel/memcpy span lanes
  whenever an :mod:`repro.obs` session with a tracer is active;
* :meth:`MemoryTracker.report` emits a watermark report whose
  per-category live bytes reconcile **exactly** to
  ``Device.allocated_bytes`` at every tracked event (violations are
  recorded, never silently dropped);
* engine planners call :meth:`MemoryTracker.note_prediction` so
  :meth:`MemoryTracker.planner_accuracy` can validate ``device_footprint``
  estimates against measured peaks;
  :meth:`MemoryTracker.analysis_report` turns >10 % errors into
  :class:`~repro.analysis.findings.AnalysisReport` findings
  (``memory-planner-underestimate`` is a ladder-correctness bug,
  ``memory-planner-overestimate`` forces needless CPU fallbacks);
* :meth:`MemoryTracker.allocation_snapshot` is duck-typed by
  :mod:`repro.obs.flight` so OOM post-mortems carry the live allocation
  table at the moment of death.

With no tracker installed every device forward is one slot read plus a
``None`` check — the same zero-perturbation contract the sanitizer,
fault-injection and obs layers honor, enforced differentially by
``tests/obs/test_identity.py``.
"""

from __future__ import annotations

import json
from typing import ContextManager, Dict, List, Optional, Tuple

from repro.gpusim import hooks

#: Bump when the watermark-report payload changes incompatibly.
MEMORY_SCHEMA_VERSION = 1

#: The semantic allocation categories engines tag residency with.
CATEGORIES = (
    "csr",
    "reversed-csr",
    "labels",
    "frontier",
    "exchange",
    "scratch",
)

#: Relative error above which a planner prediction becomes a finding.
PLANNER_ERROR_THRESHOLD = 0.10


def alloc_scope(
    category: str, origin: str = ""
) -> ContextManager[Tuple[str, str]]:
    """Tag device allocations made inside the block with ``category``.

    Sets the ambient :data:`repro.gpusim.hooks.MEMSCOPE` tag (restoring
    the previous one on exit); :meth:`Device._register` copies it onto
    each new :class:`~repro.gpusim.device.DeviceArray`.  Safe to leave in
    place permanently: with no tracker installed the tag is one context
    variable write and perturbs nothing.
    """
    if category not in CATEGORIES:
        raise ValueError(
            f"unknown allocation category {category!r}; "
            f"expected one of {CATEGORIES}"
        )
    return hooks.installed(hooks.MEMSCOPE, (category, origin))


def _new_direction() -> dict:
    return {
        "count": 0,
        "bytes": 0,
        "seconds": 0.0,
        "streamed_count": 0,
        "streamed_bytes": 0,
    }


class MemoryTracker:
    """Per-device allocation timeline, watermarks and planner accuracy.

    Install with :func:`track`; all callbacks are read-only observers of the device, so tracked and
    untracked runs stay bitwise identical.
    """

    def __init__(self, *, max_events_per_device: int = 8192) -> None:
        self.max_events_per_device = max_events_per_device
        #: id(device) -> per-device state dict (see :meth:`_state`).
        self._devices: Dict[int, dict] = {}
        #: Planner predictions keyed by (engine, device index): last wins.
        self._predictions: Dict[tuple, dict] = {}

    # ------------------------------------------------------------------
    # Per-device state
    # ------------------------------------------------------------------
    def _state(self, device, *, exclude=None) -> dict:
        state = self._devices.get(id(device))
        if state is None:
            state = {
                "index": device.index,
                "spec": device.spec.name,
                "capacity_bytes": int(device.spec.global_mem_bytes),
                "live": {},  # category -> live bytes
                "live_total": 0,
                "peak_bytes": 0,
                "peak_ts": 0.0,
                "categories_at_peak": {},
                "category_peaks": {},  # category -> its own peak
                "events": [],
                "num_events": 0,
                "dropped_events": 0,
                "mismatches": 0,
                "transfers": {
                    "h2d": _new_direction(),
                    "d2h": _new_direction(),
                },
                "exchange_bytes": 0,
                "exchange_seconds": 0.0,
                "freed_all_bytes": 0,
                "freed_all_calls": 0,
                "oom_count": 0,
                # Stitched modeled clock: reset_timing() rewinds
                # device.elapsed_seconds between runs (window slides),
                # so the tracker carries its own origin to keep every
                # device's timeline monotone across runs.
                "ts_origin": 0.0,
                "last_raw_ts": 0.0,
            }
            # Adopt anything already resident so reconciliation holds
            # even when the tracker attaches mid-session.  ``exclude``
            # is the handle an in-flight on_alloc is about to count —
            # the device registers it before the callback fires, so
            # adopting it here would double-count it.
            for handle in device.live_allocations():
                if handle is exclude:
                    continue
                cat = handle.category
                state["live"][cat] = state["live"].get(cat, 0) + handle.nbytes
                state["live_total"] += handle.nbytes
                if state["live"][cat] > state["category_peaks"].get(cat, 0):
                    state["category_peaks"][cat] = state["live"][cat]
            if state["live_total"]:
                state["peak_bytes"] = state["live_total"]
                state["peak_ts"] = float(device.elapsed_seconds)
                state["categories_at_peak"] = dict(state["live"])
            self._devices[id(device)] = state
        return state

    def _stitched_ts(self, device, state: dict) -> float:
        raw = float(device.elapsed_seconds)
        if raw < state["last_raw_ts"]:
            # The modeled clock was reset (reset_timing between runs):
            # fold the finished run's span into the origin.
            state["ts_origin"] += state["last_raw_ts"]
        state["last_raw_ts"] = raw
        return state["ts_origin"] + raw

    def _record(self, device, state: dict, op: str, **fields) -> None:
        ts = self._stitched_ts(device, state)
        live_total = state["live_total"]
        allocated = int(device.allocated_bytes)
        reconciled = live_total == allocated
        if not reconciled:
            state["mismatches"] += 1
        event = {
            "ts": ts,
            "op": op,
            "device": state["index"],
            "live_bytes": live_total,
            "device_allocated_bytes": allocated,
            "reconciled": reconciled,
            **fields,
        }
        state["num_events"] += 1
        if len(state["events"]) < self.max_events_per_device:
            state["events"].append(event)
        else:
            state["dropped_events"] += 1
        if live_total > state["peak_bytes"]:
            state["peak_bytes"] = live_total
            state["peak_ts"] = ts
            state["categories_at_peak"] = dict(state["live"])
        self._emit_counter(state, ts)

    def _emit_counter(self, state: dict, ts: float) -> None:
        """One Chrome counter sample on this device's track (if tracing)."""
        # Imported lazily: repro.obs imports this module at package init.
        from repro import obs

        tracer = obs.tracer()
        if tracer is None:
            return
        counter = getattr(tracer, "counter_event", None)
        if counter is None:
            return
        # Every category ever seen on this device, so a freed category's
        # series drops back to zero instead of holding its last value.
        values = {
            cat: int(state["live"].get(cat, 0))
            for cat in sorted(state["category_peaks"])
        }
        counter(state["index"], ts, values)

    # ------------------------------------------------------------------
    # Device hook callbacks (see repro.gpusim.device)
    # ------------------------------------------------------------------
    def on_alloc(self, device, handle, kind: str) -> None:
        state = self._state(device, exclude=handle)
        cat = handle.category
        state["live"][cat] = state["live"].get(cat, 0) + handle.nbytes
        state["live_total"] += handle.nbytes
        if state["live"][cat] > state["category_peaks"].get(cat, 0):
            state["category_peaks"][cat] = state["live"][cat]
        self._record(
            device,
            state,
            kind,
            category=cat,
            origin=handle.origin,
            bytes=handle.nbytes,
        )

    def on_free(self, device, handle) -> None:
        state = self._state(device)
        cat = handle.category
        state["live"][cat] = state["live"].get(cat, 0) - handle.nbytes
        state["live_total"] -= handle.nbytes
        if not state["live"][cat]:
            del state["live"][cat]
        self._record(
            device,
            state,
            "free",
            category=cat,
            origin=handle.origin,
            bytes=handle.nbytes,
        )

    def on_free_all(self, device, released: int, count: int) -> None:
        # The individual frees were already journaled by on_free; this
        # records the sweep itself and the total it released.
        state = self._state(device)
        state["freed_all_bytes"] += int(released)
        state["freed_all_calls"] += 1
        self._record(
            device, state, "free_all", bytes=int(released), freed=int(count)
        )

    def on_transfer(
        self, device, direction: str, nbytes: int, seconds: float,
        *, streamed: bool,
    ) -> None:
        state = self._state(device)
        totals = state["transfers"][direction]
        totals["count"] += 1
        totals["bytes"] += int(nbytes)
        totals["seconds"] += float(seconds)
        if streamed:
            totals["streamed_count"] += 1
            totals["streamed_bytes"] += int(nbytes)
            # Streams leave no allocation behind; tag the traffic with
            # the ambient scope's category (hybrid wraps its delta/
            # frontier shipping in alloc_scope("exchange")).
            scope = hooks.MEMSCOPE.get()
            if scope is not None and scope[0] == "exchange":
                state["exchange_bytes"] += int(nbytes)
                state["exchange_seconds"] += float(seconds)

    def on_exchange(self, device, nbytes: int, seconds: float = 0.0) -> None:
        """Inter-GPU exchange traffic modeled without device allocations.

        The multi-GPU engine charges label/frontier exchange straight to
        the transfer clock (no ``DeviceArray`` ever exists), so it reports
        the bytes here explicitly.
        """
        state = self._state(device)
        state["exchange_bytes"] += int(nbytes)
        state["exchange_seconds"] += float(seconds)

    def on_oom(self, device, nbytes: int) -> None:
        state = self._state(device)
        state["oom_count"] += 1
        self._record(device, state, "oom", bytes=int(nbytes))

    # ------------------------------------------------------------------
    # Planner accuracy
    # ------------------------------------------------------------------
    def note_prediction(
        self,
        engine: str,
        device,
        predicted_bytes: int,
        *,
        source: str = "device_footprint",
    ) -> None:
        """Record a planner's residency estimate for this engine+device."""
        state = self._state(device)
        self._predictions[(engine, state["index"])] = {
            "engine": engine,
            "device": state["index"],
            "source": source,
            "predicted_bytes": int(predicted_bytes),
        }

    def planner_accuracy(self) -> List[dict]:
        """Predicted vs measured peak bytes, one row per engine+device."""
        rows = []
        peaks = {
            state["index"]: state["peak_bytes"]
            for state in self._devices.values()
        }
        for key in sorted(self._predictions):
            pred = self._predictions[key]
            measured = int(peaks.get(pred["device"], 0))
            predicted = pred["predicted_bytes"]
            error = (
                (measured - predicted) / predicted if predicted else 0.0
            )
            rows.append(
                {
                    **pred,
                    "measured_peak_bytes": measured,
                    "error_ratio": error,
                    "within_threshold": abs(error)
                    <= PLANNER_ERROR_THRESHOLD,
                }
            )
        return rows

    def analysis_report(self):
        """Planner-accuracy gate as an :class:`AnalysisReport`.

        One ``memory-planner-underestimate`` / ``-overestimate`` finding
        per engine+device whose prediction misses the measured peak by
        more than :data:`PLANNER_ERROR_THRESHOLD`, plus a
        ``memory-unreconciled`` finding per device whose event stream
        ever disagreed with ``Device.allocated_bytes``.
        """
        # Imported lazily: gpusim/obs must stay loadable without analysis.
        from repro.analysis.findings import AnalysisReport, Finding

        report = AnalysisReport(source="memory", checked=len(self._devices))
        for row in self.planner_accuracy():
            if row["within_threshold"]:
                continue
            error_pct = row["error_ratio"] * 100.0
            rule = (
                "memory-planner-underestimate"
                if row["error_ratio"] > 0
                else "memory-planner-overestimate"
            )
            consequence = (
                "the degradation ladder can admit a run that OOMs"
                if row["error_ratio"] > 0
                else "the degradation ladder forces needless fallbacks"
            )
            report.add(
                Finding(
                    rule=rule,
                    message=(
                        f"{row['source']} predicted "
                        f"{row['predicted_bytes']} B but the run peaked at "
                        f"{row['measured_peak_bytes']} B "
                        f"({error_pct:+.1f} %); {consequence}"
                    ),
                    location=f"{row['engine']}@gpu{row['device']}",
                )
            )
        for state in self._sorted_states():
            if state["mismatches"]:
                report.add(
                    Finding(
                        rule="memory-unreconciled",
                        message=(
                            f"{state['mismatches']} event(s) where tracked "
                            "live bytes disagreed with "
                            "Device.allocated_bytes"
                        ),
                        location=f"gpu{state['index']}",
                    )
                )
        return report

    # ------------------------------------------------------------------
    # Reports / snapshots
    # ------------------------------------------------------------------
    @property
    def reconciled(self) -> bool:
        """True while every tracked event matched the device's table."""
        return all(
            state["mismatches"] == 0 for state in self._devices.values()
        )

    def _sorted_states(self) -> List[dict]:
        return sorted(
            self._devices.values(),
            key=lambda state: (state["index"], state["spec"]),
        )

    def transfer_totals(self, device_index: int) -> Optional[dict]:
        """Journaled transfer totals shaped like ``transfer_summary()``."""
        for state in self._sorted_states():
            if state["index"] == device_index:
                return {
                    direction: {
                        "count": totals["count"],
                        "bytes": totals["bytes"],
                        "seconds": totals["seconds"],
                    }
                    for direction, totals in state["transfers"].items()
                }
        return None

    def device_report(self, state: dict) -> dict:
        return {
            "device": state["index"],
            "spec": state["spec"],
            "capacity_bytes": state["capacity_bytes"],
            "live_bytes": state["live_total"],
            "peak_bytes": state["peak_bytes"],
            "peak_ts": state["peak_ts"],
            "peak_fraction": (
                state["peak_bytes"] / state["capacity_bytes"]
                if state["capacity_bytes"]
                else 0.0
            ),
            "categories_at_peak": dict(state["categories_at_peak"]),
            "category_peaks": dict(state["category_peaks"]),
            "num_events": state["num_events"],
            "dropped_events": state["dropped_events"],
            "reconciled": state["mismatches"] == 0,
            "mismatches": state["mismatches"],
            "transfers": {
                direction: dict(totals)
                for direction, totals in state["transfers"].items()
            },
            "exchange_bytes": state["exchange_bytes"],
            "exchange_seconds": state["exchange_seconds"],
            "freed_all_bytes": state["freed_all_bytes"],
            "freed_all_calls": state["freed_all_calls"],
            "oom_count": state["oom_count"],
            "events": list(state["events"]),
        }

    def report(self) -> dict:
        """The full watermark report (see ``docs/observability.md``)."""
        return {
            "schema_version": MEMORY_SCHEMA_VERSION,
            "categories": list(CATEGORIES),
            "reconciled": self.reconciled,
            "devices": [
                self.device_report(state)
                for state in self._sorted_states()
            ],
            "planner": {
                "threshold": PLANNER_ERROR_THRESHOLD,
                "accuracy": self.planner_accuracy(),
            },
            "analysis": self.analysis_report().as_dict(),
        }

    def allocation_snapshot(self) -> dict:
        """The live allocation table, for flight-recorder bundles.

        Per-category aggregates plus the individual live handles (capped),
        taken from the devices' own tables — at OOM time this is exactly
        what was resident when the allocation failed.
        """
        devices = []
        for state in self._sorted_states():
            devices.append(
                {
                    "device": state["index"],
                    "capacity_bytes": state["capacity_bytes"],
                    "live_bytes": state["live_total"],
                    "peak_bytes": state["peak_bytes"],
                    "by_category": dict(sorted(state["live"].items())),
                    "oom_count": state["oom_count"],
                }
            )
        return {
            "schema_version": MEMORY_SCHEMA_VERSION,
            "reconciled": self.reconciled,
            "devices": devices,
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.report(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def track(
    *, max_events_per_device: int = 8192
) -> ContextManager[MemoryTracker]:
    """Scoped tracker install: restores the previous tracker on exit."""
    return hooks.installed(
        hooks.MEMORY,
        MemoryTracker(max_events_per_device=max_events_per_device),
    )


# ---------------------------------------------------------------------------
# Rendering


def _fmt_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return (
                f"{int(value)} {unit}"
                if unit == "B"
                else f"{value:.2f} {unit}"
            )
        value /= 1024.0
    return f"{n} B"


def render_memory_report(report: dict) -> str:
    """Human-readable rendering of a watermark report dict."""
    lines = ["device-memory watermark report"]
    lines.append(
        "reconciled: "
        + ("yes" if report.get("reconciled", False) else "NO")
    )
    for dev in report.get("devices", []):
        lines.append(
            f"gpu{dev['device']} ({dev.get('spec', '?')}): peak "
            f"{_fmt_bytes(dev['peak_bytes'])} of "
            f"{_fmt_bytes(dev['capacity_bytes'])} "
            f"({dev.get('peak_fraction', 0.0) * 100.0:.1f} %) at modeled "
            f"t={dev.get('peak_ts', 0.0):.6f} s, "
            f"{dev.get('num_events', 0)} event(s)"
        )
        for cat, nbytes in sorted(dev.get("category_peaks", {}).items()):
            at_peak = dev.get("categories_at_peak", {}).get(cat, 0)
            lines.append(
                f"  {cat:<13} peak {_fmt_bytes(nbytes):>12}   "
                f"at device peak {_fmt_bytes(at_peak)}"
            )
        transfers = dev.get("transfers", {})
        for direction in ("h2d", "d2h"):
            totals = transfers.get(direction)
            if totals:
                lines.append(
                    f"  {direction}: {totals['count']} transfer(s), "
                    f"{_fmt_bytes(totals['bytes'])} "
                    f"({totals.get('streamed_count', 0)} streamed, "
                    f"{_fmt_bytes(totals.get('streamed_bytes', 0))})"
                )
        if dev.get("exchange_bytes"):
            lines.append(
                f"  exchange: {_fmt_bytes(dev['exchange_bytes'])} in "
                f"{dev.get('exchange_seconds', 0.0):.6f} s"
            )
        if dev.get("freed_all_calls"):
            lines.append(
                f"  free_all: {dev['freed_all_calls']} sweep(s) released "
                f"{_fmt_bytes(dev['freed_all_bytes'])}"
            )
        if dev.get("oom_count"):
            lines.append(f"  OOM events: {dev['oom_count']}")
    accuracy = report.get("planner", {}).get("accuracy", [])
    if accuracy:
        lines.append("planner accuracy (device_footprint vs measured peak):")
        for row in accuracy:
            flag = "ok" if row.get("within_threshold") else "MISS"
            lines.append(
                f"  {row['engine']}@gpu{row['device']} "
                f"[{row.get('source', 'device_footprint')}]: predicted "
                f"{_fmt_bytes(row['predicted_bytes'])}, measured "
                f"{_fmt_bytes(row['measured_peak_bytes'])} "
                f"({row['error_ratio'] * 100.0:+.1f} %) {flag}"
            )
    analysis = report.get("analysis", {})
    findings = analysis.get("findings", [])
    if findings:
        lines.append(f"findings ({len(findings)}):")
        for finding in findings:
            lines.append(
                f"  [{finding['severity']}] {finding['rule']}: "
                f"{finding['location']}: {finding['message']}"
            )
    else:
        lines.append("findings: none")
    return "\n".join(lines)
