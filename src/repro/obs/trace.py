"""Span tracer with a Chrome ``trace_event`` exporter.

A full run renders as a timeline in ``chrome://tracing`` / Perfetto:

* **Host spans** (engine iterations, window builds, detection stages) are
  timed on the *wall clock* and live on the ``host (wall clock)`` process
  track.  They nest — the exporter emits Chrome "complete" (``ph: "X"``)
  events, and Perfetto renders their nested time ranges as a flame graph.
* **Device spans** (kernel launches, PCIe memcpys) are timed on the
  simulator's *modeled clock* — the cumulative roofline seconds of the
  owning :class:`~repro.gpusim.device.Device` — and live on the
  ``gpusim (modeled clock)`` process track, one thread lane per device
  index.  The two clocks are unrelated; keeping them on separate process
  tracks is what makes the mixed timeline honest.

The tracer is deliberately dumb: append-only event dicts, microsecond
timestamps, no I/O until :meth:`Tracer.write`.  When constructed with
``enabled=False`` every record call is a no-op so instrumented code can
leave its hooks in place permanently.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, Iterator, List, Optional

#: Bump when the trace export changes incompatibly (extra top-level keys
#: are legal in the Chrome trace_event "object format").
SCHEMA_VERSION = 1

#: Synthetic pid of the wall-clock (host) process track.
HOST_PID = 1
#: Synthetic pid of the modeled-clock (simulated device) process track.
DEVICE_PID = 2


class Tracer:
    """Collect nested host spans and flat device spans as trace events."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: List[dict] = []
        self._origin = time.perf_counter()
        self._device_tids: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        return len(self._events)

    @property
    def events(self) -> List[dict]:
        """The raw (metadata-free) event list, for tests and reports."""
        return list(self._events)

    def _now_us(self) -> float:
        return (time.perf_counter() - self._origin) * 1e6

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(
        self,
        name: str,
        *,
        cat: str = "host",
        args: Optional[dict] = None,
    ) -> Iterator[None]:
        """A nested wall-clock span on the host track."""
        if not self.enabled:
            yield
            return
        start = self._now_us()
        try:
            yield
        finally:
            self._events.append(
                {
                    "ph": "X",
                    "name": name,
                    "cat": cat,
                    "pid": HOST_PID,
                    "tid": 1,
                    "ts": start,
                    "dur": self._now_us() - start,
                    **({"args": args} if args else {}),
                }
            )

    def host_event(
        self,
        name: str,
        start_perf_counter: float,
        *,
        cat: str = "host",
        args: Optional[dict] = None,
    ) -> None:
        """Record a host span measured externally.

        ``start_perf_counter`` is a ``time.perf_counter()`` reading taken
        when the work began; the event closes at the current time.  This is
        what hot loops use instead of the :meth:`span` context manager —
        one clock read up front, one call at the end, nothing held open
        across exceptions.
        """
        if not self.enabled:
            return
        ts = (start_perf_counter - self._origin) * 1e6
        self._events.append(
            {
                "ph": "X",
                "name": name,
                "cat": cat,
                "pid": HOST_PID,
                "tid": 1,
                "ts": ts,
                "dur": self._now_us() - ts,
                **({"args": args} if args else {}),
            }
        )

    def device_span(
        self,
        device_index: int,
        name: str,
        start_seconds: float,
        duration_seconds: float,
        *,
        cat: str = "kernel",
        args: Optional[dict] = None,
    ) -> None:
        """A modeled-clock span on device ``device_index``'s lane.

        ``start_seconds`` is the device's cumulative modeled time when the
        event began (kernel + transfer seconds already elapsed), so events
        recorded in launch order lay out sequentially without overlap.
        """
        if not self.enabled:
            return
        self._device_tids[device_index] = True
        self._events.append(
            {
                "ph": "X",
                "name": name,
                "cat": cat,
                "pid": DEVICE_PID,
                "tid": device_index,
                "ts": start_seconds * 1e6,
                "dur": duration_seconds * 1e6,
                **({"args": args} if args else {}),
            }
        )

    def counter_event(
        self,
        device_index: int,
        ts_seconds: float,
        values: Dict[str, int],
        *,
        name: Optional[str] = None,
    ) -> None:
        """One sample of a modeled-clock counter track (``ph: "C"``).

        Chrome/Perfetto key counter tracks by ``(pid, name)``, so every
        device gets exactly one track — ``gpu{i} device memory`` on the
        modeled-clock process — rendered as a stacked area chart of the
        per-category byte series in ``values``.  Samples arrive in
        modeled-clock order (the clock only advances), so ``ts`` is
        monotone within each track.
        """
        if not self.enabled:
            return
        self._device_tids[device_index] = True
        self._events.append(
            {
                "ph": "C",
                "name": name or f"gpu{device_index} device memory",
                "cat": "memory",
                "pid": DEVICE_PID,
                "tid": device_index,
                "ts": ts_seconds * 1e6,
                "args": {key: int(v) for key, v in values.items()},
            }
        )

    def instant(self, name: str, *, cat: str = "host", args=None) -> None:
        """A zero-duration marker on the host track."""
        if not self.enabled:
            return
        self._events.append(
            {
                "ph": "i",
                "s": "t",
                "name": name,
                "cat": cat,
                "pid": HOST_PID,
                "tid": 1,
                "ts": self._now_us(),
                **({"args": args} if args else {}),
            }
        )

    # ------------------------------------------------------------------
    def _metadata_events(self) -> List[dict]:
        meta = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": HOST_PID,
                "tid": 0,
                "args": {"name": "host (wall clock)"},
            },
            {
                "ph": "M",
                "name": "process_name",
                "pid": DEVICE_PID,
                "tid": 0,
                "args": {"name": "gpusim (modeled clock)"},
            },
        ]
        for tid in sorted(self._device_tids):
            meta.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": DEVICE_PID,
                    "tid": tid,
                    "args": {"name": f"gpu{tid}"},
                }
            )
        return meta

    def chrome_trace(self) -> dict:
        """The full ``trace_event`` document (metadata + events)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "traceEvents": self._metadata_events() + self._events,
            "displayTimeUnit": "ms",
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.chrome_trace(), indent=indent)

    def write(self, path: str) -> None:
        """Dump the trace to ``path`` (open in Perfetto / chrome://tracing)."""
        with open(path, "w") as fh:
            fh.write(self.to_json())
