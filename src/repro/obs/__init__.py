"""repro.obs — tracing, metrics, journal and profiling for the whole stack.

Integrated layers (see ``docs/observability.md``):

* :mod:`repro.obs.trace` — nested spans with a Chrome ``trace_event``
  exporter (host spans on the wall clock, kernel/memcpy spans on the
  simulator's modeled clock);
* :mod:`repro.obs.metrics` — named counters / gauges / histograms with
  labeled dimensions, exported as JSON or prometheus text;
* :mod:`repro.obs.journal` — a structured JSONL event journal with
  correlation IDs (``run_id`` / ``slide_id`` / ``attempt_id``) threading
  every slide's plan → attempts → recovery → degradation chain;
* :mod:`repro.obs.flight` — a bounded ring buffer that dumps post-mortem
  bundles on unrecovered faults and ladder degradations;
* :mod:`repro.obs.slo` — declarative TOML SLO specs evaluated over the
  metrics registry with multi-window burn-rate alerting;
* :mod:`repro.obs.profile` — an nvprof-style per-kernel report aggregated
  from the device launch timeline;
* :mod:`repro.obs.memory` — device-memory telemetry: a per-device
  allocation timeline with semantic categories, Chrome-trace counter
  tracks, watermark reports and a ``device_footprint`` planner-accuracy
  gate, installed through the :mod:`repro.gpusim.hooks` registry.

Observability is **off by default** and activated per-session::

    with obs.observe() as session:
        result = GLPEngine().run(graph, ClassicLP())
    session.tracer.write("trace.json")
    session.metrics.write("metrics.json")
    session.journal.write("journal.jsonl")

Instrumented code calls the module-level helpers (:func:`span`,
:func:`metrics`, :func:`tracer`, :func:`emit`, :func:`correlate`,
:func:`session`); with no active session they cost one context-variable
read and change **nothing** — labels, counters and timings are bitwise
identical, which ``tests/obs/test_identity.py`` enforces differentially.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from types import MappingProxyType
from typing import ContextManager, Dict, Iterator, Mapping, Optional

from repro.gpusim.hooks import installed
from repro.obs.advisor import AdvisorReport, Finding, KernelDiagnosis
from repro.obs.flight import FlightRecorder
from repro.obs.journal import Journal, mint_run_id
from repro.obs.memory import MemoryTracker, alloc_scope
from repro.obs.memory import track as track_memory
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import KernelRow, MemcpyRow, ProfileReport
from repro.obs.trace import Tracer

__all__ = [
    "AdvisorReport",
    "Counter",
    "Finding",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "Journal",
    "KernelDiagnosis",
    "KernelRow",
    "MemcpyRow",
    "MemoryTracker",
    "MetricsRegistry",
    "ObsSession",
    "ProfileReport",
    "Tracer",
    "alloc_scope",
    "annotate",
    "correlate",
    "emit",
    "flight",
    "flight_dump",
    "journal",
    "metrics",
    "mint_id",
    "observe",
    "session",
    "span",
    "tracer",
    "track_memory",
]


class ObsSession:
    """One observability session: tracer, metrics, journal and flight.

    The session also owns the correlation-ID counters: ``run_id`` is
    minted once at construction; :func:`mint_id` hands out per-kind
    sequential IDs (``slide-0001``, ``attempt-0003``, ...) and
    :func:`correlate` scopes them so every :func:`emit` inside the scope,
    in the same thread or task, carries them.
    """

    def __init__(
        self,
        *,
        trace: bool = True,
        metrics: bool = True,
        journal: bool = True,
        flight_capacity: int = 256,
        run_id: Optional[str] = None,
    ) -> None:
        self.run_id = run_id if run_id is not None else mint_run_id()
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if metrics else None
        )
        self.journal: Optional[Journal] = (
            Journal(run_id=self.run_id) if journal else None
        )
        self.flight: Optional[FlightRecorder] = (
            FlightRecorder(capacity=flight_capacity) if journal else None
        )
        #: Session context notes included in post-mortem bundles
        #: (latest checkpoint pointer, slide diff summary, ...).
        self.context: Dict[str, object] = {}
        self._id_counters: Dict[str, int] = {}

    def mint_id(self, kind: str) -> str:
        """The next sequential correlation ID of ``kind``."""
        n = self._id_counters.get(kind, 0) + 1
        self._id_counters[kind] = n
        return f"{kind}-{n:04d}"

    def correlation_ids(self) -> Dict[str, str]:
        """The ambient IDs, run_id included (for bundles/reports)."""
        return {"run_id": self.run_id, **_IDS.get()}


#: The active session; ``None`` means observability is disabled.
_SESSION: ContextVar[Optional[ObsSession]] = ContextVar(
    "repro.obs.SESSION", default=None
)

#: Ambient correlation IDs stamped onto every journal event.
_NO_IDS: Mapping[str, str] = MappingProxyType(
    {"slide_id": "", "attempt_id": ""}
)
_IDS: ContextVar[Mapping[str, str]] = ContextVar(
    "repro.obs.IDS", default=_NO_IDS
)

#: Shared no-op context for disabled spans (nullcontext is reentrant).
_NULL_SPAN = contextlib.nullcontext()


def session() -> Optional[ObsSession]:
    """The active session, or ``None`` when observability is off."""
    return _SESSION.get()


@contextlib.contextmanager
def observe(
    *,
    trace: bool = True,
    metrics: bool = True,
    journal: bool = True,
    flight_capacity: int = 256,
) -> Iterator[ObsSession]:
    """Activate a fresh session, with empty IDs, for the block."""
    current = ObsSession(
        trace=trace,
        metrics=metrics,
        journal=journal,
        flight_capacity=flight_capacity,
    )
    with installed(_SESSION, current), installed(_IDS, _NO_IDS):
        yield current


def tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` (hot paths guard on this)."""
    s = _SESSION.get()
    return s.tracer if s is not None else None


def metrics() -> Optional[MetricsRegistry]:
    """The active metrics registry, or ``None``."""
    s = _SESSION.get()
    return s.metrics if s is not None else None


def journal() -> Optional[Journal]:
    """The active journal, or ``None``."""
    s = _SESSION.get()
    return s.journal if s is not None else None


def flight() -> Optional[FlightRecorder]:
    """The active flight recorder, or ``None``."""
    s = _SESSION.get()
    return s.flight if s is not None else None


def span(name: str, *, cat: str = "host", **args):
    """A host wall-clock span, or a shared no-op context when disabled."""
    s = _SESSION.get()
    if s is None or s.tracer is None:
        return _NULL_SPAN
    if s.journal is not None:
        ids = _IDS.get()
        if ids["slide_id"]:
            args.setdefault("slide_id", ids["slide_id"])
        if ids["attempt_id"]:
            args.setdefault("attempt_id", ids["attempt_id"])
    return s.tracer.span(name, cat=cat, args=args or None)


# ---------------------------------------------------------------------------
# Journal / correlation helpers — emit, mint_id and annotate are no-ops
# (one context read) when off.


def emit(event: str, **fields) -> None:
    """Append one journal event with the ambient correlation IDs."""
    s = _SESSION.get()
    if s is None or s.journal is None:
        return
    ids = _IDS.get()
    record = s.journal.record(
        event,
        slide_id=ids["slide_id"],
        attempt_id=ids["attempt_id"],
        fields=fields,
    )
    if s.flight is not None:
        s.flight.record(record)


def mint_id(kind: str) -> str:
    """Mint a sequential correlation ID, or ``""`` when disabled."""
    s = _SESSION.get()
    if s is None or s.journal is None:
        return ""
    return s.mint_id(kind)


def correlate(**ids: str) -> ContextManager[Mapping[str, str]]:
    """Scope ambient correlation IDs (``slide_id=`` / ``attempt_id=``).

    The IDs are visible to this thread or task, and to worker threads it
    starts with ``asyncio.to_thread``; never to a sibling.
    """
    return installed(_IDS, {**_IDS.get(), **ids})


def annotate(key: str, value: object) -> None:
    """Attach session context included in post-mortem bundles."""
    s = _SESSION.get()
    if s is None or s.journal is None:
        return
    s.context[key] = value


def flight_dump(trigger: str, **details) -> Optional[dict]:
    """Capture a post-mortem bundle from the active session, if any."""
    s = _SESSION.get()
    if s is None or s.flight is None:
        return None
    emit("flight.dump", trigger=trigger, **details)
    return s.flight.dump(
        trigger=trigger,
        ids=s.correlation_ids(),
        context=s.context,
        metrics=s.metrics.to_dict() if s.metrics is not None else None,
        details=details,
    )
