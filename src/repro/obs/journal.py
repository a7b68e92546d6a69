"""Structured event journal with correlation IDs.

The journal is the serving path's flight log: one append-only sequence of
structured events, each stamped with the correlation IDs the active
:class:`~repro.obs.ObsSession` mints — ``run_id`` (one per session),
``slide_id`` (one per window slide) and ``attempt_id`` (one per engine
execution attempt).  A slide's full causal chain — diff, DynLP plan,
engine attempts, injected faults, recovery decisions, ladder
degradations, final latency — is then one ``grep slide-0003`` away.

Events are plain dicts with a fixed envelope::

    {"seq": 7, "ts_us": 1234, "event": "engine.attempt.fault",
     "run_id": "run-1f2e...", "slide_id": "slide-0003",
     "attempt_id": "attempt-0005", ...payload fields...}

``seq`` is strictly increasing within a journal; ``ts_us`` is integer
microseconds of host wall clock since the journal was created (the same
``perf_counter`` origin convention :mod:`repro.obs.trace` uses).  The
JSONL export leads with a ``journal.meta`` header line carrying
``schema_version``, which ``benchmarks/check_obs_schema.py --journal``
validates in CI.

Instrumented code never imports this module directly — it calls
:func:`repro.obs.emit` / :func:`repro.obs.correlate` /
:func:`repro.obs.mint_id`, which are no-ops (one context-variable read)
when no session is active, preserving the zero-perturbation contract.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from typing import Dict, Iterator, List, Optional

#: Bump when the event envelope changes incompatibly.
JOURNAL_SCHEMA_VERSION = 1

#: Envelope keys every record carries; payload fields may not override them.
ENVELOPE_KEYS = ("seq", "ts_us", "event", "run_id", "slide_id", "attempt_id")

#: Every event name an ``obs.emit()`` call site may journal (the
#: ``journal.meta`` header is not an event).  The consistency lint
#: (``repro check --all``) checks the emit sites against this tuple both
#: ways.
EVENTS = (
    "engine.attempt.start",
    "engine.attempt.fault",
    "engine.attempt.end",
    "fault.injected",
    "recovery.checkpoint",
    "recovery.fault",
    "recovery.restore",
    "resilience.degradation",
    "slide.start",
    "slide.diff",
    "slide.replay",
    "slide.plan",
    "slide.detect",
    "slide.end",
    "serve.start",
    "serve.slide",
    "serve.probe",
    "serve.shed",
    "serve.overload",
    "serve.end",
    "flight.dump",
)


def mint_run_id() -> str:
    """A fresh globally-unique run correlation ID."""
    return f"run-{uuid.uuid4().hex[:12]}"


def _jsonable(value):
    """Coerce numpy scalars and other oddballs to JSON-clean values."""
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    item = getattr(value, "item", None)
    if item is not None:
        try:
            # numpy scalars: .item() yields the matching Python scalar.
            scalar = item()
            if isinstance(scalar, (str, bool, int, float)):
                return scalar
        except (TypeError, ValueError):
            pass
    return str(value)


class Journal:
    """Append-only structured event log for one observability session."""

    def __init__(self, *, run_id: Optional[str] = None) -> None:
        self.run_id = run_id if run_id is not None else mint_run_id()
        self._origin = time.perf_counter()
        self._seq = 0
        # The serving path journals from the event loop *and* from the
        # slide executor thread; the lock keeps ``seq`` strictly
        # increasing and the append ordered under that concurrency.
        self._lock = threading.Lock()
        self.events: List[dict] = []

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    def record(
        self,
        event: str,
        *,
        slide_id: str = "",
        attempt_id: str = "",
        fields: Optional[Dict[str, object]] = None,
    ) -> dict:
        """Append one event and return the stored record."""
        with self._lock:
            self._seq += 1
            record = {
                "seq": self._seq,
                "ts_us": int((time.perf_counter() - self._origin) * 1e6),
                "event": str(event),
                "run_id": self.run_id,
                "slide_id": slide_id,
                "attempt_id": attempt_id,
            }
            if fields:
                for key, value in fields.items():
                    if key not in ENVELOPE_KEYS:
                        record[key] = _jsonable(value)
            self.events.append(record)
            return record

    # ------------------------------------------------------------------
    def events_for(
        self,
        *,
        event: Optional[str] = None,
        slide_id: Optional[str] = None,
        attempt_id: Optional[str] = None,
    ) -> List[dict]:
        """Events matching every given filter, in ``seq`` order."""
        out = []
        for record in self.events:
            if event is not None and record["event"] != event:
                continue
            if slide_id is not None and record["slide_id"] != slide_id:
                continue
            if attempt_id is not None and record["attempt_id"] != attempt_id:
                continue
            out.append(record)
        return out

    def slide_ids(self) -> List[str]:
        """Distinct non-empty slide IDs in first-seen order."""
        seen: List[str] = []
        for record in self.events:
            sid = record["slide_id"]
            if sid and sid not in seen:
                seen.append(sid)
        return seen

    # ------------------------------------------------------------------
    def meta(self) -> dict:
        """The JSONL header record."""
        return {
            "seq": 0,
            "ts_us": 0,
            "event": "journal.meta",
            "run_id": self.run_id,
            "slide_id": "",
            "attempt_id": "",
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "num_events": len(self.events),
        }

    def lines(self) -> Iterator[str]:
        yield json.dumps(self.meta(), sort_keys=True)
        for record in self.events:
            yield json.dumps(record, sort_keys=True, default=str)

    def to_jsonl(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())


def read_journal(path: str) -> List[dict]:
    """Parse a JSONL journal file back into records (header first)."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
