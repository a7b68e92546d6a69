"""Golden journal: a chaos-injected incremental window run, event for event.

Each device engine drives a fault-injected incremental
:class:`~repro.pipeline.incremental.SlidingWindowDetector` sweep (a cold
start plus two slides) with ``retry_policy=RetryPolicy()``.  The journal
is projected onto the fields that describe the recovery chain — no
timestamps, sequence numbers or correlation IDs — and compared with the
committed fixture, so any change to the attempt loop, the checkpoint
cadence or the device-event order shows up as a diff.

Regenerate the fixture (only when the recovery chain is meant to change)::

    PYTHONPATH=src python -m tests.resilience.test_golden_journal
"""

import json
import os

import pytest

from repro import GLPEngine, obs
from repro.core.hybrid import HybridEngine
from repro.core.multigpu import MultiGPUEngine
from repro.gpusim.config import TITAN_V
from repro.pipeline.detector import ClusterDetector
from repro.pipeline.incremental import SlidingWindowDetector
from repro.pipeline.transactions import (
    TransactionStream,
    TransactionStreamConfig,
)
from repro.resilience import FaultPlan, RetryPolicy, inject

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "chaos_journal.json"
)

#: Journal fields kept by the projection (all others are volatile).
FIELDS = (
    "event",
    "engine",
    "attempt",
    "iteration",
    "start_iteration",
    "kind",
    "decision",
)

#: ``(engine factory, fault plan)`` per engine.  The plans mix transient
#: retries with a fatal ECC resume, spread over the cold run and slides.
SCENARIOS = {
    "glp": (
        lambda: GLPEngine(frontier="auto"),
        "kernel@10,transfer@12,ecc@50,kernel@75",
    ),
    "hybrid": (
        lambda: HybridEngine(
            frontier="auto", spec=TITAN_V.with_memory(150_000)
        ),
        "transfer@100,kernel@8,ecc@20",
    ),
    "multigpu": (
        lambda: MultiGPUEngine(2, frontier="auto"),
        "kernel@10,ecc@40,kernel@70",
    ),
}


def make_stream():
    return TransactionStream(
        TransactionStreamConfig(
            num_users=800,
            num_products=400,
            num_days=12,
            transactions_per_day=400,
            num_rings=3,
            ring_size=6,
            seed=33,
        )
    )


def project(event):
    return {key: event[key] for key in FIELDS if key in event}


def chaos_journal(name, stream):
    """The projected journal of one engine's chaos-injected sweep."""
    factory, plan = SCENARIOS[name]
    detector = SlidingWindowDetector(
        stream,
        ClusterDetector(factory(), retry_policy=RetryPolicy()),
        incremental=True,
    )
    with obs.observe() as session:
        with inject(FaultPlan.parse(plan)):
            detector.start(0, 6)
            detector.slide()
            detector.slide()
    return [project(event) for event in session.journal.events]


@pytest.fixture(scope="module")
def stream():
    return make_stream()


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_chaos_journal_matches_golden(name, stream, golden):
    journal = chaos_journal(name, stream)
    expected = golden[name]
    for index, (got, want) in enumerate(zip(journal, expected)):
        assert got == want, f"{name}: event {index} differs"
    assert len(journal) == len(expected)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_journal_exercises_recovery(name, golden):
    events = [e["event"] for e in golden[name]]
    assert "recovery.restore" in events
    assert "engine.attempt.fault" in events
    decisions = {e.get("decision") for e in golden[name]}
    assert {"retry", "resume"} <= decisions


def write_fixture() -> None:
    stream = make_stream()
    doc = {name: chaos_journal(name, stream) for name in sorted(SCENARIOS)}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        fh.write("{\n")
        for position, name in enumerate(sorted(doc)):
            fh.write(f'  "{name}": [\n')
            rows = [json.dumps(event) for event in doc[name]]
            fh.write(",\n".join(f"    {row}" for row in rows))
            fh.write("\n  ]" + (",\n" if position < len(doc) - 1 else "\n"))
        fh.write("}\n")


if __name__ == "__main__":
    write_fixture()
