"""Golden journal of the degradation ladder (GPU -> hybrid -> CPU).

Four runs step through (or refuse) the ladder under injected device OOM:
``run_auto`` down to the serial CPU engine, ``run_auto`` with
``degrade=False``, and a :class:`~repro.pipeline.incremental.
SlidingWindowDetector` cold start with and without ``degrade``.  Each
journal is projected onto the fields of
:mod:`tests.resilience.test_golden_journal` plus the ladder step's
``source``/``target`` and compared with the committed fixture, so a
change to the rung order, the degradation events or the flight dumps
shows up as a diff.

Regenerate the fixture (only when the ladder is meant to change)::

    PYTHONPATH=src python -m tests.resilience.test_golden_ladder
"""

import json
import os

import pytest

from repro import ClassicLP, GLPEngine, obs
from repro.core.hybrid import run_auto
from repro.errors import OutOfDeviceMemoryError
from repro.graph.generators import planted_partition_graph
from repro.pipeline.detector import ClusterDetector
from repro.pipeline.incremental import SlidingWindowDetector
from repro.resilience import FaultPlan, RetryPolicy, inject
from tests.resilience.test_golden_journal import FIELDS as JOURNAL_FIELDS
from tests.resilience.test_golden_journal import make_stream

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "ladder_journal.json"
)

FIELDS = JOURNAL_FIELDS + ("source", "target")


def project(event):
    return {key: event[key] for key in FIELDS if key in event}


def _auto(degrade):
    graph, _ = planted_partition_graph(240, 6, 8.0, 0.9, seed=7)
    return run_auto(graph, ClassicLP(), max_iterations=8, degrade=degrade)


def _detector(degrade):
    detector = SlidingWindowDetector(
        make_stream(),
        ClusterDetector(GLPEngine(), retry_policy=RetryPolicy()),
        degrade=degrade,
    )
    return detector.start(0, 6)


#: ``(run, fault plan, raises)`` per scenario.
SCENARIOS = {
    "auto": (lambda: _auto(True), "oom@2x999", False),
    "auto-no-degrade": (lambda: _auto(False), "oom@2x999", True),
    "detector": (lambda: _detector(True), "oom@2x999999", False),
    "detector-no-degrade": (lambda: _detector(False), "oom@2x999999", True),
}


def ladder_journal(name):
    """The projected journal of one ladder scenario."""
    run, plan, raises = SCENARIOS[name]
    with obs.observe() as session:
        with inject(FaultPlan.parse(plan)):
            if raises:
                with pytest.raises(OutOfDeviceMemoryError):
                    run()
            else:
                run()
    return [project(event) for event in session.journal.events]


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_ladder_journal_matches_golden(name, golden):
    journal = ladder_journal(name)
    expected = golden[name]
    for index, (got, want) in enumerate(zip(journal, expected)):
        assert got == want, f"{name}: event {index} differs"
    assert len(journal) == len(expected)


def write_fixture() -> None:
    doc = {name: ladder_journal(name) for name in sorted(SCENARIOS)}
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
