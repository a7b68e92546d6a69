"""Contract checker tests: shipped interfaces clean, seeded fixtures flagged.

The import-mode checks walk the real program/registry/CLI surface
and must come back empty; the AST-mode fixture pins each rule to the
offending ``def`` line.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import check_contracts
from repro.analysis.contracts import HOOK_ARITY

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "fixtures")


def _fixture_report(name):
    return check_contracts([os.path.join(FIXTURES, name)])


def _line_of(name, needle, occurrence=1):
    """1-based line number of the n-th line containing ``needle``."""
    seen = 0
    with open(os.path.join(FIXTURES, name)) as fh:
        for lineno, line in enumerate(fh, start=1):
            if needle in line:
                seen += 1
                if seen == occurrence:
                    return lineno
    raise AssertionError(f"{needle!r} not found in {name}")


def test_hook_arity_mismatch_is_flagged():
    report = _fixture_report("bad_program_hook.py")
    (finding,) = [
        f for f in report.findings if f.rule == "contract-hook-signature-mismatch"
    ]
    lineno = _line_of("bad_program_hook.py", "def score(self, vertex_ids")
    assert finding.location.endswith(f"bad_program_hook.py:{lineno}")
    assert "score" in finding.message
    # The correctly-spelled update_vertices override stays clean.
    assert "update_vertices" not in finding.message


def test_shipped_interfaces_are_contract_clean():
    report = check_contracts()
    assert report.source == "contracts"
    assert report.findings == []
    assert report.checked > 0


def test_hook_arity_table_matches_lp_program():
    from repro.core.api import LPProgram

    import inspect

    for hook, arity in HOOK_ARITY.items():
        params = inspect.signature(getattr(LPProgram, hook)).parameters
        positional = [
            p
            for p in params.values()
            if p.kind
            in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        ]
        assert len(positional) == arity, hook


def test_tampered_registry_subscriber_is_caught(monkeypatch):
    from repro.obs import memory as memory_mod

    class BadTracker(memory_mod.MemoryTracker):
        def on_free(self, device):  # drops the handle parameter
            return None

    monkeypatch.setattr(memory_mod, "MemoryTracker", BadTracker)
    report = check_contracts()
    mismatches = [
        f for f in report.findings if f.rule == "contract-registry-callback-mismatch"
    ]
    assert any("on_free" in f.message for f in mismatches)


def test_bsp_engine_missing_a_driver_hook_fails_at_construction():
    """A device engine without ``_attempt`` cannot be built, so
    ``drive`` never meets it."""
    from repro.core.driver import BSPEngine, drive

    class NoAttempt(BSPEngine):
        run = drive

        def _initial_carry(self, initial):
            return {}

        def _finish(self, run):
            return None

    with pytest.raises(TypeError, match="_attempt"):
        NoAttempt()
