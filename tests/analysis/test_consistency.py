"""Consistency lint tests: emit sites checked against their declarations.

The shipped tree must be clean, each class of drift in the seeded fixture
must be caught at its emit site, and a declared name with no emit site
must be caught at its declaration.
"""

from __future__ import annotations

import importlib
import os

from repro.analysis import check_consistency

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "fixtures")


def _fixture_report(name):
    return check_consistency([os.path.join(FIXTURES, name)])


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


def _single(report, rule):
    (finding,) = [f for f in report.findings if f.rule == rule]
    return finding


def test_drifted_metric_name_is_flagged():
    report = _fixture_report("drifted_metric_name.py")
    finding = _single(report, "consistency-metric-drift")
    lineno = _line_of("drifted_metric_name.py", 'inc("pipeline_windws_total")')
    assert finding.location.endswith(f"drifted_metric_name.py:{lineno}")
    assert "pipeline_windws_total" in finding.message


def test_drifted_event_name_is_flagged():
    report = _fixture_report("drifted_metric_name.py")
    finding = _single(report, "consistency-event-drift")
    lineno = _line_of("drifted_metric_name.py", 'emit("slide.detectt"')
    assert finding.location.endswith(f"drifted_metric_name.py:{lineno}")


def test_drifted_category_and_rule_are_flagged():
    report = _fixture_report("drifted_metric_name.py")
    category = _single(report, "consistency-category-drift")
    assert category.location.endswith(
        "drifted_metric_name.py:%d" % _line_of("drifted_metric_name.py", 'alloc_scope("chekpoint")')
    )
    rule = _single(report, "consistency-rule-drift")
    assert rule.location.endswith(
        "drifted_metric_name.py:%d"
        % _line_of("drifted_metric_name.py", 'rule="lint-imaginary-rule"')
    )


def test_shipped_tree_has_no_drift():
    report = check_consistency()
    assert report.source == "consistency"
    assert report.findings == []
    assert report.checked > 0


def test_declared_but_never_emitted_rule_is_drift(monkeypatch):
    from repro.analysis import findings as findings_mod

    monkeypatch.setitem(findings_mod.RULES, "lint-phantom-rule", "error")
    report = check_consistency()
    drift = [f for f in report.findings if f.rule == "consistency-rule-drift"]
    assert any("lint-phantom-rule" in f.message for f in drift)


def test_declared_but_never_emitted_event_is_drift(monkeypatch):
    # ``repro.obs.journal`` the attribute is a function; fetch the module.
    journal = importlib.import_module("repro.obs.journal")
    monkeypatch.setattr(
        journal, "EVENTS", journal.EVENTS + ("slide.phantom",)
    )
    report = check_consistency()
    drift = [f for f in report.findings if f.rule == "consistency-event-drift"]
    assert any("slide.phantom" in f.message for f in drift)
