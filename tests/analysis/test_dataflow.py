"""Interval dataflow verifier tests: proofs on shipped kernels, seeded bugs.

The shipped shared-memory kernels must come back *proven* (every access
site gets a ``dataflow-proven-clean`` info and zero errors); the seeded
fixtures must be rejected with the exact rule at the exact ``file:line``.
"""

from __future__ import annotations

import os

from repro.analysis import check_dataflow
from repro.analysis.dataflow import dataflow_file

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))


def _fixture_report(name):
    return check_dataflow([os.path.join(FIXTURES, name)])


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


def test_upper_bound_violation_is_flagged():
    report = _fixture_report("broken_oob_geometry.py")
    oob = [f for f in report.findings if f.rule == "dataflow-oob-possible"]
    lineno = _line_of(
        "broken_oob_geometry.py", "device.atomics.shared_atomic_add(", 1
    )
    hits = [f for f in oob if f.location.endswith(f"broken_oob_geometry.py:{lineno}")]
    assert len(hits) == 1
    assert "upper bound" in hits[0].message


def test_lower_bound_violation_is_flagged():
    report = _fixture_report("broken_oob_geometry.py")
    oob = [f for f in report.findings if f.rule == "dataflow-oob-possible"]
    lineno = _line_of(
        "broken_oob_geometry.py", "device.atomics.shared_atomic_add(", 2
    )
    hits = [f for f in oob if f.location.endswith(f"broken_oob_geometry.py:{lineno}")]
    assert len(hits) == 1
    assert "lower bound" in hits[0].message


def test_nonmonotone_update_is_flagged():
    report = _fixture_report("broken_oob_geometry.py")
    (finding,) = [
        f for f in report.findings if f.rule == "dataflow-nonmonotone-update"
    ]
    lineno = _line_of(
        "broken_oob_geometry.py", "(best_labels + current_labels) // 2"
    )
    assert finding.location.endswith(f"broken_oob_geometry.py:{lineno}")


def test_scatter_overlap_fixture_warns_but_proves_bounds():
    report = _fixture_report("scatter_overlap.py")
    assert report.errors == []
    (warning,) = report.warnings
    assert warning.rule == "dataflow-overlap-possible"
    lineno = _line_of("scatter_overlap.py", "device.shared.store(")
    assert warning.location.endswith(f"scatter_overlap.py:{lineno}")
    # The store is still in-bounds: hash mod the declared extent.
    proven = [f for f in report.infos if f.rule == "dataflow-proven-clean"]
    assert len(proven) == 1
    assert proven[0].location == warning.location


def test_shipped_kernels_are_proven_in_bounds():
    report = check_dataflow()
    assert report.source == "dataflow"
    assert report.errors == []
    assert report.warnings == []
    proven = [f for f in report.infos if f.rule == "dataflow-proven-clean"]
    by_file = {}
    for finding in proven:
        name = os.path.basename(finding.location.rsplit(":", 1)[0])
        by_file[name] = by_file.get(name, 0) + 1
    # Both smem_cms_ht sites (CMS rows + hash table) and the warp-centric
    # hash table must be individually proven.
    assert by_file.get("smem_cms_ht.py") == 2
    assert by_file.get("warp_centric.py") == 1
    assert report.checked >= 3
    # Each site is attributed to the kernel whose launch runs its body.
    assert sorted(f.kernel for f in proven) == [
        "smem-cms-ht",
        "smem-cms-ht",
        "warp-shared-ht",
    ]


def test_shipped_update_hooks_are_monotone():
    for rel in (
        "src/repro/algorithms/labelrank.py",
        "src/repro/algorithms/seeded.py",
        "src/repro/algorithms/slp.py",
        "src/repro/core/api.py",
    ):
        path = os.path.join(REPO_ROOT, rel)
        if not os.path.exists(path):
            continue
        findings, _ = dataflow_file(path)
        nonmono = [f for f in findings if f.rule == "dataflow-nonmonotone-update"]
        assert nonmono == [], rel


def test_report_serialization_counts_proofs():
    report = check_dataflow()
    doc = report.as_dict()
    assert doc["source"] == "dataflow"
    assert doc["num_infos"] == len(report.infos)
    assert "proven" in report.to_text()
