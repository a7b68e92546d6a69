"""Static linter tests: fixture patterns flagged, shipped code clean.

The fixtures under ``tests/analysis/fixtures/`` seed one instance of each
rule; the tests pin rule name and ``file:line`` attribution.  The
zero-findings tests over ``src/repro/kernels`` and ``examples/`` are the
regression guard behind the CI sanitize-gate.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import analysis
from repro.algorithms import ClassicLP

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))


def _fixture_findings(name):
    return analysis.lint_file(os.path.join(FIXTURES, name))


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


def test_non_atomic_counter_pattern_is_flagged():
    findings = _fixture_findings("broken_shared_counter.py")
    (finding,) = [f for f in findings if f.rule == "lint-non-atomic-rmw"]
    assert finding.array == "counter"
    lineno = _line_of("broken_shared_counter.py", "device.shared.store")
    assert finding.location.endswith(
        f"broken_shared_counter.py:{lineno}"
    )


def test_missing_barrier_pattern_is_flagged_only_in_broken_kernel():
    findings = _fixture_findings("broken_missing_barrier.py")
    (finding,) = [f for f in findings if f.rule == "lint-missing-barrier"]
    assert finding.array == "tile"
    # The flagged load is the broken kernel's (first) one; the barriered
    # and store-only kernels stay clean.
    lineno = _line_of("broken_missing_barrier.py", "device.shared.load")
    assert finding.location.endswith(
        f"broken_missing_barrier.py:{lineno}"
    )
    assert [f.rule for f in findings] == ["lint-missing-barrier"]


def test_bad_patterns_cover_the_remaining_rules():
    findings = _fixture_findings("bad_lint_patterns.py")
    counts = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    assert counts == {
        "lint-inplace-output-write": 2,   # direct write + aliased write
        "lint-sketch-bounds": 2,          # cms_depth=1 and cms_width=64
        "lint-divergent-warp-sync": 1,
        "lint-uninitialized-read": 1,
    }
    (divergent,) = [
        f for f in findings if f.rule == "lint-divergent-warp-sync"
    ]
    lineno = _line_of("bad_lint_patterns.py", "return ballot_sync")
    assert divergent.location.endswith(f"bad_lint_patterns.py:{lineno}")


def test_line_suppression_silences_a_rule():
    source = (
        "def kernel(device, addr):\n"
        "    device.shared.load(addr, array='t', size=4)\n"
        "    device.shared.store(addr, array='t', size=4)"
        "  # lint: disable=lint-non-atomic-rmw\n"
    )
    assert analysis.lint_source(source) == []
    # Without the directive the same source is flagged.
    assert analysis.lint_source(source.replace(
        "  # lint: disable=lint-non-atomic-rmw", ""
    ))


def test_file_suppression_silences_a_rule_everywhere():
    source = (
        "# lint: disable-file=lint-uninitialized-read\n"
        "import numpy as np\n"
        "def kernel(n):\n"
        "    buf = np.empty(n)\n"
        "    return buf[0]\n"
    )
    assert analysis.lint_source(source) == []


def test_shipped_kernels_and_examples_are_clean():
    report = analysis.lint_paths([
        os.path.join(REPO_ROOT, "src", "repro", "kernels"),
        os.path.join(REPO_ROOT, "examples"),
    ])
    assert report.checked > 0
    assert report.findings == [], report.to_text()


def test_lint_program_flags_a_bad_hook_and_passes_defaults():
    class BadProgram(ClassicLP):
        def update_vertices(
            self, vertex_ids, best_labels, best_scores, current_labels
        ):
            current_labels[vertex_ids] = best_labels
            return current_labels

    report = analysis.lint_program(BadProgram())
    assert [f.rule for f in report.findings] == [
        "lint-inplace-output-write"
    ]
    assert analysis.lint_program(ClassicLP()).findings == []


def test_schema_checker_accepts_a_real_report(
    schema_checker, tmp_path, capsys
):
    report = analysis.lint_paths([FIXTURES])
    assert report.has_hazards  # fixtures are not clean by design
    path = tmp_path / "lint.json"
    report.write(str(path))
    schema_checker.check_analysis(str(path))  # sys.exit(1)s on violation
    assert "OK" in capsys.readouterr().out


def test_schema_checker_rejects_unknown_rule(schema_checker, tmp_path):
    report = analysis.lint_paths([FIXTURES])
    doc = report.as_dict()
    doc["findings"][0]["rule"] = "not-a-rule"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit):
        schema_checker.check_analysis(str(path))


def _bench_with_null_advisor():
    with open(os.path.join(REPO_ROOT, "BENCH_dense_classic.json")) as fh:
        doc = json.load(fh)
    doc["advisor"] = None
    return doc


def _analysis_with_string_finding():
    doc = analysis.lint_paths([FIXTURES]).as_dict()
    # Contains every finding key as a substring, so the key check passes
    # and indexing the string raises TypeError.
    doc["findings"][0] = (
        "rule severity message kernel array space offset location "
        "actors count"
    )
    return doc


@pytest.mark.parametrize(
    "flag, make_doc",
    [
        ("--bench", _bench_with_null_advisor),
        ("--analysis", _analysis_with_string_finding),
    ],
    ids=["bench-null-advisor", "analysis-string-finding"],
)
def test_schema_checker_fails_cleanly_on_malformed_input(
    schema_checker, tmp_path, capsys, flag, make_doc
):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(make_doc()))
    with pytest.raises(SystemExit) as exc:
        schema_checker.main(["check_obs_schema.py", flag, str(path)])
    assert exc.value.code == 1
    assert f"check_obs_schema: FAIL: {path}: " in capsys.readouterr().err


def test_disable_next_line_suppresses_a_wrapped_statement():
    # The flagged call is wrapped over several lines, so a trailing
    # ``# lint: disable=`` comment cannot reach it -- the directive goes
    # on its own line above instead.
    source = (
        "def kernel(device, addr):\n"
        "    device.shared.load(addr, array='t', size=4)\n"
        "    # lint: disable-next-line=lint-non-atomic-rmw\n"
        "    device.shared.store(\n"
        "        addr,\n"
        "        array='t',\n"
        "        size=4,\n"
        "    )\n"
    )
    assert analysis.lint_source(source) == []
    # Without the directive the same source is flagged.
    stripped = source.replace(
        "    # lint: disable-next-line=lint-non-atomic-rmw\n", ""
    )
    assert [f.rule for f in analysis.lint_source(stripped)] == [
        "lint-non-atomic-rmw"
    ]


def test_disable_next_line_directives_stack():
    source = (
        "import numpy as np\n"
        "def kernel(device, n, addr):\n"
        "    buf = np.empty(n)\n"
        "    device.shared.load(addr, array='t', size=4)\n"
        "    # lint: disable-next-line=lint-non-atomic-rmw\n"
        "    # lint: disable-next-line=lint-uninitialized-read\n"
        "    device.shared.store(buf, array='t', size=4)\n"
    )
    assert analysis.lint_source(source) == []


def test_disable_next_line_does_not_leak_past_its_line():
    source = (
        "def kernel(device, addr):\n"
        "    device.shared.load(addr, array='t', size=4)\n"
        "    # lint: disable-next-line=lint-non-atomic-rmw\n"
        "    x = addr\n"
        "    device.shared.store(x, array='t', size=4)\n"
    )
    assert [f.rule for f in analysis.lint_source(source)] == [
        "lint-non-atomic-rmw"
    ]
