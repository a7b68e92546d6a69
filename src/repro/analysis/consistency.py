"""Cross-module literal-drift lint: emit sites against their declarations.

The observability stack names things with string literals at their emit
sites — metric names (``metrics().inc("engine_runs_total")``), journal
event names (``obs.emit("slide.start")``), allocation categories
(``alloc_scope("csr")``) and finding rule IDs (``Finding(rule=...)``).
The enums those literals must come from are declared once, in the module
that owns them (``journal.EVENTS``, ``memory.CATEGORIES``,
``findings.RULES``), and ``benchmarks/check_obs_schema.py`` imports the
same declarations.  This module extracts every literal at its emit site
(with local constant propagation, so ``counter =
"resilience_retries_total"``/``m.inc(counter)`` resolves) and diffs the
result against the declarations in both directions.

Rules: ``consistency-metric-drift``, ``consistency-event-drift``,
``consistency-rule-drift``, ``consistency-category-drift`` (all errors,
each anchored at the drifting emit site or declaration) and
``consistency-doc-stale`` (warning: docs mentioning a rule ID that no
longer exists).
"""

from __future__ import annotations

import ast
import os
import re
from importlib import import_module
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis import findings as findings_mod
from repro.analysis.findings import AnalysisReport, Finding
from repro.analysis.lint import _attr_chain, iter_python_files

#: Registry methods whose first argument names a metric.
_METRIC_METHODS = {"inc", "set_gauge", "observe", "counter", "gauge", "histogram"}

#: Files excluded from metric extraction: the registry itself forwards
#: caller-supplied names through these same method names.
_METRIC_EXCLUDE = ("obs", "metrics.py")

_RULE_SHAPE = re.compile(r"^[a-z][a-z0-9]*(-[a-z0-9]+)+$")


# ---------------------------------------------------------------------------
# Literal extraction
# ---------------------------------------------------------------------------

Site = Tuple[str, str, int]  # (literal, path, lineno)


class ExtractedLiterals:
    def __init__(self) -> None:
        self.metrics: List[Site] = []
        self.events: List[Site] = []
        self.categories: List[Site] = []
        self.rules: List[Site] = []
        #: Every string constant per file (the rule-coverage direction).
        self.constants: Set[str] = set()

    @property
    def num_sites(self) -> int:
        return (
            len(self.metrics)
            + len(self.events)
            + len(self.categories)
            + len(self.rules)
        )


def _scope_statements(body) -> List[ast.stmt]:
    """Statements of one scope, not descending into nested def/class."""
    out: List[ast.stmt] = []
    stack = list(body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        out.append(stmt)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)
    return out


def _string_args(call: ast.Call, env: Dict[str, Set[str]]) -> Set[str]:
    """Possible string values of the call's first argument."""
    if not call.args:
        return set()
    arg = call.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return {arg.value}
    if isinstance(arg, ast.Name):
        return env.get(arg.id, set())
    return set()


def _extract_file(path: str, out: ExtractedLiterals) -> None:
    with open(path, "r") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=path)
    is_metric_registry = path.endswith(os.path.join(*_METRIC_EXCLUDE))

    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.constants.add(node.value)

    scopes = [tree.body] + [
        node.body
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for body in scopes:
        statements = _scope_statements(body)
        env: Dict[str, Set[str]] = {}
        for stmt in statements:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if (
                    isinstance(target, ast.Name)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)
                ):
                    env.setdefault(target.id, set()).add(stmt.value.value)
        for stmt in statements:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                chain = _attr_chain(node.func)
                name = chain[-1] if chain else ""
                if (
                    name in _METRIC_METHODS
                    and len(chain) > 1
                    and not is_metric_registry
                ):
                    for literal in _string_args(node, env):
                        out.metrics.append((literal, path, node.lineno))
                elif name == "emit":
                    for literal in _string_args(node, env):
                        out.events.append((literal, path, node.lineno))
                elif name == "alloc_scope":
                    for literal in _string_args(node, env):
                        out.categories.append((literal, path, node.lineno))
                elif name == "_emit" and node.args:
                    arg = node.args[0]
                    if (
                        isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                        and _RULE_SHAPE.match(arg.value)
                    ):
                        out.rules.append((arg.value, path, node.lineno))
                for kw in node.keywords:
                    if (
                        kw.arg == "rule"
                        and isinstance(kw.value, ast.Constant)
                        and isinstance(kw.value.value, str)
                    ):
                        out.rules.append((kw.value.value, path, node.lineno))


def extract_literals(paths: List[str]) -> ExtractedLiterals:
    out = ExtractedLiterals()
    for path in iter_python_files(paths):
        _extract_file(path, out)
    return out


# ---------------------------------------------------------------------------
# Source locations
# ---------------------------------------------------------------------------


def _repo_root() -> Optional[str]:
    """The checkout root, if running from one (src/repro layout)."""
    import repro

    package = os.path.dirname(os.path.abspath(repro.__file__))
    root = os.path.dirname(os.path.dirname(package))
    if os.path.isdir(os.path.join(root, "benchmarks")):
        return root
    return None


def _src_paths() -> List[str]:
    import repro

    return [os.path.dirname(os.path.abspath(repro.__file__))]


# ---------------------------------------------------------------------------
# Drift checks
# ---------------------------------------------------------------------------


def _find_literal_line(path: str, literal: str) -> str:
    try:
        with open(path, "r") as fh:
            for lineno, line in enumerate(fh, 1):
                if f'"{literal}"' in line or f"'{literal}'" in line:
                    return f"{path}:{lineno}"
    except OSError:
        pass
    return f"{path}:0"


def _check_shipped(report: AnalysisReport) -> None:
    extracted = extract_literals(_src_paths())
    report.checked += extracted.num_sites

    # Emitted allocation categories and journal events must be declared,
    # and every declared one must have an emit site.
    for sites, call, module_name, declared, rule, label in (
        (extracted.categories, "alloc_scope", "repro.obs.memory",
         "CATEGORIES", "consistency-category-drift", "allocation category"),
        (extracted.events, "emit", "repro.obs.journal",
         "EVENTS", "consistency-event-drift", "journal event"),
    ):
        # import_module: ``repro.obs`` shadows ``journal`` with a function.
        module = import_module(module_name)
        names = set(getattr(module, declared))
        emitted = set()
        for literal, path, lineno in sites:
            emitted.add(literal)
            if literal not in names:
                report.add(
                    Finding(
                        rule=rule,
                        message=(
                            f"{call}({literal!r}) is not a declared {label} "
                            f"({module_name}.{declared})"
                        ),
                        location=f"{path}:{lineno}",
                    )
                )
        for name in sorted(names - emitted):
            report.add(
                Finding(
                    rule=rule,
                    message=(
                        f"declared {label} {name!r} has no {call}() emit "
                        "site; remove it or restore the call that should "
                        "carry it"
                    ),
                    location=_find_literal_line(module.__file__, name),
                )
            )

    # Every rule emitted at a Finding()/lint site must be declared ...
    for literal, path, lineno in extracted.rules:
        if literal not in findings_mod.RULES:
            report.add(
                Finding(
                    rule="consistency-rule-drift",
                    message=(
                        f"finding rule {literal!r} is emitted here but not "
                        "declared in findings.RULES"
                    ),
                    location=f"{path}:{lineno}",
                )
            )
    # ... and every declared rule must appear somewhere in the source.
    for rule in sorted(findings_mod.RULES):
        if rule not in extracted.constants:
            report.add(
                Finding(
                    rule="consistency-rule-drift",
                    message=(
                        f"declared rule {rule!r} has no emit site anywhere "
                        "in src/repro; dead rules hide real drift"
                    ),
                    location=_find_literal_line(findings_mod.__file__, rule),
                )
            )

    root = _repo_root()
    if root is not None:
        _check_docs(report, os.path.join(root, "docs"))


def _doc_allowlist() -> Set[str]:
    """Hyphenated doc tokens that share a rule prefix but are not rules.

    Advisor *verdicts* live in the same ``memory-``/``perf-`` namespace as
    finding rules; derive them from the advisor module rather than keeping
    another hand-synced list.
    """
    allowed: Set[str] = set()
    try:
        from repro.obs import advisor

        allowed |= set(advisor.KERNEL_VERDICTS)
        with open(advisor.__file__, "r") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.endswith("-bound")
                and _RULE_SHAPE.match(node.value)
            ):
                allowed.add(node.value)
    except (ImportError, OSError, SyntaxError):
        pass
    return allowed


def _check_docs(report: AnalysisReport, docs_dir: str) -> None:
    if not os.path.isdir(docs_dir):
        return
    prefixes = {rule.split("-", 1)[0] for rule in findings_mod.RULES}
    allowed = _doc_allowlist()
    token_re = re.compile(r"`([a-z0-9][a-z0-9-]*)`")
    for name in sorted(os.listdir(docs_dir)):
        if not name.endswith(".md"):
            continue
        path = os.path.join(docs_dir, name)
        with open(path, "r") as fh:
            for lineno, line in enumerate(fh, 1):
                for token in token_re.findall(line):
                    if not _RULE_SHAPE.match(token):
                        continue
                    if token.split("-", 1)[0] not in prefixes:
                        continue
                    if token.endswith("-gate"):
                        continue  # CI job names share the chaos-/perf- prefix
                    report.checked += 1
                    if token in findings_mod.RULES or token in allowed:
                        continue
                    report.add(
                        Finding(
                            rule="consistency-doc-stale",
                            message=(
                                f"docs reference rule-like token "
                                f"{token!r} which is not a declared "
                                "finding rule"
                            ),
                            location=f"{path}:{lineno}",
                        )
                    )


def _check_paths(report: AnalysisReport, paths: List[str]) -> None:
    """Fixture mode: literals in ``paths`` must match the shipped names."""
    from repro.obs.journal import EVENTS
    from repro.obs.memory import CATEGORIES

    shipped = extract_literals(_src_paths())
    known_metrics = {name for name, _, _ in shipped.metrics}
    extracted = extract_literals(paths)
    report.checked += extracted.num_sites
    checks = (
        (
            extracted.metrics,
            known_metrics,
            "consistency-metric-drift",
            "metric",
        ),
        (
            extracted.events,
            set(EVENTS),
            "consistency-event-drift",
            "journal event",
        ),
        (
            extracted.categories,
            set(CATEGORIES),
            "consistency-category-drift",
            "allocation category",
        ),
        (
            extracted.rules,
            set(findings_mod.RULES),
            "consistency-rule-drift",
            "finding rule",
        ),
    )
    for sites, known, rule, label in checks:
        for literal, path, lineno in sites:
            if literal not in known:
                report.add(
                    Finding(
                        rule=rule,
                        message=(
                            f"{label} {literal!r} is not a name src/repro "
                            "declares or emits; use a shipped name or "
                            "extend its declaration"
                        ),
                        location=f"{path}:{lineno}",
                    )
                )


def check_consistency(paths: Optional[List[str]] = None) -> AnalysisReport:
    """Run the drift lint; returns a ``source="consistency"`` report."""
    report = AnalysisReport(source="consistency")
    if paths:
        _check_paths(report, paths)
    else:
        _check_shipped(report)
    return report


def main() -> int:
    report = check_consistency()
    print(report.to_text())
    return 1 if report.has_hazards else 0


if __name__ == "__main__":
    raise SystemExit(main())
