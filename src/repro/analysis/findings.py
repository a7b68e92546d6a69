"""Structured findings shared by the sanitizer and the LP-program linter.

Both analysis layers reduce to the same currency: a :class:`Finding` names
the violated rule, where it happened (kernel + array + offset for dynamic
hazards, file:line for lint), and how to read it.  An
:class:`AnalysisReport` aggregates findings and serializes them with the
same ``schema_version`` / flat-JSON conventions the :mod:`repro.obs`
reports use, so ``benchmarks/check_obs_schema.py`` can validate the output
of ``repro check --json`` and ``repro run --sanitize --sanitize-out``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Bump when the report payload changes incompatibly.
SCHEMA_VERSION = 1

#: Every rule any layer can emit, with its severity.  ``error`` findings
#: are *hazards*: they fail ``repro check`` and ``repro run --sanitize``;
#: ``warning`` findings are advisory and only gate under
#: ``--fail-on warning``; ``info`` findings (positive proofs) never gate.
RULES: Dict[str, str] = {
    # --- sanitizer (dynamic) -------------------------------------------
    "racecheck-write-write": "error",
    "racecheck-read-write": "error",
    "racecheck-non-atomic-rmw": "error",
    "racecheck-oob-shared": "error",
    "synccheck-barrier-divergence": "error",
    "synccheck-empty-mask": "error",
    "perf-bank-conflict-hotspot": "warning",
    # --- linter (static) -----------------------------------------------
    "lint-inplace-output-write": "error",
    "lint-missing-barrier": "error",
    "lint-non-atomic-rmw": "error",
    "lint-divergent-warp-sync": "error",
    "lint-sketch-bounds": "error",
    "lint-uninitialized-read": "error",
    # --- chaos sweeps (repro.resilience.chaos) -------------------------
    "chaos-run-failed": "error",
    "chaos-identity-mismatch": "error",
    "chaos-degraded": "warning",
    # --- SLO monitor (repro.obs.slo) -----------------------------------
    "slo-breach": "error",
    "slo-burn-rate": "warning",
    "slo-missing-metric": "warning",
    # --- memory telemetry (repro.obs.memory) ----------------------------
    # device_footprint underestimating the measured peak means the
    # GPU->hybrid->CPU ladder can pick an engine that will OOM mid-run;
    # overestimating forces needless hybrid/CPU fallbacks.
    "memory-planner-underestimate": "error",
    "memory-planner-overestimate": "warning",
    "memory-unreconciled": "error",
    # --- dataflow verifier (repro.analysis.dataflow) ---------------------
    # Static interval proofs over named-array accesses: an access whose
    # symbolic bound cannot be shown < the declared extent for *every*
    # launch geometry is flagged; one that can is recorded as proven.
    "dataflow-oob-possible": "error",
    "dataflow-overlap-possible": "warning",
    "dataflow-nonmonotone-update": "error",
    "dataflow-proven-clean": "info",
    # --- contract checker (repro.analysis.contracts) ---------------------
    "contract-hook-signature-mismatch": "error",
    "contract-registry-callback-mismatch": "error",
    # --- schema-drift lint (repro.analysis.consistency) ------------------
    "consistency-metric-drift": "error",
    "consistency-event-drift": "error",
    "consistency-rule-drift": "error",
    "consistency-category-drift": "error",
    "consistency-doc-stale": "warning",
}

SEVERITIES = ("error", "warning", "info")

#: Every report producer.  ``AnalysisReport.source`` must be one of these;
#: ``benchmarks/check_obs_schema.py`` validates reports against this tuple
#: and :data:`RULES`.
SOURCES = (
    "sanitizer",
    "lint",
    "chaos",
    "slo",
    "memory",
    "dataflow",
    "contracts",
    "consistency",
)


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    Dynamic (sanitizer) findings carry ``kernel``/``array``/``space``/
    ``offset`` and a sample of the conflicting ``actors`` — ``(warp, lane)``
    pairs; static (lint) findings carry ``location`` (``file:line``).
    ``count`` folds repeated instances of the same hazard (same rule on the
    same kernel/array or file) into one finding.
    """

    rule: str
    message: str
    severity: str = ""
    kernel: str = ""
    array: str = ""
    space: str = ""
    offset: int = -1
    location: str = ""
    actors: Tuple[Tuple[int, int], ...] = ()
    count: int = 1

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown analysis rule {self.rule!r}")
        resolved = self.severity or RULES[self.rule]
        if resolved not in SEVERITIES:
            raise ValueError(f"unknown severity {resolved!r}")
        object.__setattr__(self, "severity", resolved)

    @property
    def where(self) -> str:
        """Human-readable anchor: lint location or kernel/array/offset."""
        if self.location:
            return self.location
        parts = [self.kernel or "<kernel>"]
        if self.array:
            target = f"{self.space + ' ' if self.space else ''}{self.array}"
            if self.offset >= 0:
                target += f"[{self.offset}]"
            parts.append(target)
        return " ".join(parts)

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "kernel": self.kernel,
            "array": self.array,
            "space": self.space,
            "offset": int(self.offset),
            "location": self.location,
            "actors": [[int(w), int(l)] for w, l in self.actors],
            "count": int(self.count),
        }

    def render(self) -> str:
        extra = f" (x{self.count})" if self.count > 1 else ""
        return (
            f"[{self.severity}] {self.rule}: {self.where}: "
            f"{self.message}{extra}"
        )


@dataclass
class AnalysisReport:
    """Aggregated findings from one sanitizer session or lint run."""

    source: str  # one of SOURCES
    findings: List[Finding] = field(default_factory=list)
    #: Units inspected: kernel launches (sanitizer), files (lint),
    #: fault plans (chaos), objectives (slo), access sites (dataflow),
    #: interfaces (contracts), or literal sites (consistency).
    checked: int = 0

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings) -> None:
        self.findings.extend(findings)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def infos(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "info"]

    @property
    def has_hazards(self) -> bool:
        """True when any error-severity finding is present."""
        return any(f.severity == "error" for f in self.findings)

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def as_dict(self) -> dict:
        ordered = sorted(
            self.findings,
            key=lambda f: (SEVERITIES.index(f.severity), f.rule, f.where),
        )
        return {
            "schema_version": SCHEMA_VERSION,
            "source": self.source,
            "checked": int(self.checked),
            "num_errors": len(self.errors),
            "num_warnings": len(self.warnings),
            "num_infos": len(self.infos),
            "rules": self.counts_by_rule(),
            "findings": [f.as_dict() for f in ordered],
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def to_text(self) -> str:
        unit = {
            "sanitizer": "kernel(s)",
            "chaos": "plan(s)",
            "slo": "objective(s)",
            "memory": "device(s)",
            "dataflow": "site(s)",
            "contracts": "interface(s)",
            "consistency": "literal(s)",
        }.get(self.source, "file(s)")
        summary = (
            f"{self.source}: {self.checked} {unit} checked, "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        if self.infos:
            summary += f", {len(self.infos)} proven"
        lines = [summary]
        for finding in sorted(
            self.findings,
            key=lambda f: (SEVERITIES.index(f.severity), f.rule, f.where),
        ):
            lines.append("  " + finding.render())
        return "\n".join(lines)
