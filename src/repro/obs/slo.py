"""Declarative SLOs with multi-window burn-rate alerting.

A TOML spec declares the service objectives the serving path must hold —
slide end-to-end p95/p99 on the host wall clock, the incremental-fallback
rate, the degradation rate, the recovery budget — and
:func:`evaluate_slos` judges them against a
:class:`~repro.obs.metrics.MetricsRegistry` (live) or its JSON export.
Verdicts are emitted as :class:`~repro.analysis.findings.AnalysisReport`
findings (source ``"slo"``), the same machine-readable currency the
sanitizer / linter / chaos gates already speak, so
``benchmarks/check_obs_schema.py --slo`` validates them in CI.

Three objective kinds::

    [[slo]]
    name = "slide-e2e-p95"          # latency: percentile <= objective
    kind = "latency"
    metric = "pipeline_e2e_modeled_seconds"
    percentile = 95.0
    objective = 0.050               # seconds on the metric's clock

      [[slo.windows]]               # burn-rate windows (latency only)
      observations = 20             # trailing-N observations ("slow")
      max_burn_rate = 1.0

      [[slo.windows]]
      observations = 5              # trailing-N observations ("fast")
      max_burn_rate = 4.0

    [[slo]]
    name = "incremental-fallback-rate"
    kind = "ratio"                  # sum(numerator) / sum(denominator)
    numerator = "pipeline_incremental_total"
    denominator = "pipeline_incremental_total"
    objective = 0.5                 # max allowed fraction
      [slo.numerator_labels]
      mode = "full"

    [[slo]]
    name = "degradation-budget"
    kind = "counter-max"            # sum(metric) <= objective
    metric = "resilience_degradations_total"
    objective = 0

Label tables select series by *subset* match: a series matches when every
spec label equals the series' value; all matching series are summed (for
latency, their raw observations are concatenated).

Burn rate follows the SRE playbook, transposed from wall-clock windows to
*event-count* windows because the simulator's runs are deterministic
sequences of observations, not a continuous clock: a latency SLO at
percentile ``p`` grants an error budget of ``(100 - p) / 100`` — that
fraction of observations may exceed the objective.  Over a trailing
window of N observations, ``burn_rate = bad_fraction / budget``; 1.0
means the budget is being consumed exactly at the allowed rate.  An SLO
*alerts* only when **every** configured window exceeds its
``max_burn_rate`` (the multi-window AND: the fast window proves the
problem is current, the slow window proves it is sustained).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.findings import AnalysisReport, Finding
from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry, PERCENTILES

#: Bump when the spec or verdict payload changes incompatibly.
SLO_SCHEMA_VERSION = 1

KINDS = ("latency", "ratio", "counter-max")


@dataclass(frozen=True)
class BurnWindow:
    """One trailing-observation burn-rate window."""

    observations: int
    max_burn_rate: float

    def __post_init__(self) -> None:
        if self.observations < 1:
            raise ObservabilityError("burn window needs >= 1 observation")
        if self.max_burn_rate <= 0:
            raise ObservabilityError("max_burn_rate must be > 0")


@dataclass(frozen=True)
class SLO:
    """One declared objective."""

    name: str
    kind: str
    objective: float
    description: str = ""
    metric: str = ""
    labels: Tuple[Tuple[str, str], ...] = ()
    percentile: float = 95.0
    numerator: str = ""
    numerator_labels: Tuple[Tuple[str, str], ...] = ()
    denominator: str = ""
    denominator_labels: Tuple[Tuple[str, str], ...] = ()
    windows: Tuple[BurnWindow, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ObservabilityError(
                f"SLO {self.name!r}: unknown kind {self.kind!r}"
            )
        if self.kind in ("latency", "counter-max") and not self.metric:
            raise ObservabilityError(f"SLO {self.name!r}: metric required")
        if self.kind == "ratio" and not (self.numerator and self.denominator):
            raise ObservabilityError(
                f"SLO {self.name!r}: numerator and denominator required"
            )
        if self.kind == "latency" and not 0.0 < self.percentile < 100.0:
            raise ObservabilityError(
                f"SLO {self.name!r}: percentile must be in (0, 100)"
            )
        if self.windows and self.kind != "latency":
            raise ObservabilityError(
                f"SLO {self.name!r}: burn windows apply to latency SLOs only"
            )

    @property
    def budget(self) -> float:
        """Allowed bad-observation fraction of a latency SLO."""
        return (100.0 - self.percentile) / 100.0


@dataclass
class SLOVerdict:
    """One SLO judged against one metrics source."""

    slo: SLO
    ok: bool
    measured: float
    detail: str = ""
    missing: bool = False
    alerting: bool = False
    burn: List[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "name": self.slo.name,
            "kind": self.slo.kind,
            "objective": float(self.slo.objective),
            "ok": bool(self.ok),
            "measured": float(self.measured),
            "detail": self.detail,
            "missing": bool(self.missing),
            "alerting": bool(self.alerting),
            "burn": list(self.burn),
        }


@dataclass
class SLOReport:
    """All verdicts of one evaluation."""

    verdicts: List[SLOVerdict] = field(default_factory=list)

    @property
    def breached(self) -> List[SLOVerdict]:
        return [v for v in self.verdicts if not v.ok and not v.missing]

    @property
    def alerting(self) -> List[SLOVerdict]:
        return [v for v in self.verdicts if v.alerting]

    @property
    def ok(self) -> bool:
        return not self.breached

    def analysis_report(self) -> AnalysisReport:
        """Verdicts as findings (source ``"slo"``) for gating and CI."""
        report = AnalysisReport(source="slo", checked=len(self.verdicts))
        for verdict in self.verdicts:
            where = f"slo:{verdict.slo.name}"
            if verdict.missing:
                report.add(
                    Finding(
                        rule="slo-missing-metric",
                        message=verdict.detail or "metric not observed",
                        location=where,
                    )
                )
                continue
            if not verdict.ok:
                report.add(
                    Finding(
                        rule="slo-breach",
                        message=(
                            f"{verdict.detail or verdict.slo.kind}: measured "
                            f"{verdict.measured:.6g} vs objective "
                            f"{verdict.slo.objective:.6g}"
                        ),
                        location=where,
                    )
                )
            if verdict.alerting:
                rates = ", ".join(
                    f"last {b['observations']}: {b['burn_rate']:.2f}x"
                    f" (max {b['max_burn_rate']:g}x)"
                    for b in verdict.burn
                )
                report.add(
                    Finding(
                        rule="slo-burn-rate",
                        message=f"error budget burning too fast ({rates})",
                        location=where,
                    )
                )
        return report

    def as_dict(self) -> dict:
        doc = self.analysis_report().as_dict()
        doc["verdicts"] = [v.as_dict() for v in self.verdicts]
        return doc

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def to_text(self) -> str:
        lines = []
        for verdict in self.verdicts:
            if verdict.missing:
                status = "MISSING"
            elif not verdict.ok:
                status = "BREACH"
            elif verdict.alerting:
                status = "BURNING"
            else:
                status = "ok"
            lines.append(
                f"  [{status:>7}] {verdict.slo.name}: measured "
                f"{verdict.measured:.6g} vs objective "
                f"{verdict.slo.objective:.6g}"
                + (f" ({verdict.detail})" if verdict.detail else "")
            )
        summary = (
            f"slo: {len(self.verdicts)} objective(s), "
            f"{len(self.breached)} breached, {len(self.alerting)} burning"
        )
        return "\n".join([summary] + lines)


# ---------------------------------------------------------------------------
# TOML loading (with a minimal fallback parser for py<3.11), shared with
# the benchmark tolerance config (:mod:`repro.bench.baseline`).


def _labels_tuple(table: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in table.items()))


def _parse_toml_minimal(text: str) -> dict:
    """Tiny TOML subset parser: array-of-tables, dotted tables, scalars.

    Enough for ``benchmarks/serving_slo.toml`` and
    ``benchmarks/baseline_config.toml`` on interpreters without
    :mod:`tomllib`.
    """
    doc: Dict[str, object] = {}
    current: Dict[str, object] = doc

    def descend(parts: Sequence[str], *, append_last: bool) -> dict:
        node: Dict[str, object] = doc
        for i, part in enumerate(parts):
            last = i == len(parts) - 1
            if last and append_last:
                entries = node.setdefault(part, [])
                if not isinstance(entries, list):
                    raise ObservabilityError(
                        f"TOML key {part!r} is not an array of tables"
                    )
                entries.append({})
                return entries[-1]
            nxt = node.get(part)
            if isinstance(nxt, list):
                if not nxt:
                    raise ObservabilityError(f"empty table array {part!r}")
                node = nxt[-1]
            elif isinstance(nxt, dict):
                node = nxt
            else:
                node[part] = {}
                node = node[part]
        return node

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[[") and line.endswith("]]"):
            parts = line[2:-2].strip().split(".")
            current = descend(parts, append_last=True)
            continue
        if line.startswith("[") and line.endswith("]"):
            parts = line[1:-1].strip().split(".")
            current = descend(parts, append_last=False)
            continue
        if "=" not in line:
            raise ObservabilityError(f"cannot parse TOML line: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if value.startswith('"') and value.endswith('"'):
            current[key] = value[1:-1]
        elif value in ("true", "false"):
            current[key] = value == "true"
        else:
            number = float(value)
            current[key] = int(number) if number.is_integer() else number
    return doc


def load_toml(text: str) -> dict:
    """Parse a TOML document with :mod:`tomllib`, or the fallback parser."""
    try:
        import tomllib
    except ModuleNotFoundError:  # pragma: no cover - py<3.11 fallback
        return _parse_toml_minimal(text)
    return tomllib.loads(text)


def parse_slo_spec(text: str) -> List[SLO]:
    """Parse a TOML SLO spec document."""
    doc = load_toml(text)
    version = doc.get("schema_version", SLO_SCHEMA_VERSION)
    if version != SLO_SCHEMA_VERSION:
        raise ObservabilityError(
            f"unsupported SLO spec schema_version {version!r}"
        )
    tables = doc.get("slo", [])
    if not tables:
        raise ObservabilityError("SLO spec declares no [[slo]] tables")
    slos = []
    for table in tables:
        if "name" not in table or "kind" not in table:
            raise ObservabilityError("every [[slo]] needs name and kind")
        windows = tuple(
            BurnWindow(
                observations=int(w["observations"]),
                max_burn_rate=float(w["max_burn_rate"]),
            )
            for w in table.get("windows", [])
        )
        slos.append(
            SLO(
                name=str(table["name"]),
                kind=str(table["kind"]),
                objective=float(table.get("objective", 0.0)),
                description=str(table.get("description", "")),
                metric=str(table.get("metric", "")),
                labels=_labels_tuple(table.get("labels", {})),
                percentile=float(table.get("percentile", 95.0)),
                numerator=str(table.get("numerator", "")),
                numerator_labels=_labels_tuple(
                    table.get("numerator_labels", {})
                ),
                denominator=str(table.get("denominator", "")),
                denominator_labels=_labels_tuple(
                    table.get("denominator_labels", {})
                ),
                windows=windows,
            )
        )
    names = [slo.name for slo in slos]
    if len(set(names)) != len(names):
        raise ObservabilityError("duplicate SLO names in spec")
    return slos


def load_slo_spec(path: str) -> List[SLO]:
    with open(path) as fh:
        return parse_slo_spec(fh.read())


# ---------------------------------------------------------------------------
# Evaluation.


class _Series:
    """One (name, labels) series normalized from either metrics source."""

    __slots__ = ("name", "kind", "labels", "snapshot", "values")

    def __init__(self, name, kind, labels, snapshot, values=None):
        self.name = name
        self.kind = kind
        self.labels = labels
        self.snapshot = snapshot
        self.values = values  # raw observations (live registries only)


def _index(metrics: Union[MetricsRegistry, dict]) -> List[_Series]:
    out = []
    if isinstance(metrics, MetricsRegistry):
        for kind, name, labels, metric in metrics.series():
            values = metric.values if kind == "histogram" else None
            out.append(
                _Series(name, kind, labels, metric.snapshot(), values)
            )
        return out
    for entry in metrics.get("metrics", []):
        out.append(
            _Series(
                entry["name"],
                entry.get("type", "counter"),
                dict(entry.get("labels", {})),
                entry,
            )
        )
    return out


def _matches(series: _Series, name: str, labels) -> bool:
    if series.name != name:
        return False
    return all(series.labels.get(k) == v for k, v in labels)


def _sum_values(index, name, labels) -> Optional[float]:
    """Sum counter/gauge values (histograms contribute their count)."""
    total, found = 0.0, False
    for series in index:
        if not _matches(series, name, labels):
            continue
        found = True
        if series.kind == "histogram":
            total += float(series.snapshot.get("count", 0))
        else:
            total += float(series.snapshot.get("value", 0.0))
    return total if found else None


def _burn_rates(slo: SLO, observations: Sequence[float]) -> List[dict]:
    burn = []
    for window in slo.windows:
        tail = list(observations[-window.observations:])
        if tail:
            bad = sum(1 for value in tail if value > slo.objective)
            bad_fraction = bad / len(tail)
        else:
            bad_fraction = 0.0
        # ``budget`` > 0 is guaranteed by the percentile-range validation.
        rate = bad_fraction / slo.budget
        burn.append(
            {
                "observations": window.observations,
                "seen": len(tail),
                "bad_fraction": bad_fraction,
                "burn_rate": float(rate),
                "max_burn_rate": window.max_burn_rate,
                "exceeded": bool(rate > window.max_burn_rate),
            }
        )
    return burn


def _evaluate_latency(slo: SLO, index) -> SLOVerdict:
    matching = [
        s for s in index
        if _matches(s, slo.metric, slo.labels) and s.kind == "histogram"
    ]
    if not matching or all(
        float(s.snapshot.get("count", 0)) == 0 for s in matching
    ):
        return SLOVerdict(
            slo,
            ok=True,
            measured=0.0,
            missing=True,
            detail=f"no observations of {slo.metric}",
        )
    raw: List[float] = []
    for series in matching:
        if series.values is not None:
            raw.extend(series.values)
    if raw:
        measured = float(np.percentile(raw, slo.percentile))
        detail = f"p{slo.percentile:g} over {len(raw)} observation(s)"
        burn = _burn_rates(slo, raw)
    else:
        # Snapshot-only source: exact percentiles exist for the exported
        # ones; otherwise take the conservative max across series.
        key = f"p{slo.percentile:g}"
        if slo.percentile not in PERCENTILES:
            return SLOVerdict(
                slo,
                ok=True,
                measured=0.0,
                missing=True,
                detail=(
                    f"percentile p{slo.percentile:g} unavailable in metric "
                    f"snapshots (exported: "
                    f"{', '.join(f'p{p:g}' for p in PERCENTILES)})"
                ),
            )
        measured = max(float(s.snapshot.get(key, 0.0)) for s in matching)
        detail = f"{key} from snapshot ({len(matching)} series)"
        burn = []  # burn-rate windows need raw observations
    alerting = bool(burn) and all(b["exceeded"] for b in burn)
    return SLOVerdict(
        slo,
        ok=measured <= slo.objective,
        measured=measured,
        detail=detail,
        alerting=alerting,
        burn=burn,
    )


def _evaluate_ratio(slo: SLO, index) -> SLOVerdict:
    numerator = _sum_values(index, slo.numerator, slo.numerator_labels)
    denominator = _sum_values(
        index, slo.denominator, slo.denominator_labels
    )
    if denominator is None or denominator == 0.0:
        return SLOVerdict(
            slo,
            ok=True,
            measured=0.0,
            missing=True,
            detail=f"denominator {slo.denominator} not observed",
        )
    measured = (numerator or 0.0) / denominator
    return SLOVerdict(
        slo,
        ok=measured <= slo.objective,
        measured=measured,
        detail=(
            f"{numerator or 0.0:g}/{denominator:g} "
            f"{slo.numerator} over {slo.denominator}"
        ),
    )


def _evaluate_counter_max(slo: SLO, index) -> SLOVerdict:
    total = _sum_values(index, slo.metric, slo.labels)
    # An unobserved counter is a clean zero, not a missing signal: the
    # degradation/replay counters only materialize on their first event.
    measured = total if total is not None else 0.0
    return SLOVerdict(
        slo,
        ok=measured <= slo.objective,
        measured=measured,
        detail=f"sum of {slo.metric}",
    )


_EVALUATORS = {
    "latency": _evaluate_latency,
    "ratio": _evaluate_ratio,
    "counter-max": _evaluate_counter_max,
}


def evaluate_slos(
    slos: Sequence[SLO], metrics: Union[MetricsRegistry, dict]
) -> SLOReport:
    """Judge every SLO against a registry or its JSON export."""
    index = _index(metrics)
    return SLOReport(
        verdicts=[_EVALUATORS[slo.kind](slo, index) for slo in slos]
    )
