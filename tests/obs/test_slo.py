"""Tests for the declarative SLO monitor (``repro.obs.slo``).

Spec parsing (tomllib and the minimal fallback), the three objective
kinds, label-subset series selection, multi-window burn-rate semantics,
the analysis-report currency, and live-registry vs JSON-dump parity.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.findings import RULES
from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    SLO,
    SLO_SCHEMA_VERSION,
    BurnWindow,
    _parse_toml_minimal,
    evaluate_slos,
    load_slo_spec,
    parse_slo_spec,
)

SPEC = """
schema_version = 1

[[slo]]
name = "lat-p95"
kind = "latency"
metric = "latency_seconds"
percentile = 95.0
objective = 0.5

  [[slo.windows]]
  observations = 20
  max_burn_rate = 1.0

  [[slo.windows]]
  observations = 5
  max_burn_rate = 4.0

[[slo]]
name = "fallback-rate"
kind = "ratio"
numerator = "ops_total"
denominator = "ops_total"
objective = 0.5

  [slo.numerator_labels]
  mode = "full"

[[slo]]
name = "degradations"
kind = "counter-max"
metric = "degradations_total"
objective = 0
"""


def _registry(latencies=(), full=0, incremental=0, degradations=0):
    registry = MetricsRegistry()
    for value in latencies:
        registry.observe("latency_seconds", value)
    if full:
        registry.inc("ops_total", full, mode="full")
    if incremental:
        registry.inc("ops_total", incremental, mode="incremental")
    if degradations:
        registry.inc("degradations_total", degradations)
    return registry


class TestSpecParsing:
    def test_parse_full_spec(self):
        slos = {slo.name: slo for slo in parse_slo_spec(SPEC)}
        assert set(slos) == {"lat-p95", "fallback-rate", "degradations"}
        lat = slos["lat-p95"]
        assert lat.kind == "latency"
        assert lat.percentile == 95.0
        assert lat.budget == pytest.approx(0.05)
        assert lat.windows == (
            BurnWindow(observations=20, max_burn_rate=1.0),
            BurnWindow(observations=5, max_burn_rate=4.0),
        )
        ratio = slos["fallback-rate"]
        assert ratio.numerator_labels == (("mode", "full"),)

    @pytest.mark.parametrize(
        "name", ["serving_slo.toml", "baseline_config.toml"]
    )
    def test_minimal_parser_matches_tomllib(self, name):
        """The fallback parser reads both shipped TOML files (the SLO spec
        and the bench tolerance config) exactly as :mod:`tomllib` does."""
        tomllib = pytest.importorskip("tomllib")
        path = Path(__file__).resolve().parents[2] / "benchmarks" / name
        text = path.read_text()
        assert _parse_toml_minimal(text) == tomllib.loads(text)

    def test_minimal_parser_scalars_and_comments(self):
        doc = _parse_toml_minimal(
            'a = 1  # comment\nb = 2.5\nc = "s"\nd = true\n'
        )
        assert doc == {"a": 1, "b": 2.5, "c": "s", "d": True}

    def test_repo_spec_loads(self):
        spec = Path(__file__).resolve().parents[2] / "benchmarks"
        slos = load_slo_spec(str(spec / "serving_slo.toml"))
        assert len(slos) == 10
        names = {s.name for s in slos}
        assert "serve-request-p95" in names
        assert "serve-identity-budget" in names

    def test_unknown_schema_version_rejected(self):
        with pytest.raises(ObservabilityError):
            parse_slo_spec("schema_version = 99\n[[slo]]\n")

    def test_empty_spec_rejected(self):
        with pytest.raises(ObservabilityError):
            parse_slo_spec("schema_version = 1\n")

    def test_duplicate_names_rejected(self):
        spec = SPEC + '\n[[slo]]\nname = "lat-p95"\nkind = "counter-max"\n' \
            'metric = "x"\nobjective = 0\n'
        with pytest.raises(ObservabilityError):
            parse_slo_spec(spec)

    def test_slo_validation(self):
        with pytest.raises(ObservabilityError):
            SLO(name="x", kind="nope", objective=1.0)
        with pytest.raises(ObservabilityError):
            SLO(name="x", kind="latency", objective=1.0)  # no metric
        with pytest.raises(ObservabilityError):
            SLO(name="x", kind="ratio", objective=1.0)  # no num/denom
        with pytest.raises(ObservabilityError):
            SLO(name="x", kind="latency", metric="m", objective=1.0,
                percentile=100.0)
        with pytest.raises(ObservabilityError):
            SLO(name="x", kind="counter-max", metric="m", objective=1.0,
                windows=(BurnWindow(5, 1.0),))


class TestEvaluation:
    def test_latency_within_objective(self):
        report = evaluate_slos(
            parse_slo_spec(SPEC),
            _registry(latencies=[0.1] * 10, full=1, incremental=1),
        )
        verdict = report.verdicts[0]
        assert verdict.ok and not verdict.missing and not verdict.alerting
        assert verdict.measured == pytest.approx(0.1)
        assert report.ok

    def test_latency_breach(self):
        report = evaluate_slos(
            parse_slo_spec(SPEC), _registry(latencies=[2.0] * 10, full=1)
        )
        verdict = report.verdicts[0]
        assert not verdict.ok
        assert report.breached and not report.ok

    def test_latency_missing_metric(self):
        verdict = evaluate_slos(
            parse_slo_spec(SPEC), MetricsRegistry()
        ).verdicts[0]
        assert verdict.missing and verdict.ok

    def test_burn_rate_multi_window_and_semantics(self):
        """Alert only when every window burns: a recovered spike trips
        the slow window but not the fast one."""
        slo = SLO(
            name="lat", kind="latency", metric="latency_seconds",
            objective=0.5, percentile=95.0,
            windows=(BurnWindow(20, 1.0), BurnWindow(5, 4.0)),
        )
        # Sustained burn: everything bad -> both windows exceed.
        burning = evaluate_slos([slo], _registry([2.0] * 20)).verdicts[0]
        assert burning.alerting
        assert all(b["exceeded"] for b in burning.burn)
        assert burning.burn[0]["burn_rate"] == pytest.approx(1 / 0.05)
        # Old spike, recent recovery: fast window is clean -> no alert.
        recovered = evaluate_slos(
            [slo], _registry([2.0] * 15 + [0.1] * 5)
        ).verdicts[0]
        fast = [b for b in recovered.burn if b["observations"] == 5][0]
        slow = [b for b in recovered.burn if b["observations"] == 20][0]
        assert slow["exceeded"] and not fast["exceeded"]
        assert not recovered.alerting

    def test_ratio_with_label_subset(self):
        report = evaluate_slos(
            parse_slo_spec(SPEC), _registry(full=3, incremental=1)
        )
        verdict = report.verdicts[1]
        assert verdict.measured == pytest.approx(0.75)
        assert not verdict.ok

    def test_ratio_missing_denominator(self):
        verdict = evaluate_slos(
            parse_slo_spec(SPEC), MetricsRegistry()
        ).verdicts[1]
        assert verdict.missing and verdict.ok

    def test_counter_max_unobserved_is_clean_zero(self):
        verdict = evaluate_slos(
            parse_slo_spec(SPEC), MetricsRegistry()
        ).verdicts[2]
        assert verdict.ok and not verdict.missing
        assert verdict.measured == 0.0

    def test_counter_max_breach(self):
        verdict = evaluate_slos(
            parse_slo_spec(SPEC), _registry(degradations=2)
        ).verdicts[2]
        assert not verdict.ok and verdict.measured == 2.0

    def test_dump_mode_matches_live_for_exported_percentiles(self):
        registry = _registry(
            latencies=[float(i) for i in range(1, 101)], full=2,
            incremental=2, degradations=1,
        )
        live = evaluate_slos(parse_slo_spec(SPEC), registry)
        # Round-trip the registry through its JSON export.
        dump = json.loads(json.dumps(registry.to_dict()))
        dumped = evaluate_slos(parse_slo_spec(SPEC), dump)
        for lv, dv in zip(live.verdicts, dumped.verdicts):
            assert lv.ok == dv.ok
            assert lv.missing == dv.missing
            assert lv.measured == pytest.approx(dv.measured)
        # Burn windows need raw observations — dump mode cannot alert.
        assert dumped.verdicts[0].burn == []

    def test_dump_mode_unexported_percentile_is_missing(self):
        slo = SLO(
            name="p90", kind="latency", metric="latency_seconds",
            objective=0.5, percentile=90.0,
        )
        registry = _registry(latencies=[0.1] * 4)
        assert not evaluate_slos([slo], registry).verdicts[0].missing
        dumped = evaluate_slos([slo], registry.to_dict()).verdicts[0]
        assert dumped.missing
        assert "p90" in dumped.detail


class TestRepoSlideObjectives:
    """The committed slide SLOs judge wall-clock slide latency."""

    SLIDE_SLOS = ("slide-e2e-p95", "slide-e2e-p99")

    def _verdicts(self, slide_seconds):
        spec = Path(__file__).resolve().parents[2] / "benchmarks"
        slos = [
            slo
            for slo in load_slo_spec(str(spec / "serving_slo.toml"))
            if slo.name in self.SLIDE_SLOS
        ]
        registry = MetricsRegistry()
        for seconds in slide_seconds:
            registry.observe("pipeline_serving_latency_seconds", seconds)
        return {v.slo.name: v for v in evaluate_slos(slos, registry).verdicts}

    def test_one_stalled_slide_breaches(self):
        # A cold start and three slides, the last stalled 3 s.
        verdicts = self._verdicts([0.24, 0.025, 0.023, 3.0])
        assert sorted(verdicts) == sorted(self.SLIDE_SLOS)
        for verdict in verdicts.values():
            assert not verdict.missing
            assert verdict.as_dict()["ok"] is False

    def test_undelayed_smoke_passes(self):
        # The CI smokes' measured shape: cold start ~0.24 s, slides ~25 ms.
        verdicts = self._verdicts([0.24, 0.025, 0.023, 0.024])
        for verdict in verdicts.values():
            assert not verdict.missing
            assert verdict.as_dict()["ok"] is True


class TestAnalysisCurrency:
    def test_report_source_and_rules(self):
        registry = _registry(
            latencies=[2.0] * 20, full=3, incremental=1, degradations=1
        )
        report = evaluate_slos(parse_slo_spec(SPEC), registry)
        doc = report.as_dict()
        assert doc["source"] == "slo"
        assert doc["checked"] == 3
        rules = {f["rule"] for f in doc["findings"]}
        assert rules == {"slo-breach", "slo-burn-rate"}
        assert doc["num_errors"] == 3  # all three objectives breached
        assert len(doc["verdicts"]) == 3
        # Findings anchor on the SLO name.
        assert all(
            f["location"].startswith("slo:") for f in doc["findings"]
        )

    def test_missing_metric_is_warning(self):
        report = evaluate_slos(parse_slo_spec(SPEC), MetricsRegistry())
        doc = report.as_dict()
        rules = [f["rule"] for f in doc["findings"]]
        assert rules == ["slo-missing-metric", "slo-missing-metric"]
        assert doc["num_errors"] == 0 and doc["num_warnings"] == 2

    def test_slo_rules_registered_in_findings_enum(self):
        for rule in ("slo-breach", "slo-burn-rate", "slo-missing-metric"):
            assert rule in RULES
        assert RULES["slo-breach"] == "error"
        assert RULES["slo-burn-rate"] == "warning"
        assert RULES["slo-missing-metric"] == "warning"

    def test_report_validates_against_schema_checker(
        self, schema_checker, tmp_path
    ):
        registry = _registry(latencies=[2.0] * 20, full=3, degradations=1)
        report = evaluate_slos(parse_slo_spec(SPEC), registry)
        path = tmp_path / "slo.json"
        report.write(str(path))
        schema_checker.check_slo(str(path))  # raises SystemExit on violation

    def test_to_text_statuses(self):
        registry = _registry(latencies=[2.0] * 20, full=3, incremental=1)
        text = evaluate_slos(parse_slo_spec(SPEC), registry).to_text()
        assert "BREACH" in text
        assert "breached" in text.splitlines()[0]
        missing = evaluate_slos(
            parse_slo_spec(SPEC), MetricsRegistry()
        ).to_text()
        assert "MISSING" in missing
