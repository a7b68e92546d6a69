"""Tests for the benchmark baseline / regression-gating layer.

The differential test required by the issue lives here: a perturbed
payload must make the comparator (and the CLI gate) fail non-zero while
naming the offending field.  Only the cheap ``dense_classic`` scenario
actually runs; the expensive window scenarios are exercised by the CI
perf-gate job, not tier-1.
"""

import json

import pytest

from repro.bench.baseline import (
    COUNTER_FIELDS,
    DEFAULT_TOLERANCES,
    EXACT_FIELDS,
    SCENARIOS,
    baseline_path,
    compare_against_baselines,
    compare_payloads,
    get_scenario,
    load_baseline,
    load_tolerance_config,
    run_scenario,
    scenario_names,
    tolerances_for,
    write_baseline,
)
from repro.cli import main
from repro.errors import BenchmarkError
from repro.obs.advisor import KERNEL_VERDICTS


@pytest.fixture(scope="module")
def payload():
    """One cheap scenario run, shared across the module."""
    return run_scenario("dense_classic")


class TestRegistry:
    def test_suite_covers_the_execution_modes(self):
        names = scenario_names()
        # dense vs frontier, the three variants, hybrid/multi-GPU, warm.
        for required in (
            "dense_classic",
            "frontier_classic",
            "dense_llp",
            "dense_slp",
            "hybrid_window",
            "multigpu_window",
            "warm_windows",
            "warm_windows_incremental",
        ):
            assert required in names

    def test_names_unique_and_described(self):
        assert len(scenario_names()) == len(set(scenario_names()))
        for scenario in SCENARIOS:
            assert scenario.description

    def test_unknown_scenario_rejected(self):
        with pytest.raises(BenchmarkError):
            get_scenario("nope")


class TestPayloadSchema:
    def test_exact_fields_present(self, payload):
        for key in EXACT_FIELDS:
            assert key in payload, key

    def test_counters_present(self, payload):
        for key in COUNTER_FIELDS:
            assert key in payload["counters"], key

    def test_advisor_section(self, payload):
        advisor = payload["advisor"]
        assert advisor["verdicts"]
        assert set(advisor["verdicts"].values()) <= KERNEL_VERDICTS
        assert 0.0 <= advisor["transfer_fraction"] <= 1.0

    def test_deterministic_across_runs(self, payload):
        again = run_scenario("dense_classic")
        assert compare_payloads(payload, again, DEFAULT_TOLERANCES) == []
        assert payload["labels_hash"] == again["labels_hash"]
        assert payload["total_seconds"] == again["total_seconds"]

    def test_json_serializable(self, payload):
        json.dumps(payload)


class TestBaselineFiles:
    def test_write_and_load_round_trip(self, tmp_path, payload):
        path = write_baseline(tmp_path, payload)
        assert path == baseline_path(tmp_path, "dense_classic")
        assert path.name == "BENCH_dense_classic.json"
        assert load_baseline(tmp_path, "dense_classic") == payload

    def test_missing_baseline_named_in_error(self, tmp_path):
        with pytest.raises(BenchmarkError, match="dense_classic"):
            load_baseline(tmp_path, "dense_classic")


class TestCompare:
    def test_identical_payload_passes(self, payload):
        import copy

        fresh = copy.deepcopy(payload)
        assert compare_payloads(payload, fresh, DEFAULT_TOLERANCES) == []

    def test_drift_within_band_passes(self, payload):
        import copy

        fresh = copy.deepcopy(payload)
        fresh["total_seconds"] *= 1.01
        assert compare_payloads(payload, fresh, DEFAULT_TOLERANCES) == []

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda p: p.update(labels_hash="deadbeef"), "labels_hash"),
            (lambda p: p.update(iterations=p["iterations"] + 1),
             "iterations"),
            (lambda p: p.update(
                total_seconds=p["total_seconds"] * 1.2), "total_seconds"),
            (lambda p: p["counters"].update(
                global_transactions=p["counters"]["global_transactions"] * 2
            ), "counters.global_transactions"),
            (lambda p: p["advisor"]["verdicts"].update(
                {next(iter(p["advisor"]["verdicts"])): "latency-bound"}
            ), "advisor.verdicts"),
        ],
    )
    def test_perturbation_names_offending_field(
        self, payload, mutate, field
    ):
        import copy

        fresh = copy.deepcopy(payload)
        mutate(fresh)
        violations = compare_payloads(payload, fresh, DEFAULT_TOLERANCES)
        assert violations
        assert any(v.startswith(field) for v in violations), violations

    def test_compare_against_baselines_uses_fresh_payloads(
        self, tmp_path, payload
    ):
        import copy

        write_baseline(tmp_path, payload)
        bad = copy.deepcopy(payload)
        bad["total_seconds"] *= 2.0
        outcome = compare_against_baselines(
            tmp_path,
            names=["dense_classic"],
            fresh_payloads={"dense_classic": bad},
        )
        assert outcome["dense_classic"]
        good = compare_against_baselines(
            tmp_path,
            names=["dense_classic"],
            fresh_payloads={"dense_classic": copy.deepcopy(payload)},
        )
        assert good["dense_classic"] == []


class TestToleranceConfig:
    def test_minimal_parser_matches_shape(self):
        from repro.obs.slo import _parse_toml_minimal

        doc = _parse_toml_minimal(
            "# comment\n"
            "[default]\n"
            "rel_tol_seconds = 0.05  # trailing\n"
            "flag = true\n"
            'name = "x"\n'
            "count = 3\n"
            "[scenarios.warm_windows]\n"
            "rel_tol_counters = 0.1\n"
        )
        assert doc["default"]["rel_tol_seconds"] == 0.05
        assert doc["default"]["flag"] is True
        assert doc["default"]["name"] == "x"
        assert doc["default"]["count"] == 3
        assert doc["scenarios"]["warm_windows"]["rel_tol_counters"] == 0.1

    def test_unparseable_config_raises_benchmark_error(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("rel_tol_seconds\n")
        with pytest.raises(BenchmarkError, match="unparseable"):
            load_tolerance_config(path)

    def test_repo_config_loads_with_overrides(self):
        config = load_tolerance_config("benchmarks/baseline_config.toml")
        default = tolerances_for(config, "dense_classic")
        warm = tolerances_for(config, "warm_windows")
        assert default["rel_tol_seconds"] == 0.05
        assert warm["rel_tol_counters"] == 0.05
        assert warm["rel_tol_seconds"] == default["rel_tol_seconds"]

    def test_missing_config_rejected(self, tmp_path):
        with pytest.raises(BenchmarkError):
            load_tolerance_config(tmp_path / "absent.toml")

    def test_default_config_when_unset(self):
        config = load_tolerance_config(None)
        assert tolerances_for(config, "anything") == DEFAULT_TOLERANCES


class TestCLIGate:
    """The differential acceptance test: non-zero exit, field named."""

    def test_gate_passes_on_unchanged_payloads(
        self, tmp_path, payload, capsys
    ):
        write_baseline(tmp_path / "base", payload)
        write_baseline(tmp_path / "fresh", payload)
        code = main([
            "bench", "compare",
            "--scenario", "dense_classic",
            "--baseline-dir", str(tmp_path / "base"),
            "--fresh-dir", str(tmp_path / "fresh"),
        ])
        assert code == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_gate_fails_nonzero_and_names_field(
        self, tmp_path, payload, capsys
    ):
        import copy

        write_baseline(tmp_path / "base", payload)
        bad = copy.deepcopy(payload)
        bad["total_seconds"] *= 1.5
        write_baseline(tmp_path / "fresh", bad)
        code = main([
            "bench", "compare",
            "--scenario", "dense_classic",
            "--baseline-dir", str(tmp_path / "base"),
            "--fresh-dir", str(tmp_path / "fresh"),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "total_seconds" in captured.out
        assert "total_seconds" in captured.err

    def test_bench_run_writes_payload_files(self, tmp_path, capsys):
        code = main([
            "bench", "run",
            "--scenario", "dense_classic",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        path = baseline_path(tmp_path, "dense_classic")
        assert path.exists()
        doc = json.loads(path.read_text())
        assert doc["scenario"] == "dense_classic"
