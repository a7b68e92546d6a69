"""Tests for the command-line interface."""

import argparse
import json
import pathlib

import numpy as np
import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "dblp"])
        assert args.engine == "glp"
        assert args.algorithm == "classic"
        assert args.iterations == 20

    def test_bench_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig99"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "repro" in capsys.readouterr().out


class TestRunCommand:
    def test_run_on_dataset(self, capsys):
        code = main(["run", "dblp", "--iterations", "3",
                     "--no-early-stop"])
        out = capsys.readouterr().out
        assert code == 0
        assert "communities" in out
        assert "modeled time" in out
        assert "dblp" in out

    def test_run_llp(self, capsys):
        code = main([
            "run", "roadNet", "--algorithm", "llp", "--gamma", "2",
            "--iterations", "3", "--engine", "serial",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "llp(gamma=2)" in out

    def test_run_on_edge_list_file(self, tmp_path, capsys):
        path = tmp_path / "tiny.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        code = main(["run", str(path), "--iterations", "2"])
        assert code == 0
        assert "V=3" in capsys.readouterr().out

    def test_run_cpu_engine_has_no_counters_line(self, capsys):
        main(["run", "dblp", "--engine", "omp", "--iterations", "2",
              "--no-early-stop"])
        out = capsys.readouterr().out
        assert "global traffic" not in out

    @pytest.mark.parametrize("name", cli.ENGINES)
    def test_every_engine_choice_is_a_bsp_engine(self, name):
        """Every ``run --engine`` choice runs on ``drive``, so none of the
        resilience flags can miss its engine."""
        from repro.core.driver import BSPEngine

        assert isinstance(cli._build_engine(name), BSPEngine)


class TestOtherCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "aligraph" in out and "twitter" in out

    def test_bench_table2(self, capsys):
        assert main(["bench", "table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_bench_theory(self, capsys):
        assert main(["bench", "theory"]) == 0
        assert "Lemma1" in capsys.readouterr().out

    def test_pipeline(self, capsys):
        code = main([
            "pipeline", "--days", "10", "--window", "5", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "LP share" in out
        assert "fraud clusters" in out


class TestObservability:
    def test_run_json(self, capsys):
        code = main(["run", "dblp", "--iterations", "3", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["engine"] == "GLP"
        assert doc["iterations"] == 3
        assert "labels_hash" in doc
        assert len(doc["per_iteration"]) == 3

    def test_run_trace_and_metrics_out(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "run", "dblp", "--iterations", "3",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        trace = json.loads(trace_path.read_text())
        kernels = [
            e for e in trace["traceEvents"] if e.get("cat") == "kernel"
        ]
        assert kernels and all(e["ph"] == "X" for e in kernels)
        metrics = json.loads(metrics_path.read_text())
        names = {m["name"] for m in metrics["metrics"]}
        assert "engine_iteration_seconds" in names

    def test_run_prometheus_metrics(self, tmp_path):
        path = tmp_path / "metrics.prom"
        main([
            "run", "dblp", "--iterations", "2",
            "--metrics-out", str(path),
            "--metrics-format", "prometheus",
        ])
        text = path.read_text()
        assert "# TYPE engine_iteration_seconds summary" in text
        assert 'quantile="0.99"' in text

    def test_run_without_obs_flags_writes_nothing(self, capsys):
        code = main(["run", "dblp", "--iterations", "2"])
        assert code == 0
        assert "trace written" not in capsys.readouterr().out

    def test_pipeline_trace_out(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        code = main([
            "pipeline", "--days", "8", "--window", "4",
            "--trace-out", str(path),
        ])
        assert code == 0
        trace = json.loads(path.read_text())
        cats = {e.get("cat") for e in trace["traceEvents"]}
        assert "pipeline" in cats

    def test_profile_table(self, capsys):
        code = main([
            "profile", "--dataset", "dblp", "--iterations", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "[kernel total]" in out
        assert "Time(%)" in out

    def test_profile_json_sorted_by_launches(self, capsys):
        code = main([
            "profile", "--dataset", "dblp", "--iterations", "3",
            "--sort-by", "launches", "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        launches = [k["launches"] for k in doc["kernels"]]
        assert launches == sorted(launches, reverse=True)

    def test_profile_rejects_unknown_sort(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--sort-by", "vibes"])


class TestCheckCommand:
    FIXTURES = "tests/analysis/fixtures"

    def test_check_defaults_are_clean(self, capsys):
        code = main(["check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 error(s)" in out

    def test_check_fixtures_exit_nonzero_with_attribution(self, capsys):
        code = main(["check", self.FIXTURES])
        out = capsys.readouterr().out
        assert code == 1
        assert "lint-non-atomic-rmw" in out
        assert "broken_shared_counter.py" in out
        assert "lint-missing-barrier" in out

    def test_check_json_and_out(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main([
            "check", self.FIXTURES, "--json", "--out", str(path),
        ])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc == json.loads(path.read_text())
        assert doc["source"] == "lint"
        assert doc["num_errors"] > 0

    def test_check_all_defaults_are_clean(self, capsys):
        code = main(["check", "--all"])
        out = capsys.readouterr().out
        assert code == 0
        # One report per layer, each with its own unit noun.
        for unit in ("file(s)", "site(s)", "interface(s)", "literal(s)"):
            assert unit in out

    def test_check_all_fixtures_flag_every_layer(self, capsys):
        code = main(["check", "--all", self.FIXTURES])
        out = capsys.readouterr().out
        assert code == 1
        for rule in (
            "lint-non-atomic-rmw",
            "dataflow-oob-possible",
            "dataflow-nonmonotone-update",
            "contract-hook-signature-mismatch",
            "consistency-metric-drift",
        ):
            assert rule in out

    def test_fail_on_gates_warning_only_reports(self, capsys):
        fixture = self.FIXTURES + "/scatter_overlap.py"
        assert main(["check", "--all", fixture]) == 0
        capsys.readouterr()
        assert main(["check", "--all", fixture, "--fail-on", "error"]) == 0
        capsys.readouterr()
        code = main(["check", "--all", fixture, "--fail-on", "warning"])
        assert code == 1
        assert "dataflow-overlap-possible" in capsys.readouterr().out

    def test_check_all_combined_json_and_out_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = main([
            "check", "--all", self.FIXTURES, "--json",
            "--out-dir", str(out_dir),
        ])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] >= 1
        assert set(doc["reports"]) == {
            "lint", "dataflow", "contracts", "consistency",
        }
        for source, report in doc["reports"].items():
            assert report["source"] == source
            on_disk = json.loads((out_dir / (source + ".json")).read_text())
            assert on_disk == report


class TestSanitizeFlag:
    def test_sanitized_run_matches_plain_run(self, capsys):
        base = main(["run", "dblp", "--iterations", "3", "--json"])
        base_doc = json.loads(capsys.readouterr().out)
        code = main(["run", "dblp", "--iterations", "3", "--json",
                     "--sanitize"])
        captured = capsys.readouterr()
        assert base == code == 0
        assert json.loads(captured.out) == base_doc
        assert "0 error(s)" in captured.err

    def test_sanitize_out_writes_report(self, tmp_path, capsys):
        path = tmp_path / "san.json"
        code = main([
            "run", "dblp", "--iterations", "3",
            "--sanitize", "--sanitize-out", str(path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "sanitizer:" in out
        doc = json.loads(path.read_text())
        assert doc["source"] == "sanitizer"
        assert doc["num_errors"] == 0
        assert doc["checked"] > 0

    def test_frontier_mode_runs_on_glp(self, capsys):
        code = main([
            "run", "youtube", "--iterations", "3",
            "--frontier", "auto", "--sanitize",
        ])
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_frontier_mode_rejected_off_glp(self, capsys):
        code = main([
            "run", "dblp", "--engine", "gsort", "--frontier", "auto",
        ])
        assert code == 2
        assert "requires --engine glp" in capsys.readouterr().err


class TestResilienceFlags:
    def test_injected_fault_recovers(self, capsys):
        base = main(["run", "dblp", "--iterations", "3", "--json"])
        base_doc = json.loads(capsys.readouterr().out)
        code = main([
            "run", "dblp", "--iterations", "3", "--json",
            "--inject", "kernel@5", "--retries", "2",
        ])
        captured = capsys.readouterr()
        assert base == code == 0
        doc = json.loads(captured.out)
        # Labels are bitwise identical; modeled time is not compared —
        # the retried iteration's device work is genuinely re-executed.
        assert doc["labels_hash"] == base_doc["labels_hash"]
        assert doc["iterations"] == base_doc["iterations"]
        assert "faults injected" in captured.err
        assert "kernel@launch#5" in captured.err

    def test_unrecovered_fault_exits_nonzero(self, capsys):
        code = main([
            "run", "dblp", "--iterations", "3",
            "--inject", "kernel@5x9999", "--retries", "1",
        ])
        assert code == 1
        assert "device fault" in capsys.readouterr().err

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        base = main(["run", "dblp", "--iterations", "3", "--json",
                     "--no-early-stop"])
        base_doc = json.loads(capsys.readouterr().out)
        code = main([
            "run", "dblp", "--iterations", "3", "--no-early-stop",
            "--inject", "kernel@8x9999", "--retries", "0",
            "--checkpoint-dir", str(tmp_path),
        ])
        capsys.readouterr()
        assert code == 1
        code = main([
            "run", "dblp", "--iterations", "3", "--no-early-stop",
            "--json", "--resume", str(tmp_path),
        ])
        resumed = json.loads(capsys.readouterr().out)
        assert code == 0
        assert resumed["labels_hash"] == base_doc["labels_hash"]

    @pytest.mark.parametrize("engine", ["serial", "ligra"])
    def test_cpu_engine_checkpoint_then_resume(
        self, engine, tmp_path, capsys
    ):
        """A CPU run takes ``--retries`` and ``--checkpoint-dir``, and a
        resume from its last checkpoint reproduces its labels."""
        flags = ["run", "dblp", "--engine", engine, "--iterations", "5",
                 "--no-early-stop", "--json"]
        assert main(flags) == 0
        base_doc = json.loads(capsys.readouterr().out)
        assert main(flags + ["--retries", "1",
                             "--checkpoint-dir", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out) == base_doc
        assert main(flags + ["--resume", str(tmp_path)]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["labels_hash"] == base_doc["labels_hash"]

    def test_resilience_flags_need_device_engine(self, capsys):
        code = main([
            "run", "dblp", "--engine", "serial",
            "--inject", "kernel@1",
        ])
        assert code == 2
        assert "device engine" in capsys.readouterr().err


class TestChaosCommand:
    def test_chaos_sweep_clean(self, capsys):
        code = main([
            "chaos", "--dataset", "dblp", "--plans", "2",
            "--iterations", "4", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "reference" in out
        assert "recovered" in out
        assert "0 error(s)" in out

    def test_chaos_json_and_out(self, tmp_path, capsys):
        path = tmp_path / "chaos.json"
        code = main([
            "chaos", "--dataset", "dblp", "--plans", "2",
            "--iterations", "4", "--json", "--out", str(path),
        ])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(doc["runs"]) == 2
        assert doc["analysis"]["source"] == "chaos"
        saved = json.loads(path.read_text())
        assert saved["source"] == "chaos"
        assert saved["num_errors"] == 0

    def test_chaos_seed_determinism(self, capsys):
        main(["chaos", "--dataset", "dblp", "--plans", "2",
              "--iterations", "4", "--seed", "9", "--json"])
        first = json.loads(capsys.readouterr().out)
        main(["chaos", "--dataset", "dblp", "--plans", "2",
              "--iterations", "4", "--seed", "9", "--json"])
        second = json.loads(capsys.readouterr().out)
        assert first["runs"] == second["runs"]


class TestServingObservability:
    def _pipeline(self, tmp_path, *extra):
        return main([
            "pipeline", "--days", "12", "--window", "6", "--slides", "2",
            "--incremental",
            "--journal-out", str(tmp_path / "journal.jsonl"),
            "--metrics-out", str(tmp_path / "metrics.json"),
            *extra,
        ])

    def test_pipeline_journal_out(self, tmp_path, capsys):
        code = self._pipeline(tmp_path)
        out = capsys.readouterr().out
        assert code == 0
        assert "journal written" in out
        lines = (tmp_path / "journal.jsonl").read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["event"] == "journal.meta"
        assert meta["schema_version"] == 1
        events = [json.loads(l) for l in lines[1:]]
        assert {"slide.start", "slide.plan", "slide.end"} <= {
            e["event"] for e in events
        }
        # 1 cold start + 2 slides.
        assert len({e["slide_id"] for e in events if e["slide_id"]}) == 3
        assert all(e["run_id"] == meta["run_id"] for e in events)

    def test_pipeline_slo_ok(self, tmp_path, capsys):
        code = self._pipeline(
            tmp_path,
            "--slo", "benchmarks/serving_slo.toml",
            "--slo-out", str(tmp_path / "slo.json"),
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "slo: 10 objective(s), 0 breached" in out
        doc = json.loads((tmp_path / "slo.json").read_text())
        assert doc["source"] == "slo"
        assert len(doc["verdicts"]) == 10

    def test_pipeline_slo_breach_exits_nonzero(self, tmp_path, capsys):
        spec = tmp_path / "strict.toml"
        spec.write_text(
            'schema_version = 1\n'
            '[[slo]]\n'
            'name = "impossible"\n'
            'kind = "latency"\n'
            'metric = "pipeline_e2e_modeled_seconds"\n'
            'percentile = 95.0\n'
            'objective = 0.0\n'
        )
        code = self._pipeline(tmp_path, "--slo", str(spec))
        out = capsys.readouterr().out
        assert code == 1
        assert "BREACH" in out

    def test_pipeline_report_out(self, tmp_path, capsys):
        code = self._pipeline(
            tmp_path,
            "--slo", "benchmarks/serving_slo.toml",
            "--report-out", str(tmp_path / "report.md"),
        )
        assert code == 0
        text = (tmp_path / "report.md").read_text()
        assert "# Serving run report" in text
        assert "## Slides" in text
        assert "## SLO verdicts" in text

    def test_obs_report_from_artifacts(self, tmp_path, capsys):
        self._pipeline(tmp_path)
        capsys.readouterr()
        code = main([
            "obs", "report",
            "--journal", str(tmp_path / "journal.jsonl"),
            "--metrics", str(tmp_path / "metrics.json"),
            "--slo", "benchmarks/serving_slo.toml",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "# Serving run report" in out
        assert "slide-0001" in out
        assert "slide-e2e-p95" in out

    def test_obs_report_json_format(self, tmp_path, capsys):
        self._pipeline(tmp_path)
        capsys.readouterr()
        code = main([
            "obs", "report",
            "--journal", str(tmp_path / "journal.jsonl"),
            "--format", "json",
            "--out", str(tmp_path / "report.json"),
        ])
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["schema_version"] >= 1
        assert len(doc["journal"]["slides"]) == 3

    def test_obs_report_slo_requires_metrics(self, capsys):
        code = main([
            "obs", "report", "--slo", "benchmarks/serving_slo.toml",
        ])
        assert code == 2


PARSER_GOLDEN = (
    pathlib.Path(__file__).parent / "fixtures" / "cli_parser.json"
)


def parser_snapshot():
    """``(dest, default, choices, nargs, required)`` of every action.

    Keyed by subcommand path (``"repro"``, ``"repro run"``,
    ``"repro obs report"``, ...); rows are sorted so declaration order
    does not matter.
    """

    def rows(parser):
        out = []
        for action in parser._actions:
            choices = action.choices
            if choices is not None:
                choices = sorted(choices) if isinstance(choices, dict) else (
                    list(choices)
                )
            out.append([action.dest, action.default, choices,
                        action.nargs, action.required])
        return sorted(out, key=json.dumps)

    def walk(parser, path):
        snap = {path: rows(parser)}
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    snap.update(walk(child, f"{path} {name}"))
        return snap

    return walk(build_parser(), "repro")


class TestParserGolden:
    def test_every_flag_matches_the_golden(self):
        assert parser_snapshot() == json.loads(PARSER_GOLDEN.read_text())


SERVE = ["serve", "--days", "12", "--window", "8", "--slides", "2",
         "--qps", "50"]


class TestOutputScope:
    """Shared ``run``/``pipeline``/``serve`` output rules."""

    def test_run_json_stdout_is_one_document(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = main([
            "run", "dblp", "--iterations", "2", "--json",
            "--trace-out", str(trace), "--mem-profile",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["iterations"] == 2
        assert "trace written" in captured.err
        assert "device-memory watermark report" in captured.err
        assert json.loads(trace.read_text())["traceEvents"]

    def test_serve_json_stdout_is_one_document(self, capsys):
        code = main([*SERVE, "--json", "--slo", "benchmarks/serving_slo.toml"])
        captured = capsys.readouterr()
        assert code == 0
        assert "final_labels_hash" in json.loads(captured.out)
        assert "0 breached" in captured.err

    def test_serve_probe_identity(self, capsys):
        code = main([*SERVE, "--probe-identity", "1"])
        assert code == 0
        assert "diverged" not in capsys.readouterr().err

    def test_sanitize_out_implies_sanitize(self, tmp_path, capsys):
        path = tmp_path / "san.json"
        code = main([
            "run", "dblp", "--iterations", "2", "--sanitize-out", str(path),
        ])
        assert code == 0
        assert "sanitizer report" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["source"] == "sanitizer"
        assert doc["checked"] > 0

    @pytest.mark.parametrize("command", [
        ["pipeline", "--days", "8", "--window", "4"],
        SERVE,
    ])
    def test_slo_out_requires_slo(self, tmp_path, capsys, command):
        path = tmp_path / "slo.json"
        code = main([*command, "--slo-out", str(path)])
        assert code == 2
        assert "--slo-out needs --slo" in capsys.readouterr().err
        assert not path.exists()
