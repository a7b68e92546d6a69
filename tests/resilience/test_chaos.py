"""Tests for seeded chaos sweeps and their analysis-report currency."""

import pytest

from repro import ClassicLP, GLPEngine
from repro.resilience import FaultPlan, RetryPolicy
from repro.resilience.chaos import (
    ChaosReport,
    ChaosRun,
    chaos_sweep,
)


def sweep(graph, **kwargs):
    kwargs.setdefault("make_engine", GLPEngine)
    kwargs.setdefault("num_plans", 3)
    kwargs.setdefault("max_iterations", 6)
    kwargs.setdefault("stop_on_convergence", False)
    return chaos_sweep(graph, ClassicLP, **kwargs)


class TestChaosSweep:
    def test_engine_sweep_recovers_everything(self, community_graph):
        graph, _ = community_graph
        report = sweep(graph, seed=0)
        assert report.ok
        assert len(report.runs) == 3
        for run in report.runs:
            # Seeded plans are calibrated against the reference event
            # totals, so every plan actually fires and recovers.
            assert run.status == "recovered"
            assert run.faults_fired
            assert run.identical
            assert run.labels_hash == report.reference_hash

    def test_sweep_is_seed_deterministic(self, community_graph):
        graph, _ = community_graph
        a = sweep(graph, seed=11)
        b = sweep(graph, seed=11)
        assert [r.plan for r in a.runs] == [r.plan for r in b.runs]
        assert [r.status for r in a.runs] == [r.status for r in b.runs]
        c = sweep(graph, seed=12)
        assert [r.plan for r in a.runs] != [r.plan for r in c.runs]

    def test_explicit_nonfiring_plan_is_clean(self, two_cliques_graph):
        report = sweep(
            two_cliques_graph,
            plans=[FaultPlan.parse("kernel@999999")],
        )
        assert [r.status for r in report.runs] == ["clean"]

    def test_exhausted_budget_reports_failed(self, two_cliques_graph):
        report = sweep(
            two_cliques_graph,
            plans=[FaultPlan.parse("kernel@2x999999")],
            retry_policy=RetryPolicy(max_retries=1),
        )
        (run,) = report.runs
        assert run.status == "failed"
        assert "KernelAbortFault" in run.error
        assert not report.ok

    def test_ladder_sweep_degrades_on_oom(self, community_graph):
        graph, _ = community_graph
        report = chaos_sweep(
            graph,
            ClassicLP,
            plans=[FaultPlan.parse("oom@2x999999")],
            max_iterations=6,
            stop_on_convergence=False,
        )
        (run,) = report.runs
        assert run.status == "degraded"
        assert run.identical
        assert run.engine != report.reference_engine


class TestChaosAnalysisReport:
    def make_report(self, statuses):
        runs = [
            ChaosRun(plan=f"kernel@{i + 1}", status=status)
            for i, status in enumerate(statuses)
        ]
        return ChaosReport(
            reference_engine="GLP",
            reference_hash="cafe",
            stream_totals={"alloc": 1, "transfer": 1, "launch": 1},
            runs=runs,
        )

    def test_clean_sweep_has_no_findings(self):
        analysis = self.make_report(["clean", "recovered"]).analysis_report()
        assert analysis.source == "chaos"
        assert analysis.checked == 2
        assert not analysis.findings
        assert not analysis.has_hazards

    def test_statuses_map_to_rules(self):
        analysis = self.make_report(
            ["failed", "mismatch", "degraded"]
        ).analysis_report()
        rules = [f.rule for f in analysis.findings]
        assert rules == [
            "chaos-run-failed",
            "chaos-identity-mismatch",
            "chaos-degraded",
        ]
        severities = [f.severity for f in analysis.findings]
        assert severities == ["error", "error", "warning"]
        assert analysis.has_hazards

    def test_report_dict_passes_schema_checker(self, tmp_path):
        import json
        import os
        import subprocess
        import sys

        checker = os.path.abspath(os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir,
            "benchmarks", "check_obs_schema.py",
        ))
        analysis = self.make_report(
            ["failed", "degraded", "recovered"]
        ).analysis_report()
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps(analysis.as_dict()))
        # Run from outside the repo with no PYTHONPATH: the script must
        # find ``repro`` on its own.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, checker, "--analysis", str(path)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr


class TestChaosRunDict:
    def test_round_trippable_dict(self):
        run = ChaosRun(
            plan="ecc@3",
            status="recovered",
            engine="GLP",
            labels_hash="beef",
            identical=True,
            faults_fired=("ecc",),
        )
        doc = run.as_dict()
        assert doc["faults_fired"] == ["ecc"]
        assert run.ok
        assert not ChaosRun(plan="x", status="failed").ok
