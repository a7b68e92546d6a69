"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Run an LP variant on a named Table 2 dataset or an edge-list file and
    print community statistics, modeled timing and hardware counters.
``datasets``
    List the Table 2 dataset registry.
``bench``
    Run one paper experiment (table2, fig4, fig5, fig6, table3, table4,
    fig7, pipeline, theory) and print its report — or drive the
    regression-baseline layer: ``bench run`` executes the standardized
    scenario suite and writes ``BENCH_<scenario>.json`` payloads;
    ``bench compare`` diffs fresh runs against the committed baselines
    under the tolerance bands of ``benchmarks/baseline_config.toml`` and
    exits non-zero on regression (the CI perf gate).
``pipeline``
    Run the end-to-end fraud-detection pipeline on a synthetic stream.
``serve``
    Run the asyncio streaming scoring service under deterministic bursty
    load: micro-batched ingest drives window slides while per-transaction
    score requests are answered against the latest label state under
    admission control (see ``docs/serving.md``).  ``--slo`` gates the run
    on ``benchmarks/serving_slo.toml``; ``--probe-identity N`` verifies
    the served labels bitwise against a from-scratch batch replay.
``profile``
    Run an LP variant under the profiler and print an nvprof-style
    per-kernel table (see ``docs/observability.md``).
``advise``
    Run an LP variant under the roofline bottleneck advisor and print
    ranked findings with per-kernel cause attribution and verdicts.
``check``
    Statically lint LP-program hooks and simulator kernel code for GPU
    correctness hazards (non-atomic shared writes, missing barriers,
    divergent warp syncs, sketch-sizing violations of Lemma 1/2).
    Exits non-zero when any error-severity finding survives.
``chaos``
    Run a seeded fault-injection sweep (see ``docs/resilience.md``):
    replay deterministic fault plans against one workload, verify every
    recovered run reproduces the fault-free labels bitwise, and exit
    non-zero when any run failed or mismatched.

``run`` also takes the resilience flags: ``--inject PLAN`` installs a
deterministic fault plan (``kind@N[xR][/devD]``), ``--retries N``
enables bounded checkpoint-based recovery, ``--checkpoint-dir`` persists
the per-iteration checkpoint, and ``--resume PATH`` resumes a killed run
from a checkpoint file or directory.  ``run --frontier
{dense,frontier,auto}`` selects the GLP engine's frontier execution mode.

``run``, ``pipeline`` and ``serve`` share one output scope: the obs flags
(``--trace-out``, ``--metrics-out``, ``--journal-out``, ``--flight-dir``;
``docs/observability.md``), ``--mem-profile`` (``--mem-out`` implies it),
``run --sanitize`` (``--sanitize-out`` implies it; ``docs/analysis.md``)
and ``--slo`` (``--slo-out`` requires it, else exit 2).  Artifacts are
written after the run; an SLO breach or sanitizer hazard exits 1.  Under
``--json`` stdout carries only the JSON document; every status line and
report goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import types
from typing import List, Optional

from repro import __version__
from repro.kernels.frontier import FRONTIER_MODES
from repro.obs.profile import SORT_KEYS as PROFILE_SORT_KEYS

#: Engine names accepted by ``run --engine``.
ENGINES = ["glp", "gsort", "ghash", "serial", "omp", "ligra", "distributed"]

#: Algorithm names accepted by ``run --algorithm``.
ALGORITHMS = ["classic", "llp", "slp", "labelrank"]

#: Experiment names accepted by ``bench`` (plus the baseline verbs).
EXPERIMENTS = [
    "table2", "fig4", "fig5", "fig6", "table3", "table4", "fig7",
    "pipeline", "theory", "cost",
]

#: Baseline-layer verbs ``bench`` also accepts.
BENCH_VERBS = ["run", "compare"]


def _build_engine(name: str, frontier: str = "dense"):
    from repro.baselines import (
        GHashEngine,
        GSortEngine,
        InHouseDistributedEngine,
        LigraEngine,
        OMPEngine,
        SerialEngine,
    )
    from repro.core.framework import GLPEngine

    factories = {
        "glp": lambda: GLPEngine(frontier=frontier),
        "gsort": GSortEngine,
        "ghash": GHashEngine,
        "serial": SerialEngine,
        "omp": OMPEngine,
        "ligra": LigraEngine,
        "distributed": InHouseDistributedEngine,
    }
    return factories[name]()


def _build_program(name: str, args):
    from repro.algorithms import (
        ClassicLP,
        LabelRankLP,
        LayeredLP,
        SpeakerListenerLP,
    )

    if name == "classic":
        return ClassicLP()
    if name == "llp":
        return LayeredLP(gamma=args.gamma)
    if name == "slp":
        return SpeakerListenerLP(seed=args.seed)
    return LabelRankLP()


def _load_graph(source: str):
    from repro.graph.generators.datasets import DATASETS, load_dataset
    from repro.graph.io import load_edge_list

    if source in DATASETS:
        return load_dataset(source)
    return load_edge_list(source, symmetrize=True)


@contextlib.contextmanager
def _outputs(args):
    """Scope the obs/memory/sanitizer hooks the flags ask for.

    Yields a namespace with ``say`` (print a status line: stderr under
    ``--json``, so stdout carries only the JSON document) and ``status``.
    After a clean ``with`` body the hooks are gone, the artifacts are
    written, and ``status`` is 1 on an SLO breach or sanitizer hazards.
    A body that raises writes nothing.
    """
    from repro import obs
    from repro.obs.memory import render_memory_report, track

    slo = getattr(args, "slo", None)
    report_out = getattr(args, "report_out", None)
    sanitize_out = getattr(args, "sanitize_out", None)
    sanitize = getattr(args, "sanitize", False) or sanitize_out
    memory = args.mem_profile or args.mem_out
    observed = memory or slo or report_out or any(
        (args.trace_out, args.metrics_out, args.journal_out, args.flight_dir)
    )
    stream = sys.stderr if getattr(args, "json", False) else sys.stdout

    def say(line: str) -> None:
        print(line, file=stream, flush=True)

    scope = types.SimpleNamespace(status=0, say=say)
    with contextlib.ExitStack() as hooks:
        session = hooks.enter_context(obs.observe()) if observed else None
        tracker = hooks.enter_context(track()) if memory else None
        sanitizer = None
        if sanitize:
            from repro import analysis

            sanitizer = hooks.enter_context(analysis.sanitize())
        if args.flight_dir:
            session.flight.dump_dir = args.flight_dir
        yield scope

    if args.trace_out:
        session.tracer.write(args.trace_out)
        say(f"trace written  : {args.trace_out}")
    if args.metrics_out:
        if args.metrics_format == "prometheus":
            with open(args.metrics_out, "w") as fh:
                fh.write(session.metrics.to_prometheus_text())
        else:
            session.metrics.write(args.metrics_out)
        say(f"metrics written: {args.metrics_out}")
    if args.journal_out:
        session.journal.write(args.journal_out)
        say(f"journal written: {args.journal_out}")
    if args.flight_dir and session.flight.bundles:
        say(
            f"post-mortems   : {len(session.flight.bundles)} bundle(s) "
            f"under {args.flight_dir}"
        )
    if args.mem_out:
        tracker.write(args.mem_out)
        say(f"memory report  : {args.mem_out}")
    elif tracker is not None:
        say(render_memory_report(tracker.report()))
    slo_report = None
    if slo:
        from repro.obs.slo import evaluate_slos, load_slo_spec

        slo_report = evaluate_slos(load_slo_spec(slo), session.metrics)
        say(slo_report.to_text())
        if args.slo_out:
            slo_report.write(args.slo_out)
            say(f"slo verdicts   : {args.slo_out}")
        if not slo_report.ok:
            scope.status = 1
    if report_out:
        from repro.obs.report import build_report

        report = build_report(
            journal_records=[session.journal.meta(), *session.journal.events],
            metrics_doc=session.metrics.to_dict(),
            slo_doc=slo_report.as_dict() if slo_report is not None else None,
            postmortems=session.flight.bundles,
            memory_doc=tracker.report() if tracker is not None else None,
        )
        with open(report_out, "w") as fh:
            fh.write(_render_report(report, report_out.endswith(".json")))
        say(f"run report     : {report_out}")
    if sanitizer is not None:
        findings = sanitizer.report()
        say(findings.to_text())
        if sanitize_out:
            findings.write(sanitize_out)
            say(f"sanitizer report: {sanitize_out}")
        if findings.has_hazards:
            scope.status = 1


def _render_report(report: dict, as_json: bool) -> str:
    """A fused run report as JSON or markdown text."""
    from repro.obs.report import render_markdown

    if as_json:
        return json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
    return render_markdown(report)


def _stream(args):
    """The synthetic transaction stream of ``--days``/``--seed``."""
    from repro.pipeline import TransactionStream, TransactionStreamConfig

    return TransactionStream(
        TransactionStreamConfig(num_days=args.days, seed=args.seed)
    )


def _window_days(args, slides: int) -> Optional[int]:
    """The served window length, or ``None`` when ``--days`` is too short."""
    window_days = min(args.window, args.days - 1)
    if args.days < window_days + slides + 1:
        print(
            f"error: need at least {window_days + slides + 1} days for "
            f"{slides} slide(s) over a {window_days}-day window",
            file=sys.stderr,
        )
        return None
    return window_days


#: Engines that run on the simulated device; the rest are CPU baselines
#: with no device events to fault (``--inject``) or profile.
_DEVICE_ENGINES = ("glp", "gsort", "ghash")


def _resilience_kwargs(args) -> dict:
    """Engine kwargs for the ``run`` resilience flags."""
    kwargs = {}
    if getattr(args, "retries", None) is not None:
        from repro.resilience import RetryPolicy

        kwargs["retry_policy"] = RetryPolicy(
            max_retries=args.retries, max_resumes=args.retries
        )
    if getattr(args, "checkpoint_dir", None):
        kwargs["checkpoint_dir"] = args.checkpoint_dir
    if getattr(args, "resume", None):
        kwargs["resume_from"] = args.resume
    return kwargs


def _cmd_run(args) -> int:
    from repro.errors import DeviceFault

    if args.frontier != "dense" and args.engine != "glp":
        print(
            f"repro run: --frontier {args.frontier} requires --engine glp "
            f"(got {args.engine!r})",
            file=sys.stderr,
        )
        return 2
    if args.inject and args.engine not in _DEVICE_ENGINES:
        print(
            f"repro run: --inject requires a device engine "
            f"{_DEVICE_ENGINES} (got {args.engine!r})",
            file=sys.stderr,
        )
        return 2
    inject_cm = contextlib.nullcontext(None)
    if args.inject:
        from repro.resilience import FaultPlan, inject

        inject_cm = inject(FaultPlan.parse(args.inject))
    graph = _load_graph(args.graph)
    engine = _build_engine(args.engine, frontier=args.frontier)
    program = _build_program(args.algorithm, args)
    try:
        with _outputs(args) as out, inject_cm as injector:
            result = engine.run(
                graph,
                program,
                max_iterations=args.iterations,
                stop_on_convergence=not args.no_early_stop,
                **_resilience_kwargs(args),
            )
            if args.json:
                print(result.to_json(indent=2))
            else:
                _print_run(graph, program, result)
            if injector is not None and injector.events:
                fired = ", ".join(
                    f"{e.kind}@{e.stream}#{e.index}" for e in injector.events
                )
                out.say(f"faults injected: {fired} (recovered)")
    except DeviceFault as fault:
        print(
            f"repro run: device fault not recovered: {fault}\n"
            "repro run: enable recovery with --retries N "
            "(and --checkpoint-dir to make the run resumable)",
            file=sys.stderr,
        )
        return 1
    return out.status


def _print_run(graph, program, result) -> None:
    sizes = result.community_sizes()
    print(f"graph          : {graph.name} "
          f"(V={graph.num_vertices:,}, E={graph.num_edges:,})")
    print(f"engine         : {result.engine}")
    print(f"algorithm      : {program.name}")
    print(f"iterations     : {result.num_iterations} "
          f"(converged={result.converged})")
    print(f"modeled time   : {result.total_seconds * 1e3:.4f} ms "
          f"({result.seconds_per_iteration * 1e3:.4f} ms/iteration)")
    print(f"communities    : {sizes.size:,} "
          f"(largest {sizes[:5].tolist()})")
    counters = result.total_counters
    if counters.global_transactions:
        print(f"global traffic : {counters.global_transactions:,} "
              f"transactions; lane utilization "
              f"{counters.lane_utilization:.1%}")


def _cmd_check(args) -> int:
    from repro import analysis

    paths = list(args.paths)
    explicit_paths = bool(paths)
    if not paths:
        import repro.kernels as _kernels

        paths.append(os.path.dirname(_kernels.__file__))
        if os.path.isdir("examples"):
            paths.append("examples")
    reports = [analysis.lint_paths(paths)]
    if args.all:
        reports.append(analysis.check_dataflow(paths))
        # Contracts and consistency check the *shipped* interfaces when no
        # explicit paths were given; with paths they run in AST/fixture
        # mode over those files only.
        reports.append(
            analysis.check_contracts(paths if explicit_paths else None)
        )
        reports.append(
            analysis.check_consistency(paths if explicit_paths else None)
        )

    if len(reports) == 1:
        payload = reports[0].to_json(indent=2)
    else:
        payload = json.dumps(
            {
                "schema_version": analysis.SCHEMA_VERSION,
                "reports": {r.source: r.as_dict() for r in reports},
            },
            indent=2,
            sort_keys=True,
        )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
            fh.write("\n")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for report in reports:
            report.write(os.path.join(args.out_dir, f"{report.source}.json"))
    if args.json:
        print(payload)
    else:
        for report in reports:
            print(report.to_text())
        if args.out:
            print(f"report written : {args.out}", flush=True)

    gated = ("error", "warning") if args.fail_on == "warning" else ("error",)
    failed = any(
        finding.severity in gated
        for report in reports
        for finding in report.findings
    )
    return 1 if failed else 0


def _cmd_chaos(args) -> int:
    from repro.core.framework import GLPEngine
    from repro.core.hybrid import HybridEngine
    from repro.core.multigpu import MultiGPUEngine
    from repro.resilience.chaos import chaos_sweep

    graph = _load_graph(args.dataset)
    factories = {
        "glp": lambda: GLPEngine(),
        "hybrid": lambda: HybridEngine(),
        "multigpu": lambda: MultiGPUEngine(2),
        "auto": None,  # run_auto: exercises the degradation ladder
    }
    report = chaos_sweep(
        graph,
        lambda: _build_program(args.algorithm, args),
        factories[args.engine],
        num_plans=args.plans,
        seed=args.seed,
        faults_per_plan=args.faults_per_plan,
        max_iterations=args.iterations,
    )
    analysis = report.analysis_report()
    if args.out:
        analysis.write(args.out)
    if args.json:
        doc = report.as_dict()
        doc["analysis"] = analysis.as_dict()
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 1 if analysis.has_hazards else 0
    print(f"graph          : {graph.name} "
          f"(V={graph.num_vertices:,}, E={graph.num_edges:,})")
    print(f"reference      : {report.reference_engine} "
          f"labels={report.reference_hash[:16]}…")
    print(f"event streams  : " + ", ".join(
        f"{stream}={count}"
        for stream, count in sorted(report.stream_totals.items())
    ))
    for run in report.runs:
        fired = ",".join(run.faults_fired) or "-"
        print(f"  [{run.status:>9}] plan={run.plan:<16} fired={fired:<10} "
              f"engine={run.engine or '-'}")
    print(analysis.to_text())
    if args.out:
        print(f"report written : {args.out}", flush=True)
    return 1 if analysis.has_hazards else 0


def _engine_report(args, report_cls):
    """Run the LP variant on ``--dataset``; ``report_cls`` of its engine.

    Prints the run header first unless ``--json`` (``profile``/``advise``).
    """
    graph = _load_graph(args.dataset)
    engine = _build_engine(args.engine)
    program = _build_program(args.algorithm, args)
    result = engine.run(
        graph,
        program,
        max_iterations=args.iterations,
        stop_on_convergence=not args.no_early_stop,
    )
    if not args.json:
        print(f"graph          : {graph.name} "
              f"(V={graph.num_vertices:,}, E={graph.num_edges:,})")
        print(f"engine         : {result.engine}   algorithm: "
              f"{program.name}   iterations: {result.num_iterations}")
        print(f"modeled time   : {result.total_seconds * 1e3:.4f} ms")
        print()
    return report_cls.from_engine(engine)


def _cmd_profile(args) -> int:
    from repro.obs import ProfileReport

    report = _engine_report(args, ProfileReport)
    if args.json:
        print(report.to_json(sort_by=args.sort_by, indent=2))
    else:
        print(report.to_text(sort_by=args.sort_by))
    return 0


def _cmd_advise(args) -> int:
    from repro.obs import AdvisorReport

    report = _engine_report(args, AdvisorReport)
    if args.json:
        print(report.to_json(indent=2))
    else:
        print(report.to_text(top=args.top))
    return 0


def _cmd_bench_run(args) -> int:
    from repro.bench.baseline import (
        run_scenario,
        scenario_names,
        write_baseline,
    )

    names = args.scenario or scenario_names()
    out_dir = "." if args.update_baselines else args.out_dir
    payloads = {}
    for name in names:
        print(f"running scenario {name} ...", flush=True)
        payloads[name] = run_scenario(name, mem_profile=args.mem_profile)
        path = write_baseline(out_dir, payloads[name])
        print(f"  wrote {path}", flush=True)
        memory = payloads[name].get("memory")
        if memory is not None:
            if not memory["reconciled"]:
                print("  memory: UNRECONCILED", flush=True)
            for row in memory["planner"].get("accuracy", []):
                status = "ok" if row["within_threshold"] else "MISS"
                print(
                    f"  planner {row['engine']}@gpu{row['device']}: "
                    f"predicted {row['predicted_bytes']:,} B, measured "
                    f"{row['measured_peak_bytes']:,} B "
                    f"({row['error_ratio']:+.1%}) {status}",
                    flush=True,
                )
    if args.json:
        print(json.dumps(payloads, indent=2, sort_keys=True))
    return 0


def _cmd_bench_compare(args) -> int:
    from repro.bench.baseline import (
        compare_against_baselines,
        load_baseline,
        scenario_names,
    )

    names = args.scenario or scenario_names()
    config_path = args.config
    if config_path is None and os.path.exists(
        "benchmarks/baseline_config.toml"
    ):
        config_path = "benchmarks/baseline_config.toml"
    fresh_payloads = None
    if args.fresh_dir:
        # Consume payloads a prior `bench run --out-dir` already wrote
        # (CI runs the suite once and compares the files).
        fresh_payloads = {
            name: load_baseline(args.fresh_dir, name) for name in names
        }
    outcome = compare_against_baselines(
        args.baseline_dir,
        names=names,
        config_path=config_path,
        fresh_payloads=fresh_payloads,
    )
    failed = {n: v for n, v in outcome.items() if v}
    if args.json:
        print(json.dumps(
            {
                "passed": sorted(n for n in outcome if n not in failed),
                "failed": {n: v for n, v in sorted(failed.items())},
            },
            indent=2,
        ))
    else:
        for name in sorted(outcome):
            violations = outcome[name]
            status = "FAIL" if violations else "ok"
            print(f"[{status:>4}] {name}")
            for violation in violations:
                print(f"        {violation}")
    if failed:
        fields = sorted(
            {v.split(":", 1)[0] for vs in failed.values() for v in vs}
        )
        print(
            f"perf gate: {len(failed)}/{len(outcome)} scenario(s) regressed "
            f"(offending fields: {', '.join(fields)})",
            file=sys.stderr,
        )
        return 1
    print(f"perf gate: all {len(outcome)} scenario(s) within tolerance")
    return 0


def _cmd_bench(args) -> int:
    if args.experiment == "run":
        return _cmd_bench_run(args)
    if args.experiment == "compare":
        return _cmd_bench_compare(args)
    from repro.bench import (
        run_fig4,
        run_fig5,
        run_fig6,
        run_fig7,
        run_pipeline_share,
        run_table2,
        run_table3,
        run_table4,
        run_theory_bounds,
    )
    from repro.bench.experiments import run_cost_efficiency

    runners = {
        "table2": run_table2,
        "fig4": run_fig4,
        "fig5": run_fig5,
        "fig6": run_fig6,
        "table3": run_table3,
        "table4": run_table4,
        "fig7": run_fig7,
        "pipeline": run_pipeline_share,
        "theory": run_theory_bounds,
        "cost": run_cost_efficiency,
    }
    text, _ = runners[args.experiment]()
    print(text)
    return 0


def _cmd_pipeline(args) -> int:
    from repro.pipeline import ClusterDetector, FraudDetectionPipeline

    sliding = bool(args.incremental or args.slides)
    if sliding and args.engine != "glp":
        print(
            "error: --incremental/--slides serve through the GLP frontier "
            "engine",
            file=sys.stderr,
        )
        return 2
    detector = ClusterDetector(
        _build_engine(args.engine, "auto" if sliding else "dense"),
        max_iterations=20, max_hops=6,
    )
    if sliding:
        return _cmd_pipeline_sliding(args, detector)
    pipeline = FraudDetectionPipeline(_stream(args), detector)
    with _outputs(args) as out:
        report = pipeline.run_window(min(args.window, args.days))
        print(f"window         : {report.window_days} days "
              f"(V={report.num_vertices:,}, E={report.num_edges:,})")
        print(f"stage times    : "
              f"build={report.construction_seconds * 1e3:.2f} ms"
              f"  LP={report.lp_seconds * 1e3:.2f} ms"
              f"  downstream={report.downstream_seconds * 1e3:.2f} ms")
        print(f"LP share       : {report.lp_fraction:.0%}")
        print(f"fraud clusters : {report.num_fraud_clusters} "
              f"of {report.num_clusters} detected")
        print(f"quality        : precision={report.metrics.precision:.2f} "
              f"recall={report.metrics.recall:.2f} "
              f"f1={report.metrics.f1:.2f}")
    return out.status


def _cmd_pipeline_sliding(args, detector) -> int:
    """The sliding-window serving loop (``pipeline --slides/--incremental``)."""
    from repro.pipeline import SlidingWindowDetector

    slides = args.slides or 1
    window_days = _window_days(args, slides)
    if window_days is None:
        return 2
    sliding = SlidingWindowDetector(
        _stream(args), detector, incremental=args.incremental
    )
    with _outputs(args) as out:
        window, detection = sliding.start(0, window_days)
        lp = detection.lp_result
        print(
            f"start          : {window.graph.name} "
            f"(V={window.graph.num_vertices:,}, "
            f"E={window.graph.num_edges:,})  "
            f"clusters={len(detection.clusters)}  "
            f"modeled={lp.total_seconds * 1e3:.3f} ms"
        )
        for i in range(slides):
            window, detection = sliding.slide()
            lp = detection.lp_result
            plan = sliding.last_plan
            diff = sliding.builder.last_diff
            edges = sum(s.processed_edges for s in lp.iterations)
            print(
                f"slide {i + 1:<8} : mode={plan.mode}/{plan.reason}  "
                f"diff=+{diff.num_added}/-{diff.num_removed}"
                f"/~{diff.num_reweighted}  "
                f"affected={plan.num_affected}  "
                f"edges={edges:,}  "
                f"clusters={len(detection.clusters)}  "
                f"modeled={lp.total_seconds * 1e3:.3f} ms"
            )
    return out.status


def _cmd_serve(args) -> int:
    """The streaming scoring service under deterministic bursty load."""
    import asyncio

    from repro.errors import ServingError
    from repro.serving import LoadGenConfig, LoadGenerator, ScoringService

    window_days = _window_days(args, args.slides)
    if window_days is None:
        return 2
    stream = _stream(args)
    try:
        generator = LoadGenerator(
            stream,
            LoadGenConfig(
                num_users=args.users,
                qps=args.qps,
                burst_factor=args.burst_factor,
                seed=args.seed,
            ),
        )
        events = generator.schedule(window_days, args.slides)
        service = ScoringService(
            stream,
            window_days=window_days,
            incremental=not args.no_incremental,
            queue_capacity=args.queue_capacity,
            policy=args.policy,
            deadline_seconds=args.deadline_ms / 1e3,
            probe_every=args.probe_identity,
        )
    except ServingError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with _outputs(args) as out:
        report = asyncio.run(service.serve(events, pace=args.pace))
        if args.json:
            print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        else:
            print(report.to_text())
    if report.probe_mismatches:
        print(
            f"repro serve: {report.probe_mismatches} identity probe(s) "
            "diverged from the batch replay",
            file=sys.stderr,
        )
        return 1
    return out.status


def _load_json(path: Optional[str]):
    if not path:
        return None
    with open(path) as fh:
        return json.load(fh)


def _cmd_obs_report(args) -> int:
    """Fuse journal + metrics + profiler + advisor + SLO into one report.

    Inputs that were named but are missing or empty on disk degrade to
    explicit "not collected" report sections instead of raising — a
    crashed serving run should still yield a (partial) report.
    """
    from repro.obs.journal import read_journal
    from repro.obs.report import build_report
    from repro.obs.slo import evaluate_slos, load_slo_spec

    not_collected = []

    def _optional(kind, path, loader):
        if not path:
            return None
        try:
            doc = loader(path)
        except (OSError, ValueError):
            # FileNotFoundError, truncated/invalid JSON, empty JSONL.
            not_collected.append(kind)
            return None
        if not doc:
            not_collected.append(kind)
            return None
        return doc

    journal_records = _optional("journal", args.journal, read_journal)
    metrics_doc = _optional("metrics", args.metrics, _load_json)
    slo_doc = _optional("slo", args.slo_report, _load_json)
    if slo_doc is None and args.slo and "slo" not in not_collected:
        if metrics_doc is None:
            print(
                "error: --slo needs --metrics (or use --slo-report)",
                file=sys.stderr,
            )
            return 2
        slo_doc = evaluate_slos(
            load_slo_spec(args.slo), metrics_doc
        ).as_dict()
    postmortems = [
        bundle
        for path in args.postmortem or []
        for bundle in [_optional("postmortem", path, _load_json)]
        if bundle is not None
    ]
    report = build_report(
        journal_records=journal_records,
        metrics_doc=metrics_doc,
        slo_doc=slo_doc,
        profile_doc=_optional("profile", args.profile, _load_json),
        advisor_doc=_optional("advisor", args.advisor, _load_json),
        memory_doc=_optional("memory", args.memory, _load_json),
        postmortems=postmortems,
        not_collected=not_collected,
    )
    rendered = _render_report(report, args.format == "json")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered)
        print(f"report written : {args.out}", flush=True)
    else:
        print(rendered, end="", flush=True)
    return 0


def _cmd_obs_memory(args) -> int:
    """Render a ``--mem-out`` watermark report; gate on its findings."""
    from repro.obs.memory import render_memory_report

    try:
        doc = _load_json(args.report)
    except (OSError, ValueError):
        doc = None
    if doc is None:
        print(
            f"error: no memory report at {args.report!r} "
            "(produce one with --mem-profile --mem-out)",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_memory_report(doc))
    errors = [
        f
        for f in (doc.get("analysis") or {}).get("findings", [])
        if f.get("severity") == "error"
    ]
    return 1 if (not doc.get("reconciled", False) or errors) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GLP reproduction: GPU label propagation on a "
        "simulated device",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an LP algorithm on a graph")
    run.add_argument(
        "graph",
        help="Table 2 dataset name (e.g. 'twitter') or edge-list file path",
    )
    run.add_argument("--engine", choices=ENGINES, default="glp")
    _add_lp_flags(run)
    run.add_argument(
        "--frontier", choices=list(FRONTIER_MODES), default="dense",
        help="frontier execution mode of the GLP engine "
        "(default: dense full-vertex passes)",
    )
    run.add_argument(
        "--sanitize", action="store_true",
        help="run every kernel under the race/sync sanitizer and exit "
        "non-zero on hazards (results stay bitwise identical)",
    )
    run.add_argument(
        "--sanitize-out", metavar="PATH",
        help="write the sanitizer report JSON here (implies --sanitize)",
    )
    run.add_argument(
        "--inject", metavar="PLAN",
        help="deterministic fault plan 'kind@N[xR][/devD]', comma "
        "separated (kinds: oom, transfer, kernel, ecc; N is the 1-based "
        "device event index; device engines only)",
    )
    run.add_argument(
        "--retries", type=int, metavar="N",
        help="enable checkpoint-based recovery with N retries and N "
        "resumes",
    )
    run.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="persist the per-iteration run checkpoint here",
    )
    run.add_argument(
        "--resume", metavar="PATH",
        help="resume from a .ckpt file or a checkpoint directory",
    )
    _add_obs_flags(run)
    run.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable result summary instead of text",
    )
    run.set_defaults(func=_cmd_run)

    check = sub.add_parser(
        "check",
        help="statically lint LP programs and kernel code for GPU "
        "correctness hazards",
    )
    check.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the built-in "
        "repro.kernels package plus ./examples when present)",
    )
    check.add_argument(
        "--out", metavar="PATH",
        help="also write the JSON report here",
    )
    check.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON instead of text",
    )
    check.add_argument(
        "--all", action="store_true",
        help="also run the static dataflow verifier, the engine/hook "
        "contract checker, and the schema-consistency lint",
    )
    check.add_argument(
        "--fail-on", choices=["error", "warning"], default="error",
        help="lowest severity that fails the command (default: error; "
        "'warning' also fails on warning-level findings)",
    )
    check.add_argument(
        "--out-dir", metavar="DIR",
        help="write one <source>.json report per analyzer into DIR",
    )
    check.set_defaults(func=_cmd_check)

    chaos = sub.add_parser(
        "chaos",
        help="replay seeded fault plans and verify recovery reproduces "
        "the fault-free labels bitwise",
    )
    chaos.add_argument(
        "--dataset", default="dblp",
        help="Table 2 dataset name or edge-list file path",
    )
    chaos.add_argument(
        "--engine", choices=["glp", "hybrid", "multigpu", "auto"],
        default="glp",
        help="engine under test; 'auto' drives run_auto and exercises "
        "the GPU->hybrid->CPU degradation ladder",
    )
    _add_lp_flags(chaos, early_stop=False)
    chaos.add_argument("--plans", type=int, default=5, metavar="N",
                       help="number of seeded random fault plans")
    chaos.add_argument("--faults-per-plan", type=int, default=1, metavar="N")
    chaos.add_argument(
        "--out", metavar="PATH",
        help="write the chaos analysis report JSON here",
    )
    chaos.add_argument("--json", action="store_true",
                       help="emit the full sweep as JSON")
    chaos.set_defaults(func=_cmd_chaos, iterations=10)

    datasets = sub.add_parser("datasets", help="list the dataset registry")
    datasets.set_defaults(func=_cmd_bench, experiment="table2")

    bench = sub.add_parser(
        "bench",
        help="run one paper experiment, or the baseline suite "
        "(bench run / bench compare)",
    )
    bench.add_argument("experiment", choices=EXPERIMENTS + BENCH_VERBS)
    bench.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="baseline scenario to run/compare (repeatable; "
        "default: the full suite)",
    )
    bench.add_argument(
        "--out-dir", default="benchmarks/results", metavar="DIR",
        help="where `bench run` writes BENCH_<scenario>.json "
        "(default: benchmarks/results)",
    )
    bench.add_argument(
        "--update-baselines", action="store_true",
        help="`bench run` writes the committed baselines at the repo "
        "root instead of --out-dir",
    )
    bench.add_argument(
        "--baseline-dir", default=".", metavar="DIR",
        help="where `bench compare` reads the committed baselines "
        "(default: repo root)",
    )
    bench.add_argument(
        "--config", metavar="TOML",
        help="tolerance-band config (default: "
        "benchmarks/baseline_config.toml when present)",
    )
    bench.add_argument(
        "--fresh-dir", metavar="DIR",
        help="`bench compare` consumes BENCH files a prior `bench run "
        "--out-dir` wrote here instead of re-running the scenarios",
    )
    bench.add_argument(
        "--mem-profile", action="store_true",
        help="`bench run` executes each scenario under the device-memory "
        "tracker and attaches planner-accuracy rows to its payload",
    )
    bench.add_argument(
        "--json", action="store_true",
        help="emit machine-readable payloads / gate outcome",
    )
    bench.set_defaults(func=_cmd_bench)

    pipeline = sub.add_parser(
        "pipeline", help="run the fraud-detection pipeline"
    )
    pipeline.add_argument("--days", type=int, default=60,
                          help="stream length in days")
    pipeline.add_argument("--window", type=int, default=30,
                          help="detection window in days")
    pipeline.add_argument(
        "--slides", type=int, default=0,
        help="serve N window slides through the sliding-window detector "
        "instead of one batch window",
    )
    pipeline.add_argument(
        "--incremental", action="store_true",
        help="plan slides DynLP-style: re-converge from the affected-vertex "
        "frontier instead of a dense warm pass (implies the sliding loop)",
    )
    pipeline.add_argument("--engine", choices=["glp", "distributed"],
                          default="glp")
    pipeline.add_argument("--seed", type=int, default=0)
    _add_obs_flags(pipeline, slo=True)
    pipeline.set_defaults(func=_cmd_pipeline)

    serve = sub.add_parser(
        "serve",
        help="run the streaming scoring service under deterministic "
        "bursty load (window slides + per-transaction scoring)",
    )
    serve.add_argument("--days", type=int, default=30,
                       help="stream length in days")
    serve.add_argument("--window", type=int, default=14,
                       help="detection window in days")
    serve.add_argument("--slides", type=int, default=5,
                       help="served days (window slides) to replay")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--users", type=int, default=2_000_000,
        help="score-request user universe (mostly outside the window)",
    )
    serve.add_argument("--qps", type=float, default=200.0,
                       help="baseline request rate per virtual second")
    serve.add_argument("--burst-factor", type=float, default=4.0,
                       help="rate multiplier during each day's burst")
    serve.add_argument(
        "--queue-capacity", type=int, default=256,
        help="scoring admission-queue bound (full queue sheds)",
    )
    serve.add_argument(
        "--policy", choices=["shed", "deadline"], default="deadline",
        help="overload policy: shed at admission only, or also expire "
        "queued requests past the deadline",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=50.0,
        help="queueing deadline for --policy deadline (milliseconds)",
    )
    serve.add_argument(
        "--pace", action="store_true",
        help="sleep to each event's virtual timestamp instead of "
        "replaying as fast as possible",
    )
    serve.add_argument(
        "--probe-identity", type=int, default=0, metavar="N",
        help="every Nth slide, verify the served labels_hash against a "
        "from-scratch batch replay (0 disables)",
    )
    serve.add_argument(
        "--no-incremental", action="store_true",
        help="disable DynLP incremental planning (full warm recompute "
        "per slide)",
    )
    _add_obs_flags(serve, slo=True)
    serve.add_argument(
        "--json", action="store_true",
        help="emit the serve report as JSON instead of text",
    )
    serve.set_defaults(func=_cmd_serve)

    obs_cmd = sub.add_parser(
        "obs", help="observability artifact tooling (run reports)"
    )
    obs_sub = obs_cmd.add_subparsers(dest="verb", required=True)
    report = obs_sub.add_parser(
        "report",
        help="fuse journal + metrics + profiler + advisor + SLO verdicts "
        "into one run report",
    )
    report.add_argument("--journal", metavar="PATH",
                        help="journal JSONL (--journal-out)")
    report.add_argument("--metrics", metavar="PATH",
                        help="metrics JSON dump (--metrics-out)")
    report.add_argument("--slo", metavar="SPEC.toml",
                        help="SLO spec to evaluate against --metrics")
    report.add_argument(
        "--slo-report", metavar="PATH",
        help="pre-evaluated SLO verdicts JSON (--slo-out); wins over --slo",
    )
    report.add_argument("--profile", metavar="PATH",
                        help="profiler JSON (profile --json)")
    report.add_argument("--advisor", metavar="PATH",
                        help="advisor JSON (advise --json)")
    report.add_argument(
        "--postmortem", metavar="PATH", action="append",
        help="post-mortem bundle JSON (repeatable)",
    )
    report.add_argument(
        "--memory", metavar="PATH",
        help="device-memory watermark report JSON (--mem-out)",
    )
    report.add_argument("--format", choices=["md", "json"], default="md")
    report.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")
    report.set_defaults(func=_cmd_obs_report)

    memory = obs_sub.add_parser(
        "memory",
        help="render a --mem-out watermark report; exit 1 on unreconciled "
        "totals or error-severity planner findings",
    )
    memory.add_argument(
        "--report", metavar="PATH", required=True,
        help="memory report JSON written by --mem-profile --mem-out",
    )
    memory.add_argument(
        "--json", action="store_true",
        help="echo the report JSON instead of the text rendering",
    )
    memory.set_defaults(func=_cmd_obs_memory)

    profile = _add_engine_report_parser(
        sub, "profile", _cmd_profile,
        help="run an LP variant and print the nvprof-style kernel table",
    )
    profile.add_argument(
        "--sort-by", choices=sorted(PROFILE_SORT_KEYS), default="time",
        help="kernel table sort column",
    )

    advise = _add_engine_report_parser(
        sub, "advise", _cmd_advise,
        help="run an LP variant and print ranked roofline bottleneck "
        "findings",
    )
    advise.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="print only the N most severe findings",
    )
    return parser


def _add_engine_report_parser(sub, name: str, func, *, help: str):
    """A ``profile``/``advise`` subcommand: one LP run on ``--dataset``."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument(
        "--dataset", default="dblp",
        help="Table 2 dataset name or edge-list file path",
    )
    parser.add_argument(
        "--engine", choices=list(_DEVICE_ENGINES), default="glp"
    )
    _add_lp_flags(parser)
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    parser.set_defaults(func=func)
    return parser


def _add_lp_flags(
    parser: argparse.ArgumentParser, *, early_stop: bool = True
) -> None:
    """The LP-variant flags of ``run``, ``profile``, ``advise``, ``chaos``."""
    parser.add_argument("--algorithm", choices=ALGORITHMS, default="classic")
    parser.add_argument("--iterations", type=int, default=20)
    parser.add_argument("--gamma", type=float, default=1.0,
                        help="LLP density parameter")
    parser.add_argument("--seed", type=int, default=0)
    if early_stop:
        parser.add_argument(
            "--no-early-stop", action="store_true",
            help="always run the full iteration budget",
        )


def _add_obs_flags(
    parser: argparse.ArgumentParser, *, slo: bool = False
) -> None:
    """The output-scope flags; ``slo`` adds the serving SLO/report group."""
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="write a Chrome trace_event JSON timeline (open in Perfetto)",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the metrics registry dump",
    )
    parser.add_argument(
        "--metrics-format", choices=["json", "prometheus"], default="json",
        help="format of --metrics-out (default: json)",
    )
    parser.add_argument(
        "--journal-out", metavar="PATH",
        help="write the correlation-ID event journal as JSONL",
    )
    parser.add_argument(
        "--flight-dir", metavar="DIR",
        help="write flight-recorder post-mortem bundles here",
    )
    parser.add_argument(
        "--mem-profile", action="store_true",
        help="track per-device live bytes and watermarks by allocation "
        "category (results stay bitwise identical)",
    )
    parser.add_argument(
        "--mem-out", metavar="PATH",
        help="write the device-memory watermark report JSON here "
        "(implies --mem-profile)",
    )
    if not slo:
        return
    parser.add_argument(
        "--slo", metavar="SPEC.toml",
        help="evaluate a TOML SLO spec against the run's metrics "
        "(exit 1 on breach); see benchmarks/serving_slo.toml",
    )
    parser.add_argument(
        "--slo-out", metavar="PATH",
        help="write SLO verdicts as an analysis report (source \"slo\"; "
        "requires --slo)",
    )
    parser.add_argument(
        "--report-out", metavar="PATH",
        help="write the fused run report (.json for JSON, else markdown)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "slo_out", None) and not args.slo:
        print("error: --slo-out needs --slo", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
