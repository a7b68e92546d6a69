"""Machine-readable benchmark baselines with tolerance-banded regression gating.

The regression contract has three parts:

1. a **scenario registry** — standardized runs spanning the execution
   modes that matter for the Section 4/5 claims: dense vs frontier
   dispatch, the classic/LLP/SLP variants, single-GPU vs CPU-GPU hybrid
   vs multi-GPU engines, and the warm-started sliding-window serving
   loop;
2. a **serializer** — every scenario reduces to a flat JSON payload
   (modeled seconds, iteration counts, key counters, labels hash, and
   the advisor's per-kernel verdicts) written to ``BENCH_<scenario>.json``
   at the repo root, which is committed as the performance trajectory;
3. a **comparator** — ``repro bench compare`` re-runs the scenarios and
   diffs the fresh payloads against the committed baselines under the
   per-field tolerance bands of ``benchmarks/baseline_config.toml``,
   exiting non-zero and naming the offending fields on regression.

The simulator is deterministic, so labels hashes and counters must match
*exactly*; modeled seconds get a small relative band so that honest
timing-model refinements do not require a baseline refresh ceremony for
sub-percent drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import BenchmarkError, ObservabilityError
from repro.obs.advisor import AdvisorReport
from repro.obs.slo import load_toml

#: Bump when payload fields change incompatibly.
SCHEMA_VERSION = 1

#: Baseline filename pattern at the repo root.
BASELINE_PREFIX = "BENCH_"

#: Fields compared bit-for-bit (the simulator is deterministic).
EXACT_FIELDS = (
    "schema_version",
    "scenario",
    "engine",
    "algorithm",
    "dataset",
    "num_vertices",
    "num_edges",
    "iterations",
    "converged",
    "labels_hash",
    "num_communities",
)

#: Modeled-time fields compared under ``rel_tol_seconds``.
SECONDS_FIELDS = ("total_seconds", "seconds_per_iteration")

#: Counter keys serialized into every payload (compared under
#: ``rel_tol_counters``; ratios under ``rel_tol_ratio``).
COUNTER_FIELDS = (
    "global_transactions",
    "global_atomic_serialized_ops",
    "shared_atomic_serialized_ops",
    "shared_bank_conflicts",
    "h2d_bytes",
    "d2h_bytes",
)
RATIO_COUNTER_FIELDS = ("lane_utilization",)


@dataclass(frozen=True)
class Scenario:
    """One standardized benchmark scenario."""

    name: str
    description: str
    run: Callable[[], dict]


# ----------------------------------------------------------------------
# Payload construction
# ----------------------------------------------------------------------
def result_payload(
    scenario: str,
    result,
    graph,
    engine,
    *,
    algorithm: str,
    extra: Optional[dict] = None,
) -> dict:
    """Serialize one LP run into the flat baseline payload."""
    counters = result.total_counters
    advisor = AdvisorReport.from_engine(engine)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario,
        "engine": result.engine,
        "algorithm": algorithm,
        "dataset": graph.name,
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "iterations": result.num_iterations,
        "converged": bool(result.converged),
        "labels_hash": result.labels_hash(),
        "num_communities": int(np.unique(result.labels).size),
        "total_seconds": float(result.total_seconds),
        "seconds_per_iteration": float(result.seconds_per_iteration),
        "counters": {
            "global_transactions": int(counters.global_transactions),
            "global_atomic_serialized_ops": int(
                counters.global_atomic_serialized_ops
            ),
            "shared_atomic_serialized_ops": int(
                counters.shared_atomic_serialized_ops
            ),
            "shared_bank_conflicts": int(counters.shared_bank_conflicts),
            "lane_utilization": float(counters.lane_utilization),
            # Transfer bytes come from the device-level summary: the
            # one-time graph upload happens outside the iteration loop,
            # so result.total_counters does not see it.
            "h2d_bytes": int(advisor.transfer_summary["h2d"]["bytes"]),
            "d2h_bytes": int(advisor.transfer_summary["d2h"]["bytes"]),
        },
        "advisor": {
            "verdicts": advisor.verdicts(),
            "transfer_fraction": float(advisor.transfer_fraction),
        },
    }
    if extra:
        payload.update(extra)
    return payload


# ----------------------------------------------------------------------
# The scenario suite
# ----------------------------------------------------------------------
def _run_dense_classic() -> dict:
    from repro.algorithms import ClassicLP
    from repro.bench.datasets import load_dataset
    from repro.core.framework import GLPEngine

    graph = load_dataset("dblp")
    engine = GLPEngine()
    result = engine.run(
        graph, ClassicLP(), max_iterations=10, stop_on_convergence=False
    )
    return result_payload(
        "dense_classic", result, graph, engine, algorithm="classic"
    )


def _run_frontier_classic() -> dict:
    from repro.algorithms import ClassicLP
    from repro.bench.datasets import load_dataset
    from repro.core.framework import GLPEngine

    graph = load_dataset("youtube")
    engine = GLPEngine(frontier="auto")
    result = engine.run(
        graph, ClassicLP(), max_iterations=10, stop_on_convergence=False
    )
    sparse_passes = sum(
        1
        for stats in result.iterations
        if stats.kernel_stats.get("pass_mode") == "sparse"
    )
    return result_payload(
        "frontier_classic",
        result,
        graph,
        engine,
        algorithm="classic",
        extra={"sparse_passes": sparse_passes},
    )


def _run_dense_llp() -> dict:
    from repro.algorithms import LayeredLP
    from repro.bench.datasets import load_dataset
    from repro.core.framework import GLPEngine

    graph = load_dataset("dblp")
    engine = GLPEngine()
    result = engine.run(
        graph,
        LayeredLP(gamma=1.0),
        max_iterations=8,
        stop_on_convergence=False,
    )
    return result_payload(
        "dense_llp", result, graph, engine, algorithm="llp"
    )


def _run_dense_slp() -> dict:
    from repro.algorithms import SpeakerListenerLP
    from repro.bench.datasets import load_dataset
    from repro.core.framework import GLPEngine

    graph = load_dataset("dblp")
    engine = GLPEngine()
    result = engine.run(
        graph,
        SpeakerListenerLP(max_labels=5, seed=0),
        max_iterations=8,
        stop_on_convergence=False,
    )
    return result_payload(
        "dense_slp", result, graph, engine, algorithm="slp"
    )


def _run_hybrid_window() -> dict:
    from repro.algorithms import SeededFraudLP
    from repro.bench import datasets as bench_datasets
    from repro.core.hybrid import run_auto

    window = bench_datasets.taobao_window(100)
    seeds = bench_datasets.window_seeds(100)
    result, engine = run_auto(
        window.graph,
        SeededFraudLP(seeds),
        spec=bench_datasets.FIG7_DEVICE,
        max_iterations=5,
        stop_on_convergence=False,
    )
    if engine.name != "GLP-Hybrid":
        raise BenchmarkError(
            "hybrid_window scenario expected the hybrid engine, got "
            f"{engine.name!r} — did the FIG7 device memory change?"
        )
    return result_payload(
        "hybrid_window",
        result,
        window.graph,
        engine,
        algorithm="seeded",
        extra={
            "mode": engine.name,
            "transfer_fraction_hybrid": (
                float(engine.last_stats.transfer_fraction)
                if engine.last_stats
                else None
            ),
        },
    )


def _run_multigpu_window() -> dict:
    from repro.algorithms import SeededFraudLP
    from repro.bench import datasets as bench_datasets
    from repro.core.multigpu import MultiGPUEngine

    window = bench_datasets.taobao_window(50)
    seeds = bench_datasets.window_seeds(50)
    engine = MultiGPUEngine(2, spec=bench_datasets.FIG7_DEVICE)
    result = engine.run(
        window.graph,
        SeededFraudLP(seeds),
        max_iterations=5,
        stop_on_convergence=False,
    )
    return result_payload(
        "multigpu_window",
        result,
        window.graph,
        engine,
        algorithm="seeded",
        extra={"num_gpus": engine.num_gpus},
    )


def _run_warm_windows() -> dict:
    from repro.core.framework import GLPEngine
    from repro.pipeline import (
        ClusterDetector,
        SlidingWindowDetector,
        TransactionStream,
        TransactionStreamConfig,
    )

    stream = TransactionStream(
        TransactionStreamConfig(num_days=16, seed=7)
    )
    engine = GLPEngine(frontier="auto")
    detector = ClusterDetector(engine, max_iterations=12, max_hops=6)
    sliding = SlidingWindowDetector(stream, detector)
    window, detection = sliding.start(0, 10)
    for _ in range(2):
        window, detection = sliding.slide()
    # The payload captures the steady-state (warm-started) serving run.
    return result_payload(
        "warm_windows",
        detection.lp_result,
        window.graph,
        engine,
        algorithm="seeded",
        extra={"num_clusters": len(detection.clusters)},
    )


def _run_warm_windows_incremental() -> dict:
    from repro.core.framework import GLPEngine
    from repro.pipeline import (
        ClusterDetector,
        SlidingWindowDetector,
        TransactionStream,
        TransactionStreamConfig,
    )

    num_slides = 2

    def serve(incremental: bool):
        stream = TransactionStream(
            TransactionStreamConfig(num_days=16, seed=7)
        )
        engine = GLPEngine(frontier="auto")
        detector = ClusterDetector(engine, max_iterations=12, max_hops=6)
        sliding = SlidingWindowDetector(
            stream, detector, incremental=incremental
        )
        sliding.start(0, 10)
        slides = []
        for _ in range(num_slides):
            window, detection = sliding.slide()
            slides.append(
                (window, detection, sliding.last_plan,
                 sliding.builder.last_diff)
            )
        return engine, slides

    _, full_slides = serve(incremental=False)
    inc_engine, inc_slides = serve(incremental=True)

    full_edges = inc_edges = 0
    full_seconds = inc_seconds = 0.0
    affected = diff_pairs = 0
    identical = True
    for (_, full_det, _, _), (inc_win, inc_det, plan, diff) in zip(
        full_slides, inc_slides
    ):
        if not plan.incremental:
            raise BenchmarkError(
                f"warm_windows_incremental: slide planned "
                f"{plan.mode}/{plan.reason}, expected incremental"
            )
        if (
            full_det.lp_result.labels_hash()
            != inc_det.lp_result.labels_hash()
        ):
            raise BenchmarkError(
                "warm_windows_incremental: incremental labels diverged "
                f"from the full recompute on {inc_win.graph.name}"
            )
        full_edges += sum(
            s.processed_edges for s in full_det.lp_result.iterations
        )
        inc_edges += sum(
            s.processed_edges for s in inc_det.lp_result.iterations
        )
        full_seconds += full_det.lp_result.total_seconds
        inc_seconds += inc_det.lp_result.total_seconds
        affected += plan.num_affected
        diff_pairs += diff.num_changed
    ratio = full_edges / max(1, inc_edges)
    if ratio < 5.0:
        raise BenchmarkError(
            f"warm_windows_incremental: processed-edge ratio {ratio:.2f} "
            "below the 5x gate"
        )
    if inc_seconds >= full_seconds:
        raise BenchmarkError(
            "warm_windows_incremental: incremental modeled seconds "
            f"({inc_seconds:.3e}) not below full recompute "
            f"({full_seconds:.3e})"
        )
    window, detection, plan, _ = inc_slides[-1]
    return result_payload(
        "warm_windows_incremental",
        detection.lp_result,
        window.graph,
        inc_engine,
        algorithm="seeded",
        extra={
            "mode": "incremental",
            "num_slides": num_slides,
            "full_processed_edges": int(full_edges),
            "incremental_processed_edges": int(inc_edges),
            "processed_edges_ratio": float(ratio),
            "full_total_seconds": float(full_seconds),
            "incremental_total_seconds": float(inc_seconds),
            "identical_to_full": identical,
            "affected_vertices": int(affected),
            "diff_pairs": int(diff_pairs),
            "num_clusters": len(detection.clusters),
        },
    )


SCENARIOS: List[Scenario] = [
    Scenario(
        "dense_classic",
        "classic LP, dense degree-binned pass, single GPU (dblp)",
        _run_dense_classic,
    ),
    Scenario(
        "frontier_classic",
        "classic LP under direction-optimizing frontier dispatch (youtube)",
        _run_frontier_classic,
    ),
    Scenario(
        "dense_llp",
        "layered LP (gamma=1), dense pass, single GPU (dblp)",
        _run_dense_llp,
    ),
    Scenario(
        "dense_slp",
        "speaker-listener LP, dense pass, single GPU (dblp)",
        _run_dense_slp,
    ),
    Scenario(
        "hybrid_window",
        "seeded LP on the 100-day window in CPU-GPU hybrid mode",
        _run_hybrid_window,
    ),
    Scenario(
        "multigpu_window",
        "seeded LP on the 50-day window across 2 simulated GPUs",
        _run_multigpu_window,
    ),
    Scenario(
        "warm_windows",
        "warm-started sliding-window serving loop (frontier engine)",
        _run_warm_windows,
    ),
    Scenario(
        "warm_windows_incremental",
        "incremental (DynLP-style) window slides vs full warm recompute",
        _run_warm_windows_incremental,
    ),
]

_BY_NAME = {scenario.name: scenario for scenario in SCENARIOS}


def scenario_names() -> List[str]:
    return [scenario.name for scenario in SCENARIOS]


def get_scenario(name: str) -> Scenario:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise BenchmarkError(
            f"unknown scenario {name!r}; known: {scenario_names()}"
        ) from None


def run_scenario(name: str, *, mem_profile: bool = False) -> dict:
    """Run one registered scenario and return its baseline payload.

    With ``mem_profile`` the run executes under the device-memory
    tracker and the payload gains a ``memory`` block: reconciliation
    status, the planner-accuracy rows (``device_footprint`` predictions
    vs measured peaks) and any ``memory-planner-*`` findings.  The block
    is additive — :func:`compare_payloads` only diffs the known fields,
    so profiled and unprofiled payloads gate identically.
    """
    scenario = get_scenario(name)
    if not mem_profile:
        return scenario.run()
    from repro.obs.memory import track

    with track() as tracker:
        payload = scenario.run()
        report = tracker.report()
    payload["memory"] = {
        "reconciled": report["reconciled"],
        "planner": report["planner"],
        "findings": report["analysis"]["findings"],
    }
    return payload


# ----------------------------------------------------------------------
# Baseline files
# ----------------------------------------------------------------------
def baseline_path(directory, name: str) -> Path:
    return Path(directory) / f"{BASELINE_PREFIX}{name}.json"


def write_baseline(directory, payload: dict) -> Path:
    path = baseline_path(directory, payload["scenario"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(directory, name: str) -> dict:
    path = baseline_path(directory, name)
    if not path.exists():
        raise BenchmarkError(
            f"no committed baseline {path} — run "
            f"`repro bench run --update-baselines` and commit the file"
        )
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Tolerance configuration
# ----------------------------------------------------------------------
DEFAULT_TOLERANCES = {
    "rel_tol_seconds": 0.05,
    "rel_tol_counters": 0.02,
    "rel_tol_ratio": 0.05,
}


def load_tolerance_config(path=None) -> dict:
    """Load ``baseline_config.toml`` (missing file → defaults only)."""
    if path is None:
        return {"default": dict(DEFAULT_TOLERANCES)}
    path = Path(path)
    if not path.exists():
        raise BenchmarkError(f"tolerance config {path} does not exist")
    try:
        doc = load_toml(path.read_text())
    except (ObservabilityError, ValueError) as exc:
        raise BenchmarkError(
            f"unparseable tolerance config {path}: {exc}"
        ) from exc
    doc.setdefault("default", {})
    for key, value in DEFAULT_TOLERANCES.items():
        doc["default"].setdefault(key, value)
    return doc


def tolerances_for(config: dict, scenario: str) -> dict:
    """The effective tolerance band for one scenario."""
    merged = dict(DEFAULT_TOLERANCES)
    merged.update(config.get("default", {}))
    merged.update(config.get("scenarios", {}).get(scenario, {}))
    return merged


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _rel_violation(
    field: str, base, fresh, rel_tol: float, *, floor: float = 0.0
) -> Optional[str]:
    base = float(base)
    fresh = float(fresh)
    allowed = rel_tol * max(abs(base), floor)
    if abs(fresh - base) > allowed:
        return (
            f"{field}: baseline={base:.6g} fresh={fresh:.6g} "
            f"(|delta|={abs(fresh - base):.3g} exceeds ±{rel_tol:.1%} band)"
        )
    return None


def compare_payloads(
    baseline: dict, fresh: dict, tolerances: dict
) -> List[str]:
    """Diff a fresh payload against a committed baseline.

    Returns a list of human-readable violations, each naming the
    offending field; an empty list means the scenario passed.
    """
    violations: List[str] = []
    for key in EXACT_FIELDS:
        if baseline.get(key) != fresh.get(key):
            violations.append(
                f"{key}: baseline={baseline.get(key)!r} "
                f"fresh={fresh.get(key)!r} (exact-match field)"
            )
    rel_seconds = tolerances["rel_tol_seconds"]
    for key in SECONDS_FIELDS:
        v = _rel_violation(
            key, baseline.get(key, 0.0), fresh.get(key, 0.0), rel_seconds
        )
        if v:
            violations.append(v)
    base_counters = baseline.get("counters", {})
    fresh_counters = fresh.get("counters", {})
    rel_counters = tolerances["rel_tol_counters"]
    for key in COUNTER_FIELDS:
        v = _rel_violation(
            f"counters.{key}",
            base_counters.get(key, 0),
            fresh_counters.get(key, 0),
            rel_counters,
            floor=1.0,
        )
        if v:
            violations.append(v)
    rel_ratio = tolerances["rel_tol_ratio"]
    for key in RATIO_COUNTER_FIELDS:
        v = _rel_violation(
            f"counters.{key}",
            base_counters.get(key, 0.0),
            fresh_counters.get(key, 0.0),
            rel_ratio,
            floor=1e-6,
        )
        if v:
            violations.append(v)
    base_advisor = baseline.get("advisor", {})
    fresh_advisor = fresh.get("advisor", {})
    base_verdicts = base_advisor.get("verdicts", {})
    fresh_verdicts = fresh_advisor.get("verdicts", {})
    for kernel in sorted(set(base_verdicts) | set(fresh_verdicts)):
        if base_verdicts.get(kernel) != fresh_verdicts.get(kernel):
            violations.append(
                f"advisor.verdicts.{kernel}: "
                f"baseline={base_verdicts.get(kernel)!r} "
                f"fresh={fresh_verdicts.get(kernel)!r} (verdict changed)"
            )
    v = _rel_violation(
        "advisor.transfer_fraction",
        base_advisor.get("transfer_fraction", 0.0),
        fresh_advisor.get("transfer_fraction", 0.0),
        rel_ratio,
        floor=0.01,
    )
    if v:
        violations.append(v)
    return violations


def compare_against_baselines(
    baseline_dir,
    *,
    names: Optional[Sequence[str]] = None,
    config_path=None,
    fresh_payloads: Optional[Dict[str, dict]] = None,
) -> Dict[str, List[str]]:
    """Compare fresh scenario payloads against committed baselines.

    ``fresh_payloads`` may carry pre-computed payloads (e.g. the files a
    prior ``repro bench run`` wrote); scenarios missing from it are run
    fresh.  Returns ``{scenario: [violations...]}`` for every compared
    scenario (empty lists mean pass).
    """
    names = list(names) if names else scenario_names()
    config = load_tolerance_config(config_path)
    outcome: Dict[str, List[str]] = {}
    for name in names:
        baseline = load_baseline(baseline_dir, name)
        if fresh_payloads and name in fresh_payloads:
            fresh = fresh_payloads[name]
        else:
            fresh = run_scenario(name)
        outcome[name] = compare_payloads(
            baseline, fresh, tolerances_for(config, name)
        )
    return outcome
