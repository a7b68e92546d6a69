"""Self-test of the end-to-end benchmark, at small sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

Sizes shrink through workload-function arguments; the benchmark command
itself has no size option.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections import defaultdict

import pytest

import run
import tracing
import workloads
from repro.pipeline import incremental

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
#: A tenth of the default stream: slides take tens of milliseconds.
SMALL_STREAM = {
    "num_users": 6_000,
    "num_products": 4_500,
    "transactions_per_day": 1_700,
    "num_rings": 10,
}
SMALL = {
    "slide_incremental": {"stream_sizes": SMALL_STREAM},
    "slide_full": {"stream_sizes": SMALL_STREAM},
    "lp_batch": {"scale": 9, "edge_factor": 8.0},
    "serve_mixed": {"stream_sizes": SMALL_STREAM, "qps": 100.0},
}


def small_run(name, seconds=0.5, *, trace=False):
    return workloads.run_workload(
        name, 0, seconds, trace=trace, setup_repeats=1, **SMALL[name]
    )


@pytest.fixture(scope="module")
def runs():
    """Each workload small, untraced and traced, one after another."""
    out = {}
    for name in run.WORKLOADS:
        seconds = 2 if name == "serve_mixed" else 0.5
        out[name] = (small_run(name, seconds), small_run(name, seconds, trace=True))
    return out


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_result_schema_and_metrics(runs):
    for name, (untraced, _) in runs.items():
        assert untraced["attempted"] >= 1 and untraced["failed"] == 0, name
        assert len(untraced["chain"]) >= 1
        metrics = run.end_to_end(untraced)
        assert set(metrics) == set(BOUNDS), name
        assert all(value > 0 for value in metrics.values()), (name, metrics)


def test_per_layer_names_cover_the_spec(runs):
    names = [m["name"] for m in SPEC["per_layer"]]
    produced = {"trace.overhead_ratio"}
    for untraced, traced in runs.values():
        values = run.per_layer(traced, untraced, names)
        assert set(values) == set(names)
        produced.update(traced["layers"])
    assert produced == set(names)


def test_hash_checks_pass_and_catch_a_wrong_entry(runs):
    inc, _ = runs["slide_incremental"]
    others = [runs["slide_full"][0], runs["serve_mixed"][0]]
    refs = run.references(inc, {"window_chain": {}, "lp_batch": {}}, others)
    assert len(refs) == 2
    assert run.failures(inc, refs) == (0, [])

    tampered = dict(inc, chain=list(inc["chain"]))
    tampered["chain"][1] = "0" * 64
    failed, notes = run.failures(tampered, refs)
    assert failed == 1
    assert any("entry 1" in note for note in notes)

    expected = {"window_chain": {"0": ["f" * 16] * 3}, "lp_batch": {}}
    failed, _ = run.failures(inc, run.references(inc, expected, []))
    assert failed == min(3, len(inc["chain"]))

    serve, _ = runs["serve_mixed"]
    failed, notes = run.failures(dict(serve, mismatched=[1]), [])
    assert failed == max(1, serve["version_requests"].get(1, 0))
    assert notes == ["oracle rejected chain entry 1"]


def test_serve_final_state_matches_the_slide_chain(runs):
    serve, _ = runs["serve_mixed"]
    chain = runs["slide_incremental"][0]["chain"]
    assert len(serve["chain"]) == 3  # cold start plus two served days
    assert serve["chain"] == chain[: len(serve["chain"])]
    assert serve["wrong_responses"] == {}
    assert serve["extra"]["loadgen.requests"] == serve["attempted"]


def test_traced_hashes_equal_untraced_hashes(runs):
    for name, (untraced, traced) in runs.items():
        n = min(len(untraced["chain"]), len(traced["chain"]))
        assert untraced["chain"][:n] == traced["chain"][:n], name
        assert run.failures(traced, run.references(traced, {
            "window_chain": {}, "lp_batch": {}}, [untraced]))[0] == 0


def test_slide_spans_are_attributed(runs):
    for name in ("slide_incremental", "slide_full"):
        assert runs[name][1]["layers"]["trace.attributed_min_ratio"] >= 0.95


def test_no_result_without_the_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "lp_batch"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
def _slides(incremental, seconds, *, trace):
    recorder = tracing.Recorder() if trace else None
    result = workloads.slides(
        0, seconds, incremental=incremental, setup_repeats=1,
        recorder=recorder, stream_sizes=SMALL_STREAM,
    )
    return result, recorder


def _self_seconds(recorder):
    own = tracing.self_times(recorder.spans)
    total = defaultdict(float)
    for span in recorder.spans:
        if span.phase == "timed":
            total[span.name] += own[span.id]
    return total


def _p50_ms(result):
    return run.median(result["op_s"]) * 1e3


def test_slowed_plan_slide_is_named(monkeypatch):
    """A sleep in DynLP planning shows on slide_incremental, not slide_full."""
    base_inc, base_rec = _slides(True, 1.0, trace=True)
    delay = 2 * _p50_ms(base_inc) / 1e3
    original = incremental.plan_slide

    def slow_plan_slide(*args, **kwargs):
        time.sleep(delay)
        return original(*args, **kwargs)

    # A shared host's speed can drift by tens of percent within seconds, so the
    # no-effect side alternates short runs and compares the fastest.
    base_full, slow_full = [], []
    for _ in range(3):
        base_full.append(_p50_ms(_slides(False, 0.7, trace=False)[0]))
        with monkeypatch.context() as patch:
            patch.setattr(incremental, "plan_slide", slow_plan_slide)
            slow_full.append(_p50_ms(_slides(False, 0.7, trace=False)[0]))

    monkeypatch.setattr(incremental, "plan_slide", slow_plan_slide)
    slow_inc, slow_rec = _slides(True, 1.0, trace=True)

    before, after = _self_seconds(base_rec), _self_seconds(slow_rec)
    per_op = {
        name: after[name] / slow_inc["ops"] - before[name] / base_inc["ops"]
        for name in after
    }
    assert max(per_op, key=per_op.get) == "dynlp.plan_slide"
    layers = tracing.layer_metrics(slow_rec.spans, slow_inc["ops"])
    base_layers = tracing.layer_metrics(base_rec.spans, base_inc["ops"])
    assert layers["dynlp.plan_slide_s"] - base_layers["dynlp.plan_slide_s"] > 0.9 * delay

    bound = BOUNDS["latency_p50_ms"]
    assert _p50_ms(slow_inc) > (1 + bound) * _p50_ms(base_inc)
    assert min(slow_full) <= (1 + bound) * min(base_full)
    n = min(len(slow_inc["chain"]), len(base_inc["chain"]))
    assert slow_inc["chain"][:n] == base_inc["chain"][:n]
