"""The workloads of the end-to-end benchmark.

Each workload function sets the system up ``setup_repeats`` times from
scratch (the last set-up is the one used), times operations for
``seconds`` of wall clock, and then checks what it produced against an
oracle that shares no code with the timed engine path: a
:class:`~repro.baselines.cpu_serial.SerialEngine` detection on a window
rebuilt from the raw stream.  It returns a plain JSON-able dict of raw
samples; ``run.py`` turns those into metrics.

Sizes are keyword arguments so the self-test can run the same code small.
With a :class:`~tracing.Recorder`, the set-up and timed phases run with
every layer entry point wrapped (see ``tracing.py``); the oracle never
does.

``run.py`` starts each workload in a fresh process through this file::

    python3 benchmarks/e2e/workloads.py WORKLOAD SEED SECONDS TRACE \
        SETUP_REPEATS OUT_DIR

which prints the result dict as the last line of its standard output.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import resource
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional

SRC = Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro import ClassicLP, GLPEngine  # noqa: E402
from repro.baselines.cpu_serial import SerialEngine  # noqa: E402
from repro.graph.generators.rmat import rmat_graph  # noqa: E402
from repro.pipeline.detector import ClusterDetector  # noqa: E402
from repro.pipeline.incremental import (  # noqa: E402
    SlidingWindowDetector,
    warm_start_seeds,
)
from repro.pipeline.seeds import SeedStore  # noqa: E402
from repro.pipeline.transactions import (  # noqa: E402
    TransactionStream,
    TransactionStreamConfig,
)
from repro.pipeline.window import build_window_graph  # noqa: E402
from repro.serving.loadgen import (  # noqa: E402
    DayEnd,
    LoadGenConfig,
    LoadGenerator,
    ScoreRequest,
)
from repro.serving.service import ScoringService  # noqa: E402
from repro.types import NO_LABEL  # noqa: E402

import tracing  # noqa: E402

#: The ScoringService defaults, shared by the three pipeline workloads.
STREAM_DAYS = 65
WINDOW_DAYS = 14
MAX_ITERATIONS = 20
MAX_HOPS = 6
#: lp_batch runs this many ClassicLP iterations, never stopping early.
LP_ITERATIONS = 10
#: A request answered later than this after its due time misses.
OK_LATENCY_S = 0.010
#: How long serve_mixed waits for the last slide after the last event.
SLIDE_WAIT_S = 30.0


def _cluster_detector(engine) -> ClusterDetector:
    return ClusterDetector(
        engine, max_iterations=MAX_ITERATIONS, max_hops=MAX_HOPS
    )


def _stream(seed: int, stream_sizes: Optional[dict]) -> TransactionStream:
    return TransactionStream(
        TransactionStreamConfig(
            num_days=STREAM_DAYS, seed=seed, **(stream_sizes or {})
        )
    )


def _traced(recorder: Optional[tracing.Recorder]):
    if recorder is None:
        return contextlib.nullcontext()
    return tracing.installed(recorder)


def _op_span(recorder: Optional[tracing.Recorder], name: str):
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span(name)


def oracle_hash(
    stream: TransactionStream, start_day: int, previous_labels
) -> str:
    """Labels hash of one window detection, computed independently.

    Rebuilds the window ``[start_day, start_day + WINDOW_DAYS)`` straight
    from the stream, warm-starts it from ``previous_labels`` (the labels of
    the window one day earlier, or ``None`` for the cold start) and runs
    the serial CPU engine densely: no incremental builder, no DynLP plan,
    no simulated device.
    """
    current = build_window_graph(stream, start_day, WINDOW_DAYS)
    seeds = SeedStore(stream.blacklist()).window_seeds(current)
    if previous_labels is not None:
        previous = build_window_graph(stream, start_day - 1, WINDOW_DAYS)
        seeds = warm_start_seeds(
            previous, previous_labels, current, seeds, carry_products=True
        )
    result = _cluster_detector(SerialEngine()).detect(current, seeds)
    return result.lp_result.labels_hash()


def _oracle_indices(seed: int, last: int) -> List[int]:
    """Chain entries the oracle re-derives: cold, one drawn, the last."""
    drawn = int(np.random.default_rng(seed).integers(1, last)) if last > 1 else 0
    return sorted({0, drawn, last})


def _check_chain(stream, chain: List[str], labels: list, seed: int) -> dict:
    checked = _oracle_indices(seed, len(chain) - 1)
    mismatched = [
        i for i in checked
        if oracle_hash(stream, i, labels[i - 1] if i else None) != chain[i]
    ]
    return {"oracle_checked": checked, "mismatched": mismatched}


def _peak_rss_mb() -> float:
    """Peak RSS so far; read after the timed phase, before any oracle runs."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# slide_incremental / slide_full
# ----------------------------------------------------------------------
def slides(
    seed: int,
    seconds: float,
    *,
    incremental: bool,
    setup_repeats: int = 3,
    recorder: Optional[tracing.Recorder] = None,
    stream_sizes: Optional[dict] = None,
) -> dict:
    """Start a 14-day window, then slide it one day at a time.

    An operation is one ``slide()`` plus the ``labels_hash`` the serving
    path publishes with each new state.  ``chain[i]`` is the labels hash
    after slide ``i`` (``chain[0]``: the cold start).
    """
    with _traced(recorder):
        setup_s = []
        for _ in range(setup_repeats):
            # Drop the previous set-up first: peak RSS should hold one.
            stream = detector = None
            t0 = perf_counter()
            stream = _stream(seed, stream_sizes)
            detector = SlidingWindowDetector(
                stream,
                _cluster_detector(GLPEngine(frontier="auto")),
                incremental=incremental,
            )
            _, cold = detector.start(0, WINDOW_DAYS)
            setup_s.append(perf_counter() - t0)
        labels = [cold.lp_result.labels]
        chain = [cold.lp_result.labels_hash()]

        if recorder is not None:
            recorder.phase = "timed"
        op_s: List[float] = []
        failed = 0
        last_day = stream.config.num_days - 1
        deadline = perf_counter() + seconds
        # The 65-day stream holds 51 slides; the timed phase ends early
        # only if all of them fit in ``seconds``.
        while (
            not op_s or perf_counter() < deadline
        ) and max(detector.builder.days) < last_day:
            t0 = perf_counter()
            try:
                with _op_span(recorder, "op.slide"):
                    _, result = detector.slide()
                    digest = result.lp_result.labels_hash()
            except Exception:
                traceback.print_exc()
                failed += 1
                break
            op_s.append(perf_counter() - t0)
            labels.append(result.lp_result.labels)
            chain.append(digest)
        if recorder is not None:
            recorder.phase = "done"

    out = {
        "setup_s": setup_s,
        "op_s": op_s,
        "attempted": len(op_s) + failed,
        "failed": failed,
        "chain": chain,
        "ops": len(op_s),
        "peak_rss_mb": _peak_rss_mb(),
        "extra": {},
    }
    out.update(_check_chain(stream, chain, labels, seed))
    return out


# ----------------------------------------------------------------------
# lp_batch
# ----------------------------------------------------------------------
def lp_batch(
    seed: int,
    seconds: float,
    *,
    scale: int = 14,
    edge_factor: float = 17.7,
    setup_repeats: int = 3,
    recorder: Optional[tracing.Recorder] = None,
) -> dict:
    """Dense degree-binned classic LP on an R-MAT graph, run after run.

    Set-up generates the graph and makes one warm-up run.  Every timed run
    must hash like the serial CPU engine's run of the same program.
    """

    def run_once(engine, graph):
        return engine.run(
            graph,
            ClassicLP(),
            max_iterations=LP_ITERATIONS,
            stop_on_convergence=False,
        )

    with _traced(recorder):
        setup_s = []
        for _ in range(setup_repeats):
            graph = engine = None
            t0 = perf_counter()
            graph = rmat_graph(scale, edge_factor, seed=seed)
            engine = GLPEngine()
            run_once(engine, graph)
            setup_s.append(perf_counter() - t0)

        if recorder is not None:
            recorder.phase = "timed"
        op_s: List[float] = []
        chain: List[str] = []
        failed = 0
        deadline = perf_counter() + seconds
        while not op_s or perf_counter() < deadline:
            t0 = perf_counter()
            try:
                with _op_span(recorder, "op.lp_run"):
                    digest = run_once(engine, graph).labels_hash()
            except Exception:
                traceback.print_exc()
                failed += 1
                break
            op_s.append(perf_counter() - t0)
            chain.append(digest)
        if recorder is not None:
            recorder.phase = "done"

    peak_rss_mb = _peak_rss_mb()
    reference = run_once(SerialEngine(), graph).labels_hash()
    return {
        "setup_s": setup_s,
        "op_s": op_s,
        "attempted": len(op_s) + failed,
        "failed": failed,
        "chain": chain,
        "ops": len(op_s),
        "peak_rss_mb": peak_rss_mb,
        "oracle_checked": list(range(len(chain))),
        "mismatched": [i for i, h in enumerate(chain) if h != reference],
        "extra": {},
    }


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
def serve_mixed(
    seed: int,
    seconds: float,
    *,
    qps: float = 400.0,
    setup_repeats: int = 3,
    recorder: Optional[tracing.Recorder] = None,
    stream_sizes: Optional[dict] = None,
) -> dict:
    """Open-loop scoring with overlapping slides, one virtual day a second.

    The benchmark paces the ``LoadGenerator`` schedule itself and talks to
    the service only through ``start``/``score``/``ingest``/``stop`` and
    ``state``.  An operation is one score request, timed from the moment it
    was due.  ``chain[v]`` is the labels hash of served state version ``v``.
    """
    days = max(1, min(int(round(seconds)), STREAM_DAYS - WINDOW_DAYS))
    return asyncio.run(
        _serve(seed, days, qps, setup_repeats, recorder, stream_sizes)
    )


async def _serve(seed, days, qps, setup_repeats, recorder, stream_sizes):
    # The loop thread plus one slide thread: the whole load fits two cores.
    asyncio.get_running_loop().set_default_executor(
        ThreadPoolExecutor(max_workers=1)
    )
    with _traced(recorder):
        setup_s = []
        service = None
        for _ in range(setup_repeats):
            if service is not None:
                await service.stop()
            stream = events = service = None
            t0 = perf_counter()
            stream = _stream(seed, stream_sizes)
            events = LoadGenerator(
                stream, LoadGenConfig(qps=qps, seed=seed)
            ).schedule(WINDOW_DAYS, days)
            service = ScoringService(stream, window_days=WINDOW_DAYS)
            await service.start()
            setup_s.append(perf_counter() - t0)

        if recorder is not None:
            recorder.phase = "timed"
        paced = await _pace(service, events)
        if recorder is not None:
            recorder.phase = "done"
    paced["peak_rss_mb"] = _peak_rss_mb()
    return _serve_result(seed, stream, setup_s, paced, recorder)


class _Served(NamedTuple):
    """What the pacer keeps of one served state: enough to re-check it."""

    users: np.ndarray
    labels: np.ndarray
    flagged: frozenset
    labels_hash: str


async def _pace(service: ScoringService, events) -> dict:
    """Replay ``events`` on their due times, whatever the service does."""
    states = {}
    responses = []  # (due, done, ScoreResponse), in completion order
    lateness: List[float] = []
    day_end_due: List[float] = []
    errors = 0

    def observe() -> None:
        state = service.state
        if state.version not in states:
            states[state.version] = _Served(
                state.window.users, state.labels, state.flagged,
                state.labels_hash,
            )

    async def request(user: int, due: float) -> None:
        nonlocal errors
        try:
            response = await service.score(user)
        except Exception:
            traceback.print_exc()
            errors += 1
            return
        responses.append((due, perf_counter(), response))

    observe()
    tasks = []
    origin = perf_counter()
    for event in events:
        due = origin + event.t
        delay = due - perf_counter()
        # Sleep even when late, so queued requests get served in between.
        await asyncio.sleep(delay if delay > 0 else 0)
        lateness.append(perf_counter() - due)
        observe()
        if isinstance(event, ScoreRequest):
            tasks.append(asyncio.create_task(request(event.user, due)))
        else:
            if isinstance(event, DayEnd):
                day_end_due.append(due)
            await service.ingest(event)
    await asyncio.gather(*tasks)
    give_up = perf_counter() + SLIDE_WAIT_S
    while service.state.version < len(day_end_due) and perf_counter() < give_up:
        observe()
        await asyncio.sleep(0.001)
    observe()
    await service.stop()
    return {
        "states": states,
        "responses": responses,
        "lateness": lateness,
        "day_end_due": day_end_due,
        "errors": errors,
        "requests": len(tasks),
    }


def _wrong_responses(states: dict, responses) -> Dict[int, int]:
    """``{version: scored responses that disagree with that state}``.

    A window's user ``u`` is vertex ``searchsorted(users, u)``; users
    outside the window answer ``NO_LABEL`` and are never flagged.  A
    response naming a version the pacer never saw counts as wrong.
    """
    wrong: Dict[int, int] = {}
    by_version: Dict[int, list] = {}
    for _due, _done, r in responses:
        if r.outcome == "scored":
            by_version.setdefault(r.window_version, []).append(r)
    for version, group in by_version.items():
        served = states.get(version)
        if served is None:
            wrong[version] = len(group)
            continue
        users = np.array([r.user for r in group], dtype=np.int64)
        pos = np.minimum(
            np.searchsorted(served.users, users), served.users.size - 1
        )
        present = served.users[pos] == users
        expected = np.where(present, served.labels[pos], NO_LABEL)
        expected_flagged = present & np.isin(
            users, np.fromiter(served.flagged, np.int64, len(served.flagged))
        )
        labels = np.array([r.label for r in group], dtype=np.int64)
        flagged = np.array([r.flagged for r in group])
        bad = int(np.sum((labels != expected) | (flagged != expected_flagged)))
        if bad:
            wrong[version] = bad
    return wrong


def _serve_result(seed, stream, setup_s, paced, recorder) -> dict:
    states = paced["states"]
    responses = paced["responses"]
    top = max(states)
    chain = [
        states[v].labels_hash if v in states else "" for v in range(top + 1)
    ]
    labels = [states[v].labels if v in states else None for v in range(top + 1)]
    checked = _oracle_indices(seed, top)
    mismatched = [
        v for v in checked
        if labels[v] is None
        or (v and labels[v - 1] is None)
        or oracle_hash(stream, v, labels[v - 1] if v else None) != chain[v]
    ]

    scored = [(due, done, r) for due, done, r in responses
              if r.outcome == "scored"]
    latency = np.array([done - due for due, done, _ in scored])
    shed = sum(r.outcome == "shed" for _, _, r in responses)
    expired = sum(r.outcome == "expired" for _, _, r in responses)
    requests = paced["requests"]
    ok = int(np.sum(latency <= OK_LATENCY_S))
    missing_slides = len(paced["day_end_due"]) - top

    versions = np.array([r.window_version for _, _, r in responses])
    dones = np.array([done for _, done, _ in responses])
    freshness = [
        float(dones[versions >= k].min()) - due
        for k, due in enumerate(paced["day_end_due"], start=1)
        if np.any(versions >= k)
    ]
    lateness_ms = np.array(paced["lateness"]) * 1e3
    extra = {
        "service.shed": shed,
        "service.expired": expired,
        "service.errors": paced["errors"],
        "service.ok_ratio": ok / requests if requests else 0.0,
        "service.freshness_p50_s":
            float(np.median(freshness)) if freshness else 0.0,
        "service.score_p99_ms": tracing.percentile(latency, 99) * 1e3,
        "service.score_p999_ms": tracing.percentile(latency, 99.9) * 1e3,
        "loadgen.lateness_ms_p50": tracing.percentile(lateness_ms, 50),
        "loadgen.lateness_ms_p99": tracing.percentile(lateness_ms, 99),
        "loadgen.requests": requests,
    }
    if recorder is not None:
        extra.update(_serve_layer_extra(recorder.spans, scored, paced))
    return {
        "setup_s": setup_s,
        "op_s": latency.tolist(),
        "attempted": requests,
        "failed": shed + expired + paced["errors"] + max(0, missing_slides),
        "chain": chain,
        "ops": top,
        "peak_rss_mb": paced["peak_rss_mb"],
        "oracle_checked": checked,
        "mismatched": mismatched,
        "wrong_responses": _wrong_responses(states, responses),
        "version_requests": {
            int(v): int(n)
            for v, n in zip(*np.unique(versions, return_counts=True))
        },
        "extra": extra,
    }


def _serve_layer_extra(spans, scored, paced) -> dict:
    """Queue wait and ingest wait, which need the traced lookups/slides."""
    lookups = tracing.lookup_seconds_by_user(spans)
    waits_ms = []
    for _due, _done, r in scored:
        queue = lookups.get(r.user)
        lookup = queue.pop(0) if queue else 0.0
        waits_ms.append((r.latency_seconds - lookup) * 1e3)
    starts = tracing.slide_starts(spans)
    ingest = [s - d for s, d in zip(starts, paced["day_end_due"])]
    return {
        "service.queue_wait_ms_p50": tracing.percentile(waits_ms, 50),
        "service.queue_wait_ms_p99": tracing.percentile(waits_ms, 99),
        "service.ingest_wait_s": float(np.mean(ingest)) if ingest else 0.0,
    }


# ----------------------------------------------------------------------
def run_workload(
    name: str,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    setup_repeats: int = 3,
    out_dir: Optional[Path] = None,
    **sizes,
) -> dict:
    """Run one workload in this process; add per-layer metrics if traced."""
    recorder = tracing.Recorder() if trace else None
    common = dict(setup_repeats=setup_repeats, recorder=recorder)
    if name == "slide_incremental":
        result = slides(seed, seconds, incremental=True, **common, **sizes)
    elif name == "slide_full":
        result = slides(seed, seconds, incremental=False, **common, **sizes)
    elif name == "lp_batch":
        result = lp_batch(seed, seconds, **common, **sizes)
    elif name == "serve_mixed":
        result = serve_mixed(seed, seconds, **common, **sizes)
    else:
        raise ValueError(f"unknown workload {name!r}")
    result.update(workload=name, seed=seed)
    result["layers"] = None
    if recorder is not None:
        layers = tracing.layer_metrics(recorder.spans, result["ops"])
        layers.update(result["extra"])
        result["layers"] = layers
        if out_dir is not None:
            stem = f"{name}-seed{seed}"
            tracing.write_chrome_trace(
                recorder.spans, out_dir / f"trace-{stem}.json"
            )
            (out_dir / f"layers-{stem}.json").write_text(
                json.dumps(layers, indent=1, sort_keys=True)
            )
    return result


def main(argv: List[str]) -> int:
    name, seed, seconds, trace, setup_repeats, out_dir = argv
    result = run_workload(
        name,
        int(seed),
        float(seconds),
        trace=trace == "1",
        setup_repeats=int(setup_repeats),
        out_dir=Path(out_dir),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
