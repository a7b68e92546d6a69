"""Asyncio streaming scoring service over the sliding-window detector.

The service turns the batch pipeline into an online system with explicit
latency/consistency semantics:

* **Ingest path** — transaction micro-batches and day-end markers arrive
  through a bounded queue (an awaited ``put``: a slow consumer exerts
  backpressure on the producer instead of buffering unboundedly).  A
  :class:`~repro.serving.loadgen.DayEnd` triggers a window slide through
  :class:`~repro.pipeline.incremental.SlidingWindowDetector` — DynLP
  incremental re-convergence, warm starts and the PR-5 degradation ladder
  all come along for free.  Slides run in a worker thread
  (``overlap_slides=True``) so scoring keeps answering against the
  previous window state mid-slide; the new state is swapped in atomically
  afterwards.  ``asyncio.to_thread`` copies the worker task's context, so
  a slide sees the obs session and :mod:`repro.gpusim.hooks` slots (fault
  plan, memory tracker, sanitizer) installed when :meth:`start` ran.

* **Scoring path** — per-transaction score requests are admitted through
  a second bounded queue with ``put_nowait``: when the queue is full the
  request is **shed** immediately (fail fast beats queueing into a blown
  deadline).  Under ``policy="deadline"`` each admitted request also
  carries a deadline checked at dequeue time — requests that aged out in
  the queue are answered ``expired`` without paying for a lookup.  A
  scored response reports the user's window label, whether the user is in
  a flagged cluster, and which window version answered.

* **Consistency probes** — every ``probe_every``-th slide the service
  re-runs the whole history from scratch (cold, non-incremental detector)
  and compares ``labels_hash`` bitwise.  The served incremental state is
  required to be *identical* to the batch recompute, faults and ladder
  degradations included.

Everything is observable through :mod:`repro.obs`: ``serving_*`` metric
families, ``serve.*`` journal events, and the SLO objectives in
``benchmarks/serving_slo.toml``.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import ServingError
from repro.obs.metrics import Histogram
from repro.pipeline.detector import ClusterDetector, DetectionResult
from repro.pipeline.incremental import SlidingWindowDetector
from repro.pipeline.transactions import TransactionStream
from repro.pipeline.window import WindowGraph
from repro.serving.loadgen import DayEnd, Event, ScoreRequest, TxnBatch
from repro.types import NO_LABEL


@dataclass(frozen=True)
class _LabelState:
    """One immutable served snapshot: the window plus its detection."""

    window: WindowGraph
    labels: np.ndarray
    flagged: frozenset
    start_day: int
    labels_hash: str
    version: int


def score_user(
    window: WindowGraph,
    labels: np.ndarray,
    flagged: frozenset,
    user: int,
) -> Tuple[int, bool]:
    """Pure lookup: a user's window label and flagged verdict.

    Users absent from the window (the overwhelmingly common case — the
    load generator's universe is millions of users, the window holds tens
    of thousands) answer ``(NO_LABEL, False)``.
    """
    vertex = window.window_vertex_of_user(np.asarray([user], dtype=np.int64))
    v = int(vertex[0])
    if v < 0:
        return int(NO_LABEL), False
    return int(labels[v]), int(user) in flagged


@dataclass(frozen=True)
class ScoreResponse:
    """Answer to one score request."""

    user: int
    #: ``scored`` | ``shed`` | ``expired``
    outcome: str
    label: int = int(NO_LABEL)
    flagged: bool = False
    window_start_day: int = -1
    window_version: int = -1
    latency_seconds: float = 0.0


@dataclass
class ServeReport:
    """Aggregate outcome of one :meth:`ScoringService.serve` run."""

    requests_total: int = 0
    scored: int = 0
    shed: int = 0
    expired: int = 0
    flagged_responses: int = 0
    slides: int = 0
    incremental_slides: int = 0
    probes: int = 0
    probe_mismatches: int = 0
    wall_seconds: float = 0.0
    final_labels_hash: str = ""
    final_window_start_day: int = -1
    #: Raw request latencies (bounded ring, exact count/sum).
    latency: Histogram = field(default_factory=Histogram)

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests_total if self.requests_total else 0.0

    @property
    def sustained_qps(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.requests_total / self.wall_seconds

    def as_dict(self) -> dict:
        snap = self.latency.snapshot()
        return {
            "requests_total": self.requests_total,
            "scored": self.scored,
            "shed": self.shed,
            "expired": self.expired,
            "shed_rate": self.shed_rate,
            "flagged_responses": self.flagged_responses,
            "slides": self.slides,
            "incremental_slides": self.incremental_slides,
            "probes": self.probes,
            "probe_mismatches": self.probe_mismatches,
            "wall_seconds": self.wall_seconds,
            "sustained_qps": self.sustained_qps,
            "latency_p50_seconds": snap["p50"],
            "latency_p95_seconds": snap["p95"],
            "latency_p99_seconds": snap["p99"],
            "final_labels_hash": self.final_labels_hash,
            "final_window_start_day": self.final_window_start_day,
        }

    def to_text(self) -> str:
        d = self.as_dict()
        lines = ["serving report", "=============="]
        for key in (
            "requests_total",
            "scored",
            "shed",
            "expired",
            "shed_rate",
            "sustained_qps",
            "latency_p50_seconds",
            "latency_p95_seconds",
            "latency_p99_seconds",
            "slides",
            "incremental_slides",
            "probes",
            "probe_mismatches",
            "final_window_start_day",
            "final_labels_hash",
        ) :
            value = d[key]
            if isinstance(value, float):
                value = f"{value:.6g}"
            lines.append(f"  {key:<24} {value}")
        return "\n".join(lines)


def batch_labels_hash(
    stream: TransactionStream,
    start_day: int,
    window_days: int,
    num_slides: int,
    *,
    max_iterations: int = 20,
    max_hops: Optional[int] = 6,
) -> str:
    """Labels hash of a from-scratch, non-incremental replay.

    The consistency oracle: a cold detector replays ``start`` plus
    ``num_slides`` slides with no DynLP planning, no warm state and no
    fault history.  The served incremental state must hash identically.
    The replay runs on :class:`~repro.baselines.cpu_serial.SerialEngine`,
    which drives no simulated device, inside a fresh
    :class:`contextvars.Context`: it sees no obs session, fault injector,
    memory tracker or sanitizer of the caller.  A probe neither consumes
    planned faults nor walks the degradation ladder, and its ``slide.*``
    and ``engine.*`` events and minted IDs never reach the served journal.
    """
    from repro.baselines.cpu_serial import SerialEngine

    def replay() -> str:
        detector = SlidingWindowDetector(
            stream,
            ClusterDetector(
                SerialEngine(),
                max_iterations=max_iterations,
                max_hops=max_hops,
            ),
            incremental=False,
        )
        _, result = detector.start(start_day, window_days)
        for _ in range(num_slides):
            _, result = detector.slide()
        return result.lp_result.labels_hash()

    return contextvars.Context().run(replay)


class ScoringService:
    """Streaming scoring over a sliding window with admission control.

    Parameters
    ----------
    stream:
        The transaction source shared with the load generator.
    window_days / start_day:
        Geometry of the initial window, built (and cold-detected) by
        :meth:`start` before any traffic is served.
    detector:
        Detection stage; defaults to a frontier-auto :class:`GLPEngine`
        wrapped in a :class:`ClusterDetector`.
    incremental / cutover_ratio / degrade:
        Forwarded to :class:`SlidingWindowDetector` — DynLP O(changes)
        re-convergence and the GPU->hybrid->CPU degradation ladder.
    queue_capacity:
        Bound of the scoring admission queue.  ``put_nowait`` on a full
        queue sheds the request.
    policy:
        ``"deadline"`` answers queued requests older than
        ``deadline_seconds`` with ``expired`` at dequeue; ``"shed"``
        relies on admission shedding alone.
    overlap_slides:
        Run slides in a worker thread so scoring continues against the
        previous window state mid-slide (the production posture).
        ``False`` blocks the loop for strictly serial tests.
    probe_every:
        Every Nth slide, verify the served ``labels_hash`` against a
        from-scratch batch replay (0 disables probing).
    """

    _POLICIES = ("shed", "deadline")
    #: Queue fill fraction above which ``serve.overload`` is journaled.
    OVERLOAD_WATERMARK = 0.8

    def __init__(
        self,
        stream: TransactionStream,
        *,
        window_days: int,
        start_day: int = 0,
        detector: Optional[ClusterDetector] = None,
        incremental: bool = True,
        cutover_ratio: float = 0.2,
        degrade: bool = True,
        queue_capacity: int = 256,
        policy: str = "deadline",
        deadline_seconds: float = 0.05,
        overlap_slides: bool = True,
        probe_every: int = 0,
        max_iterations: int = 20,
        max_hops: Optional[int] = 6,
    ) -> None:
        if window_days < 1:
            raise ServingError("window_days must be >= 1")
        if start_day < 0:
            raise ServingError("start_day must be >= 0")
        if start_day + window_days > stream.config.num_days:
            raise ServingError(
                f"initial window [{start_day}, {start_day + window_days}) "
                f"exceeds the stream ({stream.config.num_days} days)"
            )
        if queue_capacity < 1:
            raise ServingError("queue_capacity must be >= 1")
        if policy not in self._POLICIES:
            raise ServingError(
                f"unknown policy {policy!r}; expected one of {self._POLICIES}"
            )
        if deadline_seconds < 0:
            raise ServingError("deadline_seconds must be >= 0")
        if probe_every < 0:
            raise ServingError("probe_every must be >= 0")
        self.stream = stream
        self.window_days = window_days
        self.start_day = start_day
        self.max_iterations = max_iterations
        self.max_hops = max_hops
        if detector is None:
            from repro import GLPEngine

            detector = ClusterDetector(
                GLPEngine(frontier="auto"),
                max_iterations=max_iterations,
                max_hops=max_hops,
            )
        self.detector = SlidingWindowDetector(
            stream,
            detector,
            incremental=incremental,
            cutover_ratio=cutover_ratio,
            degrade=degrade,
        )
        self.queue_capacity = queue_capacity
        self.policy = policy
        self.deadline_seconds = deadline_seconds
        self.overlap_slides = overlap_slides
        self.probe_every = probe_every
        self._state: Optional[_LabelState] = None
        self._slides_done = 0
        self._report = ServeReport()
        self._queue: asyncio.Queue = asyncio.Queue(queue_capacity)
        self._ingest_queue: asyncio.Queue = asyncio.Queue(
            max(2, queue_capacity)
        )
        self._workers: List[asyncio.Task] = []

    # ------------------------------------------------------------------
    @property
    def state(self) -> _LabelState:
        if self._state is None:
            raise ServingError("service not started; call start() first")
        return self._state

    def _swap_state(self, window: WindowGraph, result: DetectionResult) -> None:
        version = 0 if self._state is None else self._state.version + 1
        self._state = _LabelState(
            window=window,
            labels=result.lp_result.labels,
            flagged=frozenset(int(u) for u in result.flagged_users()),
            start_day=min(self.detector.builder.days),
            labels_hash=result.lp_result.labels_hash(),
            version=version,
        )

    async def start(self) -> _LabelState:
        """Build the initial window, run the cold detection, go live."""
        if self._state is not None:
            raise ServingError("service already started")
        window, result = await asyncio.to_thread(
            self.detector.start, self.start_day, self.window_days
        )
        self._swap_state(window, result)
        self._workers = [
            asyncio.create_task(self._score_worker()),
            asyncio.create_task(self._ingest_worker()),
        ]
        obs.emit(
            "serve.start",
            start_day=self.start_day,
            window_days=self.window_days,
            queue_capacity=self.queue_capacity,
            policy=self.policy,
        )
        return self._state

    async def stop(self) -> None:
        """Cancel the background workers (idempotent)."""
        workers, self._workers = self._workers, []
        for task in workers:
            task.cancel()
        # ``asyncio.wait`` rather than ``await task``: re-raising a
        # worker's CancelledError here adds this frame, whose ``task``
        # local is the task, to the traceback the task keeps.  The task
        # holds that exception through a reference the cyclic GC does not
        # traverse, so the cycle, and the ``self`` its frames hold, was
        # never collected.
        if workers:
            await asyncio.wait(workers)

    # ------------------------------------------------------------------
    # Scoring path
    def score_now(self, user: int) -> ScoreResponse:
        """Synchronous lookup against the current state (no admission)."""
        t0 = time.perf_counter()
        state = self.state
        label, flagged = score_user(
            state.window, state.labels, state.flagged, user
        )
        return ScoreResponse(
            user=int(user),
            outcome="scored",
            label=label,
            flagged=flagged,
            window_start_day=state.start_day,
            window_version=state.version,
            latency_seconds=time.perf_counter() - t0,
        )

    def _finish(self, response: ScoreResponse) -> ScoreResponse:
        rep = self._report
        rep.requests_total += 1
        rep.latency.observe(response.latency_seconds)
        if response.outcome == "scored":
            rep.scored += 1
            if response.flagged:
                rep.flagged_responses += 1
        elif response.outcome == "shed":
            rep.shed += 1
        else:
            rep.expired += 1
        m = obs.metrics()
        if m is not None:
            m.inc("serving_requests_total", outcome=response.outcome)
            m.observe(
                "serving_request_latency_seconds", response.latency_seconds
            )
            m.set_gauge("serving_queue_depth", self._queue.qsize())
        return response

    async def score(self, user: int) -> ScoreResponse:
        """Admit one request (or shed it) and await its response."""
        state = self.state  # raises before queueing if not started
        t0 = time.perf_counter()
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((t0, int(user), future))
        except asyncio.QueueFull:
            obs.emit("serve.shed", user=int(user), queue=self.queue_capacity)
            future.cancel()
            return self._finish(
                ScoreResponse(
                    user=int(user),
                    outcome="shed",
                    window_version=state.version,
                    latency_seconds=time.perf_counter() - t0,
                )
            )
        depth = self._queue.qsize()
        if depth >= self.OVERLOAD_WATERMARK * self.queue_capacity:
            obs.emit(
                "serve.overload", depth=depth, capacity=self.queue_capacity
            )
        return await future

    async def _score_worker(self) -> None:
        while True:
            t0, user, future = await self._queue.get()
            try:
                if future.cancelled():
                    continue
                waited = time.perf_counter() - t0
                if (
                    self.policy == "deadline"
                    and waited > self.deadline_seconds
                ):
                    response = ScoreResponse(
                        user=user,
                        outcome="expired",
                        window_version=self.state.version,
                        latency_seconds=waited,
                    )
                else:
                    state = self.state
                    label, flagged = score_user(
                        state.window, state.labels, state.flagged, user
                    )
                    response = ScoreResponse(
                        user=user,
                        outcome="scored",
                        label=label,
                        flagged=flagged,
                        window_start_day=state.start_day,
                        window_version=state.version,
                        latency_seconds=time.perf_counter() - t0,
                    )
                future.set_result(self._finish(response))
            except asyncio.CancelledError:
                raise
            except Exception as error:
                # A dead worker would wedge every queued caller behind a
                # never-resolved future; surface the failure to this one
                # request and keep draining.
                if not future.done():
                    future.set_exception(error)
            finally:
                self._queue.task_done()

    # ------------------------------------------------------------------
    # Ingest path
    async def ingest(self, event: Event) -> None:
        """Feed one transaction-stream event (awaited: backpressure)."""
        await self._ingest_queue.put(event)

    async def _do_slide(self, day: int) -> None:
        t0 = time.perf_counter()
        if self.overlap_slides:
            window, result = await asyncio.to_thread(self.detector.slide)
        else:
            window, result = self.detector.slide()
        self._swap_state(window, result)
        self._slides_done += 1
        wall = time.perf_counter() - t0
        rep = self._report
        rep.slides += 1
        plan = self.detector.last_plan
        incremental = bool(plan is not None and plan.incremental)
        if incremental:
            rep.incremental_slides += 1
        m = obs.metrics()
        if m is not None:
            m.inc("serving_slides_total")
            m.observe("serving_slide_wall_seconds", wall)
        obs.emit(
            "serve.slide",
            day=day,
            wall_seconds=wall,
            incremental=incremental,
            labels_hash=self.state.labels_hash,
            version=self.state.version,
        )
        if self.probe_every and self._slides_done % self.probe_every == 0:
            await self._probe()

    async def _probe(self) -> None:
        """Compare the served state to a from-scratch batch replay."""
        expected_hash = self.state.labels_hash
        reference = await asyncio.to_thread(
            batch_labels_hash,
            self.stream,
            self.start_day,
            self.window_days,
            self._slides_done,
            max_iterations=self.max_iterations,
            max_hops=self.max_hops,
        )
        match = reference == expected_hash
        rep = self._report
        rep.probes += 1
        if not match:
            rep.probe_mismatches += 1
        m = obs.metrics()
        if m is not None:
            m.inc(
                "serving_identity_probes_total",
                outcome="match" if match else "mismatch",
            )
        obs.emit(
            "serve.probe",
            slides=self._slides_done,
            served_hash=expected_hash,
            batch_hash=reference,
            match=match,
        )

    async def _ingest_worker(self) -> None:
        pending_txns = 0
        while True:
            event = await self._ingest_queue.get()
            try:
                if isinstance(event, TxnBatch):
                    pending_txns += event.count
                    m = obs.metrics()
                    if m is not None:
                        m.inc("serving_ingest_batches_total")
                elif isinstance(event, DayEnd):
                    # The builder pulls the day's transactions from the
                    # stream itself; the micro-batches are the arrival
                    # model, the marker is the commit point.
                    pending_txns = 0
                    try:
                        await self._do_slide(event.day)
                    except asyncio.CancelledError:
                        raise
                    except Exception as error:
                        # The detector rolled the window back; keep
                        # serving the previous state rather than wedging
                        # the ingest queue behind a dead worker.
                        m = obs.metrics()
                        if m is not None:
                            m.inc("serving_slide_failures_total")
                        obs.emit(
                            "serve.slide",
                            day=event.day,
                            failed=True,
                            error=type(error).__name__,
                        )
            finally:
                self._ingest_queue.task_done()

    # ------------------------------------------------------------------
    async def serve(
        self, events: Sequence[Event], *, pace: bool = False
    ) -> ServeReport:
        """Replay a load schedule to completion and report.

        ``pace=True`` sleeps to each event's virtual timestamp (realistic
        arrival gaps, wall-clock run of roughly the schedule's span);
        ``pace=False`` replays as fast as possible — maximum pressure on
        the admission queue.
        """
        if self._state is None:
            await self.start()
        responses: List[asyncio.Task] = []
        t_start = time.perf_counter()
        try:
            origin = time.perf_counter()
            for event in events:
                if pace:
                    delay = event.t - (time.perf_counter() - origin)
                    if delay > 0:
                        await asyncio.sleep(delay)
                if isinstance(event, ScoreRequest):
                    responses.append(
                        asyncio.create_task(self.score(event.user))
                    )
                    # Yield so the score worker drains between arrivals;
                    # without this an unpaced replay floods the queue and
                    # sheds nearly everything, measuring nothing.
                    await asyncio.sleep(0)
                else:
                    await self.ingest(event)
            if responses:
                await asyncio.gather(*responses)
            await self._queue.join()
            await self._ingest_queue.join()
        finally:
            await self.stop()
        self._report.wall_seconds = time.perf_counter() - t_start
        self._report.final_labels_hash = self.state.labels_hash
        self._report.final_window_start_day = self.state.start_day
        obs.emit(
            "serve.end",
            requests=self._report.requests_total,
            shed=self._report.shed,
            expired=self._report.expired,
            slides=self._report.slides,
            labels_hash=self._report.final_labels_hash,
        )
        return self._report

    @property
    def report(self) -> ServeReport:
        return self._report
