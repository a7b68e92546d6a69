"""Incremental sliding-window maintenance and warm-started detection.

Production pipelines do not rebuild a 100-day window from scratch every
day: they *slide* it — add the newest day's transactions, retire the
oldest — and they warm-start LP from the previous window's labels, which
converges in a couple of iterations because most of the graph is unchanged.

:class:`IncrementalWindowBuilder` maintains per-(user, product) interaction
counts under ``add_day`` / ``retire_day`` and materializes the current
:class:`~repro.pipeline.window.WindowGraph` on demand.

:func:`warm_start_seeds` carries a previous detection's labels into the
next window's seed set, so rings already found keep their identity across
windows (and LP re-converges fast).

:class:`SlidingWindowDetector` ties the two together into the serving
loop: slide the window, warm-start the seeds from the previous detection,
and hand the graph to a (preferably frontier-mode) engine — after
iteration 1 only the delta neighborhoods of the ~1 % changed edges are
reprocessed.
"""

from __future__ import annotations

import time
from typing import Mapping, Optional, Set, Tuple, Union

import numpy as np

from repro import obs
from repro.algorithms.seeded import Seeds
from repro.core.driver import BSPEngine
from repro.core.hybrid import run_ladder
from repro.errors import PipelineError
# Not called here any more: re-exported because the e2e benchmark's tracer
# wraps ``from_edge_arrays`` in this module by name.
from repro.graph.builder import from_edge_arrays  # noqa: F401
from repro.pipeline.detector import ClusterDetector, DetectionResult
from repro.pipeline.dynlp import (
    IncrementalPlan,
    WindowDiff,
    full_plan,
    plan_slide,
)
# Not called here any more (``slide()`` reads its diff off the fold, and
# the tests keep this as its oracle): re-exported because the e2e
# benchmark's tracer wraps ``compute_window_diff`` in this module by name.
from repro.pipeline.dynlp import compute_window_diff  # noqa: F401
from repro.pipeline.seeds import SeedStore
from repro.pipeline.transactions import TransactionStream
from repro.pipeline.window import (
    MAX_PACKED_USERS,
    PRODUCT_MASK,
    WindowGraph,
    pack_pairs,
    window_from_pairs,
)
from repro.types import LABEL_DTYPE, NO_LABEL


class IncrementalWindowBuilder:
    """Maintain a sliding window's interaction counts day by day.

    The per-(user, product) counts are kept as parallel sorted arrays
    (packed int64 keys + float64 counts), beside the number of window
    pairs of every product id.  Every change to the window, one day or a
    whole slide, is one fold of a sorted batch of count deltas: one
    binary search into the pair table and one rebuild of the arrays
    instead of a Python loop over individual transactions.  The arrays
    are read-only and every fold replaces them, so snapshots share them
    safely.
    """

    def __init__(self, stream: TransactionStream) -> None:
        if stream.config.num_products > PRODUCT_MASK:
            raise PipelineError("too many products for packed pair keys")
        # The user id occupies the key's high bits; ids at or above
        # 2**(63-PRODUCT_BITS) would shift into the sign bit and collide
        # after wrapping, silently merging distinct pairs.
        if stream.config.num_users > MAX_PACKED_USERS:
            raise PipelineError(
                f"too many users ({stream.config.num_users}) for packed "
                f"int64 pair keys (max {MAX_PACKED_USERS})"
            )
        self.stream = stream
        self._pair_keys = _frozen(np.empty(0, dtype=np.int64))
        self._pair_counts = _frozen(np.empty(0, dtype=np.float64))
        #: Window pairs per product id, over the stream's product universe:
        #: the product degrees :func:`window_from_pairs` lays out.
        self._product_counts = _frozen(
            np.zeros(stream.config.num_products, dtype=np.int64)
        )
        self._days: Set[int] = set()
        #: The edge diff of the most recent :meth:`slide`.
        self.last_diff: Optional[WindowDiff] = None

    # ------------------------------------------------------------------
    @property
    def days(self) -> Set[int]:
        """The set of days currently inside the window."""
        return set(self._days)

    @property
    def num_pairs(self) -> int:
        """Distinct (user, product) pairs with non-zero weight."""
        return int(self._pair_keys.size)

    def add_day(self, day: int) -> None:
        """Fold one day's transactions into the window."""
        if day in self._days:
            raise PipelineError(f"day {day} already in the window")
        self._fold(*self._day_pairs(day))
        self._days.add(day)

    def retire_day(self, day: int) -> None:
        """Remove one day's transactions from the window."""
        if day not in self._days:
            raise PipelineError(f"day {day} not in the window")
        keys, counts = self._day_pairs(day)
        self._fold(keys, -counts)
        self._days.remove(day)

    def slide(self) -> WindowDiff:
        """Advance the window by one day (retire oldest, add next).

        Returns the slide's explicit edge diff — the added / removed /
        reweighted (user, product) pairs — which the incremental serving
        loop turns into an affected-vertex frontier
        (:mod:`repro.pipeline.dynlp`).
        """
        if not self._days:
            raise PipelineError("cannot slide an empty window")
        oldest = min(self._days)
        newest = max(self._days)
        if newest + 1 >= self.stream.config.num_days:
            raise PipelineError("stream exhausted")
        # Only pairs of the retired or the added day can change: merge the
        # two days into one sorted batch of net deltas and fold it once.
        # Both days' keys are sorted, so a stable sort merges them in
        # linear time, the retired day's copy of a shared key first.
        retired_keys, retired_counts = self._day_pairs(oldest)
        added_keys, added_counts = self._day_pairs(newest + 1)
        keys = np.concatenate([retired_keys, added_keys])
        deltas = np.concatenate([-retired_counts, added_counts])
        order = np.argsort(keys, kind="stable")
        keys, deltas = keys[order], deltas[order]
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        if not first.all():
            starts = np.flatnonzero(first)
            keys, deltas = keys[starts], np.add.reduceat(deltas, starts)
        diff = self._fold(keys, deltas)
        self._days.remove(oldest)
        self._days.add(newest + 1)
        self.last_diff = diff
        return diff

    def snapshot(self) -> dict:
        """Capture the window state so a failed slide can be rolled back.

        The arrays are never written in place, so the snapshot holds
        references, not copies.
        """
        return {
            "pair_keys": self._pair_keys,
            "pair_counts": self._pair_counts,
            "product_counts": self._product_counts,
            "days": set(self._days),
            "last_diff": self.last_diff,
        }

    def restore(self, snapshot: dict) -> None:
        """Reset the window to a :meth:`snapshot`."""
        self._pair_keys = snapshot["pair_keys"]
        self._pair_counts = snapshot["pair_counts"]
        self._product_counts = snapshot["product_counts"]
        self._days = set(snapshot["days"])
        self.last_diff = snapshot["last_diff"]

    def _day_pairs(self, day: int) -> Tuple[np.ndarray, np.ndarray]:
        """One day's distinct pair keys (sorted) and float64 counts."""
        transactions = self.stream.window_transactions(day, 1)
        keys, counts = np.unique(
            pack_pairs(transactions["user"], transactions["product"]),
            return_counts=True,
        )
        return keys, counts.astype(np.float64)

    def _fold(self, keys: np.ndarray, deltas: np.ndarray) -> WindowDiff:
        """Add net count ``deltas`` to the sorted unique pair ``keys``.

        One binary search aligns the keys with the pair table, so the
        before and after counts of every touched pair sit side by side;
        pairs whose count falls to zero leave the table.  Counts are sums
        of ±1.0, which float64 represents exactly.  The table and the
        product counts are rebuilt once, into new arrays.  Returns the
        diff of the fold (untouched pairs cannot change).
        """
        table_keys, table_counts = self._pair_keys, self._pair_counts
        positions = np.searchsorted(table_keys, keys)
        found = np.zeros(keys.size, dtype=bool)
        inside = positions < table_keys.size
        found[inside] = table_keys[positions[inside]] == keys[inside]
        before = np.zeros(keys.size, dtype=np.float64)
        before[found] = table_counts[positions[found]]
        after = before + deltas
        live = after > 0.0
        added = live & ~found
        removed = found & ~live

        # A live touched key's row in the new table is its row in the old
        # one, shifted by the keys added (+1) and removed (-1) before it.
        shift = added.astype(np.int64)
        shift[removed] = -1
        rows = positions + np.cumsum(shift) - shift
        rows = rows[live]
        num_after = table_keys.size + int(shift.sum())
        untouched = np.ones(table_keys.size, dtype=bool)
        untouched[positions[found]] = False
        fill = np.ones(num_after, dtype=bool)
        fill[rows] = False
        # Untouched pairs move through index arrays, found once for both
        # moves: cheaper than two boolean-mask copies per move.
        old_rows = np.flatnonzero(untouched)
        new_rows = np.flatnonzero(fill)
        new_keys = np.empty(num_after, dtype=np.int64)
        new_keys[new_rows] = table_keys[old_rows]
        new_keys[rows] = keys[live]
        new_counts = np.empty(num_after, dtype=np.float64)
        new_counts[new_rows] = table_counts[old_rows]
        new_counts[rows] = after[live]

        diff = WindowDiff(
            added_keys=keys[added],
            removed_keys=keys[removed],
            reweighted_keys=keys[found & live & (deltas != 0.0)],
            num_pairs_before=int(table_keys.size),
            num_pairs_after=num_after,
        )
        num_products = self._product_counts.size
        self._product_counts = _frozen(
            self._product_counts
            + np.bincount(
                diff.added_keys & PRODUCT_MASK, minlength=num_products
            )
            - np.bincount(
                diff.removed_keys & PRODUCT_MASK, minlength=num_products
            )
        )
        self._pair_keys = _frozen(new_keys)
        self._pair_counts = _frozen(new_counts)
        return diff

    # ------------------------------------------------------------------
    def build(self) -> WindowGraph:
        """Materialize the current window as a :class:`WindowGraph`."""
        if not self._days:
            raise PipelineError("window is empty")
        start = min(self._days)
        return window_from_pairs(
            self._pair_keys,
            self._pair_counts,
            self._product_counts,
            start_day=start,
            num_days=len(self._days),
            name=f"window-inc-{len(self._days)}d@{start}",
        )


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only."""
    array.setflags(write=False)
    return array


def warm_start_seeds(
    previous: WindowGraph,
    previous_labels: np.ndarray,
    current: WindowGraph,
    base_seeds: Union[Seeds, Mapping[int, int]],
    *,
    max_carryover: Optional[int] = None,
    carry_products: bool = False,
) -> Seeds:
    """Carry a previous detection into the next window's seed set.

    Every user labeled in the previous window (and still present in the
    current one) becomes a seed with its old cluster label; the black-list
    ``base_seeds`` always win on conflict.  ``max_carryover`` caps the
    number of carried users (strongest first = lowest previous vertex id).
    With ``carry_products``, labeled products are carried the same way —
    this is what makes consecutive windows *fully* warm: without it every
    product re-labels from scratch in iteration 1, dragging most of the
    graph back onto the frontier.

    Labels carry through ``current.vertex_map_from(previous)``.  The
    merge writes into one label array over the current window's vertices,
    the carried labels first and the base seeds last, so the base seeds
    win.  Returns the merged :class:`Seeds`.
    """
    num_vertices = current.num_users + current.products.size
    merged = np.empty(num_vertices, dtype=LABEL_DTYPE)
    seeded = np.zeros(num_vertices, dtype=bool)

    carry = previous_labels != NO_LABEL
    if not carry_products:
        carry[previous.num_users:] = False
    if max_carryover is not None:
        # The cap keeps the lowest labeled previous users, present in the
        # current window or not.
        labeled_users = np.flatnonzero(carry[:previous.num_users])
        carry[labeled_users[max_carryover:]] = False
    remap = current.vertex_map_from(previous)
    carry &= remap >= 0
    # The map is one-to-one, so no two carried vertices collide.
    targets = remap[carry]
    merged[targets] = previous_labels[carry]
    seeded[targets] = True
    base = Seeds.of(base_seeds)
    if len(base) and (
        base.vertices[0] < 0 or base.vertices[-1] >= num_vertices
    ):
        raise PipelineError("base seed vertex ids out of range")
    merged[base.vertices] = base.labels
    seeded[base.vertices] = True
    vertices = np.flatnonzero(seeded)
    return Seeds(vertices, merged[vertices])


class SlidingWindowDetector:
    """Warm-started fraud detection over a sliding transaction window.

    The production serving loop of Section 6: maintain the window
    incrementally, carry the previous detection's labels forward as seeds,
    and re-run seeded LP.  Consecutive windows share ~99 % of their edges,
    so a frontier-mode engine (``GLPEngine(frontier="auto")`` inside the
    ``detector``) collapses every post-slide run to delta neighborhoods
    after iteration 1 — most vertices start already carrying their
    converged label, leaving almost nothing on the frontier.

    Parameters
    ----------
    stream:
        The transaction source.
    detector:
        The LP detection stage (wraps the engine of your choice).
    seed_store:
        Black-list store; defaults to the stream's planted black-list.
    degrade:
        Step the detection down the engine ladder (hybrid, then the CPU
        serial baseline) instead of raising when the configured engine
        hits device OOM or an unrecovered fault.  The window state and
        warm-start labels survive a crashed slide either way — a failed
        ``slide()`` rolls both back so the same slide can be replayed.
    incremental:
        Plan each slide DynLP-style (:mod:`repro.pipeline.dynlp`): compute
        the affected vertex set from the edge diff and the previous run's
        residual frontier and hand it to the engine as an initial
        frontier, so re-convergence costs O(changes) instead of a dense
        pass.  Falls back to the full warm recompute automatically when
        the plan cannot prove identity cheaply (cold start, no residual
        frontier, unsupported engine, or the affected set exceeding
        ``cutover_ratio``) — and on every degradation-ladder fallback, so
        an injected fault can never serve stale labels.
    cutover_ratio:
        Affected-vertex fraction of the window above which incremental
        mode cuts over to the full recompute.
    """

    def __init__(
        self,
        stream: TransactionStream,
        detector: ClusterDetector,
        *,
        seed_store: Optional[SeedStore] = None,
        degrade: bool = True,
        incremental: bool = False,
        cutover_ratio: float = 0.2,
    ) -> None:
        self.stream = stream
        self.detector = detector
        self.seed_store = (
            seed_store if seed_store is not None else SeedStore(stream.blacklist())
        )
        self.builder = IncrementalWindowBuilder(stream)
        self.degrade = degrade
        self.incremental = incremental
        self.cutover_ratio = cutover_ratio
        self._previous: Optional[Tuple[WindowGraph, np.ndarray]] = None
        #: Previous detection's residual frontier (previous window ids).
        self._residual_frontier: Optional[np.ndarray] = None
        #: The most recent slide's :class:`IncrementalPlan` (or None).
        self.last_plan: Optional[IncrementalPlan] = None

    # ------------------------------------------------------------------
    def start(
        self, start_day: int, window_days: int
    ) -> Tuple[WindowGraph, DetectionResult]:
        """Build the initial window and run a cold detection."""
        if self._previous is not None or self.builder.days:
            raise PipelineError("detector already started; use slide()")
        for day in range(start_day, start_day + window_days):
            self.builder.add_day(day)
        with obs.correlate(slide_id=obs.mint_id("slide"), attempt_id=""):
            obs.emit(
                "slide.start",
                kind="cold",
                start_day=start_day,
                window_days=window_days,
            )
            return self._detect()

    def slide(self) -> Tuple[WindowGraph, DetectionResult]:
        """Advance one day and run a warm-started detection.

        On failure the builder state and the warm-start labels are rolled
        back to the pre-slide snapshot, so calling ``slide()`` again
        replays the same day instead of silently skipping it.
        """
        if self._previous is None:
            raise PipelineError("call start() before slide()")
        snapshot = self.builder.snapshot()
        previous = self._previous
        residual = self._residual_frontier
        days = self.builder.days
        with obs.correlate(slide_id=obs.mint_id("slide"), attempt_id=""):
            obs.emit(
                "slide.start",
                kind="slide",
                retire_day=min(days),
                add_day=max(days) + 1,
                window_days=len(days),
            )
            diff = self.builder.slide()
            diff_summary = {
                "added": diff.num_added,
                "removed": diff.num_removed,
                "reweighted": diff.num_reweighted,
                "change_ratio": diff.change_ratio,
            }
            obs.emit("slide.diff", **diff_summary)
            obs.annotate("slide_diff", diff_summary)
            m = obs.metrics()
            if m is not None:
                m.inc(
                    "pipeline_window_diff_pairs_total",
                    diff.num_added,
                    kind="added",
                )
                m.inc(
                    "pipeline_window_diff_pairs_total",
                    diff.num_removed,
                    kind="removed",
                )
                m.inc(
                    "pipeline_window_diff_pairs_total",
                    diff.num_reweighted,
                    kind="reweighted",
                )
                m.set_gauge("pipeline_window_diff_ratio", diff.change_ratio)
            try:
                return self._detect(diff=diff)
            except Exception as error:
                self.builder.restore(snapshot)
                self._previous = previous
                self._residual_frontier = residual
                m = obs.metrics()
                if m is not None:
                    m.inc("pipeline_slide_replays_total")
                obs.emit(
                    "slide.replay",
                    error=type(error).__name__,
                    kind=getattr(error, "kind", ""),
                )
                raise

    # ------------------------------------------------------------------
    def _detect(
        self, diff: Optional[WindowDiff] = None
    ) -> Tuple[WindowGraph, DetectionResult]:
        build_started = time.perf_counter()
        with obs.span("window-build", cat="pipeline"):
            window = self.builder.build()
        m = obs.metrics()
        if m is not None:
            m.observe(
                "pipeline_window_build_seconds",
                time.perf_counter() - build_started,
            )
        base_seeds = self.seed_store.window_seeds(window)
        seeds = base_seeds
        if self._previous is not None:
            prev_window, prev_labels = self._previous
            with obs.span("warm-start-seeds", cat="pipeline"):
                seeds = warm_start_seeds(
                    prev_window, prev_labels, window, base_seeds,
                    carry_products=True,
                )
        if not seeds:
            raise PipelineError("no seeds fall inside the current window")
        if m is not None:
            # ``base_seeds`` always win on conflict (they are merged last),
            # so the carried share is exactly the size difference.
            carried = len(seeds) - len(base_seeds)
            m.inc("pipeline_warm_start_seeds_total", carried, kind="carried")
            m.inc(
                "pipeline_warm_start_seeds_total",
                len(base_seeds),
                kind="base",
            )
            m.set_gauge(
                "pipeline_warm_start_hit_rate",
                carried / len(seeds) if seeds else 0.0,
            )
        plan = full_plan("cold")
        if self.incremental and diff is not None and self._previous is not None:
            engine = self.detector.engine
            engine_ok = (
                isinstance(engine, BSPEngine) and engine.frontier.enabled
            )
            with obs.span(
                "incremental-plan", cat="pipeline", changed=diff.num_changed
            ):
                plan = plan_slide(
                    diff,
                    self._previous[0],
                    window,
                    residual_frontier=self._residual_frontier,
                    seeds=seeds,
                    cutover_ratio=self.cutover_ratio,
                    engine_supported=engine_ok,
                )
        self.last_plan = plan
        obs.emit("slide.plan", **plan.as_event())
        if m is not None and self.incremental:
            m.inc(
                "pipeline_incremental_total",
                mode=plan.mode,
                reason=plan.reason,
            )
            m.observe("pipeline_affected_vertices", plan.num_affected)
            m.set_gauge("pipeline_affected_ratio", plan.affected_ratio)
        # Only the primary engine gets the affected set: ladder rungs rerun
        # the full warm detection, so a device fault mid-incremental-slide
        # can degrade the engine but never the answer (no stale labels).
        result, _ = run_ladder(
            self.detector.engine,
            lambda engine, kwargs: self.detector.detect(
                window, seeds, engine=engine, **kwargs
            ),
            {"initial_frontier": plan.frontier} if plan.incremental else {},
            degrade=self.degrade,
        )
        self._previous = (window, result.lp_result.labels)
        self._residual_frontier = result.lp_result.final_frontier
        if m is not None:
            m.observe(
                "pipeline_serving_latency_seconds",
                time.perf_counter() - build_started,
            )
            m.observe(
                "pipeline_e2e_modeled_seconds",
                result.lp_result.total_seconds,
            )
        obs.emit(
            "slide.end",
            serving_seconds=time.perf_counter() - build_started,
            modeled_seconds=result.lp_result.total_seconds,
            clusters=len(result.clusters),
        )
        return window, result
