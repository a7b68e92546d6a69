"""DynLP-style incremental re-convergence planning for window slides.

A window slide changes a small fraction of the graph: the retired day's
(user, product) pairs lose weight or disappear, the new day's pairs appear
or gain weight.  Re-running warm-started LP from a *dense* first pass
reprocesses every edge anyway — the dense iteration dominates the serving
cost even though almost nothing can change.

This module turns the slide's explicit edge diff
(:func:`compute_window_diff`) into the **affected vertex set**: the
vertices whose label could differ from the previous detection, seeded into
the engines as an *initial frontier* so iteration 1 runs sparse over
O(changes) instead of dense over O(E).

Why the affected set is sufficient (the identity argument, asserted
bitwise by the warm-window tests):

* Warm-started windows pin every carried label as a seed
  (:func:`~repro.pipeline.incremental.warm_start_seeds` +
  :class:`~repro.algorithms.seeded.SeededFraudLP`), so labeled vertices
  never change — only *unlabeled* vertices can.
* An unlabeled vertex adopts at iteration 1 iff it has at least one
  labeled MFL-input neighbor (positive edge weights make the best score
  positive).  Such a neighbor either (a) was labeled at the very end of
  the previous run — in which case the vertex sits on the previous run's
  **residual frontier** (had the neighbor been labeled earlier, the
  vertex would already have adopted) — or (b) arrived through an edge the
  slide changed, making the vertex a **diff endpoint**.
* Vertices outside ``N(labeled)`` see no positive score, and labeled
  (pinned) vertices never move, so intersecting the candidates with the
  *label boundary* — unlabeled vertices with a labeled in-neighbor —
  drops nothing that could change.

Processing any superset of the iteration-1 changers sparsely, then
advancing the standard frontier machinery, reproduces the dense warm run
bit for bit; removed-edge endpoints are kept in the candidate set (DynLP's
delete-invalidation rule) even though pinned warm labels cannot orphan.

When the affected set grows past ``cutover_ratio`` of the window the
sparse pass stops paying for its bookkeeping, so :func:`plan_slide`
falls back to a full recompute — as it does when there is no residual
frontier to reason from (cold start, or the previous run came from a
dense/fallback engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import PipelineError
from repro.kernels import mfl
from repro.pipeline.window import WindowGraph, unpack_pairs


@dataclass(frozen=True)
class WindowDiff:
    """The explicit edge diff of one window slide.

    All three arrays hold packed (user, product) int64 keys, sorted
    ascending:

    ``added_keys``
        pairs present after the slide but not before;
    ``removed_keys``
        pairs present before but not after;
    ``reweighted_keys``
        pairs present in both whose interaction count changed.
    """

    added_keys: np.ndarray
    removed_keys: np.ndarray
    reweighted_keys: np.ndarray
    #: Distinct pairs in the window before / after the slide.
    num_pairs_before: int
    num_pairs_after: int

    @property
    def num_added(self) -> int:
        return int(self.added_keys.size)

    @property
    def num_removed(self) -> int:
        return int(self.removed_keys.size)

    @property
    def num_reweighted(self) -> int:
        return int(self.reweighted_keys.size)

    @property
    def num_changed(self) -> int:
        """Total changed pairs (added + removed + reweighted)."""
        return self.num_added + self.num_removed + self.num_reweighted

    @property
    def change_ratio(self) -> float:
        """Changed-pair share of the post-slide window."""
        if self.num_pairs_after == 0:
            return 1.0 if self.num_changed else 0.0
        return self.num_changed / self.num_pairs_after

    def endpoint_ids(self) -> Tuple[np.ndarray, np.ndarray]:
        """(global user ids, global product ids) of every changed pair.

        One entry per changed pair, so ids repeat and are not sorted.
        """
        keys = np.concatenate(
            [self.added_keys, self.removed_keys, self.reweighted_keys]
        )
        return unpack_pairs(keys)


def compute_window_diff(
    before_keys: np.ndarray,
    before_counts: np.ndarray,
    after_keys: np.ndarray,
    after_counts: np.ndarray,
) -> WindowDiff:
    """Diff two sorted-unique packed-pair count tables."""
    before_keys = np.asarray(before_keys, dtype=np.int64)
    after_keys = np.asarray(after_keys, dtype=np.int64)
    # One stable merge of the two sorted runs (linear for timsort): a key
    # in both tables lands on adjacent positions, its ``before`` copy first.
    both = np.concatenate([before_keys, after_keys])
    order = np.argsort(both, kind="stable")
    merged = both[order]
    common = np.flatnonzero(merged[1:] == merged[:-1])
    in_after = np.zeros(before_keys.size, dtype=bool)
    in_after[order[common]] = True
    in_before = np.zeros(after_keys.size, dtype=bool)
    in_before[order[common + 1] - before_keys.size] = True
    # Both key arrays are sorted, so the surviving (common) keys align.
    common_after = after_counts[in_before]
    common_before = before_counts[in_after]
    reweighted = after_keys[in_before][common_after != common_before]
    return WindowDiff(
        added_keys=after_keys[~in_before],
        removed_keys=before_keys[~in_after],
        reweighted_keys=reweighted,
        num_pairs_before=int(before_keys.size),
        num_pairs_after=int(after_keys.size),
    )


# ----------------------------------------------------------------------
# Affected-vertex computation
# ----------------------------------------------------------------------
def map_previous_vertices(
    vertices: np.ndarray, previous: WindowGraph, current: WindowGraph
) -> np.ndarray:
    """Map previous-window vertex ids into the current window.

    Users map through their global ids, products through theirs; vertices
    absent from the current window are dropped.  Returns current-window
    ids in input order (users first), unsorted.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        return np.empty(0, dtype=np.int64)
    user_part = vertices[vertices < previous.num_users]
    product_part = vertices[vertices >= previous.num_users]
    return np.concatenate(
        [
            _map_users(previous.users[user_part], current),
            _map_products(
                previous.products[product_part - previous.num_users], current
            ),
        ]
    )


def _map_users(user_ids: np.ndarray, current: WindowGraph) -> np.ndarray:
    """Global user ids -> current-window vertex ids (absent dropped)."""
    if user_ids.size == 0:
        return np.empty(0, dtype=np.int64)
    positions = current.window_vertex_of_user(user_ids)
    return positions[positions >= 0]


def _map_products(product_ids: np.ndarray, current: WindowGraph) -> np.ndarray:
    """Global product ids -> current-window vertex ids (absent dropped)."""
    if product_ids.size == 0 or current.products.size == 0:
        return np.empty(0, dtype=np.int64)
    positions = np.searchsorted(current.products, product_ids)
    positions = np.clip(positions, 0, current.products.size - 1)
    found = current.products[positions] == product_ids
    return positions[found] + current.num_users


def diff_endpoint_vertices(
    diff: WindowDiff, current: WindowGraph
) -> np.ndarray:
    """Current-window vertex ids of every changed pair's endpoints.

    Endpoints of *removed* pairs that left the window entirely have no
    current vertex and are dropped — there is nothing left to relabel
    (DynLP's delete rule degenerates to "nothing to invalidate" here
    because warm-started labels are pinned seeds, not derived state).
    One id per changed pair endpoint: ids repeat and are not sorted.
    """
    users, products = diff.endpoint_ids()
    # Changed keys are sorted by user, not product; sorted needles make the
    # product binary search several times faster.
    return np.concatenate(
        [
            _map_users(users, current),
            _map_products(np.sort(products), current),
        ]
    )


@dataclass(frozen=True)
class AffectedSet:
    """The DynLP affected-vertex computation, step by step."""

    #: Mapped residual frontier ∪ diff endpoints (before boundary filter).
    candidates: np.ndarray
    #: Candidates on the label boundary: unlabeled with a labeled
    #: MFL-input neighbor — the only vertices iteration 1 can change.
    frontier: np.ndarray

    @property
    def num_candidates(self) -> int:
        return int(self.candidates.size)

    @property
    def num_affected(self) -> int:
        return int(self.frontier.size)


def affected_vertices(
    diff: WindowDiff,
    previous: WindowGraph,
    current: WindowGraph,
    *,
    residual_frontier: np.ndarray,
    labeled_vertices: np.ndarray,
) -> AffectedSet:
    """Compute the affected vertex set of one slide.

    ``residual_frontier`` is the previous run's final frontier (previous
    window's vertex ids); ``labeled_vertices`` are the current window's
    seed vertices (every vertex with a pinned warm-start or black-list
    label).  The returned ``frontier`` is safe to hand the engines as the
    initial sparse iteration — see the module docstring for why it covers
    every vertex the dense warm pass could change.
    """
    graph = current.graph
    # Vertex sets are |V| bool masks: set algebra is a linear pass, where
    # sorting the ids (``np.unique`` and friends) costs far more.
    labeled = np.zeros(graph.num_vertices, dtype=bool)
    labeled[np.asarray(labeled_vertices, dtype=np.int64)] = True
    is_candidate = np.zeros(graph.num_vertices, dtype=bool)
    is_candidate[
        map_previous_vertices(residual_frontier, previous, current)
    ] = True
    is_candidate[diff_endpoint_vertices(diff, current)] = True
    candidates = np.flatnonzero(is_candidate)
    # Label-boundary filter: a candidate is on the boundary when one of its
    # in-neighbors (its forward CSR row, the MFL input) is labeled.
    # Gathering over the candidates' rows costs O(vol(candidates)).
    unlabeled = candidates[~labeled[candidates]]
    batch = mfl.expand_edges(graph, unlabeled)
    on_boundary = np.zeros(graph.num_vertices, dtype=bool)
    on_boundary[batch.vertex_ids[labeled[batch.neighbor_ids]]] = True
    frontier = np.flatnonzero(on_boundary)
    return AffectedSet(candidates=candidates, frontier=frontier)


# ----------------------------------------------------------------------
# Slide planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IncrementalPlan:
    """How one slide's detection should run.

    ``mode`` is ``"incremental"`` (seed the engines with ``frontier``) or
    ``"full"`` (dense warm recompute); ``reason`` says why:

    ``"ok"``
        incremental mode engaged;
    ``"cold"``
        no previous detection to re-converge from;
    ``"no-residual"``
        the previous run did not expose a residual frontier (dense or
        fallback engine);
    ``"unsupported-engine"``
        the configured engine cannot accept an initial frontier;
    ``"cutover"``
        the affected set exceeded ``cutover_ratio`` of the window, so the
        dense pass is the better schedule.
    """

    mode: str
    reason: str
    frontier: Optional[np.ndarray] = None
    num_affected: int = 0
    num_candidates: int = 0
    affected_ratio: float = 0.0

    @property
    def incremental(self) -> bool:
        return self.mode == "incremental"

    def as_event(self) -> dict:
        """The plan decision as journal-event payload fields."""
        return {
            "mode": self.mode,
            "reason": self.reason,
            "num_affected": int(self.num_affected),
            "num_candidates": int(self.num_candidates),
            "affected_ratio": float(self.affected_ratio),
        }


def full_plan(reason: str) -> IncrementalPlan:
    """A plan that falls back to the dense warm recompute."""
    return IncrementalPlan(mode="full", reason=reason)


def plan_slide(
    diff: WindowDiff,
    previous: WindowGraph,
    current: WindowGraph,
    *,
    residual_frontier: Optional[np.ndarray],
    seeds: Dict[int, int],
    cutover_ratio: float = 0.2,
    engine_supported: bool = True,
) -> IncrementalPlan:
    """Decide between incremental re-convergence and full recompute."""
    if not 0.0 <= cutover_ratio <= 1.0:
        raise PipelineError("cutover_ratio must be in [0, 1]")
    if not engine_supported:
        return full_plan("unsupported-engine")
    if residual_frontier is None:
        return full_plan("no-residual")
    labeled = np.fromiter(seeds.keys(), dtype=np.int64, count=len(seeds))
    affected = affected_vertices(
        diff,
        previous,
        current,
        residual_frontier=residual_frontier,
        labeled_vertices=labeled,
    )
    num_vertices = max(1, int(current.graph.num_vertices))
    ratio = affected.num_affected / num_vertices
    if ratio > cutover_ratio:
        return IncrementalPlan(
            mode="full",
            reason="cutover",
            num_affected=affected.num_affected,
            num_candidates=affected.num_candidates,
            affected_ratio=ratio,
        )
    return IncrementalPlan(
        mode="incremental",
        reason="ok",
        frontier=affected.frontier,
        num_affected=affected.num_affected,
        num_candidates=affected.num_candidates,
        affected_ratio=ratio,
    )
