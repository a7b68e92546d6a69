"""The GLP user-defined API (paper, Table 1).

Data engineers customize four hooks; the framework supplies everything else
(kernel selection, degree scheduling, memory management):

=================  ==========================================================
Hook               Role
=================  ==========================================================
``pick_labels``    *PickLabel* — decide each vertex's current label from the
                   program's internal state (identity for classic LP; a
                   sampled "spoken" label for SLP).
``load_neighbor``  *LoadNeighbor* — map an edge to the (label, frequency
                   contribution) pair that enters MFL counting.
``score``          *LabelScore* — score a label given its aggregated
                   frequency among a vertex's neighbors.
``update_vertices``*UpdateVertex* — fold the winning (label, score) back
                   into each vertex's state and emit its next label.
=================  ==========================================================

**Vectorized contract.** The paper's hooks are scalar CUDA device functions;
calling a scalar Python hook per edge would bury the simulation in
interpreter overhead, so every hook here receives/returns numpy arrays (a
batch of edges or candidate labels).  :func:`elementwise_program` adapts a
scalar implementation to the vectorized contract for pedagogy and testing.

**Monotonicity requirement.** ``score(v, l, f)`` must be non-decreasing in
``f`` for fixed ``(v, l)``.  The CMS pruning step compares HT scores against
scores of CMS *over*-estimates; monotonicity is exactly what makes that
comparison safe (paper, Section 4.1 "Special Note").  Classic LP
(``score = f``) and LLP (``score = f*(1+gamma) - gamma*volume``) both
satisfy it.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import ProgramError
from repro.graph.csr import CSRGraph
from repro.types import LABEL_DTYPE, WEIGHT_DTYPE


class LPProgram:
    """Base class for user-defined LP algorithms.

    Subclasses override the hooks they need; the defaults implement the
    classic LP algorithm of Raghavan et al. [28].
    """

    #: Program name used in reports.
    name: str = "lp"

    #: Whether a vertex's update depends only on its neighbors' labels.
    #: When ``True``, frontier-based engines (Ligra) may skip vertices whose
    #: neighborhoods did not change, and dense GPU passes replay a kernel
    #: launch whose input labels did not change since its last execution
    #: (its kept counters and outputs stand in for re-running it) or patch
    #: it over the vertices whose reads changed (see
    #: :func:`repro.kernels.base.run_launch`).  Programs with *global*
    #: state in their score (LLP's label volumes) or randomized picks (SLP)
    #: must leave this ``False``.
    frontier_safe: bool = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def init_labels(self, graph: CSRGraph) -> np.ndarray:
        """Initial label array: every vertex gets its own id (classic LP)."""
        return np.arange(graph.num_vertices, dtype=LABEL_DTYPE)

    def init_state(self, graph: CSRGraph, labels: np.ndarray) -> None:
        """Allocate per-program state (label volumes, SLP memories, ...)."""

    # ------------------------------------------------------------------
    # The four Table 1 hooks (vectorized)
    # ------------------------------------------------------------------
    def pick_labels(
        self, graph: CSRGraph, labels: np.ndarray, iteration: int
    ) -> np.ndarray:
        """*PickLabel*: label each vertex exposes to its neighbors now."""
        return labels

    def load_neighbor(
        self,
        vertex_ids: np.ndarray,
        neighbor_ids: np.ndarray,
        neighbor_labels: np.ndarray,
        edge_weights: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """*LoadNeighbor*: per-edge (label, frequency contribution).

        Default: the neighbor's label with the edge weight as contribution.
        """
        return neighbor_labels, edge_weights

    def score(
        self,
        vertex_ids: np.ndarray,
        labels: np.ndarray,
        frequencies: np.ndarray,
    ) -> np.ndarray:
        """*LabelScore*: score of ``labels[i]`` for ``vertex_ids[i]``.

        Must be monotone non-decreasing in ``frequencies`` (see module
        docstring).  Default: the frequency itself.
        """
        return frequencies.astype(WEIGHT_DTYPE, copy=False)

    def update_vertices(
        self,
        vertex_ids: np.ndarray,
        best_labels: np.ndarray,
        best_scores: np.ndarray,
        current_labels: np.ndarray,
    ) -> np.ndarray:
        """*UpdateVertex*: produce the next full label array.

        ``vertex_ids`` is the subset the kernels processed this iteration
        (usually all vertices); ``best_labels``/``best_scores`` align with
        it.  ``current_labels`` is the *full* current label array, and the
        return value must be a full array too.  Vertices with no incoming
        neighbors arrive with score ``-inf`` and keep their current label
        by default.
        """
        result = current_labels.astype(LABEL_DTYPE, copy=True)
        adopt = np.isfinite(best_scores)
        result[vertex_ids[adopt]] = best_labels[adopt]
        return result

    def pinned_vertices(self, graph: CSRGraph) -> Optional[np.ndarray]:
        """Vertices whose labels this program guarantees never to change.

        Frontier-tracking engines prune these from every sparse pass:
        a pinned vertex's update is a no-op by contract, so skipping it
        cannot alter any label or the frontier trajectory — but it can
        avoid streaming a pinned hub's entire neighbor list each round
        (seeded fraud detection pins black-list and carried seeds, and
        carried hub products dominate the warm-window frontiers' edge
        volume).  Return ``None`` (default) when no such guarantee
        exists; otherwise an array of vertex ids.
        """
        return None

    # ------------------------------------------------------------------
    # Iteration control
    # ------------------------------------------------------------------
    def on_iteration_end(
        self,
        graph: CSRGraph,
        old_labels: np.ndarray,
        new_labels: np.ndarray,
        iteration: int,
    ) -> None:
        """Per-iteration state maintenance (LLP volumes, SLP memories)."""

    def converged(
        self, old_labels: np.ndarray, new_labels: np.ndarray, iteration: int
    ) -> bool:
        """Stop when no label changed (classic LP termination)."""
        return bool(np.array_equal(old_labels, new_labels))

    def final_labels(self, labels: np.ndarray) -> np.ndarray:
        """Map the internal label array to the reported communities."""
        return labels


class ElementwiseProgram(LPProgram):
    """Adapter turning scalar per-edge/per-label hooks into an LPProgram.

    This mirrors the paper's scalar API one-to-one — useful for teaching and
    for differential tests against vectorized programs, but slow (Python
    call per element).
    """

    name = "elementwise"

    def __init__(
        self,
        *,
        load_neighbor: Optional[Callable[[int, int, int, float], Tuple[int, float]]] = None,
        label_score: Optional[Callable[[int, int, float], float]] = None,
        update_vertex: Optional[Callable[[int, int, float, int], int]] = None,
        pick_label: Optional[Callable[[int, int], int]] = None,
        name: str = "elementwise",
    ) -> None:
        self._load_neighbor = load_neighbor
        self._label_score = label_score
        self._update_vertex = update_vertex
        self._pick_label = pick_label
        self.name = name

    def pick_labels(
        self, graph: CSRGraph, labels: np.ndarray, iteration: int
    ) -> np.ndarray:
        if self._pick_label is None:
            return labels
        return np.fromiter(
            (self._pick_label(v, int(labels[v])) for v in range(labels.size)),
            dtype=LABEL_DTYPE,
            count=labels.size,
        )

    def load_neighbor(self, vertex_ids, neighbor_ids, neighbor_labels, edge_weights):
        if self._load_neighbor is None:
            return neighbor_labels, edge_weights
        labels = np.empty(vertex_ids.size, dtype=LABEL_DTYPE)
        freqs = np.empty(vertex_ids.size, dtype=WEIGHT_DTYPE)
        for i in range(vertex_ids.size):
            labels[i], freqs[i] = self._load_neighbor(
                int(vertex_ids[i]),
                int(neighbor_ids[i]),
                int(neighbor_labels[i]),
                float(edge_weights[i]),
            )
        return labels, freqs

    def score(self, vertex_ids, labels, frequencies):
        if self._label_score is None:
            return frequencies.astype(WEIGHT_DTYPE, copy=False)
        return np.fromiter(
            (
                self._label_score(int(v), int(l), float(f))
                for v, l, f in zip(vertex_ids, labels, frequencies)
            ),
            dtype=WEIGHT_DTYPE,
            count=vertex_ids.size,
        )

    def update_vertices(self, vertex_ids, best_labels, best_scores, current_labels):
        if self._update_vertex is None:
            return super().update_vertices(
                vertex_ids, best_labels, best_scores, current_labels
            )
        return np.fromiter(
            (
                self._update_vertex(
                    int(v), int(l), float(s), int(c)
                )
                for v, l, s, c in zip(
                    vertex_ids, best_labels, best_scores, current_labels
                )
            ),
            dtype=LABEL_DTYPE,
            count=vertex_ids.size,
        )


def elementwise_program(**kwargs) -> ElementwiseProgram:
    """Build an :class:`ElementwiseProgram` from scalar hooks (see class)."""
    return ElementwiseProgram(**kwargs)


def validate_program(
    program: LPProgram, graph: CSRGraph, labels: Optional[np.ndarray] = None
) -> None:
    """Cheap contract checks run once before an engine starts.

    Verifies the initial label array shape/dtype and spot-checks score
    monotonicity on a few (vertex, label) pairs.  ``labels`` lets engines
    pass an already-initialized array; the program's state must be
    initialized before calling (score hooks may read it).
    """
    if labels is None:
        labels = program.init_labels(graph)
        program.init_state(graph, labels)
    if labels.shape != (graph.num_vertices,):
        raise ProgramError(
            f"init_labels returned shape {labels.shape}, expected "
            f"({graph.num_vertices},)"
        )
    if labels.dtype != LABEL_DTYPE:
        raise ProgramError(
            f"init_labels must return dtype {LABEL_DTYPE}, got {labels.dtype}"
        )
    if graph.num_vertices == 0:
        return
    probe_vertices = np.zeros(3, dtype=np.int64)
    probe_labels = np.full(3, int(labels[0]), dtype=LABEL_DTYPE)
    probe_freqs = np.array([1.0, 2.0, 4.0])
    scores = np.asarray(
        program.score(probe_vertices, probe_labels, probe_freqs), dtype=float
    )
    if scores.shape != (3,):
        raise ProgramError("score must return one value per input element")
    if not (scores[0] <= scores[1] <= scores[2]):
        raise ProgramError(
            "score must be monotone non-decreasing in frequency "
            "(required for CMS pruning correctness)"
        )
