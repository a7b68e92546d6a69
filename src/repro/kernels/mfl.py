"""Vectorized building blocks shared by every MFL kernel.

All strategies ultimately need the same functional pieces — expand a vertex
subset into its edge list, aggregate per-(vertex, label) frequencies through
the program's ``load_neighbor`` hook, and select the best-scoring label per
vertex — while differing only in *how the hardware would execute it* (which
the per-strategy modules account).  Centralizing the functional path
guarantees every strategy computes identical labels, which the differential
tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.api import LPProgram
from repro.graph.csr import CSRGraph
from repro.pairsort import pair_order
from repro.types import LABEL_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE

#: Score assigned to vertices with no incoming edges ("keep your label").
NO_SCORE = -np.inf


@dataclass(frozen=True)
class EdgeBatch:
    """The expanded edge list of a vertex subset.

    Attributes
    ----------
    vertices:
        The vertex subset, in the order their edges appear.
    vertex_ids:
        Per-edge destination vertex (repeats of ``vertices``).
    neighbor_ids:
        Per-edge source (in-neighbor) vertex.
    edge_positions:
        Global CSR edge slot of each edge — the *addresses* the memory
        model needs.
    edge_weights:
        Per-edge weight (ones when the graph is unweighted).
    """

    vertices: np.ndarray
    vertex_ids: np.ndarray
    neighbor_ids: np.ndarray
    edge_positions: np.ndarray
    edge_weights: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.vertex_ids.size)


def expand_edges(
    graph: CSRGraph, vertices: Optional[np.ndarray] = None
) -> EdgeBatch:
    """Expand ``vertices``' neighbor lists into flat per-edge arrays.

    ``vertices=None`` expands the whole graph in CSR order without copies.
    """
    if vertices is None:
        vertices = np.arange(graph.num_vertices, dtype=VERTEX_DTYPE)
        positions = np.arange(graph.num_edges, dtype=VERTEX_DTYPE)
        vertex_ids = graph.edge_sources()
        neighbor_ids = graph.indices
    else:
        vertices = np.asarray(vertices, dtype=VERTEX_DTYPE)
        lengths = graph.degrees[vertices]
        total = int(lengths.sum())
        starts = graph.offsets[vertices]
        # positions[j] = starts[seg(j)] + rank-within-segment(j)
        seg_ends = np.cumsum(lengths)
        seg_ids = np.repeat(
            np.arange(vertices.size, dtype=VERTEX_DTYPE), lengths
        )
        within = (
            np.arange(total, dtype=VERTEX_DTYPE)
            - np.concatenate(([0], seg_ends[:-1]))[seg_ids]
        )
        positions = starts[seg_ids] + within
        vertex_ids = vertices[seg_ids]
        neighbor_ids = graph.indices[positions]
    if graph.weights is None:
        weights = np.ones(positions.size, dtype=WEIGHT_DTYPE)
    else:
        weights = graph.weights[positions]
    return EdgeBatch(
        vertices=vertices,
        vertex_ids=vertex_ids,
        neighbor_ids=neighbor_ids,
        edge_positions=positions,
        edge_weights=weights,
    )


@dataclass(frozen=True)
class LabelGroups:
    """Per-(vertex, label) aggregation of an edge batch.

    ``vertex_ids[g]``, ``labels[g]``, ``frequencies[g]`` describe group
    ``g``; groups are sorted by ``(vertex, label)``.  ``group_of_edge``
    maps each input edge (in the sorted order ``edge_order``) to its group.
    ``edge_labels`` holds the label ``load_neighbor`` loaded for each input
    edge, in batch order, so kernels never run the hook twice.
    """

    vertex_ids: np.ndarray
    labels: np.ndarray
    frequencies: np.ndarray
    edge_order: np.ndarray
    group_of_edge: np.ndarray
    edge_labels: Optional[np.ndarray] = None

    @property
    def num_groups(self) -> int:
        return int(self.vertex_ids.size)

    def distinct_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-vertex ``(vertices, m)`` where ``m`` = distinct label count."""
        if self.num_groups == 0:
            return (
                np.empty(0, dtype=VERTEX_DTYPE),
                np.empty(0, dtype=np.int64),
            )
        boundaries = np.concatenate(
            ([True], self.vertex_ids[1:] != self.vertex_ids[:-1])
        )
        starts = np.flatnonzero(boundaries)
        vertices = self.vertex_ids[starts]
        counts = np.diff(np.concatenate((starts, [self.num_groups])))
        return vertices, counts


def aggregate_label_frequencies(
    program: LPProgram, batch: EdgeBatch, current_labels: np.ndarray
) -> LabelGroups:
    """Aggregate an edge batch into per-(vertex, label) frequencies.

    Routes every edge through the program's ``load_neighbor`` hook, then
    groups by ``(vertex, label)`` and sums the frequency contributions —
    the functional equivalent of what every counting strategy computes.
    """
    neighbor_labels = current_labels[batch.neighbor_ids]
    labels, freqs = program.load_neighbor(
        batch.vertex_ids, batch.neighbor_ids, neighbor_labels, batch.edge_weights
    )
    labels = np.asarray(labels, dtype=LABEL_DTYPE)
    freqs = np.asarray(freqs, dtype=WEIGHT_DTYPE)
    if labels.size == 0:
        empty_v = np.empty(0, dtype=VERTEX_DTYPE)
        return LabelGroups(
            vertex_ids=empty_v,
            labels=np.empty(0, dtype=LABEL_DTYPE),
            frequencies=np.empty(0, dtype=WEIGHT_DTYPE),
            edge_order=np.empty(0, dtype=VERTEX_DTYPE),
            group_of_edge=np.empty(0, dtype=VERTEX_DTYPE),
            edge_labels=labels,
        )
    order = pair_order(batch.vertex_ids, labels)
    sorted_vertices = batch.vertex_ids[order]
    sorted_labels = labels[order]
    sorted_freqs = freqs[order]
    new_group = np.concatenate(
        (
            [True],
            (sorted_vertices[1:] != sorted_vertices[:-1])
            | (sorted_labels[1:] != sorted_labels[:-1]),
        )
    )
    starts = np.flatnonzero(new_group)
    group_of_edge = np.cumsum(new_group) - 1
    frequencies = np.add.reduceat(sorted_freqs, starts)
    return LabelGroups(
        vertex_ids=sorted_vertices[starts],
        labels=sorted_labels[starts],
        frequencies=frequencies.astype(WEIGHT_DTYPE, copy=False),
        edge_order=order,
        group_of_edge=group_of_edge,
        edge_labels=labels,
    )


def select_best_labels(
    program: LPProgram,
    groups: LabelGroups,
    vertices: np.ndarray,
    current_labels: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pick the best-scoring label per vertex (ties → smallest label).

    Returns ``(best_labels, best_scores)`` aligned with ``vertices``.
    Vertices without any group (no incoming edges) get their current label
    and :data:`NO_SCORE`.
    """
    vertices = np.asarray(vertices, dtype=VERTEX_DTYPE)
    best_labels = current_labels[vertices].astype(LABEL_DTYPE, copy=True)
    best_scores = np.full(vertices.size, NO_SCORE, dtype=WEIGHT_DTYPE)
    if groups.num_groups == 0:
        return best_labels, best_scores
    scores = np.asarray(
        program.score(groups.vertex_ids, groups.labels, groups.frequencies),
        dtype=WEIGHT_DTYPE,
    )
    # Groups are sorted by (vertex, label), so each vertex's winner is its
    # first group reaching the vertex's best score: ties go to the smallest
    # label.  NaN scores never win (fmax skips them) unless all of a
    # vertex's scores are NaN, when its first (smallest) label does.
    win_vertices, run_lengths = groups.distinct_counts()
    starts = np.cumsum(run_lengths) - run_lengths
    best = np.repeat(np.fmax.reduceat(scores, starts), run_lengths)
    hits = (scores == best) | np.isnan(best)
    position = np.where(hits, np.arange(scores.size), scores.size)
    winners = np.minimum.reduceat(position, starts)
    win_labels = groups.labels[winners]
    win_scores = scores[winners]

    # Scatter winners into the `vertices` alignment.  All call sites pass
    # sorted unique vertex subsets, so searchsorted is an exact inverse.
    idx = np.searchsorted(vertices, win_vertices)
    best_labels[idx] = win_labels
    best_scores[idx] = win_scores
    return best_labels, best_scores


def per_vertex_extremes(
    groups: LabelGroups,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per vertex: ``(vertices, m, f_max)``.

    ``m`` is the distinct-label count and ``f_max`` the largest aggregated
    frequency — the two quantities the Section 4.1 analysis is written in.
    """
    if groups.num_groups == 0:
        return (
            np.empty(0, dtype=VERTEX_DTYPE),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=WEIGHT_DTYPE),
        )
    boundaries = np.concatenate(
        ([True], groups.vertex_ids[1:] != groups.vertex_ids[:-1])
    )
    starts = np.flatnonzero(boundaries)
    vertices = groups.vertex_ids[starts]
    m = np.diff(np.concatenate((starts, [groups.num_groups])))
    f_max = np.maximum.reduceat(groups.frequencies, starts)
    return vertices, m, f_max
