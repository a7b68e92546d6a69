"""Seeded label propagation for fraud detection.

The TaoBao pipeline (Figure 1) does not run community detection from
scratch: it propagates labels *from known black-listed seed vertices* to
"identify suspicious clusters from known black-listed users".  This program
implements that workload:

* seeds start with their fraud-cluster label; everyone else is unlabeled;
* unlabeled neighbors contribute nothing to MFL counting;
* seed vertices never change their label;
* propagation can be bounded to ``max_hops`` so a cluster stays local to
  its seeds (fraud rings are small).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Union

import numpy as np

from repro.core.api import LPProgram
from repro.errors import ProgramError
from repro.graph.csr import CSRGraph
from repro.types import LABEL_DTYPE, NO_LABEL, WEIGHT_DTYPE


@dataclass(frozen=True, eq=False)
class Seeds:
    """A seed set as two parallel arrays: the array form of
    ``{vertex: label}``.

    ``vertices`` are int64 and strictly ascending; ``labels`` are
    non-negative ``LABEL_DTYPE``.  Unsorted input is sorted on
    construction.  The arrays are shared, not copied, and must not be
    written.  ``len()`` counts the seeds, so an empty set is falsy.
    """

    vertices: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        vertices = np.asarray(self.vertices, dtype=np.int64)
        labels = np.asarray(self.labels, dtype=LABEL_DTYPE)
        if vertices.ndim != 1 or labels.shape != vertices.shape:
            raise ProgramError(
                "seed vertices and labels must be parallel 1-D arrays"
            )
        if labels.size and labels.min() < 0:
            raise ProgramError("seed labels must be non-negative")
        if not np.all(vertices[1:] > vertices[:-1]):
            order = np.argsort(vertices, kind="stable")
            vertices, labels = vertices[order], labels[order]
            if np.any(vertices[1:] == vertices[:-1]):
                raise ProgramError("duplicate seed vertex ids")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.vertices.size)

    @classmethod
    def of(cls, seeds: Union["Seeds", Mapping[int, int]]) -> "Seeds":
        """``seeds`` itself, or a ``{vertex: label}`` mapping as arrays."""
        if isinstance(seeds, Seeds):
            return seeds
        return cls(
            np.fromiter(seeds.keys(), dtype=np.int64, count=len(seeds)),
            np.fromiter(seeds.values(), dtype=LABEL_DTYPE, count=len(seeds)),
        )


class SeededFraudLP(LPProgram):
    """Propagate fraud labels from seed vertices.

    Parameters
    ----------
    seeds:
        A :class:`Seeds` set, or a ``{vertex: label}`` mapping that is
        converted to one.  Labels must be >= 0; the set is kept as given
        (a :class:`Seeds` is shared, not copied).
    max_hops:
        Optional bound on propagation depth (``None`` = unbounded).
    """

    def __init__(
        self,
        seeds: Union[Seeds, Mapping[int, int]],
        *,
        max_hops: Optional[int] = None,
    ) -> None:
        self.seeds = Seeds.of(seeds)
        if not self.seeds:
            raise ProgramError("at least one seed is required")
        if max_hops is not None and max_hops <= 0:
            raise ProgramError("max_hops must be positive when given")
        self.max_hops = max_hops
        self.name = f"seeded-lp({len(self.seeds)} seeds)"
        # A vertex's update depends only on its neighbors' labels (seed
        # pinning is per-vertex; max_hops only bounds the iteration count),
        # so frontier engines may sparsify.
        self.frontier_safe = True

    def init_labels(self, graph: CSRGraph) -> np.ndarray:
        labels = np.full(graph.num_vertices, NO_LABEL, dtype=LABEL_DTYPE)
        vertices = self.seeds.vertices
        if vertices[0] < 0 or vertices[-1] >= graph.num_vertices:
            raise ProgramError("seed vertex ids out of range")
        labels[vertices] = self.seeds.labels
        return labels

    def load_neighbor(self, vertex_ids, neighbor_ids, neighbor_labels, edge_weights):
        """Unlabeled neighbors contribute zero frequency."""
        freqs = np.where(neighbor_labels == NO_LABEL, 0.0, edge_weights)
        # Map NO_LABEL to a harmless concrete label: zero frequency already
        # removes it from contention, but the label value must be valid for
        # grouping and the sketches.
        labels = np.where(neighbor_labels == NO_LABEL, 0, neighbor_labels)
        return labels.astype(LABEL_DTYPE, copy=False), freqs.astype(
            WEIGHT_DTYPE, copy=False
        )

    def update_vertices(self, vertex_ids, best_labels, best_scores, current_labels):
        """Adopt the MFL only when it carries positive evidence; pin seeds."""
        result = current_labels.copy()
        adopt = np.isfinite(best_scores) & (best_scores > 0)
        result[vertex_ids[adopt]] = best_labels[adopt]
        result[self.seeds.vertices] = self.seeds.labels
        return result

    def pinned_vertices(self, graph: CSRGraph) -> np.ndarray:
        """Seeds are pinned: their update is a no-op by construction.

        Frontier engines prune them from sparse passes — crucial on warm
        windows, where carried hub-product seeds would otherwise stream
        their whole neighbor lists every iteration for nothing.
        """
        return self.seeds.vertices

    def converged(self, old_labels, new_labels, iteration):
        if self.max_hops is not None and iteration >= self.max_hops:
            return True
        return bool(np.array_equal(old_labels, new_labels))

    # ------------------------------------------------------------------
    def clusters(self, labels: np.ndarray) -> Dict[int, np.ndarray]:
        """Group labeled vertices by cluster: ``{cluster: vertex_ids}``."""
        labeled = np.flatnonzero(labels != NO_LABEL)
        if labeled.size == 0:
            return {}
        clusters = labels[labeled]
        # One stable sort by cluster keeps each group's ids ascending.
        # numpy radix-sorts keys of 16 bits or fewer, so non-negative
        # labels sort in the narrowest dtype that holds them: the same
        # permutation, in linear time when the labels fit.
        keys = clusters
        if clusters.min() >= 0:
            keys = clusters.astype(np.min_scalar_type(clusters.max()))
        order = np.argsort(keys, kind="stable")
        sorted_clusters = clusters[order]
        starts = np.flatnonzero(sorted_clusters[1:] != sorted_clusters[:-1])
        starts += 1
        groups = np.split(labeled[order], starts)
        firsts = np.concatenate(([0], starts))
        return dict(zip(sorted_clusters[firsts].tolist(), groups))
