"""Compressed sparse row (CSR) graph storage.

GLP stores graphs in CSR format (paper, Section 3.1): an ``offsets`` array of
length ``num_vertices + 1`` and an ``indices`` array of length ``num_edges``
where the *incoming* neighbors of vertex ``v`` are
``indices[offsets[v]:offsets[v + 1]]``.  LP reads the labels of incoming
neighbors, so — matching the paper's notation ``N(v)`` — the adjacency stored
here is the incoming adjacency.  For undirected graphs the two coincide.

The class is deliberately immutable: engines share one graph across many
iterations and devices, and the simulator relies on stable array identities
for its memory accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE


@dataclass(frozen=True)
class CSRGraph:
    """An immutable directed graph in CSR (incoming-adjacency) layout.

    Parameters
    ----------
    offsets:
        ``int64`` array of length ``num_vertices + 1``; monotonically
        non-decreasing, ``offsets[0] == 0``, ``offsets[-1] == num_edges``.
    indices:
        ``int64`` array of neighbor vertex ids, grouped per vertex.
    weights:
        Optional ``float64`` array parallel to ``indices``.  ``None`` means
        every edge has weight 1 (the common case for LP).
    name:
        Human-readable dataset name used in reports.
    """

    offsets: np.ndarray
    indices: np.ndarray
    weights: Optional[np.ndarray] = None
    name: str = "graph"
    _degrees: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _reversed_cache: Optional["CSRGraph"] = field(
        init=False, repr=False, compare=False, default=None
    )
    #: Set when the graph is known to equal its transpose, bit for bit:
    #: by :class:`~repro.graph.builder.GraphBuilder` after its mirror
    #: check, and by :func:`~repro.pipeline.window.window_from_pairs` by
    #: construction (each pair fills two mirror slots with one weight).
    #: A flag rather than ``_reversed_cache = self``: that self-reference
    #: is a cycle, which keeps every such graph alive until the cyclic GC
    #: runs.
    _self_transpose: bool = field(
        init=False, repr=False, compare=False, default=False
    )

    def __post_init__(self) -> None:
        offsets = np.ascontiguousarray(self.offsets, dtype=VERTEX_DTYPE)
        indices = np.ascontiguousarray(self.indices, dtype=VERTEX_DTYPE)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "indices", indices)
        if self.weights is not None:
            weights = np.ascontiguousarray(self.weights, dtype=WEIGHT_DTYPE)
            object.__setattr__(self, "weights", weights)
        self._validate()
        degrees = np.diff(self.offsets)
        degrees.setflags(write=False)
        object.__setattr__(self, "_degrees", degrees)
        for arr in (self.offsets, self.indices, self.weights):
            if arr is not None:
                arr.setflags(write=False)

    def _validate(self) -> None:
        if self.offsets.ndim != 1 or self.indices.ndim != 1:
            raise GraphError("offsets and indices must be 1-D arrays")
        if self.offsets.size == 0:
            raise GraphError("offsets must have at least one entry")
        if self.offsets[0] != 0:
            raise GraphError(f"offsets[0] must be 0, got {self.offsets[0]}")
        if self.offsets[-1] != self.indices.size:
            raise GraphError(
                f"offsets[-1] ({self.offsets[-1]}) must equal "
                f"len(indices) ({self.indices.size})"
            )
        if np.any(np.diff(self.offsets) < 0):
            raise GraphError("offsets must be non-decreasing")
        n = self.num_vertices
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= n
        ):
            raise GraphError(
                f"neighbor ids must be in [0, {n}); "
                f"found range [{self.indices.min()}, {self.indices.max()}]"
            )
        if self.weights is not None and self.weights.shape != self.indices.shape:
            raise GraphError(
                f"weights shape {self.weights.shape} must match indices "
                f"shape {self.indices.shape}"
            )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return int(self.offsets.size - 1)

    @property
    def num_edges(self) -> int:
        """Number of (directed) edges."""
        return int(self.indices.size)

    @property
    def degrees(self) -> np.ndarray:
        """In-degree of every vertex (read-only int64 array)."""
        return self._degrees

    @property
    def average_degree(self) -> float:
        """Mean in-degree; 0.0 for an empty graph."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    @property
    def max_degree(self) -> int:
        """Largest in-degree (0 for an edgeless graph)."""
        if self.num_vertices == 0:
            return 0
        return int(self._degrees.max(initial=0))

    @property
    def nbytes(self) -> int:
        """Total bytes of the CSR arrays (the device-resident footprint)."""
        total = self.offsets.nbytes + self.indices.nbytes
        if self.weights is not None:
            total += self.weights.nbytes
        return total

    # ------------------------------------------------------------------
    # Neighborhood access
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Return the (read-only) neighbor slice of vertex ``v``."""
        self._check_vertex(v)
        return self.indices[self.offsets[v] : self.offsets[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Return edge weights of ``v``'s neighbor slice (ones if unweighted)."""
        self._check_vertex(v)
        lo, hi = self.offsets[v], self.offsets[v + 1]
        if self.weights is None:
            return np.ones(int(hi - lo), dtype=WEIGHT_DTYPE)
        return self.weights[lo:hi]

    def degree(self, v: int) -> int:
        """In-degree of vertex ``v``."""
        self._check_vertex(v)
        return int(self._degrees[v])

    def edge_sources(self) -> np.ndarray:
        """Expand offsets to a per-edge source-vertex array.

        ``edge_sources()[e]`` is the vertex whose neighbor list contains edge
        slot ``e``.  This is the standard CSR "expand" used by edge-parallel
        kernels; it costs O(V + E).
        """
        return np.repeat(
            np.arange(self.num_vertices, dtype=VERTEX_DTYPE), self._degrees
        )

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(v, u)`` pairs where ``u`` is an in-neighbor of ``v``."""
        for v in range(self.num_vertices):
            for u in self.neighbors(v):
                yield v, int(u)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reversed(self) -> "CSRGraph":
        """Return the graph with all edge directions flipped.

        The result is memoized on the instance: frontier engines call this
        every run to find the out-neighbors of changed vertices, and the
        graph is immutable, so the O(V + E) transpose is paid once.  A
        graph the builder proved to be its own transpose returns itself.
        """
        if self._self_transpose:
            return self
        if self._reversed_cache is not None:
            return self._reversed_cache
        sources = self.edge_sources()
        order = np.argsort(self.indices, kind="stable")
        new_indices = sources[order]
        counts = np.bincount(self.indices, minlength=self.num_vertices)
        new_offsets = np.zeros(self.num_vertices + 1, dtype=VERTEX_DTYPE)
        np.cumsum(counts, out=new_offsets[1:])
        new_weights = None
        if self.weights is not None:
            new_weights = self.weights[order]
        rev = CSRGraph(
            offsets=new_offsets,
            indices=new_indices,
            weights=new_weights,
            name=f"{self.name}:reversed",
        )
        object.__setattr__(self, "_reversed_cache", rev)
        return rev

    def subgraph(self, vertices: np.ndarray) -> Tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns ``(graph, mapping)`` where ``mapping[i]`` is the original id
        of new vertex ``i``.  Edges between retained vertices are kept and
        re-labelled into the compact id space.
        """
        vertices = np.unique(np.asarray(vertices, dtype=VERTEX_DTYPE))
        if vertices.size and (
            vertices[0] < 0 or vertices[-1] >= self.num_vertices
        ):
            raise GraphError("subgraph vertex ids out of range")
        new_id = np.full(self.num_vertices, -1, dtype=VERTEX_DTYPE)
        new_id[vertices] = np.arange(vertices.size, dtype=VERTEX_DTYPE)

        chunks = []
        weight_chunks = []
        counts = np.zeros(vertices.size, dtype=VERTEX_DTYPE)
        for i, v in enumerate(vertices):
            nbrs = self.neighbors(int(v))
            keep = new_id[nbrs] >= 0
            kept = new_id[nbrs[keep]]
            counts[i] = kept.size
            chunks.append(kept)
            if self.weights is not None:
                weight_chunks.append(self.neighbor_weights(int(v))[keep])
        offsets = np.zeros(vertices.size + 1, dtype=VERTEX_DTYPE)
        np.cumsum(counts, out=offsets[1:])
        indices = (
            np.concatenate(chunks)
            if chunks
            else np.empty(0, dtype=VERTEX_DTYPE)
        )
        weights = None
        if self.weights is not None:
            weights = (
                np.concatenate(weight_chunks)
                if weight_chunks
                else np.empty(0, dtype=WEIGHT_DTYPE)
            )
        sub = CSRGraph(
            offsets=offsets,
            indices=indices,
            weights=weights,
            name=f"{self.name}:sub",
        )
        return sub, vertices

    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise GraphError(
                f"vertex {v} out of range [0, {self.num_vertices})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, V={self.num_vertices}, "
            f"E={self.num_edges}, avg_deg={self.average_degree:.1f})"
        )
