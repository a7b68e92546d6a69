"""Ligra-style frontier-based LP engine (Shun & Blelloch, 2013).

Ligra's edgeMap processes only *active* vertices.  For LP a vertex's MFL can
change only if some in-neighbor changed its label last iteration, so when
the program declares itself ``frontier_safe`` (classic LP does) the engine
sparsifies: the active set is the out-neighborhood of last iteration's
changed vertices.  Programs with global score state (LLP) or randomized
picks (SLP) fall back to dense iterations — where Ligra performs like OMP,
matching the paper's observation that "OMP and Ligra show similar
performance on most of the datasets".

The frontier machinery itself costs time (building the active set, switching
between sparse/dense representations), modeled as a per-active-vertex
overhead on top of the OMP-style compute model.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.cpumodel import CPUEngineBase
from repro.core.api import LPProgram
from repro.graph.csr import CSRGraph
from repro.kernels.frontier import changed_out_neighbors
from repro.scaling import TIME_SCALE


class LigraEngine(CPUEngineBase):
    """Frontier-sparsified multicore engine."""

    name = "Ligra"

    def _active_vertices(
        self,
        graph: CSRGraph,
        program: LPProgram,
        changed: Optional[np.ndarray],
    ) -> Optional[np.ndarray]:
        if not program.frontier_safe or changed is None:
            return None
        # Dense mode is cheaper once many vertices are active: go dense
        # when more than |V|/20 vertices changed last round.
        if changed.size > graph.num_vertices // 20:
            return None
        return changed_out_neighbors(graph, changed)

    def _iteration_seconds(
        self, graph: CSRGraph, *, active_edges: int, active_vertices: int
    ) -> float:
        spec = self.spec
        effective_rate = (
            spec.edges_per_core_per_second * spec.num_cores * 1.3
        )
        balanced = active_edges / effective_rate
        straggler = graph.max_degree / spec.edges_per_core_per_second
        compute = max(balanced, straggler) if active_edges else 0.0
        frontier_overhead = active_vertices * 2e-9 + 5e-6 * TIME_SCALE
        return compute + frontier_overhead + spec.sync_seconds
