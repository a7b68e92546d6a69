"""OpenMP-style multicore LP engine.

Models an OpenMP ``parallel for`` with dynamic scheduling over vertices:
edge work divides over hardware threads (bounded below by the heaviest
single vertex — one vertex cannot split), plus a fork-join barrier per
iteration.

OMP is the *normalization baseline* of Figures 4-6: every other approach is
reported as a speedup over this engine.
"""

from __future__ import annotations

from repro.baselines.cpumodel import CPUEngineBase
from repro.graph.csr import CSRGraph


class OMPEngine(CPUEngineBase):
    """Dynamic-scheduled parallel-for over vertices."""

    name = "OMP"

    def _iteration_seconds(
        self, graph: CSRGraph, *, active_edges: int, active_vertices: int
    ) -> float:
        spec = self.spec
        threads = spec.num_threads
        # Hyperthreads share memory ports: scale throughput by cores but
        # grant a modest SMT benefit on this latency-bound workload.
        effective_rate = (
            spec.edges_per_core_per_second * spec.num_cores * 1.3
        )
        balanced = active_edges / effective_rate
        straggler = graph.max_degree / spec.edges_per_core_per_second
        compute = max(balanced, straggler)
        vertex_overhead = (
            active_vertices * spec.per_vertex_overhead / threads
        )
        return compute + vertex_overhead + spec.sync_seconds
