"""Single-thread CPU reference engines (synchronous and block-asynchronous).

:class:`SerialEngine` is the ground truth for every differential test: all
parallel engines (CPU, GPU, hybrid, multi-GPU, distributed) must produce
byte-identical labels for deterministic programs, because every
implementation shares the same MFL semantics (score maximization, ties to
the smaller label).

:class:`BlockAsyncSerialEngine` is the asynchronous-update extension noted
in DESIGN.md: vertices are processed in blocks, and later blocks see the
labels earlier blocks just wrote (Gauss-Seidel style).  Asynchronous LP
converges faster and cannot oscillate on bipartite structures — the classic
trade-off against the bulk-synchronous model GPUs prefer.
"""

from __future__ import annotations

from repro.baselines.cpumodel import CPUEngineBase, CPUSpec, XEON_W2133
from repro.errors import ConvergenceError
from repro.graph.csr import CSRGraph


class SerialEngine(CPUEngineBase):
    """One core, synchronous updates, no synchronization overhead."""

    name = "Serial"

    def _iteration_seconds(
        self, graph: CSRGraph, *, active_edges: int, active_vertices: int
    ) -> float:
        return (
            active_edges / self.spec.edges_per_core_per_second
            + active_vertices * self.spec.per_vertex_overhead
        )


class BlockAsyncSerialEngine(SerialEngine):
    """Block-asynchronous (Gauss-Seidel) LP.

    Each iteration sweeps the vertex set in ``num_blocks`` contiguous
    blocks; block ``i+1`` reads the labels block ``i`` just produced (the
    shared CPU step of :class:`~repro.baselines.cpumodel.CPUEngineBase`).
    With ``num_blocks == 1`` this degenerates to the synchronous engine.
    """

    name = "Serial-Async"

    def __init__(
        self, spec: CPUSpec = XEON_W2133, *, num_blocks: int = 8
    ) -> None:
        super().__init__(spec)
        if num_blocks <= 0:
            raise ConvergenceError("num_blocks must be positive")
        self.num_blocks = num_blocks
