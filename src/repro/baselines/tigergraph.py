"""TigerGraph-style LP engine.

TigerGraph executes GSQL accumulators through a message-passing runtime:
every edge materializes a (label) message into per-vertex MapAccum state,
with serialization and task-queue overhead on top of raw edge processing.
The paper runs TG's stock LP implementation and finds it slower than both
OMP and Ligra (Figure 4); TG also only ships classic LP, so — like the
paper — this engine refuses other variants.
"""

from __future__ import annotations

from repro.algorithms.classic import ClassicLP
from repro.baselines.cpumodel import CPUEngineBase
from repro.core.api import LPProgram
from repro.core.driver import drive
from repro.core.results import LPResult
from repro.errors import ProgramError
from repro.graph.csr import CSRGraph

#: Message materialization + accumulator overhead per edge relative to the
#: raw OMP edge cost (TG processes ~3-4x slower in published comparisons).
_MESSAGE_OVERHEAD_FACTOR = 3.5


class TigerGraphEngine(CPUEngineBase):
    """Message-passing multicore engine (classic LP only)."""

    name = "TG"

    def run(self, graph: CSRGraph, program: LPProgram, **kwargs) -> LPResult:
        if not isinstance(program, ClassicLP):
            raise ProgramError(
                "TigerGraph's stock implementation only supports classic LP "
                f"(got {program.name!r}); the paper omits TG for LLP/SLP too"
            )
        return drive(self, graph, program, **kwargs)

    def _iteration_seconds(
        self, graph: CSRGraph, *, active_edges: int, active_vertices: int
    ) -> float:
        spec = self.spec
        effective_rate = (
            spec.edges_per_core_per_second
            * spec.num_cores
            * 1.3
            / _MESSAGE_OVERHEAD_FACTOR
        )
        compute = active_edges / effective_rate
        accumulator_overhead = active_vertices * 30e-9
        return compute + accumulator_overhead + spec.sync_seconds * 4
