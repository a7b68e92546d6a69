"""Multicore CPU cost model and the shared CPU engine skeleton.

The CPU baselines execute the *same* functional label updates as the GPU
engines (via the shared :mod:`repro.kernels.mfl` helpers) and differ only in
their timing model.  LP on CPUs is bound by random memory access — each edge
reads a label at an unpredictable address — so the model charges a
cache-miss-dominated cost per edge, divided over cores, plus per-iteration
synchronization.

The default spec models the paper's Intel Xeon W-2133 workstation
(6 cores / 12 threads, quad-channel DDR4): an optimized multicore LP
sustains ~35 M edges/core/s (label gather with hardware prefetch on the CSR
stream, counter update in L1-resident maps), i.e. ~200+ M edges/s across
the socket — in line with published shared-memory LP throughputs
(Ligra-class systems).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.api import LPProgram
from repro.core.driver import BSPEngine, BSPRun, drive
from repro.core.results import IterationStats
from repro.graph.csr import CSRGraph
from repro.gpusim.counters import PerfCounters
from repro.kernels import mfl
from repro.kernels.frontier import FrontierConfig
from repro.scaling import TIME_SCALE


@dataclass(frozen=True)
class CPUSpec:
    """Static description of a multicore host.

    Attributes
    ----------
    edges_per_core_per_second:
        Sustained LP edge-processing rate per core (label gather + counter
        update, cache-miss bound).
    sync_seconds:
        Per-iteration barrier/fork-join overhead.
    per_vertex_overhead:
        Per-vertex bookkeeping cost in seconds (loop + MFL select).
    """

    name: str = "Xeon-W-2133"
    num_cores: int = 6
    num_threads: int = 12
    edges_per_core_per_second: float = 35e6
    sync_seconds: float = 20e-6 * TIME_SCALE
    per_vertex_overhead: float = 8e-9


#: The paper's workstation CPU (Sections 5.1-5.3).
XEON_W2133 = CPUSpec()

#: One machine of the TaoBao cluster: 4x Xeon Platinum 8168 (24 cores each).
XEON_PLATINUM_8168_X4 = CPUSpec(
    name="4x-Xeon-Platinum-8168",
    num_cores=96,
    num_threads=192,
    edges_per_core_per_second=10e6,  # NUMA penalty on random access
    sync_seconds=50e-6 * TIME_SCALE,
    per_vertex_overhead=8e-9,
)


class CPUEngineBase(BSPEngine):
    """The shared CPU step for the BSP driver.

    A CPU engine drives no device and never tracks a frontier: its carry
    is last round's changed set, which :meth:`_active_vertices` may use to
    sparsify (Ligra).  Each step runs PickLabel, then expand / aggregate /
    select / UpdateVertex over the active set in ``num_blocks`` contiguous
    blocks; with more than one block, later blocks read the labels
    earlier blocks just wrote (block-asynchronous sweeps).  Subclasses
    override :meth:`_iteration_seconds` (the timing model) and may
    override :meth:`_active_vertices`.
    """

    name = "cpu"
    #: Dense: ``drive`` ignores ``initial_frontier`` as for any dense engine.
    frontier = FrontierConfig()
    num_blocks = 1

    def __init__(self, spec: CPUSpec = XEON_W2133) -> None:
        self.spec = spec

    #: The shared BSP loop (:func:`repro.core.driver.drive`).
    run = drive

    @property
    def devices(self) -> list:
        """Empty: the CPU has no simulated device to reset or fault."""
        return []

    def _initial_carry(self, initial: Optional[np.ndarray]) -> dict:
        """Carry: last round's changed vertex ids (``None`` before round 1)."""
        return {"changed": None}

    @contextlib.contextmanager
    def _attempt(self, run: BSPRun):
        """No residency to hold; yields the CPU step."""
        graph, program = run.graph, run.program

        def step(iteration: int):
            labels = run.labels
            picked = program.pick_labels(graph, labels, iteration)
            active = self._active_vertices(
                graph, program, run.carry["changed"]
            )
            if self.num_blocks == 1:
                blocks = [active]  # ``None`` expands the whole graph
            else:
                vertices = (
                    np.arange(graph.num_vertices, dtype=np.int64)
                    if active is None
                    else active
                )
                bounds = np.linspace(
                    0, vertices.size, self.num_blocks + 1
                ).astype(np.int64)
                blocks = [
                    vertices[lo:hi]
                    for lo, hi in zip(bounds[:-1], bounds[1:])
                    if hi > lo
                ]
            # Asynchrony: with several blocks, later blocks read the labels
            # earlier blocks wrote, through a private copy of the picks.
            working = (
                picked
                if len(blocks) == 1
                else picked.astype(labels.dtype, copy=True)
            )
            new_labels = labels
            edges = processed = 0
            for block in blocks:
                batch = mfl.expand_edges(graph, block)
                groups = mfl.aggregate_label_frequencies(
                    program, batch, working
                )
                best_labels, best_scores = mfl.select_best_labels(
                    program, groups, batch.vertices, working
                )
                new_labels = program.update_vertices(
                    batch.vertices, best_labels, best_scores, new_labels
                )
                edges += batch.num_edges
                processed += batch.vertices.size
                if working is not picked:
                    working[batch.vertices] = new_labels[batch.vertices]
            changed = np.flatnonzero(new_labels != labels)
            run.carry["changed"] = changed
            seconds = self._iteration_seconds(
                graph, active_edges=edges, active_vertices=processed
            )
            stats = IterationStats(
                iteration=iteration,
                seconds=seconds,
                kernel_seconds=seconds,
                transfer_seconds=0.0,
                changed_vertices=int(changed.size),
                counters=PerfCounters(),
                kernel_stats={
                    "pass_mode": "sparse" if active is not None else "dense"
                },
                frontier_size=processed,
                processed_edges=edges,
            )
            return new_labels, stats, {}

        yield step

    def _finish(self, run: BSPRun) -> None:
        """No residual frontier: CPU runs are dense."""
        return None

    # ------------------------------------------------------------------
    def _active_vertices(
        self,
        graph: CSRGraph,
        program: LPProgram,
        changed: Optional[np.ndarray],
    ) -> Optional[np.ndarray]:
        """Vertex subset to process this iteration (``None`` = all)."""
        return None

    def _iteration_seconds(
        self, graph: CSRGraph, *, active_edges: int, active_vertices: int
    ) -> float:
        raise NotImplementedError
