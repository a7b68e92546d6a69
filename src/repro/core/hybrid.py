"""CPU-GPU hybrid execution for graphs exceeding device memory.

Section 3.1: "In the case of large graphs that cannot fit into the GPU
memory, the CPUs can coordinate the CPU-GPU graph data movement as well as
handle PickLabel and UpdateVertex.  The heavy lifting of processing
LabelPropagation is then handled by one or multiple GPUs."

Design — persistent residency + CPU co-processing:

* The CSR is split into contiguous vertex chunks; as many as fit stay
  **resident** on the device for the whole run (the CSR is read-only, so
  they upload exactly once).
* The device charges the shared device round over the resident range
  (:func:`~repro.core.device_round.device_round`: the pick-label and
  update-vertex map launches and the MFL pass), exactly as ``GLPEngine``
  charges it over the whole graph.
* The overflow chunks are **not** streamed every iteration — PCIe at
  12 GB/s can never keep up with HBM2 kernels, so re-shipping gigabytes per
  iteration would drown the GPU.  Instead the host CPU co-processes the
  overflow vertices with the same MFL semantics, in parallel with the GPU's
  kernels (the "CPU-GPU heterogeneous mode").  The CPU also computes the
  frontier, so no frontier kernel runs on the device.
* For ``frontier_safe`` programs (classic and seeded LP) the CPU share is
  frontier-sparsified: an overflow vertex is recomputed only when one of
  its in-neighbors changed label, which after the first iterations shrinks
  the CPU share to a trickle.
* Per iteration only *label deltas* cross PCIe (changed ``(id, label)``
  pairs in both directions) — which is how the visible memory-transfer
  overhead stays below 10 % of elapsed time, the paper's Section 5.4 claim.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro import obs
from repro.baselines.cpumodel import CPUSpec, XEON_W2133
from repro.core.api import LPProgram
from repro.core.device_round import (
    DeviceShare,
    StepClock,
    device_round,
    update_labels,
)
from repro.core.driver import BSPEngine, BSPRun, drive
from repro.core.framework import GLPEngine, device_footprint
from repro.errors import DeviceFault, OutOfDeviceMemoryError
from repro.graph.csr import CSRGraph
from repro.graph.partition import VertexPartition, partition_by_edge_count
from repro.gpusim import hooks
from repro.gpusim.config import TITAN_V, DeviceSpec
from repro.gpusim.device import Device
from repro.kernels import mfl
from repro.kernels.base import ELEM_BYTES, GLP_DEFAULT, StrategyConfig
from repro.kernels.frontier import (
    FrontierConfig,
    changed_out_neighbors,
    prune_pinned,
    resolve_frontier,
    use_sparse_pass,
)
from repro.kernels.propagate import PassResult


#: Fraction of device memory a run may fill: :func:`run_auto` admits the
#: all-resident engine below it, and the hybrid residency planner packs
#: chunks up to it.
RESIDENCY_FRACTION = 0.9


@dataclass(frozen=True)
class HybridStats:
    """Aggregate hybrid-mode measurements over a run.

    ``elapsed_seconds`` is the modeled wall clock: per iteration the GPU
    kernels and the CPU share run *concurrently*, so the iteration costs
    ``max(kernel, cpu) + transfer`` — summing the three shares would count
    overlapped work twice.
    """

    num_chunks: int
    num_resident_chunks: int
    resident_edge_fraction: float
    h2d_bytes: int
    visible_transfer_seconds: float
    kernel_seconds: float
    cpu_seconds: float
    elapsed_seconds: float = 0.0

    @property
    def transfer_fraction(self) -> float:
        """Visible transfer share of elapsed time (paper: < 10 %).

        The denominator is the modeled elapsed time (``max(kernel, cpu)
        + transfer`` per iteration), not ``kernel + cpu + transfer`` —
        the GPU and CPU shares overlap, so the serial sum overstates the
        run time and understated this fraction.
        """
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.visible_transfer_seconds / self.elapsed_seconds


class HybridEngine(BSPEngine):
    """CPU-GPU hybrid GLP engine (resident chunks + CPU overflow).

    Parameters
    ----------
    device:
        Simulated GPU (fresh Titan V by default).  The graph is expected
        *not* to fit its memory — otherwise prefer
        :class:`~repro.core.framework.GLPEngine`.
    cpu_spec:
        The host CPU that co-processes overflow vertices.
    frontier:
        Frontier execution policy for the *GPU resident range* (the CPU
        overflow share is always frontier-sparsified for safe programs).
        The reversed CSR stays host-side — the CPU coordinates hybrid mode,
        so it computes the frontier and ships the resident slice's ids over
        PCIe each iteration (counted as transfer time).
    """

    name = "GLP-Hybrid"

    def __init__(
        self,
        device: Optional[Device] = None,
        *,
        config: StrategyConfig = GLP_DEFAULT,
        spec: DeviceSpec = TITAN_V,
        cpu_spec: CPUSpec = XEON_W2133,
        frontier: "FrontierConfig | str" = "dense",
    ) -> None:
        self.device = device if device is not None else Device(spec)
        self.config = config
        self.cpu_spec = cpu_spec
        self.frontier = resolve_frontier(frontier)
        self.last_stats: Optional[HybridStats] = None

    # ------------------------------------------------------------------
    def _chunk_bytes(self, graph: CSRGraph, chunk: VertexPartition) -> int:
        per_edge = ELEM_BYTES * (2 if graph.weights is not None else 1)
        return chunk.num_edges * per_edge

    def _plan(self, graph: CSRGraph):
        """Split into chunks; the resident prefix fills the device."""
        label_bytes = (graph.num_vertices + 1) * ELEM_BYTES
        # offsets + labels + out + scores, plus a transient slot for the
        # per-iteration delta-label buffers.
        always_resident = 5 * label_bytes
        budget = (
            int(self.device.spec.global_mem_bytes * RESIDENCY_FRACTION)
            - always_resident
        )
        if budget <= 0:
            raise OutOfDeviceMemoryError(
                "device too small to hold even the label arrays"
            )
        per_edge = ELEM_BYTES * (2 if graph.weights is not None else 1)
        max_edges = max(1, budget // (64 * per_edge))
        chunks = partition_by_edge_count(graph, max_edges)

        resident: List[VertexPartition] = []
        overflow: List[VertexPartition] = []
        used = 0
        for chunk in chunks:
            nbytes = self._chunk_bytes(graph, chunk)
            if not overflow and used + nbytes <= budget:
                resident.append(chunk)
                used += nbytes
            else:
                overflow.append(chunk)
        return chunks, resident, overflow

    def _cpu_rate(self) -> float:
        """Host edge-processing rate for the co-processed share."""
        return (
            self.cpu_spec.edges_per_core_per_second
            * self.cpu_spec.num_cores
            * 1.3
        )

    # ------------------------------------------------------------------
    #: The shared BSP loop (:func:`repro.core.driver.drive`).
    run = drive

    def _initial_carry(self, initial: Optional[np.ndarray]) -> dict:
        """Carry: last round's changed set, plus the affected set that
        seeds a sparse iteration 1 (``None`` past iteration 1)."""
        return {"prev_changed": None, "initial_frontier": initial}

    @contextlib.contextmanager
    def _attempt(self, run: BSPRun):
        """Chunk residency for one attempt; yields the BSP step."""
        device = self.device
        graph, program = run.graph, run.program
        track_frontier = run.track_frontier
        _, resident, overflow = self._plan(graph)
        overflow_start = overflow[0].start if overflow else graph.num_vertices
        share = (
            DeviceShare(
                device, graph, self.config, resident[0].start, resident[-1].stop
            )
            if resident
            else None
        )

        # One-time residency uploads (window setup, not per-iteration
        # time).  The planner's own estimate — the always-resident label
        # arrays plus the chunk bytes it admitted — is noted to the memory
        # tracker so the watermark report can grade it against the
        # measured peak.
        tracker = hooks.MEMORY.get()
        if tracker is not None:
            label_bytes = (graph.num_vertices + 1) * ELEM_BYTES
            tracker.note_prediction(
                self.name,
                device,
                5 * label_bytes
                + sum(self._chunk_bytes(graph, c) for c in resident),
                source="hybrid.plan",
            )
        persistent = []
        try:
            with obs.alloc_scope("csr", "hybrid.residency"):
                persistent.append(device.h2d(graph.offsets))
            with obs.alloc_scope("labels", "hybrid.residency"):
                persistent.append(device.h2d(run.labels))
                persistent.append(
                    device.alloc(run.labels.shape, run.labels.dtype)
                )
            with obs.alloc_scope("scratch", "hybrid.scores"):
                persistent.append(
                    device.alloc(run.labels.shape, np.float64)
                )
            with obs.alloc_scope("csr", "hybrid.residency"):
                for chunk in resident:
                    edges = slice(chunk.edge_start, chunk.edge_stop)
                    persistent.append(device.h2d(graph.indices[edges]))
                    if graph.weights is not None:
                        persistent.append(device.h2d(graph.weights[edges]))

            def step(iteration: int):
                labels = run.labels
                prev_changed = run.carry["prev_changed"]
                initial = (
                    run.carry["initial_frontier"] if iteration == 1 else None
                )
                clock = StepClock(self.devices)
                picked = program.pick_labels(graph, labels, iteration)

                # Host -> device: ship the labels that changed last round
                # ((id, label) int32 pairs — a stream, not an allocation).
                # An incremental start only ships the affected set's
                # labels.
                if iteration == 1:
                    up_count = (
                        int(initial.size)
                        if initial is not None
                        else graph.num_vertices
                    )
                else:
                    up_count = int(prev_changed.size)
                if up_count:
                    with obs.alloc_scope("exchange", "hybrid.label-deltas"):
                        device.stream_to_device(2 * up_count * 4)

                # The active frontier (sorted unique out-neighbors of last
                # round's changed vertices — or the caller's affected set
                # at an incremental iteration 1), computed once per
                # iteration on the host and sliced by both execution
                # shares.
                frontier_candidates = None
                if program.frontier_safe and iteration > 1:
                    frontier_candidates = changed_out_neighbors(
                        graph, prev_changed
                    )
                elif initial is not None:
                    frontier_candidates = initial
                if frontier_candidates is not None:
                    frontier_candidates = prune_pinned(
                        frontier_candidates, run.pinned
                    )

                # GPU: the resident range through the shared device round,
                # sparsified to the active frontier when tracking is on.
                results = []
                sparse = False
                if share is not None:
                    frontier_slice = None
                    if track_frontier and frontier_candidates is not None:
                        frontier_slice = frontier_candidates[
                            : np.searchsorted(
                                frontier_candidates, overflow_start
                            )
                        ]
                        sparse = use_sparse_pass(
                            self.frontier,
                            frontier_slice.size,
                            share.num_vertices,
                        )
                    if sparse and frontier_slice.size:
                        # The host computed the frontier; ship the ids of
                        # the resident slice to the device.
                        with obs.alloc_scope(
                            "exchange", "hybrid.frontier-ids"
                        ):
                            device.stream_to_device(frontier_slice.size * 8)
                    results.append(
                        device_round(
                            share,
                            program,
                            picked,
                            frontier_slice if sparse else None,
                        )
                    )

                # CPU: overflow ranges, frontier-sparsified when safe.
                cpu_seconds = 0.0
                if overflow:
                    # Without a frontier (a dense round, or a program that
                    # is not frontier-safe) the CPU sweeps its whole range.
                    active = (
                        np.arange(
                            overflow_start, graph.num_vertices, dtype=np.int64
                        )
                        if frontier_candidates is None
                        else frontier_candidates[
                            np.searchsorted(frontier_candidates, overflow_start) :
                        ]
                    )
                    batch = mfl.expand_edges(graph, active)
                    groups = mfl.aggregate_label_frequencies(
                        program, batch, picked
                    )
                    results.append(
                        PassResult(
                            active,
                            *mfl.select_best_labels(
                                program, groups, active, picked
                            ),
                            bins=None,
                            stats={},
                        )
                    )
                    if active.size:
                        cpu_seconds = (
                            batch.num_edges / self._cpu_rate()
                            + self.cpu_spec.sync_seconds
                        )
                # Without a resident range the overflow is every vertex,
                # so ``results`` is never empty.
                new_labels = update_labels(program, results, labels)
                changed_mask = new_labels != labels
                changed = int(np.count_nonzero(changed_mask))
                run.carry["prev_changed"] = np.flatnonzero(changed_mask)
                run.carry["initial_frontier"] = None

                # Device -> host: the winners that moved.
                if changed:
                    with obs.alloc_scope("exchange", "hybrid.label-deltas"):
                        device.stream_to_host(2 * changed * 4)

                stats = clock.stats(
                    iteration,
                    graph,
                    results,
                    changed_vertices=changed,
                    sparse=sparse,
                    track_frontier=track_frontier,
                    # GPU and CPU shares run concurrently.
                    cpu_seconds=cpu_seconds,
                )
                m = obs.metrics()
                if m is not None:
                    m.observe(
                        "hybrid_cpu_seconds", cpu_seconds, engine=self.name
                    )
                return new_labels, stats, {"cpu_seconds": cpu_seconds}

            yield step
        finally:
            for handle in persistent:
                device.free(handle)

    def _finish(self, run: BSPRun) -> Optional[np.ndarray]:
        """Publish :attr:`last_stats`; returns the residual frontier."""
        graph, iterations = run.graph, run.iterations
        chunks, resident, _ = self._plan(graph)
        resident_edges = sum(c.num_edges for c in resident)
        self.last_stats = HybridStats(
            num_chunks=len(chunks),
            num_resident_chunks=len(resident),
            resident_edge_fraction=(
                resident_edges / graph.num_edges if graph.num_edges else 1.0
            ),
            h2d_bytes=self.device.counters.h2d_bytes,
            visible_transfer_seconds=sum(
                stats.transfer_seconds for stats in iterations
            ),
            kernel_seconds=sum(
                stats.kernel_seconds for stats in iterations
            ),
            cpu_seconds=sum(
                stats.kernel_stats.get("cpu_seconds", 0.0)
                for stats in iterations
            ),
            elapsed_seconds=sum(stats.seconds for stats in iterations),
        )
        m = obs.metrics()
        if m is not None:
            m.set_gauge(
                "hybrid_resident_edge_fraction",
                self.last_stats.resident_edge_fraction,
                engine=self.name,
            )
            m.set_gauge(
                "hybrid_transfer_fraction",
                self.last_stats.transfer_fraction,
                engine=self.name,
            )
        if not run.track_frontier:
            return None
        # The residual frontier: out-neighbors of the final round's
        # changed vertices (host-side, like every hybrid frontier).
        return prune_pinned(
            changed_out_neighbors(graph, run.carry["prev_changed"]),
            run.pinned,
        )


def _record_degradation(source: str, target: str, fault: Exception) -> None:
    kind = getattr(fault, "kind", "oom")
    m = obs.metrics()
    if m is not None:
        m.inc(
            "resilience_degradations_total",
            source=source,
            target=target,
            kind=kind,
        )
    obs.emit(
        "resilience.degradation",
        source=source,
        target=target,
        kind=kind,
        error=type(fault).__name__,
    )
    # A ladder step means the configured engine could not hold the run —
    # capture the post-mortem while the causal chain is still in the ring.
    obs.flight_dump("degradation", source=source, target=target, kind=kind)


def run_ladder(
    primary,
    attempt,
    run_kwargs: dict,
    *,
    degrade: bool = True,
    hybrid=None,
):
    """Run ``attempt`` on ``primary``, stepping down on device failure.

    ``attempt(engine, kwargs)`` runs one rung.  The primary gets every
    kwarg in ``run_kwargs``; a fallback rung gets all but
    ``initial_frontier`` (so a hybrid or serial rung still recovers under
    ``retry_policy``): it reruns the full computation, so a fault can
    degrade the engine but never the answer.  On device OOM or an
    unrecovered :class:`~repro.errors.DeviceFault` the run steps down to
    the hybrid engine (skipped when ``primary`` is one), then to
    ``baselines.cpu_serial.SerialEngine``, which needs no device at all.
    Each step records the degradation and runs the next rung inside a
    ``detector-degrade`` span.  With ``degrade=False``, or when no rung is
    left, the fault is re-raised after an ``unrecovered-fault`` flight
    dump.  Rungs are built only after a fault.

    ``hybrid`` builds the hybrid rung; by default it gets the primary's
    device spec with the default kernel config and a dense frontier.
    Returns ``(result, engine)``.
    """
    from repro.baselines.cpu_serial import SerialEngine

    try:
        return attempt(primary, run_kwargs), primary
    except (OutOfDeviceMemoryError, DeviceFault) as fault:
        failure, source = fault, primary
    fallback_kwargs = {
        k: v for k, v in run_kwargs.items() if k != "initial_frontier"
    }
    rungs = []
    if degrade:
        if hybrid is None:
            # Only device engines fault, so the primary has devices.
            hybrid = functools.partial(
                HybridEngine, spec=primary.devices[0].spec
            )
        if not isinstance(primary, HybridEngine):
            rungs.append(hybrid)
        rungs.append(SerialEngine)
    for build in rungs:
        rung = build()
        kind = getattr(failure, "kind", "oom")
        _record_degradation(source.name, rung.name, failure)
        with obs.span(
            "detector-degrade",
            cat="resilience",
            source=source.name,
            target=rung.name,
            kind=kind,
        ):
            try:
                return attempt(rung, fallback_kwargs), rung
            except (OutOfDeviceMemoryError, DeviceFault) as fault:
                failure, source = fault, rung
    obs.flight_dump(
        "unrecovered-fault",
        engine=source.name,
        kind=getattr(failure, "kind", "oom"),
        error=type(failure).__name__,
    )
    raise failure


def run_auto(
    graph: CSRGraph,
    program: LPProgram,
    *,
    spec: DeviceSpec = TITAN_V,
    config: StrategyConfig = GLP_DEFAULT,
    frontier: "FrontierConfig | str" = "dense",
    degrade: bool = True,
    **run_kwargs,
):
    """Pick an engine by device footprint, degrading on device failure.

    The all-resident :class:`~repro.core.framework.GLPEngine` is chosen
    when the graph's *actual* residency (see :func:`device_footprint`)
    fits under :data:`RESIDENCY_FRACTION` of the device, the
    :class:`HybridEngine` when it does not; the run then goes through
    :func:`run_ladder` (GPU -> hybrid -> CPU), whose hybrid rung keeps
    ``spec``/``config``/``frontier``.  Set ``degrade=False`` to raise on
    device failure instead.

    Returns ``(result, engine)`` — the engine exposes mode-specific stats
    (e.g. ``HybridEngine.last_stats``).
    """
    hybrid = functools.partial(
        HybridEngine, spec=spec, config=config, frontier=frontier
    )
    needed = device_footprint(graph, program, frontier=frontier)
    if needed <= spec.global_mem_bytes * RESIDENCY_FRACTION:
        primary = GLPEngine(spec=spec, config=config, frontier=frontier)
    else:
        primary = hybrid()
    return run_ladder(
        primary,
        lambda engine, kwargs: engine.run(graph, program, **kwargs),
        run_kwargs,
        degrade=degrade,
        hybrid=hybrid,
    )
