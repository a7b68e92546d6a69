"""One device's share of a BSP round, and the per-iteration stats builder.

Every GPU engine runs Figure 2's round the same way.  ``pick_labels`` and
``update_vertices`` run once per iteration on the host over the global
label arrays (:func:`update_labels`); between them every device runs
:func:`device_round` over its :class:`DeviceShare`: the ``pick-label`` map
launch, the MFL pass (dense over memoized bins and launch schedules, or
sparse over a frontier slice) and the ``update-vertex`` map launch.
``GLPEngine`` runs one round, ``MultiGPUEngine`` one per partition and
``HybridEngine`` one over its resident range; each builds its
:class:`~repro.core.results.IterationStats` with :class:`StepClock`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.api import LPProgram
from repro.core.results import IterationStats
from repro.graph.csr import CSRGraph
from repro.gpusim.device import Device
from repro.kernels.base import ELEM_BYTES, KernelContext, StrategyConfig
from repro.kernels.propagate import PassResult, propagate_pass
from repro.kernels.scheduler import bin_vertices_by_degree


class DeviceShare:
    """The vertex range ``[start, stop)`` one device processes in an attempt.

    ``vertices`` is ``None`` when the share is the whole graph.  Degrees are
    static, so the dense pass's bins are built once and its launch
    schedules kept until a sparse pass drops them.  A dense pass keeps
    launch records only when the share's previous pass was dense too:
    a slide runs one dense pass and then sparse ones, so it keeps none.
    """

    def __init__(
        self,
        device: Device,
        graph: CSRGraph,
        config: StrategyConfig,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> None:
        stop = graph.num_vertices if stop is None else stop
        self.device = device
        self.graph = graph
        self.config = config
        self.num_vertices = stop - start
        self.vertices = (
            None
            if (start, stop) == (0, graph.num_vertices)
            else np.arange(start, stop, dtype=np.int64)
        )
        self.bins = None
        self.schedules: dict = {}
        #: Whether the share's last pass was dense.
        self.dense = False


def device_round(
    share: DeviceShare,
    program: LPProgram,
    picked: np.ndarray,
    frontier: Optional[np.ndarray] = None,
    *,
    pass_fn: Callable[..., PassResult] = propagate_pass,
) -> PassResult:
    """Run one device's share of a round; returns the pass's winners.

    ``picked`` is the label array ``program.pick_labels`` exposed this
    round.  ``frontier`` (sorted vertex ids inside the share) makes the
    pass sparse; ``None`` runs it dense over the whole share.
    """
    device, graph, config = share.device, share.graph, share.config
    with device.launch("pick-label"):
        account_map_kernel(device, share.num_vertices)
    ctx = KernelContext(
        device=device,
        graph=graph,
        current_labels=picked,
        program=program,
        config=config,
        schedules=None if frontier is not None else share.schedules,
        keep=share.dense,
    )
    share.dense = frontier is None
    if frontier is not None:
        share.schedules.clear()
        result = pass_fn(ctx, frontier)
    else:
        if share.bins is None:
            share.bins = bin_vertices_by_degree(
                graph,
                low_threshold=config.low_threshold,
                high_threshold=config.high_threshold,
                vertices=share.vertices,
            )
        result = pass_fn(ctx, share.vertices, bins=share.bins)
    with device.launch("update-vertex"):
        account_map_kernel(device, result.vertices.size)
    return result


def update_labels(
    program: LPProgram, results: List[PassResult], labels: np.ndarray
) -> np.ndarray:
    """``program.update_vertices`` once, over every share's winners.

    ``results`` cover disjoint vertex ranges in vertex order, so their
    sorted processed sets concatenate into one sorted set; a single
    share's arrays pass as they are.
    """
    arrays = [(r.vertices, r.best_labels, r.best_scores) for r in results]
    if len(arrays) > 1:
        arrays = [tuple(np.concatenate(column) for column in zip(*arrays))]
    return program.update_vertices(*arrays[0], labels)


def account_map_kernel(device: Device, num_vertices: int) -> None:
    """Cost of a trivial per-vertex map (PickLabel / UpdateVertex)."""
    # Same offset read and written by the same (synthetic) lane, which
    # the sanitizer recognizes as a thread updating its own slot.
    device.memory.load_sequential(num_vertices, ELEM_BYTES, array="labels")
    device.memory.store_sequential(num_vertices, ELEM_BYTES, array="labels")
    warps = -(-num_vertices // device.spec.warp_size)
    device.counters.warp_instructions += warps * 2
    device.counters.active_lane_sum += num_vertices * 2
    device.counters.warps_launched += warps


class StepClock:
    """Every device's kernel clock, transfer clock and counters at the
    start of one BSP step."""

    def __init__(self, devices: Sequence[Device]) -> None:
        self.devices = devices
        self.kernel = [device.kernel_seconds for device in devices]
        self.transfer = sum(device.transfer_seconds for device in devices)
        self.counters = [device.counters.copy() for device in devices]

    def stats(
        self,
        iteration: int,
        graph: CSRGraph,
        results: List[PassResult],
        *,
        changed_vertices: int,
        sparse: bool,
        track_frontier: bool,
        exchange_seconds: float = 0.0,
        cpu_seconds: Optional[float] = None,
    ) -> IterationStats:
        """The step's :class:`IterationStats`, read after every device
        event of the step (frontier advance and exchanges included).

        ``results`` are the step's passes; their vertices are the processed
        set.  Kernel time is the slowest device's, counters are the sum.
        ``seconds`` adds the devices' transfer clocks and the modeled
        ``exchange_seconds`` to the kernel time, or to ``max(kernel,
        cpu_seconds)`` when a CPU share ran concurrently, evaluated as
        ``k1 - k0 + t1 - t0`` of running totals.
        """
        kernel = max(
            device.kernel_seconds - before
            for device, before in zip(self.devices, self.kernel)
        )
        compute = kernel if cpu_seconds is None else max(kernel, cpu_seconds)
        transfer = sum(device.transfer_seconds for device in self.devices)
        counters = [
            device.counters.delta_since(before)
            for device, before in zip(self.devices, self.counters)
        ]
        for delta in counters[1:]:
            counters[0].add(delta)
        kernel_stats: dict = {}
        for result in results:
            for key, value in result.stats.items():
                kernel_stats[key] = kernel_stats.get(key, 0) + value
        kernel_stats["pass_mode"] = "sparse" if sparse else "dense"
        frontier_size = sum(int(result.vertices.size) for result in results)
        if track_frontier:
            kernel_stats["frontier_fraction"] = (
                frontier_size / graph.num_vertices
                if graph.num_vertices
                else 0.0
            )
        if cpu_seconds is not None:
            # Kept per-iteration (not a running total) so a fault-retried
            # iteration never double-counts.
            kernel_stats["cpu_seconds"] = cpu_seconds
        return IterationStats(
            iteration=iteration,
            seconds=compute + transfer - self.transfer + exchange_seconds,
            kernel_seconds=kernel,
            transfer_seconds=transfer - self.transfer + exchange_seconds,
            changed_vertices=changed_vertices,
            counters=counters[0],
            kernel_stats=kernel_stats,
            frontier_size=frontier_size,
            processed_edges=sum(
                int(graph.degrees[result.vertices].sum())
                for result in results
            ),
        )
