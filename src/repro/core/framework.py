"""The GLP engine: bulk-synchronous iteration over a device-resident graph.

Each iteration runs the three components of Figure 2:

1. **PickLabel** — ``program.pick_labels`` decides the label every vertex
   exposes this round (a trivial map kernel on the device);
2. **LabelPropagation** — the degree-binned MFL kernels of Section 4;
3. **UpdateVertex** — ``program.update_vertices`` folds the winners into
   vertex state and emits next labels (another map kernel).

The engine owns the device residency of the CSR arrays and both label
arrays; construction fails with
:class:`~repro.errors.OutOfDeviceMemoryError` when they do not fit — that is
the signal to use :class:`~repro.core.hybrid.HybridEngine` instead.

**Frontier execution.**  With ``frontier="frontier"`` or ``"auto"`` and a
``frontier_safe`` program, the engine tracks the set of vertices whose label
changed, advances the active frontier through the reversed CSR (uploaded
next to the forward CSR, together with the frontier bitmap), and runs the
LabelPropagation pass over only that subset.  ``"auto"`` adds the
Beamer-style direction-optimizing fallback: once the frontier fraction
exceeds ``FrontierConfig.dense_threshold`` the degree-binned dense pass is
already the better schedule, so the engine switches back to it for that
iteration.  Iteration 1 is dense (every vertex must see its neighborhood
once) — unless the caller seeds an ``initial_frontier`` of the only
vertices that can change, in which case iteration 1 runs sparse over that
set and the run re-converges in O(changes) (incremental window slides;
see ``docs/incremental_lp.md``).  Programs that are not ``frontier_safe``
silently run dense — label trajectories are bitwise identical across all
three modes.
"""

from __future__ import annotations

import contextlib
from typing import Optional

import numpy as np

from repro import obs
from repro.core.driver import BSPEngine, BSPRun, drive
from repro.core.results import IterationStats
from repro.errors import ConvergenceError
from repro.gpusim import hooks
from repro.gpusim.config import TITAN_V, DeviceSpec
from repro.gpusim.device import Device
from repro.kernels.base import ELEM_BYTES, GLP_DEFAULT, KernelContext, StrategyConfig
from repro.kernels.frontier import (
    FrontierConfig,
    next_frontier,
    prune_pinned,
    resolve_frontier,
    use_sparse_pass,
)
from repro.kernels.propagate import propagate_pass, segmented_sort_pass
from repro.kernels.scheduler import bin_vertices_by_degree


class GLPEngine(BSPEngine):
    """Run LP programs on one simulated GPU.

    Parameters
    ----------
    device:
        A :class:`~repro.gpusim.device.Device`; a fresh Titan V is created
        when omitted.
    config:
        Kernel strategy selection (defaults to the full GLP configuration).
    pass_kind:
        "binned" for GLP's degree-dispatched kernels, "gsort" to force the
        segmented-sort strategy over all vertices (the G-Sort baseline).
    frontier:
        Frontier execution policy: a mode string (``"dense"``,
        ``"frontier"``, ``"auto"``) or a full
        :class:`~repro.kernels.frontier.FrontierConfig`.
    """

    name = "GLP"

    def __init__(
        self,
        device: Optional[Device] = None,
        *,
        config: StrategyConfig = GLP_DEFAULT,
        pass_kind: str = "binned",
        spec: DeviceSpec = TITAN_V,
        frontier: "FrontierConfig | str" = "dense",
    ) -> None:
        if pass_kind not in ("binned", "gsort"):
            raise ConvergenceError(f"unknown pass_kind {pass_kind!r}")
        self.device = device if device is not None else Device(spec)
        self.config = config
        self.pass_kind = pass_kind
        self.frontier = resolve_frontier(frontier)

    #: The shared BSP loop (:func:`repro.core.driver.drive`).
    run = drive

    # ------------------------------------------------------------------
    def _initial_carry(self, initial: Optional[np.ndarray]) -> dict:
        """Carry: the active frontier (``None`` means a dense round)."""
        return {"frontier_vertices": initial}

    @contextlib.contextmanager
    def _attempt(self, run: BSPRun):
        """Device residency for one attempt; yields the BSP step."""
        device = self.device
        graph, program = run.graph, run.program
        track_frontier = run.track_frontier
        reversed_graph = graph.reversed() if track_frontier else None

        # Device residency: CSR arrays + the double-buffered label arrays,
        # plus — in frontier mode — the reversed CSR and the frontier
        # bitmap.  Each upload is tagged with its semantic category so the
        # memory tracker (when installed) attributes the watermark
        # correctly.
        tracker = hooks.MEMORY.get()
        if tracker is not None:
            from repro.core.hybrid import device_footprint

            tracker.note_prediction(
                self.name,
                device,
                device_footprint(graph, program, frontier=self.frontier),
            )
        resident = []
        try:
            with obs.alloc_scope("csr", "glp.residency"):
                resident.append(device.h2d(graph.offsets))
                resident.append(device.h2d(graph.indices))
            with obs.alloc_scope("labels", "glp.residency"):
                resident.append(device.h2d(run.labels))
                resident.append(
                    device.alloc(run.labels.shape, run.labels.dtype)
                )
            if graph.weights is not None:
                with obs.alloc_scope("csr", "glp.residency"):
                    resident.append(device.h2d(graph.weights))
            if track_frontier:
                with obs.alloc_scope("reversed-csr", "glp.residency"):
                    resident.append(device.h2d(reversed_graph.offsets))
                    resident.append(device.h2d(reversed_graph.indices))
                with obs.alloc_scope("frontier", "glp.residency"):
                    resident.append(
                        device.alloc((graph.num_vertices,), np.uint8)
                    )
            if run.carry["frontier_vertices"] is not None:
                run.carry["frontier_vertices"] = prune_pinned(
                    run.carry["frontier_vertices"], run.pinned
                )
            # Degrees are static, so the dense pass's degree bins and
            # kernel launch schedules are memoized across iterations
            # (frontier passes bin their subset per round).  A sparse pass
            # drops the schedules: they are only worth their memory while
            # dense passes repeat.
            full_bins = None
            dense_schedules = {}

            def step(iteration: int):
                nonlocal full_bins
                labels = run.labels
                frontier_vertices = run.carry["frontier_vertices"]
                kernel_before = device.kernel_seconds
                transfer_before = device.transfer_seconds
                counters_before = device.counters.copy()

                # PickLabel: a map over the vertex array.
                with device.launch("pick-label"):
                    picked = program.pick_labels(graph, labels, iteration)
                    self._account_map_kernel(graph.num_vertices)

                sparse = (
                    track_frontier
                    and frontier_vertices is not None
                    and use_sparse_pass(
                        self.frontier,
                        frontier_vertices.size,
                        graph.num_vertices,
                    )
                )
                if sparse:
                    dense_schedules.clear()
                ctx = KernelContext(
                    device=device,
                    graph=graph,
                    current_labels=picked,
                    program=program,
                    config=self.config,
                    schedules=None if sparse else dense_schedules,
                )
                if sparse:
                    if self.pass_kind == "gsort":
                        result = segmented_sort_pass(ctx, frontier_vertices)
                    else:
                        result = propagate_pass(ctx, frontier_vertices)
                else:
                    if full_bins is None:
                        full_bins = bin_vertices_by_degree(
                            graph,
                            low_threshold=self.config.low_threshold,
                            high_threshold=self.config.high_threshold,
                        )
                    if self.pass_kind == "gsort":
                        result = segmented_sort_pass(ctx, bins=full_bins)
                    else:
                        result = propagate_pass(ctx, bins=full_bins)

                # UpdateVertex: another map kernel over the processed set.
                with device.launch("update-vertex"):
                    new_labels = program.update_vertices(
                        result.vertices,
                        result.best_labels,
                        result.best_scores,
                        labels,
                    )
                    self._account_map_kernel(result.vertices.size)
                changed_mask = new_labels != labels

                kernel_stats = dict(result.stats)
                kernel_stats["pass_mode"] = "sparse" if sparse else "dense"
                if track_frontier:
                    kernel_stats["frontier_fraction"] = (
                        result.vertices.size / graph.num_vertices
                        if graph.num_vertices
                        else 0.0
                    )
                    # Advance the frontier for the next round (the expand
                    # + compact kernels are timed on the device).
                    run.carry["frontier_vertices"] = prune_pinned(
                        next_frontier(
                            device,
                            reversed_graph,
                            np.flatnonzero(changed_mask),
                        ),
                        run.pinned,
                    )

                stats = IterationStats(
                    iteration=iteration,
                    seconds=(
                        device.kernel_seconds
                        - kernel_before
                        + device.transfer_seconds
                        - transfer_before
                    ),
                    kernel_seconds=device.kernel_seconds - kernel_before,
                    transfer_seconds=(
                        device.transfer_seconds - transfer_before
                    ),
                    changed_vertices=int(np.count_nonzero(changed_mask)),
                    counters=device.counters.delta_since(counters_before),
                    kernel_stats=kernel_stats,
                    frontier_size=int(result.vertices.size),
                    processed_edges=int(
                        graph.degrees[result.vertices].sum()
                        if result.vertices.size
                        else 0
                    ),
                )
                return new_labels, stats, {
                    "pass_mode": kernel_stats["pass_mode"]
                }

            yield step
        finally:
            for handle in resident:
                device.free(handle)

    def _finish(self, run: BSPRun) -> Optional[np.ndarray]:
        """The residual frontier: the carry after the last round."""
        return run.carry["frontier_vertices"] if run.track_frontier else None

    # ------------------------------------------------------------------
    def _account_map_kernel(self, num_vertices: int) -> None:
        """Cost of a trivial per-vertex map (PickLabel / UpdateVertex)."""
        device = self.device
        # Same offset read and written by the same (synthetic) lane, which
        # the sanitizer recognizes as a thread updating its own slot.
        device.memory.load_sequential(num_vertices, ELEM_BYTES, array="labels")
        device.memory.store_sequential(num_vertices, ELEM_BYTES, array="labels")
        warps = -(-num_vertices // device.spec.warp_size)
        device.counters.warp_instructions += warps * 2
        device.counters.active_lane_sum += num_vertices * 2
        device.counters.warps_launched += warps
