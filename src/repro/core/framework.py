"""The GLP engine: bulk-synchronous iteration over a device-resident graph.

Each iteration runs the three components of Figure 2 (the shared
:func:`~repro.core.device_round.device_round` over the whole graph):

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
from repro.core.api import LPProgram
from repro.core.device_round import (
    DeviceShare,
    StepClock,
    device_round,
    update_labels,
)
from repro.core.driver import BSPEngine, BSPRun, drive
from repro.errors import ConvergenceError
from repro.graph.csr import CSRGraph
from repro.gpusim import hooks
from repro.gpusim.config import TITAN_V, DeviceSpec
from repro.gpusim.device import Device
from repro.kernels.base import ELEM_BYTES, GLP_DEFAULT, StrategyConfig
from repro.kernels.frontier import (
    FrontierConfig,
    next_frontier,
    prune_pinned,
    resolve_frontier,
    use_sparse_pass,
)
from repro.kernels.propagate import propagate_pass, segmented_sort_pass


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
            share = DeviceShare(device, graph, self.config)
            pass_fn = (
                segmented_sort_pass
                if self.pass_kind == "gsort"
                else propagate_pass
            )

            def step(iteration: int):
                labels = run.labels
                frontier = run.carry["frontier_vertices"]
                clock = StepClock(self.devices)
                picked = program.pick_labels(graph, labels, iteration)
                sparse = (
                    track_frontier
                    and frontier is not None
                    and use_sparse_pass(
                        self.frontier, frontier.size, graph.num_vertices
                    )
                )
                result = device_round(
                    share,
                    program,
                    picked,
                    frontier if sparse else None,
                    pass_fn=pass_fn,
                )
                new_labels = update_labels(program, [result], labels)
                changed_mask = new_labels != labels
                if track_frontier:
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
                stats = clock.stats(
                    iteration,
                    graph,
                    [result],
                    changed_vertices=int(np.count_nonzero(changed_mask)),
                    sparse=sparse,
                    track_frontier=track_frontier,
                )
                return new_labels, stats, {
                    "pass_mode": stats.kernel_stats["pass_mode"]
                }

            yield step
        finally:
            for handle in resident:
                device.free(handle)

    def _finish(self, run: BSPRun) -> Optional[np.ndarray]:
        """The residual frontier: the carry after the last round."""
        return run.carry["frontier_vertices"] if run.track_frontier else None


def device_footprint(
    graph: CSRGraph,
    program: Optional[LPProgram] = None,
    *,
    frontier: "FrontierConfig | str" = "dense",
) -> int:
    """Bytes :class:`GLPEngine` actually makes device-resident for ``graph``.

    Mirrors the engine's residency list: the CSR arrays plus *both*
    double-buffered label arrays, and — when frontier execution applies
    (mode enabled and the program ``frontier_safe``) — the reversed CSR
    and the one-byte-per-vertex frontier bitmap.
    """
    mode = resolve_frontier(frontier)
    needed = graph.nbytes + 2 * graph.num_vertices * ELEM_BYTES
    if mode.enabled and (program is None or program.frontier_safe):
        # The reversed CSR has the same offsets/indices volume as the
        # forward CSR (weights are not uploaded for it).
        needed += graph.offsets.nbytes + graph.indices.nbytes
        needed += graph.num_vertices  # uint8 frontier bitmap
    return needed
