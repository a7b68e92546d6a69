"""Multi-GPU execution (Section 5.4's two-GPU experiment).

Vertices are split into near-equal-edge contiguous ranges, one per device.
Each iteration every device runs the shared device round
(:func:`~repro.core.device_round.device_round`) over its own range in
parallel; the iteration's kernel time is the *maximum* over devices of the
whole round — map, MFL and frontier kernels included (bulk-synchronous).
Afterwards the devices exchange the labels their partitions updated
(peer-to-peer over PCIe), which is the scaling tax that keeps 2 GPUs below
2x.

**Frontier execution.**  With ``frontier="frontier"``/``"auto"`` and a
``frontier_safe`` program, each device tracks its *own partition's* active
frontier: it expands its local changed vertices through the reversed CSR,
keeps the frontier candidates that fall inside its range, and ships the
remote candidates to the owning peers — that frontier exchange is counted
as inter-GPU traffic on top of the label exchange.  The direction-
optimizing switch is made globally (bulk-synchronous rounds must agree on
the pass shape), using the total frontier fraction.
"""

from __future__ import annotations

import contextlib
from typing import List, Optional

import numpy as np

from repro import obs
from repro.core.device_round import (
    DeviceShare,
    StepClock,
    device_round,
    update_labels,
)
from repro.core.driver import BSPEngine, BSPRun, drive
from repro.errors import ConvergenceError
from repro.graph.partition import balanced_edge_partition
from repro.gpusim import hooks
from repro.gpusim.config import TITAN_V, DeviceSpec
from repro.gpusim.device import Device
from repro.gpusim.timing import transfer_time
from repro.kernels.base import ELEM_BYTES, GLP_DEFAULT, StrategyConfig
from repro.kernels.frontier import (
    FrontierConfig,
    compact_frontier,
    expand_frontier,
    prune_pinned,
    resolve_frontier,
    use_sparse_pass,
)


class MultiGPUEngine(BSPEngine):
    """Bulk-synchronous LP over several simulated GPUs."""

    def __init__(
        self,
        num_gpus: int = 2,
        *,
        config: StrategyConfig = GLP_DEFAULT,
        spec: DeviceSpec = TITAN_V,
        frontier: "FrontierConfig | str" = "dense",
    ) -> None:
        if num_gpus <= 0:
            raise ConvergenceError("num_gpus must be positive")
        self._devices = [Device(spec, index=i) for i in range(num_gpus)]
        self.config = config
        self.frontier = resolve_frontier(frontier)
        self.name = f"GLP-{num_gpus}GPU"

    @property
    def devices(self) -> List[Device]:
        return self._devices

    @property
    def num_gpus(self) -> int:
        return len(self.devices)

    # ------------------------------------------------------------------
    #: The shared BSP loop (:func:`repro.core.driver.drive`).
    run = drive

    def _initial_carry(self, initial: Optional[np.ndarray]) -> dict:
        """Carry: per-partition frontier lists (``None`` means a dense
        round), plus the affected set a sparse iteration 1 splits."""
        return {"part_frontiers": None, "initial_frontier": initial}

    @contextlib.contextmanager
    def _attempt(self, run: BSPRun):
        """Partition the graph for one attempt; yields the BSP step.

        Checkpoints carry the per-partition frontier lists, so a resumed
        sparse round re-executes on every device exactly as the
        uninterrupted run would have.
        """
        graph, program = run.graph, run.program
        parts = balanced_edge_partition(graph, self.num_gpus)
        track_frontier = run.track_frontier
        reversed_graph = graph.reversed() if track_frontier else None

        shares = [
            DeviceShare(device, graph, self.config, part.start, part.stop)
            for device, part in zip(self.devices, parts)
        ]
        # Incremental start: split the caller's affected set by vertex
        # ownership so iteration 1 runs sparse on every device.  From then
        # on ``part_frontiers`` carries the split, and a restore re-seeds
        # it without consulting ``initial_frontier``.
        initial = run.carry.pop("initial_frontier", None)
        if (
            track_frontier
            and run.carry["part_frontiers"] is None
            and initial is not None
            and run.iteration == 1
        ):
            initial = prune_pinned(initial, run.pinned)
            run.carry["part_frontiers"] = [
                initial[(initial >= part.start) & (initial < part.stop)]
                for part in parts
            ]

        def step(iteration: int):
            labels = run.labels
            part_frontiers = run.carry["part_frontiers"]
            clock = StepClock(self.devices)
            picked = program.pick_labels(graph, labels, iteration)
            sparse = (
                track_frontier
                and part_frontiers is not None
                and use_sparse_pass(
                    self.frontier,
                    sum(f.size for f in part_frontiers),
                    graph.num_vertices,
                )
            )
            results = [
                device_round(
                    share, program, picked, part_frontiers[i] if sparse else None
                )
                for i, share in enumerate(shares)
            ]
            new_labels = update_labels(program, results, labels)

            # Label exchange: each device broadcasts the *changed* labels
            # of its partition to the peers ((id, label) pairs over PCIe
            # peer copies; peers upload concurrently, so the per-iteration
            # cost is the busiest device's share).
            changed = np.flatnonzero(new_labels != labels)
            peers = self.num_gpus - 1
            spec = self.devices[0].spec
            per_part_changed = [changed[_owned(changed, p)].size for p in parts]
            exchange_seconds = transfer_time(max(per_part_changed) * 8, spec)
            exchange_seconds *= peers
            exchange_bytes = sum(per_part_changed) * 8 * peers

            # Frontier advance: each device expands its own changed range
            # and ships the candidates other partitions own to those peers
            # — counted as additional inter-GPU traffic.
            if track_frontier:
                candidates = [
                    expand_frontier(
                        share.device, reversed_graph, changed[_owned(changed, p)]
                    )
                    for share, p in zip(shares, parts)
                ]
                remote = [
                    c.size - c[_owned(c, p)].size
                    for c, p in zip(candidates, parts)
                ]
                if peers:
                    exchange_seconds += transfer_time(
                        max(remote) * ELEM_BYTES, spec
                    ) * peers
                    exchange_bytes += sum(remote) * ELEM_BYTES
                run.carry["part_frontiers"] = [
                    prune_pinned(
                        compact_frontier(
                            share.device,
                            graph.num_vertices,
                            np.unique(
                                np.concatenate(
                                    [c[_owned(c, p)] for c in candidates]
                                )
                            ),
                        ),
                        run.pinned,
                    )
                    for share, p in zip(shares, parts)
                ]

            stats = clock.stats(
                iteration,
                graph,
                results,
                changed_vertices=int(changed.size),
                sparse=sparse,
                track_frontier=track_frontier,
                exchange_seconds=exchange_seconds,
            )
            # The exchange is modeled straight on the transfer clock (no
            # DeviceArray ever exists), so the memory tracker is told
            # about the traffic explicitly.
            tracker = hooks.MEMORY.get()
            if tracker is not None and exchange_bytes:
                tracker.on_exchange(
                    self.devices[0], exchange_bytes, exchange_seconds
                )
            m = obs.metrics()
            if m is not None:
                m.inc(
                    "multigpu_exchange_bytes_total",
                    exchange_bytes,
                    engine=self.name,
                )
                m.observe(
                    "multigpu_exchange_seconds",
                    exchange_seconds,
                    engine=self.name,
                )
            return new_labels, stats, {"exchange_bytes": exchange_bytes}

        yield step

    def _finish(self, run: BSPRun) -> Optional[np.ndarray]:
        """The residual frontier: the union of the partition frontiers
        (disjoint, since each candidate is owner-assigned)."""
        part_frontiers = run.carry["part_frontiers"]
        if not run.track_frontier or part_frontiers is None:
            return None
        return np.unique(np.concatenate(part_frontiers))


def _owned(ids: np.ndarray, part) -> slice:
    """The slice of sorted vertex ``ids`` that ``part`` owns."""
    return slice(*np.searchsorted(ids, (part.start, part.stop)))
