"""Frontier maintenance kernels for delta (frontier-based) propagation.

Warm-started sliding-window runs converge "in a couple of iterations
because most of the graph is unchanged" (paper, Section 6): after the first
pass, only vertices with a *changed in-neighbor* can change themselves.  The
frontier layer tracks exactly that set, Gunrock-style:

1. **frontier-expand** — scatter the changed vertices' out-neighbors (read
   through the reversed CSR) into a per-vertex byte bitmap;
2. **frontier-compact** — scan the bitmap and scatter the set positions
   into a dense, sorted vertex-id list the degree-binned kernels consume.

Both are honest simulated kernels: the expand pays the reversed-CSR offset
gathers, the neighbor-segment streams and the scattered byte stores; the
compact pays the bitmap read, the prefix-scan traffic and the compacted-id
writeback.  The reversed CSR itself must be device-resident (the engines
upload it next to the forward CSR, where it participates in
:class:`~repro.errors.OutOfDeviceMemoryError` capacity checks).

The direction-optimizing dispatch (Beamer-style) lives here too: when the
frontier stops being sparse the degree-binned dense pass is already the
optimal schedule, so :func:`use_sparse_pass` switches back to it above a
configurable frontier-fraction threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.gpusim.device import Device
from repro.kernels.mfl import expand_edges

#: Bytes per vertex id / offset on the device (matches kernels.base).
ELEM_BYTES = 8

#: Bytes per frontier-bitmap entry (one byte per vertex, not one bit —
#: byte stores avoid read-modify-write atomics in the expand kernel).
BITMAP_BYTES = 1

#: Recognized execution modes for frontier-capable engines.
FRONTIER_MODES = ("dense", "frontier", "auto")


@dataclass(frozen=True)
class FrontierConfig:
    """Frontier execution policy for an engine.

    Parameters
    ----------
    mode:
        ``"dense"`` — classic full-vertex passes (no frontier machinery);
        ``"frontier"`` — always run the sparse pass over the tracked
        frontier (after the mandatory dense first iteration);
        ``"auto"`` — direction-optimizing: sparse passes while the frontier
        is small, dense fallback above ``dense_threshold``.
    dense_threshold:
        Frontier fraction ``|frontier| / |V|`` above which ``"auto"`` mode
        falls back to the dense pass.
    """

    mode: str = "dense"
    dense_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in FRONTIER_MODES:
            raise KernelError(
                f"unknown frontier mode {self.mode!r}; "
                f"expected one of {FRONTIER_MODES}"
            )
        if not 0.0 < self.dense_threshold <= 1.0:
            raise KernelError("dense_threshold must be in (0, 1]")

    @property
    def enabled(self) -> bool:
        """Whether any frontier machinery is active."""
        return self.mode != "dense"


def resolve_frontier(frontier) -> FrontierConfig:
    """Coerce an engine's ``frontier=`` argument into a config."""
    if isinstance(frontier, FrontierConfig):
        return frontier
    if isinstance(frontier, str):
        return FrontierConfig(mode=frontier)
    raise KernelError(
        f"frontier must be a mode string or FrontierConfig, got {frontier!r}"
    )


def use_sparse_pass(
    config: FrontierConfig, frontier_size: int, num_vertices: int
) -> bool:
    """The direction-optimizing switch: sparse or dense this iteration?"""
    if not config.enabled:
        return False
    if config.mode == "frontier":
        return True
    if num_vertices == 0:
        return True
    return frontier_size / num_vertices <= config.dense_threshold


def frontier_bitmap_bytes(num_vertices: int) -> int:
    """Device footprint of the frontier bitmap."""
    return num_vertices * BITMAP_BYTES


def coerce_initial_frontier(
    frontier, num_vertices: int
) -> np.ndarray:
    """Validate an engine's ``initial_frontier=`` argument.

    Incremental callers (the sliding-window serving loop) hand the engines
    the affected vertex set of a window slide so iteration 1 runs sparse.
    The engines' frontier machinery assumes sorted unique in-range ids, so
    coerce here and fail loudly on garbage rather than mislabeling.
    """
    frontier = np.unique(np.asarray(frontier, dtype=np.int64))
    if frontier.size and (
        frontier[0] < 0 or frontier[-1] >= num_vertices
    ):
        raise KernelError(
            f"initial_frontier ids must be in [0, {num_vertices}); got "
            f"range [{frontier[0]}, {frontier[-1]}]"
        )
    return frontier


def prune_pinned(
    frontier: np.ndarray, pinned: "np.ndarray | None"
) -> np.ndarray:
    """Drop pinned vertices from a sparse frontier.

    ``pinned`` is the program's :meth:`~repro.core.api.LPProgram.
    pinned_vertices` set (sorted unique) — vertices whose update is a
    guaranteed no-op, so excluding them from the processing set preserves
    every label and the frontier trajectory while skipping their (often
    hub-sized) neighbor streams.
    """
    if pinned is None or pinned.size == 0 or frontier.size == 0:
        return frontier
    return frontier[~np.isin(frontier, pinned, assume_unique=True)]


def changed_out_neighbors(graph: CSRGraph, changed) -> np.ndarray:
    """Sorted unique out-neighbors of ``changed``: the next frontier.

    The host-side frontier advance (no device accounting): the
    out-neighbors of ``u`` are the vertices whose MFL input contains
    ``u``, read from ``graph.reversed()``.  ``None`` or an empty set
    gives an empty frontier.
    """
    if changed is None or np.size(changed) == 0:
        return np.empty(0, dtype=np.int64)
    batch = expand_edges(graph.reversed(), changed)
    return np.unique(batch.neighbor_ids.astype(np.int64, copy=False))


def expand_frontier(
    device: Device, reversed_graph: CSRGraph, changed: np.ndarray
) -> np.ndarray:
    """Mark out-neighbors of ``changed`` in the frontier bitmap.

    ``reversed_graph`` is the reversed CSR, so ``reversed_graph.neighbors(u)``
    is exactly the set of vertices whose MFL input contains ``u``.  Returns
    the sorted, de-duplicated candidate frontier.
    """
    changed = np.asarray(changed, dtype=np.int64)
    if changed.size == 0:
        return np.empty(0, dtype=np.int64)
    with device.launch("frontier-expand"):
        # Read the changed-id worklist (coalesced stream).
        device.memory.load_sequential(
            changed.size, ELEM_BYTES, array="frontier-worklist"
        )
        # Gather each changed vertex's reversed-CSR offset pair, then
        # stream its out-neighbor segment.
        device.memory.load_gather(changed, ELEM_BYTES, array="csr-offsets")
        device.memory.load_segments(
            reversed_graph.offsets[changed],
            reversed_graph.degrees[changed],
            ELEM_BYTES,
            array="neighbor-ids",
        )
        batch = expand_edges(reversed_graph, changed)
        frontier = np.unique(batch.neighbor_ids.astype(np.int64, copy=False))
        # Scattered byte stores into the bitmap — one per touched edge
        # (duplicates still issue a store; they just coalesce per sector).
        # Every lane writes the same value (1), which is exactly why the
        # paper-style byte bitmap needs no atomics: the store is
        # idempotent, and the sanitizer checks it as such.
        if batch.num_edges:
            device.memory.store_scatter(
                batch.neighbor_ids,
                BITMAP_BYTES,
                array="frontier-bitmap",
                idempotent=True,
            )
        _account_warp_work(device, changed.size + batch.num_edges)
    return frontier


def compact_frontier(
    device: Device, num_vertices: int, frontier: np.ndarray
) -> np.ndarray:
    """Scan + scatter the bitmap into a dense sorted frontier-id list."""
    frontier = np.asarray(frontier, dtype=np.int64)
    with device.launch("frontier-compact"):
        # Pass 1: read the bitmap and write per-block set counts; pass 2:
        # exclusive scan of the counts; pass 3: re-read the bitmap and
        # scatter ids to their scanned positions; pass 4: clear the bitmap
        # for the next round.  Modeled as two bitmap streams plus the scan
        # traffic and the compacted writeback.  The device.barrier() calls
        # are the grid syncs separating the passes — zero cost, but they
        # order the phases for the sanitizer exactly as the hardware
        # kernel boundaries would.
        device.memory.load_sequential(
            num_vertices, BITMAP_BYTES, array="frontier-bitmap"
        )
        device.barrier()
        device.memory.load_sequential(
            num_vertices, ELEM_BYTES, array="scan-counts"
        )
        device.memory.store_sequential(
            num_vertices, ELEM_BYTES, array="scan-counts"
        )
        device.barrier()
        device.memory.load_sequential(
            num_vertices, BITMAP_BYTES, array="frontier-bitmap"
        )
        if frontier.size:
            device.memory.store_sequential(
                frontier.size, ELEM_BYTES, array="frontier-out"
            )
            device.barrier()
            device.memory.store_scatter(
                frontier, BITMAP_BYTES, array="frontier-bitmap"
            )
        _account_warp_work(device, 2 * num_vertices + frontier.size)
    return frontier


def next_frontier(
    device: Device,
    reversed_graph: CSRGraph,
    changed: np.ndarray,
) -> np.ndarray:
    """Full frontier advance: expand changed vertices, compact the bitmap."""
    with obs.span(
        "frontier-advance", cat="pass", changed=int(np.size(changed))
    ):
        candidates = expand_frontier(device, reversed_graph, changed)
        frontier = compact_frontier(
            device, reversed_graph.num_vertices, candidates
        )
    m = obs.metrics()
    if m is not None:
        m.observe("frontier_candidates", frontier.size)
    return frontier


def _account_warp_work(device: Device, num_elements: int) -> None:
    """Issue-slot accounting for an element-parallel frontier kernel."""
    if num_elements <= 0:
        return
    warps = -(-num_elements // device.spec.warp_size)
    device.counters.warp_instructions += warps * 2
    device.counters.active_lane_sum += num_elements * 2
    device.counters.warps_launched += warps
