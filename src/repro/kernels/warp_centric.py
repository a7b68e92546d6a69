"""Low/mid-degree MFL kernels (Section 4.2).

Three scheduling strategies for small neighbor lists:

* :func:`run_warp_multi` — the paper's contribution: one warp handles
  *multiple* whole vertices at once, counting label frequencies with
  ``__ballot_sync`` / ``__match_any_sync`` / ``__popc`` instead of atomics.
  The intrinsics are executed for real (on the simulator's bit-exact
  implementations); their ``popc`` counts feed the
  ``warp_multi_popc_edges`` statistic, while the labels come from the
  shared group-by (:func:`repro.kernels.mfl.aggregate_label_frequencies`),
  whose unit-weight frequencies the popc counts equal.
* :func:`run_thread_per_vertex` — the one-thread-one-vertex baseline: no
  idle lanes, but every lane walks a different neighbor list, so loads are
  maximally uncoalesced and the warp stalls on its slowest lane.
* :func:`run_warp_shared_ht` — one warp per vertex counting into a
  per-vertex shared-memory hash table; sensible for mid-degree vertices
  (32..128) where a warp is neither starved nor oversubscribed.

Packing policy for ``run_warp_multi``: vertices are grouped by degree and
``floor(32 / d)`` whole vertices of degree ``d`` share a warp.  Whole-vertex
placement is required — ``__match_any_sync`` can only count a frequency
whose occurrences all sit in one warp.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from repro.kernels import mfl
from repro.kernels.base import (
    KernelContext,
    LaunchSchedule,
    account_label_writeback,
    common_reads,
    run_launch,
    warp_per_vertex_schedule,
    warp_steps_one_thread_per_vertex,
)
from repro.gpusim import warp as warp_intrinsics

#: Instruction budget of one warp-multi step: ballot + 2x match_any + popc
#: + leader test + score + segmented max.
_WARP_MULTI_INSTRUCTIONS = 15
#: Per-neighbor-pair instructions of the register-counting thread kernel.
_THREAD_PAIR_INSTRUCTIONS = 2
#: Per-step instructions of the warp + shared-HT kernel.
_SHARED_HT_INSTRUCTIONS = 7


def _pack_lanes(
    degrees: np.ndarray, vertices: np.ndarray, warp_size: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Degree-binned whole-vertex packing.

    Returns ``(edge_warp, edge_lane, num_warps)`` where edge ``j`` of packed
    vertex ``i`` lands on ``(edge_warp, edge_lane)``.  Edges are ordered as
    ``expand_edges`` emits them (vertices ascending, then list order), so the
    arrays align with an :class:`~repro.kernels.mfl.EdgeBatch` built from
    the *same* vertex array sorted by (degree, id).
    """
    num_warps = 0
    edge_warps = []
    edge_lanes = []
    for d in np.unique(degrees):
        if d == 0:
            continue
        d = int(d)
        group = np.flatnonzero(degrees == d)
        within = np.tile(np.arange(d, dtype=np.int64), group.size)
        slot = np.arange(group.size, dtype=np.int64)
        if d < warp_size:
            per_warp = warp_size // d
            warp_of_vertex = num_warps + slot // per_warp
            lane_base = (slot % per_warp) * d
            edge_warps.append(np.repeat(warp_of_vertex, d))
            edge_lanes.append(np.repeat(lane_base, d) + within)
            num_warps += int(-(-group.size // per_warp))
        else:
            # Degree >= warp_size (possible when the low threshold is
            # raised above 32): the vertex occupies ceil(d/32) full
            # warp-steps of its own.
            steps = -(-d // warp_size)
            warp_base = num_warps + slot * steps
            edge_warps.append(
                np.repeat(warp_base, d) + within // warp_size
            )
            edge_lanes.append(within % warp_size)
            num_warps += int(group.size * steps)
    if edge_warps:
        return (
            np.concatenate(edge_warps),
            np.concatenate(edge_lanes),
            num_warps,
        )
    return (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        0,
    )


def _warp_multi_schedule(
    ctx: KernelContext, vertices: np.ndarray
) -> LaunchSchedule:
    """Whole-vertex lane packing, its reads and its instruction counts."""
    device = ctx.device
    warp_size = device.spec.warp_size
    degrees = ctx.graph.degrees[vertices]
    # Pack in (degree, id) order so each warp holds same-degree vertices.
    pack_order = np.lexsort((vertices, degrees))
    batch = mfl.expand_edges(ctx.graph, vertices[pack_order])
    edge_warp, edge_lane, num_warps = _pack_lanes(
        degrees[pack_order], batch.vertices, warp_size
    )
    lane_slots = edge_warp * warp_size + edge_lane
    active = np.zeros((num_warps, warp_size), dtype=bool)
    active.ravel()[lane_slots] = True
    return LaunchSchedule(
        vertices=vertices,
        batch=batch,
        warp_steps=edge_warp,
        reads=common_reads(ctx, batch, edge_warp),
        warp_instructions=num_warps * _WARP_MULTI_INSTRUCTIONS,
        active_lane_sum=batch.num_edges * _WARP_MULTI_INSTRUCTIONS,
        warps_launched=num_warps,
        lane_slots=lane_slots,
        active_lanes=active,
    )


def _warp_multi_body(
    ctx: KernelContext, schedule: LaunchSchedule
) -> Tuple[np.ndarray, np.ndarray]:
    """Group-by, intrinsics and winners over a warp-multi schedule."""
    device = ctx.device
    batch = schedule.batch
    groups = mfl.aggregate_label_frequencies(
        ctx.program, batch, ctx.current_labels
    )
    schedule.charge(device)

    if schedule.warps_launched:
        # --------------------------------------------------------------
        # Genuine intrinsic execution: lay (vertex, label) keys onto the
        # (warp, lane) grid and run ballot / match_any / popc.  The
        # paper's first match_any (vmask, lanes of one vertex) only finds
        # the groups the packing laid out, so only the packed (vertex,
        # label) key is matched: it realizes the second match_any over
        # labels within a vertex group.
        # --------------------------------------------------------------
        active = schedule.active_lanes
        combined = np.zeros(active.shape, dtype=np.int64)
        combined.ravel()[schedule.lane_slots] = (
            batch.vertex_ids * np.int64(1 << 32) + groups.edge_labels
        )
        warp_intrinsics.ballot_sync(active, active)
        lmask = warp_intrinsics.match_any_sync(active, combined)
        lane_freq = warp_intrinsics.popc(lmask)

        # Differential check hook: with unit weights the popc counts must
        # equal the group-by frequencies.
        ctx.stats["warp_multi_popc_edges"] = int(lane_freq[active].sum())
        ctx.stats["warp_multi_warps"] = schedule.warps_launched

    account_label_writeback(ctx, schedule.vertices.size)
    return mfl.select_best_labels(
        ctx.program, groups, schedule.vertices, ctx.current_labels
    )


def run_warp_multi(
    ctx: KernelContext, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One-warp-multi-vertices kernel over low-degree ``vertices``.

    Returns ``(best_labels, best_scores)`` aligned with the (sorted) input
    vertex array.
    """
    vertices = np.sort(np.asarray(vertices, dtype=np.int64))
    if vertices.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    return run_launch(
        ctx, "warp-multi", vertices, _warp_multi_schedule, _warp_multi_body
    )


def _thread_per_vertex_schedule(
    ctx: KernelContext, vertices: np.ndarray
) -> LaunchSchedule:
    """One lane per vertex: scattered reads, slowest-lane pair counting."""
    device = ctx.device
    batch = mfl.expand_edges(ctx.graph, vertices)
    warp_steps = warp_steps_one_thread_per_vertex(ctx.graph, batch)
    # Each thread counts its list in registers: O(d^2) compares; the
    # warp advances at the pace of its slowest lane.
    pair_work = ctx.graph.degrees[vertices].astype(np.int64) ** 2
    warp_of_vertex = (
        np.arange(vertices.size, dtype=np.int64) // device.spec.warp_size
    )
    warp_steps_max = np.zeros(int(warp_of_vertex.max()) + 1, dtype=np.int64)
    np.maximum.at(warp_steps_max, warp_of_vertex, pair_work)
    return LaunchSchedule(
        vertices=vertices,
        batch=batch,
        warp_steps=warp_steps,
        reads=common_reads(
            ctx, batch, warp_steps, neighbor_ids_scattered=True
        ),
        warp_instructions=int(warp_steps_max.sum())
        * _THREAD_PAIR_INSTRUCTIONS,
        active_lane_sum=int(pair_work.sum()) * _THREAD_PAIR_INSTRUCTIONS,
        warps_launched=int(warp_steps_max.size),
    )


def _thread_per_vertex_body(
    ctx: KernelContext, schedule: LaunchSchedule
) -> Tuple[np.ndarray, np.ndarray]:
    """Group-by and winners; the pair counting is in the schedule."""
    groups = mfl.aggregate_label_frequencies(
        ctx.program, schedule.batch, ctx.current_labels
    )
    schedule.charge(ctx.device)
    account_label_writeback(ctx, schedule.vertices.size)
    return mfl.select_best_labels(
        ctx.program, groups, schedule.vertices, ctx.current_labels
    )


def run_thread_per_vertex(
    ctx: KernelContext, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One-thread-one-vertex baseline (register pairwise counting)."""
    vertices = np.sort(np.asarray(vertices, dtype=np.int64))
    if vertices.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    return run_launch(
        ctx,
        "thread-per-vertex",
        vertices,
        _thread_per_vertex_schedule,
        _thread_per_vertex_body,
    )


def _warp_shared_ht_body(
    ctx: KernelContext, schedule: LaunchSchedule
) -> Tuple[np.ndarray, np.ndarray]:
    """Group-by, shared-HT atomics at the labels' slots, and winners."""
    device = ctx.device
    config = ctx.config
    groups = mfl.aggregate_label_frequencies(
        ctx.program, schedule.batch, ctx.current_labels
    )
    schedule.charge(device)

    mixed = groups.edge_labels.astype(np.uint64) * np.uint64(
        0x9E3779B97F4A7C15
    )
    mixed ^= mixed >> np.uint64(29)
    slot = (mixed % np.uint64(config.ht_capacity)).astype(np.int64)
    device.atomics.shared_atomic_add(
        slot,
        warp_ids=schedule.warp_steps,
        array="warp-ht",
        size=config.ht_capacity * 2,
    )

    account_label_writeback(ctx, schedule.vertices.size)
    return mfl.select_best_labels(
        ctx.program, groups, schedule.vertices, ctx.current_labels
    )


def run_warp_shared_ht(
    ctx: KernelContext, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One warp per vertex, counting into a shared-memory hash table.

    The GLP default for mid-degree vertices: the whole distinct-label set
    fits a per-warp shared table (degree <= 128 < ht_capacity), so counting
    never touches global memory.
    """
    vertices = np.sort(np.asarray(vertices, dtype=np.int64))
    if vertices.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)

    ctx.device.shared.check_allocation(ctx.config.ht_capacity * 8)
    return run_launch(
        ctx,
        "warp-shared-ht",
        vertices,
        functools.partial(
            warp_per_vertex_schedule,
            loop_instructions=_SHARED_HT_INSTRUCTIONS,
        ),
        _warp_shared_ht_body,
    )
