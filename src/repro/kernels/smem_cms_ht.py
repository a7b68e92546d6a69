"""``SharedMemBigNodes``: the CMS + HT high-degree kernel (Section 4.1).

One thread block per high-degree vertex.  Each arriving neighbor label is
offered to a fixed-capacity shared-memory hash table; with full-table
probing the HT ends up holding exactly the first ``h`` distinct labels in
arrival order, and later arrivals of those labels keep incrementing their
counters.  Labels that find the table full fall through to a shared-memory
Count-Min Sketch.  After one scan:

* ``s(HT) >= s(CMS)``  →  the HT winner is provably the true MFL (the CMS
  only over-estimates and the score is monotone in frequency) — **no global
  memory needed**;
* otherwise the overflow labels are counted exactly in a global hash table
  and the winner is taken over both structures.

Theorem 1 bounds the fallback probability by ``m * 2^-d + e^-h``; the kernel
records the measured fallback rate in ``ctx.stats`` so the theory benchmark
can compare bound against reality.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels import mfl
from repro.kernels.base import (
    ELEM_BYTES,
    KernelContext,
    LaunchSchedule,
    account_label_writeback,
    common_reads,
    replay_or_keep,
    warp_steps_block_per_vertex,
)
from repro.gpusim.block import BlockConfig, block_reduce_max_cost
from repro.pairsort import pair_order
from repro.sketch.countmin import CountMinSketch
from repro.sketch.globalhash import GlobalHashTable, combine_keys
from repro.types import WEIGHT_DTYPE

#: Warp instructions per block-sized loop step (load, hash, insert branch).
_LOOP_INSTRUCTIONS = 8


def _ht_slot_addresses(labels: np.ndarray, capacity: int) -> np.ndarray:
    """Vectorized base-slot addresses of the shared-memory HT."""
    mixed = labels.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    mixed ^= mixed >> np.uint64(29)
    return (mixed % np.uint64(capacity)).astype(np.int64)


def _block_per_vertex_schedule(
    ctx: KernelContext, vertices: np.ndarray
) -> LaunchSchedule:
    """One block per vertex striding its list, block-reduce costs aside."""
    device = ctx.device
    graph = ctx.graph
    config = ctx.config
    batch = mfl.expand_edges(graph, vertices)
    warp_steps = warp_steps_block_per_vertex(graph, batch, config.block_size)
    degrees = graph.degrees[vertices]
    warps_per_block = BlockConfig(config.block_size).num_warps(
        device.spec.warp_size
    )
    loop_steps = -(-degrees // config.block_size)
    return LaunchSchedule(
        vertices=vertices,
        batch=batch,
        warp_steps=warp_steps,
        reads=common_reads(ctx, batch, warp_steps),
        warp_instructions=int(loop_steps.sum())
        * warps_per_block
        * _LOOP_INSTRUCTIONS,
        active_lane_sum=int(degrees.sum()) * _LOOP_INSTRUCTIONS,
        warps_launched=int(vertices.size) * warps_per_block,
        within=batch.edge_positions - graph.offsets[batch.vertex_ids],
    )


def overflow_cms_max_scores(
    program, vertex_ids, labels, frequencies, depth: int, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per owner vertex, the best score over its CMS-estimated labels.

    ``(vertex_ids, labels, frequencies)`` are the overflow groups, sorted
    by vertex.  Each owner gets its own ``depth x width`` sketch, laid out
    as one block of a ``(owners, depth * width)`` table; one unbuffered
    ``np.add.at`` per row over the groups in vertex-major order gives every
    bucket the float sum a per-vertex :class:`CountMinSketch` would hold.
    Returns ``(owners, max_scores)``; a NaN score makes its owner's
    maximum NaN.
    """
    new_owner = np.concatenate(([True], vertex_ids[1:] != vertex_ids[:-1]))
    owner_starts = np.flatnonzero(new_owner)
    block = (np.cumsum(new_owner) - 1) * (depth * width)
    table = np.zeros(owner_starts.size * depth * width, dtype=np.float64)
    bucket_rows = CountMinSketch(depth, width).bucket_addresses(labels)
    for row in range(depth):
        np.add.at(table, block + bucket_rows[row], frequencies)
    estimates = np.full(labels.size, np.inf)
    for row in range(depth):
        np.minimum(estimates, table[block + bucket_rows[row]], out=estimates)
    scores = np.asarray(
        program.score(vertex_ids, labels, estimates), dtype=WEIGHT_DTYPE
    )
    return vertex_ids[owner_starts], np.maximum.reduceat(scores, owner_starts)


def run_smem_cms_ht(
    ctx: KernelContext, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Run ``SharedMemBigNodes`` over the high-degree ``vertices``."""
    device = ctx.device
    config = ctx.config
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        ctx.stats["smem_high_vertices"] = 0
        ctx.stats["smem_fallback_vertices"] = 0
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)

    # Shared-memory budget check: HT (8 B/slot) + CMS (4 B/counter).
    ht_bytes = config.ht_capacity * 8
    cms_bytes = config.cms_depth * config.cms_width * 4
    device.shared.check_allocation(ht_bytes + cms_bytes)
    # Declared word extent of the block's shared allocation for the
    # sanitizer's OOB check: HT slots occupy [0, 2*capacity) and the CMS
    # counters [2*capacity, 2*capacity + depth*width).
    smem_words = config.ht_capacity * 2 + config.cms_depth * config.cms_width

    schedule = ctx.schedule("smem-cms-ht", vertices, _block_per_vertex_schedule)
    batch = schedule.batch
    warp_steps = schedule.warp_steps

    with device.launch("smem-cms-ht"), replay_or_keep(
        ctx, schedule
    ) as launch:
        if launch.replayed is not None:
            return launch.replayed
        groups = mfl.aggregate_label_frequencies(
            ctx.program, batch, ctx.current_labels
        )
        edge_labels = groups.edge_labels
        schedule.charge(device)

        # ------------------------------------------------------------------
        # HT residency: with full-table probing the resident set of each
        # vertex is the first `ht_capacity` distinct labels in arrival order.
        # ------------------------------------------------------------------
        sorted_within = schedule.within[groups.edge_order]
        group_starts = np.flatnonzero(
            np.concatenate(
                ([True], groups.group_of_edge[1:] != groups.group_of_edge[:-1])
            )
        )
        group_first_arrival = np.minimum.reduceat(sorted_within, group_starts)

        arrival_order = pair_order(groups.vertex_ids, group_first_arrival)
        ordered_vertices = groups.vertex_ids[arrival_order]
        vertex_starts = np.flatnonzero(
            np.concatenate(([True], ordered_vertices[1:] != ordered_vertices[:-1]))
        )
        rank_within_vertex = (
            np.arange(groups.num_groups, dtype=np.int64)
            - np.repeat(
                vertex_starts,
                np.diff(np.concatenate((vertex_starts, [groups.num_groups]))),
            )
        )
        resident_sorted = rank_within_vertex < config.ht_capacity
        resident = np.empty(groups.num_groups, dtype=bool)
        resident[arrival_order] = resident_sorted

        # Per-edge residency: an edge's counting path follows its label.
        edge_resident_sorted = resident[groups.group_of_edge]
        edge_resident = np.empty(batch.num_edges, dtype=bool)
        edge_resident[groups.edge_order] = edge_resident_sorted

        # ------------------------------------------------------------------
        # Shared-memory traffic: HT atomics for resident edges, CMS atomics
        # (d rows) for overflow edges — with real slot/bucket addresses so
        # bank conflicts reflect the actual label distribution.
        # ------------------------------------------------------------------
        ht_edges = np.flatnonzero(edge_resident)
        if ht_edges.size:
            addresses = _ht_slot_addresses(
                edge_labels[ht_edges], config.ht_capacity
            )
            device.atomics.shared_atomic_add(
                addresses,
                warp_ids=warp_steps[ht_edges],
                array="smem-ht-cms",
                size=smem_words,
            )
        overflow_edges = np.flatnonzero(~edge_resident)
        cms_template = CountMinSketch(config.cms_depth, config.cms_width)
        if overflow_edges.size:
            bucket_rows = cms_template.bucket_addresses(
                edge_labels[overflow_edges]
            )
            for row in range(config.cms_depth):
                device.atomics.shared_atomic_add(
                    bucket_rows[row] + config.ht_capacity * 2,
                    warp_ids=warp_steps[overflow_edges],
                    array="smem-ht-cms",
                    size=smem_words,
                )

        # ------------------------------------------------------------------
        # Per-vertex decision: s(HT) vs s(CMS).  CMS estimates are computed
        # with a real per-block sketch (collisions included).
        # ------------------------------------------------------------------
        scores = np.asarray(
            ctx.program.score(
                groups.vertex_ids, groups.labels, groups.frequencies
            ),
            dtype=WEIGHT_DTYPE,
        )
        unique_vertices, vertex_group_starts = np.unique(
            groups.vertex_ids, return_index=True
        )
        ht_scores = np.where(resident, scores, -np.inf)
        s_ht = np.maximum.reduceat(ht_scores, vertex_group_starts)

        fallback_mask = np.zeros(unique_vertices.size, dtype=bool)
        if not resident.all():
            # Only vertices with overflow labels can possibly fall back.
            overflow = ~resident
            owners, s_cms = overflow_cms_max_scores(
                ctx.program,
                groups.vertex_ids[overflow],
                groups.labels[overflow],
                groups.frequencies[overflow],
                config.cms_depth,
                config.cms_width,
            )
            owner_slots = np.searchsorted(unique_vertices, owners)
            fallback_mask[owner_slots] = s_cms > s_ht[owner_slots]

        # ------------------------------------------------------------------
        # Global fallback: count overflow labels exactly in a global table.
        # ------------------------------------------------------------------
        fallback_vertices = unique_vertices[fallback_mask]
        if fallback_vertices.size:
            fb_set = np.isin(batch.vertex_ids, fallback_vertices)
            fb_edges = np.flatnonzero(fb_set & ~edge_resident)
            if fb_edges.size:
                table = GlobalHashTable.for_expected_keys(
                    fb_edges.size, load_factor=0.5
                )
                keys = combine_keys(
                    batch.vertex_ids[fb_edges], edge_labels[fb_edges]
                )
                slots, probes = table.add_batch(keys)
                device.atomics.global_atomic_add(
                    slots,
                    ELEM_BYTES,
                    warp_ids=warp_steps[fb_edges],
                    array="global-ht",
                )
                device.counters.global_load_transactions += int(
                    probes - fb_edges.size
                )

        # ------------------------------------------------------------------
        # Reduction costs (the loop costs are in the schedule).
        # ------------------------------------------------------------------
        block_cfg = BlockConfig(config.block_size)
        # Two BlockReduce(max) per vertex, a third on the fallback path.
        block_reduce_max_cost(
            2 * vertices.size + int(fallback_mask.sum()),
            block_cfg,
            device.spec,
            device.counters,
        )

        account_label_writeback(ctx, vertices.size)
        ctx.stats["smem_high_vertices"] = int(vertices.size)
        ctx.stats["smem_fallback_vertices"] = int(fallback_mask.sum())
        ctx.stats["smem_overflow_groups"] = int((~resident).sum())
        return launch.keep(
            mfl.select_best_labels(
                ctx.program, groups, vertices, ctx.current_labels
            )
        )
