"""The ``global`` counting strategy (G-Hash baseline).

One warp per vertex; every neighbor label is counted by an ``atomicAdd``
into a global-memory hash table keyed by ``(vertex, label)``.  This is the
approach of [2] and the baseline row of Table 3.

Its two weaknesses — which the accounting here surfaces — are exactly the
paper's motivation:

* every probe and counter update is an (often uncoalesced) global-memory
  transaction, and once communities form, many lanes of a warp hit the
  *same* counter, serializing the atomics;
* low-degree vertices leave most of their warp's lanes idle.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from repro.kernels import mfl
from repro.kernels.base import (
    ELEM_BYTES,
    KernelContext,
    LaunchSchedule,
    account_label_writeback,
    run_launch,
    warp_per_vertex_schedule,
)
from repro.sketch.globalhash import GlobalHashTable, combine_keys

#: Warp instructions per 32-edge loop step (index math, load, hash, branch).
_LOOP_INSTRUCTIONS = 6
#: Warp instructions for the final per-vertex max-score reduction.
_REDUCE_INSTRUCTIONS = 5


def _global_hash_body(
    ctx: KernelContext, schedule: LaunchSchedule
) -> Tuple[np.ndarray, np.ndarray]:
    """Group-by, global hash-table counting and winners."""
    device = ctx.device
    batch = schedule.batch
    groups = mfl.aggregate_label_frequencies(
        ctx.program, batch, ctx.current_labels
    )
    schedule.charge(device)

    if batch.num_edges:
        # Real hash-table insertion: probe counts and the slot addresses
        # the atomics hit come from actual collisions at load factor 0.5.
        table = GlobalHashTable.for_expected_keys(
            max(1, groups.num_groups), load_factor=0.5
        )
        table_mem = ctx.scratch(
            (table.capacity,), np.int64, "kernels.ghash.table"
        )
        try:
            keys = combine_keys(batch.vertex_ids, groups.edge_labels)
            slots, probes = table.add_batch(keys)
            # One atomic RMW per edge at its resolved slot...
            device.atomics.global_atomic_add(
                slots,
                ELEM_BYTES,
                warp_ids=schedule.warp_steps,
                array="global-ht",
            )
            # ...plus one uncoalesced probe load per extra inspection.
            extra_probes = probes - batch.num_edges
            device.counters.global_load_transactions += int(extra_probes)

            # MFL extraction: the warp re-reads its neighbor labels to
            # enumerate candidates (the "label values are repeatedly
            # loaded" issue of Section 2.2) and re-reads the counters.
            device.memory.charge_load(schedule.label_gather)
            if groups.num_groups:
                first_of_group = np.concatenate(
                    (
                        [True],
                        groups.group_of_edge[1:] != groups.group_of_edge[:-1],
                    )
                )
                group_slots = slots[groups.edge_order][first_of_group]
                # Counter re-read after the counting loop: atomics and
                # reads never race (the add is the synchronization).
                device.memory.load_gather(
                    group_slots, ELEM_BYTES, array="global-ht"
                )
        finally:
            device.free(table_mem)

    account_label_writeback(ctx, schedule.vertices.size)
    return mfl.select_best_labels(
        ctx.program, groups, schedule.vertices, ctx.current_labels
    )


def run_global_hash(
    ctx: KernelContext, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Count labels of ``vertices`` through a global hash table.

    Returns ``(best_labels, best_scores)`` aligned with ``vertices``.  The
    one table is shared by every vertex, so its probes are no sum of
    per-vertex terms and the launch never patches.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    return run_launch(
        ctx,
        "global-hash",
        vertices,
        functools.partial(
            warp_per_vertex_schedule,
            loop_instructions=_LOOP_INSTRUCTIONS,
            reduce_instructions=_REDUCE_INSTRUCTIONS,
        ),
        _global_hash_body,
        patch=None,
    )
