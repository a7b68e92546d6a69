"""Shared kernel-strategy plumbing: context, config and access accounting."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.api import LPProgram
from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.gpusim import hooks
from repro.gpusim.counters import PerfCounters
from repro.gpusim.device import Device, DeviceArray
from repro.gpusim.memory import CountedLoad
from repro.kernels.mfl import EdgeBatch, expand_edges

#: Bytes per vertex id / label / offset on the device.
ELEM_BYTES = 8

#: Shift separating warp-id from step-id when composing warp-step keys.
_STEP_SHIFT = np.int64(24)


@dataclass(frozen=True)
class StrategyConfig:
    """Kernel-strategy selection and tuning knobs.

    The defaults are the full GLP configuration; the ablation experiment
    (Table 3) swaps individual strategies back to the baseline.
    """

    #: High-degree strategy: "smem" (CMS+HT) or "global" (global hash).
    high_strategy: str = "smem"
    #: Mid-degree strategy: "shared_ht" (warp + shared HT) or "global".
    mid_strategy: str = "shared_ht"
    #: Low-degree strategy: "warp_multi", "warp_per_vertex" or
    #: "thread_per_vertex".
    low_strategy: str = "warp_multi"
    #: Degree below which a vertex is "low degree" (paper: 32).
    low_threshold: int = 32
    #: Degree above which a vertex is "high degree" (paper: 128).
    high_threshold: int = 128
    #: Shared-memory hash-table slots per block (``h`` in Lemma 1).
    ht_capacity: int = 512
    #: CMS rows (``d`` in Lemma 2).
    cms_depth: int = 4
    #: CMS buckets per row (``w``).
    cms_width: int = 512
    #: Threads per block for the high-degree kernel.
    block_size: int = 256

    def __post_init__(self) -> None:
        if self.high_strategy not in ("smem", "global"):
            raise KernelError(f"unknown high_strategy {self.high_strategy!r}")
        if self.mid_strategy not in ("shared_ht", "global"):
            raise KernelError(f"unknown mid_strategy {self.mid_strategy!r}")
        if self.low_strategy not in (
            "warp_multi",
            "warp_per_vertex",
            "thread_per_vertex",
        ):
            raise KernelError(f"unknown low_strategy {self.low_strategy!r}")
        if self.ht_capacity <= 0 or self.cms_depth <= 0 or self.cms_width <= 0:
            raise KernelError("sketch dimensions must be positive")
        if self.block_size <= 0 or self.block_size % 32:
            raise KernelError("block_size must be a positive multiple of 32")


#: Table 3's ``global`` baseline: everything through the global hash table.
GLOBAL_BASELINE = StrategyConfig(
    high_strategy="global", mid_strategy="global", low_strategy="warp_per_vertex"
)

#: Table 3's ``smem`` row: only the high-degree kernel upgraded.
SMEM_ONLY = StrategyConfig(
    high_strategy="smem", mid_strategy="global", low_strategy="warp_per_vertex"
)

#: Table 3's ``smem+warp`` row: both paper optimizations active.
SMEM_WARP = StrategyConfig(
    high_strategy="smem", mid_strategy="global", low_strategy="warp_multi"
)

#: The full GLP configuration (also upgrades mid-degree vertices).
GLP_DEFAULT = StrategyConfig()


#: What an MFL kernel returns: ``(best_labels, best_scores)`` aligned
#: with its sorted vertex array.
KernelOutput = Tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class KeptLaunch:
    """The last execution of a scheduled launch, kept for replay and
    patching.

    Everything the launch body changed, keyed by the labels it read: if
    no label the launch reads differs from ``labels``, re-running the
    body would add exactly ``counters``, write exactly ``stats`` and
    return exactly ``outputs`` (see :func:`run_launch`).  A patch keeps
    the record a full execution would have made.
    """

    #: The V-length label array of the pass that executed or patched the
    #: launch (shared by every launch that pass executed or patched).
    labels: np.ndarray
    #: Counter delta of the body (integers only; the launch's own
    #: ``kernel_launches`` increment is not part of it).
    counters: PerfCounters
    #: The ``KernelContext.stats`` entries the body wrote.
    stats: dict
    outputs: KernelOutput
    #: ``(shape, dtype, origin)`` of each scratch allocation the body
    #: made and freed, in order.
    scratch: Tuple[tuple, ...]


@dataclass
class LaunchSchedule:
    """The label-independent half of one MFL kernel launch.

    Degrees never change between LP iterations, so everything a launch
    derives from ``(graph, vertices, config, device spec)`` alone is the
    same every iteration: the expanded edge batch, the warp-step keys,
    the counted common reads (their addresses are vertex ids, CSR offsets
    and neighbor ids, never labels) and the degree-derived instruction
    counts.  A kernel builds its schedule, then executes the
    label-dependent half over it; dense passes keep the schedule for the
    next iteration (see :meth:`KernelContext.schedule`).  It is simulator
    bookkeeping, not device state: nothing here is a device allocation.
    Only :attr:`kept`, the label-dependent record of the last execution,
    is ever reassigned.
    """

    #: The sorted vertex subset the schedule was built for.
    vertices: np.ndarray
    batch: EdgeBatch
    #: Per-edge warp-step key (batch order) of the label accesses.
    warp_steps: np.ndarray
    #: Counted common reads; the per-edge label gather is the last one
    #: whenever the batch has edges.
    reads: Tuple[CountedLoad, ...]
    warp_instructions: int
    active_lane_sum: int
    warps_launched: int
    #: Warp-multi only: each edge's flat ``warp * warp_size + lane`` slot
    #: and the ``(warps, warp_size)`` active-lane grid.
    lane_slots: Optional[np.ndarray] = None
    active_lanes: Optional[np.ndarray] = None
    #: Block-per-vertex only: each edge's position within its vertex's list.
    within: Optional[np.ndarray] = None
    #: The launch's last execution or patch, kept by :func:`run_launch`.
    kept: Optional[KeptLaunch] = None

    @property
    def label_gather(self) -> CountedLoad:
        """The counted per-edge label gather (batches with edges only)."""
        return self.reads[-1]

    def charge(self, device: Device) -> None:
        """Charge the common reads and the degree-derived instructions."""
        for load in self.reads:
            device.memory.charge_load(load)
        device.counters.warp_instructions += self.warp_instructions
        device.counters.active_lane_sum += self.active_lane_sum
        device.counters.warps_launched += self.warps_launched


@dataclass
class KernelContext:
    """Everything a strategy kernel needs for one LabelPropagation pass."""

    device: Device
    graph: CSRGraph
    current_labels: np.ndarray
    program: LPProgram
    config: StrategyConfig = field(default_factory=lambda: GLP_DEFAULT)
    #: Per-pass kernel statistics (e.g. the CMS+HT kernel records how many
    #: high-degree vertices needed the global-memory fallback — the
    #: quantity Theorem 1 bounds).
    stats: dict = field(default_factory=dict)
    #: Launch schedules kept across the dense passes of one engine attempt,
    #: keyed by kernel name; ``None`` builds every schedule for one launch.
    schedules: Optional[dict] = None
    #: Whether a launch without a kept record keeps its execution: only
    #: when the pass before this one was dense too, so a next dense pass
    #: is likely to read the record.
    keep: bool = True
    #: This pass's copy of ``current_labels``, made by the first launch
    #: the pass executes and shared by the records of every launch it
    #: executes.
    _labels_copy: Optional[np.ndarray] = field(
        default=None, init=False, repr=False
    )
    #: Scratch allocations of the body in flight, when it is being kept.
    _scratch: Optional[list] = field(default=None, init=False, repr=False)

    def schedule(
        self,
        kernel: str,
        vertices: np.ndarray,
        build: Callable[["KernelContext", np.ndarray], LaunchSchedule],
    ) -> LaunchSchedule:
        """Get ``kernel``'s kept schedule over ``vertices``, or build it."""
        if self.schedules is None:
            return build(self, vertices)
        schedule = self.schedules.get(kernel)
        if schedule is None:
            schedule = self.schedules[kernel] = build(self, vertices)
        elif not np.array_equal(schedule.vertices, vertices):
            raise KernelError(
                f"kept {kernel} schedule covers other vertices than the "
                "launch processes"
            )
        return schedule

    def scratch(self, shape, dtype, origin: str) -> DeviceArray:
        """Allocate launch-local scratch memory tagged ``origin``.

        The caller frees it before its launch ends.  A kept record notes
        the allocation, so a replay makes the same allocation events.
        """
        with obs.alloc_scope("scratch", origin):
            handle = self.device.alloc(shape, dtype)
        if self._scratch is not None:
            self._scratch.append((shape, dtype, origin))
        return handle


#: A kernel's label-independent half: its schedule over sorted vertices.
ScheduleBuild = Callable[["KernelContext", np.ndarray], LaunchSchedule]
#: A kernel's label-dependent half: reads ``ctx.current_labels``, charges
#: the device over the schedule and returns the outputs.
LaunchBody = Callable[["KernelContext", LaunchSchedule], KernelOutput]


def _per_vertex_terms(stats: dict) -> bool:
    """Patch rule of a kernel whose label-dependent effects always are
    sums of per-vertex terms (see :func:`run_launch`)."""
    return True


def run_launch(
    ctx: KernelContext,
    kernel: str,
    vertices: np.ndarray,
    build: ScheduleBuild,
    body: LaunchBody,
    *,
    patch: Optional[Callable[[dict], bool]] = _per_vertex_terms,
) -> KernelOutput:
    """Launch ``kernel`` over ``vertices``: replay, patch or execute it.

    Inside ``device.launch(kernel)`` the schedule is built (or the kept
    one taken) and then one of three things happens:

    * **replay** — no label the launch reads differs from its kept
      record's: add the kept counter delta, make the same scratch
      allocations, restore the stats entries and return the kept outputs;
    * **patch** — the affected vertices A (those whose own label changed
      or that have an in-neighbor whose label changed) hold fewer than
      half the launch's edges: run ``body`` over A's sub-schedule on the
      kept labels and on the current ones, charge ``kept + new(A) -
      old(A)`` for every counter and stats entry, and return the kept
      outputs with A's positions replaced;
    * **execute** — run ``body`` over the whole schedule.

    Replay and patch apply on dense passes (kept schedules) of
    ``frontier_safe`` programs, whose kernel results depend on nothing but
    the labels read, while no sanitizer listens to the launch; where they
    apply, an executed or patched launch becomes the schedule's kept
    record, unless ``ctx.keep`` is off (the pass before was not dense).
    A patch is exact when every label-dependent effect of ``body`` is a
    sum of per-vertex terms, so the terms of vertices outside A are the
    kept ones and label-independent terms cancel between the two
    sub-runs.  ``patch(stats)`` says whether a sub-run's
    stats entries allow that (``None``: the kernel never patches); when a
    sub-run breaks it, the launch executes.  A patchable body makes no
    scratch allocation.  The enclosing ``device.launch`` derives timing,
    timeline record, trace span and fault events from the same counters
    in the same order whichever way the launch ran.
    """
    with ctx.device.launch(kernel):
        schedule = ctx.schedule(kernel, vertices, build)
        if (
            ctx.schedules is None
            or not ctx.program.frontier_safe
            or hooks.ACTIVE.get() is not None
        ):
            return body(ctx, schedule)
        kept = schedule.kept
        if kept is None:
            if not ctx.keep:
                return body(ctx, schedule)
            return _execute(ctx, schedule, body)
        changed = kept.labels != ctx.current_labels
        if not changed.any():
            return _replay(ctx, kept)
        # A launch reads its neighbors' labels and, through a vertex with
        # no edges, its own vertices' labels.
        batch = schedule.batch
        own = changed[schedule.vertices]
        if patch is None or not _may_patch(ctx, schedule, own):
            if own.any() or changed[batch.neighbor_ids].any():
                return _execute(ctx, schedule, body)
            return _replay(ctx, kept)
        affected = changed.copy()
        affected[batch.vertex_ids[changed[batch.neighbor_ids]]] = True
        positions = np.flatnonzero(affected[schedule.vertices])
        if positions.size == 0:
            return _replay(ctx, kept)
        if _may_patch(ctx, schedule, positions):
            outputs = _patch(ctx, schedule, build, body, patch, positions)
            if outputs is not None:
                return outputs
        return _execute(ctx, schedule, body)


def _may_patch(
    ctx: KernelContext, schedule: LaunchSchedule, subset: np.ndarray
) -> bool:
    """Whether the launch vertices ``subset`` selects (a mask or
    positions) hold fewer than half the launch's edges: two sub-runs over
    them then cost less than one full execution."""
    edges = int(ctx.graph.degrees[schedule.vertices[subset]].sum())
    return 2 * edges < schedule.batch.num_edges


def _replay(ctx: KernelContext, kept: KeptLaunch) -> KernelOutput:
    """Re-charge a kept record whose reads did not change."""
    ctx.device.counters.add(kept.counters)
    for shape, dtype, origin in kept.scratch:
        ctx.device.free(ctx.scratch(shape, dtype, origin))
    ctx.stats.update(kept.stats)
    return kept.outputs


def _execute(
    ctx: KernelContext, schedule: LaunchSchedule, body: LaunchBody
) -> KernelOutput:
    """Run ``body`` over the whole schedule and keep the execution."""
    device = ctx.device
    before = device.counters.copy()
    outer_stats, ctx.stats = ctx.stats, {}
    ctx._scratch = []
    try:
        outputs = body(ctx, schedule)
    finally:
        stats, ctx.stats = ctx.stats, outer_stats
        outer_stats.update(stats)
        scratch, ctx._scratch = ctx._scratch, None
    _keep(
        ctx,
        schedule,
        counters=device.counters.delta_since(before),
        stats=stats,
        outputs=outputs,
        scratch=tuple(scratch),
    )
    return outputs


def _patch(
    ctx: KernelContext,
    schedule: LaunchSchedule,
    build: ScheduleBuild,
    body: LaunchBody,
    patch: Callable[[dict], bool],
    positions: np.ndarray,
) -> Optional[KernelOutput]:
    """Patch the kept record over the affected ``positions``.

    Returns the patched outputs, or ``None`` (with the device's counters
    as they were) when a sub-run's stats break the ``patch`` rule.
    """
    kept = schedule.kept
    vertices = schedule.vertices[positions]
    counters = ctx.device.counters
    sub_schedule = build(ctx, vertices)
    runs = []
    for labels in (kept.labels, ctx.current_labels):
        sub = dataclasses.replace(ctx, current_labels=labels, stats={})
        before = counters.copy()
        outputs = body(sub, sub_schedule)
        runs.append((counters.delta_since(before), sub.stats, outputs))
    (old, old_stats, _), (new, new_stats, new_outputs) = runs
    counters.subtract(old).subtract(new)
    if not (patch(old_stats) and patch(new_stats)):
        return None
    patched = kept.counters.copy().add(new).subtract(old)
    counters.add(patched)
    stats = {
        key: kept.stats.get(key, 0)
        + new_stats.get(key, 0)
        - old_stats.get(key, 0)
        for key in {**kept.stats, **new_stats}
    }
    ctx.stats.update(stats)
    outputs = tuple(kept_out.copy() for kept_out in kept.outputs)
    for out, sub_out in zip(outputs, new_outputs):
        out[positions] = sub_out
    _keep(
        ctx,
        schedule,
        counters=patched,
        stats=stats,
        outputs=outputs,
        scratch=kept.scratch,
    )
    return outputs


def _keep(ctx: KernelContext, schedule: LaunchSchedule, **record) -> None:
    """Make ``record`` the schedule's kept launch, read on this pass's
    labels."""
    if ctx._labels_copy is None:
        ctx._labels_copy = ctx.current_labels.copy()
    schedule.kept = KeptLaunch(labels=ctx._labels_copy, **record)


# ----------------------------------------------------------------------
# Warp-step maps: which (warp, issue-step) each edge access belongs to.
# Two accesses coalesce only when they happen in the same warp on the same
# step, so these maps are what turn a strategy's schedule into transactions.
# ----------------------------------------------------------------------
def warp_steps_one_warp_per_vertex(
    graph: CSRGraph, batch: EdgeBatch, warp_size: int = 32
) -> np.ndarray:
    """Warp-step keys when one warp strides over each vertex's list.

    Edge ``e`` of vertex ``v`` is handled by lane ``within % 32`` on step
    ``within // 32``; all lanes of a step belong to vertex ``v``'s warp.
    """
    within = batch.edge_positions - graph.offsets[batch.vertex_ids]
    steps = within // warp_size
    return (batch.vertex_ids.astype(np.int64) << _STEP_SHIFT) | steps


def warp_steps_one_thread_per_vertex(
    graph: CSRGraph, batch: EdgeBatch, warp_size: int = 32
) -> np.ndarray:
    """Warp-step keys when each thread walks one vertex's list.

    Thread ``v`` sits in warp ``v // 32``; on step ``k`` the warp's lanes
    access the ``k``-th neighbor of 32 *different* vertices — the classic
    uncoalesced pattern the paper criticizes.
    """
    within = batch.edge_positions - graph.offsets[batch.vertex_ids]
    warps = batch.vertex_ids.astype(np.int64) // warp_size
    return (warps << _STEP_SHIFT) | within


def warp_steps_block_per_vertex(
    graph: CSRGraph, batch: EdgeBatch, block_size: int, warp_size: int = 32
) -> np.ndarray:
    """Warp-step keys when a block of ``block_size`` threads strides a list."""
    within = batch.edge_positions - graph.offsets[batch.vertex_ids]
    lane_slot = within % block_size
    step = within // block_size
    warp_in_block = lane_slot // warp_size
    key = (
        (batch.vertex_ids.astype(np.int64) << _STEP_SHIFT)
        | (step * (block_size // warp_size) + warp_in_block)
    )
    return key


def common_reads(
    ctx: KernelContext,
    batch: EdgeBatch,
    label_warp_steps: Optional[np.ndarray],
    *,
    neighbor_ids_scattered: bool = False,
) -> Tuple[CountedLoad, ...]:
    """Count the reads every counting strategy performs.

    * the two CSR offsets per processed vertex (near-coalesced),
    * the neighbor-id reads — contiguous segment streams when a warp/block
      walks one list together, but *scattered* when each lane walks its own
      list (``neighbor_ids_scattered=True``, the one-thread-one-vertex
      pattern the paper criticizes), and
    * the per-edge label gather — the access whose coalescing behaviour
      differs between strategies, hence the caller-provided warp-step map.

    Every address is a vertex id, a CSR offset or a neighbor id, so the
    counts are label-independent.
    """
    memory = ctx.device.memory
    graph = ctx.graph
    reads = []
    vertices = batch.vertices
    if vertices.size:
        reads.append(
            memory.count_gather(vertices, ELEM_BYTES, array="csr-offsets")
        )
        if not neighbor_ids_scattered:
            reads.append(
                memory.count_segments(
                    graph.offsets[vertices],
                    graph.degrees[vertices],
                    ELEM_BYTES,
                    array="neighbor-ids",
                )
            )
    if batch.num_edges:
        if neighbor_ids_scattered:
            reads.append(
                memory.count_gather(
                    batch.edge_positions,
                    ELEM_BYTES,
                    warp_ids=label_warp_steps,
                    array="neighbor-ids",
                )
            )
        reads.append(
            memory.count_gather(
                batch.neighbor_ids,
                ELEM_BYTES,
                warp_ids=label_warp_steps,
                array="labels",
            )
        )
    return tuple(reads)


def account_common_reads(
    ctx: KernelContext,
    batch: EdgeBatch,
    label_warp_steps: Optional[np.ndarray],
    *,
    neighbor_ids_scattered: bool = False,
) -> None:
    """Count and charge :func:`common_reads` in one go."""
    for load in common_reads(
        ctx,
        batch,
        label_warp_steps,
        neighbor_ids_scattered=neighbor_ids_scattered,
    ):
        ctx.device.memory.charge_load(load)


def warp_per_vertex_schedule(
    ctx: KernelContext,
    vertices: np.ndarray,
    *,
    loop_instructions: int,
    reduce_instructions: int = 0,
) -> LaunchSchedule:
    """Schedule of a kernel whose warp strides one vertex's list.

    Each 32-edge step issues ``loop_instructions``; an optional per-vertex
    reduction issues ``reduce_instructions`` with one live lane per edge,
    so lanes beyond the vertex's degree idle through it like the loop.
    """
    warp_size = ctx.device.spec.warp_size
    batch = expand_edges(ctx.graph, vertices)
    warp_steps = warp_steps_one_warp_per_vertex(ctx.graph, batch)
    degrees = ctx.graph.degrees[vertices]
    steps = -(-degrees // warp_size)
    return LaunchSchedule(
        vertices=vertices,
        batch=batch,
        warp_steps=warp_steps,
        reads=common_reads(ctx, batch, warp_steps),
        warp_instructions=int(steps.sum()) * loop_instructions
        + vertices.size * reduce_instructions,
        active_lane_sum=int(degrees.sum()) * loop_instructions
        + int(np.minimum(degrees, warp_size).sum()) * reduce_instructions,
        warps_launched=int(vertices.size),
    )


def account_label_writeback(ctx: KernelContext, num_vertices: int) -> None:
    """Account the coalesced store of the per-vertex winning labels."""
    if num_vertices:
        ctx.device.memory.store_sequential(
            num_vertices, ELEM_BYTES, array="best-labels"
        )
