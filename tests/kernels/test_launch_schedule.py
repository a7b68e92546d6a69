"""Launch schedules: a kept schedule charges exactly what a fresh one does.

Dense passes build each MFL kernel's label-independent launch schedule
once per engine attempt and replay it on later iterations.  These tests
pin that the replay is indistinguishable from a rebuild — in counters,
modeled seconds, kernel statistics and sanitizer records — and that every
kernel runs the program's ``load_neighbor`` hook once per launch.
"""

from collections import Counter

import numpy as np
import pytest

from repro import ClassicLP, GLPEngine
from repro.analysis.sanitizer import Sanitizer
from repro.errors import KernelError
from repro.graph.generators.rmat import rmat_graph
from repro.gpusim.device import Device
from repro.kernels.base import GLOBAL_BASELINE, KernelContext, StrategyConfig
from repro.kernels.global_hash import run_global_hash
from repro.kernels.segmented_sort import run_segmented_sort
from repro.kernels.smem_cms_ht import run_smem_cms_ht
from repro.kernels.warp_centric import (
    run_thread_per_vertex,
    run_warp_multi,
    run_warp_shared_ht,
)
from repro.types import LABEL_DTYPE
from tests.kernels.test_golden_fingerprint import iteration_fingerprint

#: Configurations covering every MFL kernel, the CMS overflow path and
#: the global fallback.
CONFIGS = {
    "glp-default": StrategyConfig(),
    "global-baseline": GLOBAL_BASELINE,
    "thread-per-vertex": StrategyConfig(low_strategy="thread_per_vertex"),
    "tiny-sketch": StrategyConfig(
        high_threshold=64, ht_capacity=8, cms_depth=2, cms_width=8
    ),
}


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(10, 12.0, seed=5)


#: Iteration-level seconds are differences of the device's running sum,
#: so they depend on everything before the iteration; launches are
#: compared one by one instead.
_CUMULATIVE = ("iteration", "seconds", "kernel_seconds", "transfer_seconds")


def _iteration_record(stats):
    record = iteration_fingerprint(stats)
    for name in _CUMULATIVE:
        del record[name]
    return record


def _launches(engine):
    return [
        (launch.name, launch.seconds.hex(), launch.counters)
        for launch in engine.device.timeline
    ]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_kept_schedule_replays_a_fresh_build(graph, name):
    """Iteration k (a kept schedule) equals iteration 1 (a fresh build)
    of a run warm-started from iteration k-1's labels, launch by launch."""
    config = CONFIGS[name]
    engine = GLPEngine(config=config)
    run = engine.run(
        graph,
        ClassicLP(),
        max_iterations=6,
        stop_on_convergence=False,
        record_history=True,
    )
    launches = _launches(engine)
    for k in range(2, 7):
        fresh_engine = GLPEngine(config=config)
        fresh = fresh_engine.run(
            graph,
            ClassicLP(),
            max_iterations=1,
            stop_on_convergence=False,
            warm_labels=run.history[k - 2],
        )
        assert _iteration_record(run.iterations[k - 1]) == (
            _iteration_record(fresh.iterations[0])
        ), k
        fresh_launches = _launches(fresh_engine)
        per_iteration = len(fresh_launches)
        assert len(launches) == 6 * per_iteration
        assert launches[(k - 1) * per_iteration : k * per_iteration] == (
            fresh_launches
        ), k


class _RecordCounter(Sanitizer):
    """A sanitizer that tallies forwarded records per iteration and array."""

    def __init__(self):
        super().__init__()
        self.iterations = []

    def begin_kernel(self, name, *, device_index=0):
        if name == "pick-label":
            self.iterations.append(Counter())
        super().begin_kernel(name, device_index=device_index)

    def record(self, space, array, offsets, **kwargs):
        tally = self.iterations[-1]
        tally[(space, array, "records")] += 1
        tally[(space, array, "accesses")] += np.size(offsets)
        super().record(space, array, offsets, **kwargs)


def test_replayed_reads_reach_the_sanitizer(graph):
    sanitizer = _RecordCounter()
    engine = GLPEngine(Device(sanitizer=sanitizer))
    engine.run(graph, ClassicLP(), max_iterations=2, stop_on_convergence=False)
    first, second = sanitizer.iterations
    assert first[("global", "labels", "records")] > 0
    assert first[("global", "neighbor-ids", "records")] > 0
    assert first == second
    assert not sanitizer.findings


class _CountingProgram(ClassicLP):
    """Classic LP that counts its ``load_neighbor`` calls."""

    def __init__(self):
        super().__init__()
        self.load_calls = 0

    def load_neighbor(
        self, vertex_ids, neighbor_ids, neighbor_labels, edge_weights
    ):
        self.load_calls += 1
        return super().load_neighbor(
            vertex_ids, neighbor_ids, neighbor_labels, edge_weights
        )


@pytest.mark.parametrize(
    "kernel",
    [
        run_warp_multi,
        run_warp_shared_ht,
        run_thread_per_vertex,
        run_smem_cms_ht,
        run_global_hash,
        run_segmented_sort,
    ],
)
def test_load_neighbor_runs_once_per_launch(graph, kernel):
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 200, graph.num_vertices).astype(LABEL_DTYPE)
    program = _CountingProgram()
    ctx = KernelContext(
        device=Device(),
        graph=graph,
        current_labels=labels,
        program=program,
        # A tiny sketch forces the CMS+HT kernel's global fallback.
        config=CONFIGS["tiny-sketch"],
    )
    vertices = np.flatnonzero(graph.degrees > 0).astype(np.int64)
    kernel(ctx, vertices)
    assert program.load_calls == 1
    if kernel is run_smem_cms_ht:
        assert ctx.stats["smem_fallback_vertices"] > 0


def test_kept_schedule_must_cover_the_launch_vertices(graph):
    labels = np.arange(graph.num_vertices, dtype=LABEL_DTYPE)
    ctx = KernelContext(
        device=Device(),
        graph=graph,
        current_labels=labels,
        program=ClassicLP(),
        schedules={},
    )
    low = np.flatnonzero(graph.degrees < 32).astype(np.int64)
    run_warp_multi(ctx, low)
    assert set(ctx.schedules) == {"warp-multi"}
    with pytest.raises(KernelError):
        run_warp_multi(ctx, low[1:])
