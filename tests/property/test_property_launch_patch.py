"""Property test of launch patching.

A dense MFL launch kept under labels ``L0`` and launched again under
``L1`` patches its kept record when the vertices whose reads changed hold
fewer than half its edges: it re-runs its body over those vertices only,
on ``L0`` and on ``L1``.  Over generated weighted R-MAT graphs (isolated
vertices included) and label changes, "keep under ``L0``, then launch
under ``L1``" must equal a fresh launch under ``L1`` in every counter,
the modeled seconds, every stats entry and both outputs, bit for bit, and
must run the body exactly as the patch rule says.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClassicLP
from repro.graph.builder import from_edge_arrays
from repro.graph.generators.rmat import rmat_edges
from repro.gpusim.device import Device
from repro.kernels import mfl
from repro.kernels.base import GLOBAL_BASELINE, KernelContext, StrategyConfig
from repro.kernels.global_hash import run_global_hash
from repro.kernels.scheduler import bin_vertices_by_degree
from repro.kernels.smem_cms_ht import run_smem_cms_ht
from repro.kernels.warp_centric import (
    run_thread_per_vertex,
    run_warp_multi,
    run_warp_shared_ht,
)
from repro.types import LABEL_DTYPE

#: Thresholds low enough that small graphs fill every degree bin.
_BINS = dict(low_threshold=4, high_threshold=8)
#: Each patchable kernel with the configuration and bin it runs on.
KERNELS = {
    "warp-multi": (run_warp_multi, StrategyConfig(**_BINS), "low"),
    "thread-per-vertex": (
        run_thread_per_vertex,
        StrategyConfig(low_strategy="thread_per_vertex", **_BINS),
        "low",
    ),
    "warp-shared-ht": (run_warp_shared_ht, StrategyConfig(**_BINS), "mid"),
    "smem-cms-ht": (run_smem_cms_ht, StrategyConfig(**_BINS), "high"),
}


class _CountingLP(ClassicLP):
    """Classic LP that records the batch size of each body it runs."""

    def __init__(self):
        super().__init__()
        self.bodies = []

    def load_neighbor(
        self, vertex_ids, neighbor_ids, neighbor_labels, edge_weights
    ):
        self.bodies.append(np.unique(vertex_ids).size)
        return super().load_neighbor(
            vertex_ids, neighbor_ids, neighbor_labels, edge_weights
        )


def _launch(kernel, graph, labels, config, vertices, schedules, program):
    """One launch on a fresh device; returns what it charged and wrote."""
    device = Device()
    ctx = KernelContext(
        device=device,
        graph=graph,
        current_labels=labels,
        program=program,
        config=config,
        schedules=schedules,
    )
    best_labels, best_scores = kernel(ctx, vertices)
    (record,) = device.timeline
    return {
        "counters": record.counters,
        "seconds": record.seconds.hex(),
        "stats": ctx.stats,
        "labels": best_labels.tobytes(),
        "scores": best_scores.tobytes(),
    }


def _affected_edges(graph, vertices, before, after):
    """Edges held by the launch vertices whose own or in-neighbor label
    changed, or ``None`` when no read changed."""
    changed = before != after
    batch = mfl.expand_edges(graph, vertices)
    affected = changed[vertices] | np.isin(
        vertices, batch.vertex_ids[changed[batch.neighbor_ids]]
    )
    if not affected.any():
        return None
    return int(graph.degrees[vertices[affected]].sum())


def _patch_then_fresh(kernel, config, graph, vertices, before, after):
    """``(patched, fresh, bodies)``: the second of two kept launches,
    a fresh launch under ``after`` and the bodies the second one ran."""
    program = _CountingLP()
    schedules = {}
    _launch(kernel, graph, before, config, vertices, schedules, program)
    del program.bodies[:]
    patched = _launch(
        kernel, graph, after, config, vertices, schedules, program
    )
    fresh = _launch(
        kernel, graph, after, config, vertices, None, ClassicLP()
    )
    return patched, fresh, program.bodies


@st.composite
def graphs_and_labels(draw):
    """A weighted R-MAT graph with isolated vertices, ``L0`` and ``L1``."""
    scale = draw(st.integers(min_value=4, max_value=7))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    num_edges = draw(st.integers(min_value=8, max_value=12 << scale))
    src, dst = rmat_edges(scale, num_edges, rng=rng)
    isolated = draw(st.integers(min_value=0, max_value=4))
    num_vertices = (1 << scale) + isolated
    # Non-dyadic weights: per-vertex float sums depend on summation order.
    weights = rng.integers(1, 12, src.size) / 4.0 + 1 / 3
    graph = from_edge_arrays(
        src, dst, num_vertices, weights=weights, symmetrize=True
    )
    num_labels = draw(st.integers(min_value=2, max_value=num_vertices))
    before = rng.integers(0, num_labels, num_vertices).astype(LABEL_DTYPE)
    after = before.copy()
    moved = rng.choice(
        num_vertices,
        draw(st.integers(min_value=1, max_value=4)),
        replace=False,
    )
    after[moved] = rng.integers(0, num_labels, moved.size)
    return graph, before, after


@pytest.mark.parametrize("name", sorted(KERNELS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=graphs_and_labels())
def test_patch_equals_a_fresh_launch(name, case):
    graph, before, after = case
    kernel, config, bin_name = KERNELS[name]
    vertices = getattr(
        bin_vertices_by_degree(
            graph,
            low_threshold=config.low_threshold,
            high_threshold=config.high_threshold,
        ),
        bin_name,
    )
    if vertices.size == 0:
        return
    patched, fresh, bodies = _patch_then_fresh(
        kernel, config, graph, vertices, before, after
    )
    assert patched == fresh

    edges = _affected_edges(graph, vertices, before, after)
    total = int(graph.degrees[vertices].sum())
    if edges is None:
        assert bodies == []
    elif 2 * edges < total:
        # The sub-batch on L0 and on L1 (no fallback: ht_capacity 512).
        assert len(bodies) == 2 and bodies[0] == bodies[1] < vertices.size
    else:
        assert len(bodies) == 1


def _two_cliques(small=6, large=10):
    """Disjoint cliques: a change inside the small one affects exactly
    its vertices, which hold under half the edges."""
    src, dst = [], []
    for first, size in ((0, small), (small, large)):
        a, b = np.triu_indices(size, k=1)
        src.append(a + first)
        dst.append(b + first)
    graph = from_edge_arrays(
        np.concatenate(src),
        np.concatenate(dst),
        small + large,
        symmetrize=True,
    )
    before = np.arange(small + large, dtype=LABEL_DTYPE)
    after = before.copy()
    after[0] = 100
    return graph, before, after


def test_a_sub_run_with_a_fallback_vertex_declines():
    graph, before, after = _two_cliques()
    # Every label of a clique is distinct: a two-slot table overflows and
    # a two-bucket sketch over-estimates, so every vertex falls back.
    config = StrategyConfig(
        low_threshold=2, high_threshold=4, ht_capacity=2, cms_depth=1,
        cms_width=2,
    )
    vertices = np.arange(graph.num_vertices, dtype=np.int64)
    patched, fresh, bodies = _patch_then_fresh(
        run_smem_cms_ht, config, graph, vertices, before, after
    )
    assert patched == fresh
    assert fresh["stats"]["smem_fallback_vertices"] == graph.num_vertices
    # Both sub-runs over the small clique, then the whole launch.
    assert bodies == [6, 6, graph.num_vertices]


def test_global_hash_never_patches():
    graph, before, after = _two_cliques()
    vertices = np.arange(graph.num_vertices, dtype=np.int64)
    patched, fresh, bodies = _patch_then_fresh(
        run_global_hash, GLOBAL_BASELINE, graph, vertices, before, after
    )
    assert patched == fresh
    assert bodies == [graph.num_vertices]
