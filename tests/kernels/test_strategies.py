"""Differential tests: every counting strategy computes identical MFLs.

This is the linchpin of the reproduction: the paper's optimizations are
*exact* (Section 4.1 "Special Note" — pruning, not approximation), so the
CMS+HT kernel, the warp-centric kernel, the global-hash baseline and the
segmented-sort baseline must all return byte-identical winners for any
graph, any label distribution, and any (monotone) scoring program.
"""

import numpy as np
import pytest

from repro.algorithms import ClassicLP, LayeredLP
from repro.graph.generators.community import planted_partition_graph
from repro.graph.generators.rmat import rmat_graph
from repro.gpusim.device import Device
from repro.kernels.base import KernelContext, StrategyConfig
from repro.kernels.global_hash import run_global_hash
from repro.kernels.segmented_sort import run_segmented_sort
from repro.kernels.smem_cms_ht import overflow_cms_max_scores, run_smem_cms_ht
from repro.kernels.warp_centric import (
    run_thread_per_vertex,
    run_warp_multi,
    run_warp_shared_ht,
)
from repro.sketch.countmin import CountMinSketch
from repro.types import LABEL_DTYPE

ALL_KERNELS = [
    run_global_hash,
    run_segmented_sort,
    run_warp_shared_ht,
    run_thread_per_vertex,
]


def make_ctx(graph, labels, program=None, **config_kwargs):
    return KernelContext(
        device=Device(),
        graph=graph,
        current_labels=labels,
        program=program if program is not None else ClassicLP(),
        config=StrategyConfig(**config_kwargs),
    )


def label_distributions(graph, seed=0):
    """A spectrum of label regimes: unique, few, concentrated, converged."""
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    yield "unique", np.arange(n, dtype=LABEL_DTYPE)
    yield "few", rng.integers(0, 5, n).astype(LABEL_DTYPE)
    yield "many", rng.integers(0, max(2, n // 2), n).astype(LABEL_DTYPE)
    concentrated = np.zeros(n, dtype=LABEL_DTYPE)
    concentrated[rng.random(n) < 0.05] = rng.integers(
        1, 10, int((rng.random(n) < 0.05).sum()) or 1
    )[0]
    yield "concentrated", concentrated


@pytest.mark.parametrize("kernel", ALL_KERNELS)
def test_kernels_match_on_all_vertices(powerlaw_graph, kernel):
    for name, labels in label_distributions(powerlaw_graph):
        vertices = np.arange(powerlaw_graph.num_vertices, dtype=np.int64)
        ref_labels, ref_scores = run_global_hash(
            make_ctx(powerlaw_graph, labels), vertices
        )
        got_labels, got_scores = kernel(
            make_ctx(powerlaw_graph, labels), vertices
        )
        assert np.array_equal(got_labels, ref_labels), name
        assert np.allclose(got_scores, ref_scores), name


def test_smem_cms_ht_matches_on_high_degree(powerlaw_graph):
    """The CMS+HT kernel is exact for high-degree vertices even when the
    distinct-label count exceeds the HT capacity (forcing CMS + fallback)."""
    degrees = powerlaw_graph.degrees
    high = np.flatnonzero(degrees > 16).astype(np.int64)
    assert high.size > 0
    for name, labels in label_distributions(powerlaw_graph, seed=3):
        # Tiny HT to force overflow and exercise the fallback path.
        ctx = make_ctx(
            powerlaw_graph, labels, ht_capacity=4, cms_depth=2, cms_width=16
        )
        got_labels, got_scores = run_smem_cms_ht(ctx, high)
        ref_labels, ref_scores = run_global_hash(
            make_ctx(powerlaw_graph, labels), high
        )
        assert np.array_equal(got_labels, ref_labels), name
        assert np.allclose(got_scores, ref_scores), name


def test_warp_multi_matches_on_low_degree(powerlaw_graph):
    degrees = powerlaw_graph.degrees
    low = np.flatnonzero(degrees < 32).astype(np.int64)
    for name, labels in label_distributions(powerlaw_graph, seed=5):
        got_labels, got_scores = run_warp_multi(
            make_ctx(powerlaw_graph, labels), low
        )
        ref_labels, ref_scores = run_global_hash(
            make_ctx(powerlaw_graph, labels), low
        )
        assert np.array_equal(got_labels, ref_labels), name
        assert np.allclose(got_scores, ref_scores), name


def test_kernels_match_with_llp_scoring():
    """Strategy equivalence must hold for non-trivial score functions."""
    graph, _ = planted_partition_graph(300, 6, 8.0, 0.8, seed=9)
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 50, graph.num_vertices).astype(LABEL_DTYPE)
    vertices = np.arange(graph.num_vertices, dtype=np.int64)

    def fresh_program():
        program = LayeredLP(gamma=2.0)
        program.init_state(graph, labels)
        return program

    ref = run_global_hash(
        make_ctx(graph, labels, program=fresh_program()), vertices
    )
    for kernel in (run_segmented_sort, run_warp_shared_ht):
        got = kernel(
            make_ctx(graph, labels, program=fresh_program()), vertices
        )
        assert np.array_equal(got[0], ref[0])
        assert np.allclose(got[1], ref[1])


def test_smem_fallback_stats_recorded(powerlaw_graph):
    rng = np.random.default_rng(11)
    labels = rng.integers(
        0, powerlaw_graph.num_vertices, powerlaw_graph.num_vertices
    ).astype(LABEL_DTYPE)
    high = np.flatnonzero(powerlaw_graph.degrees > 16).astype(np.int64)
    ctx = make_ctx(powerlaw_graph, labels, ht_capacity=4, cms_depth=2)
    run_smem_cms_ht(ctx, high)
    assert ctx.stats["smem_high_vertices"] == high.size
    assert 0 <= ctx.stats["smem_fallback_vertices"] <= high.size


def test_empty_vertex_subsets():
    graph = rmat_graph(6, 3.0, seed=1)
    labels = np.arange(graph.num_vertices, dtype=LABEL_DTYPE)
    empty = np.empty(0, dtype=np.int64)
    for kernel in ALL_KERNELS + [run_smem_cms_ht, run_warp_multi]:
        got_labels, got_scores = kernel(make_ctx(graph, labels), empty)
        assert got_labels.size == 0
        assert got_scores.size == 0


class _NaNScores(ClassicLP):
    """Scores every label divisible by 3 as NaN."""

    def score(self, vertex_ids, labels, frequencies):
        return np.where(labels % 3 == 0, np.nan, frequencies)


def _per_vertex_cms_max(program, vertex_ids, labels, freqs, depth, width):
    """Reference: one fresh CountMinSketch per overflow vertex."""
    owners = np.unique(vertex_ids)
    best = []
    for v in owners:
        mine = vertex_ids == v
        sketch = CountMinSketch(depth, width)
        estimates = sketch.add(labels[mine], freqs[mine])
        best.append(
            np.asarray(
                program.score(vertex_ids[mine], labels[mine], estimates)
            ).max()
        )
    return owners, np.array(best)


@pytest.mark.parametrize("program", [ClassicLP(), _NaNScores()])
@pytest.mark.parametrize("depth,width", [(4, 512), (2, 3), (1, 1)])
def test_overflow_cms_matches_per_vertex_sketches(program, depth, width):
    rng = np.random.default_rng(depth * 100 + width)
    rows = sorted(
        {
            (int(v), int(label))
            for v, label in zip(
                rng.integers(0, 40, 600), rng.integers(0, 300, 600)
            )
        }
    )
    vertex_ids = np.array([r[0] for r in rows], dtype=np.int64)
    labels = np.array([r[1] for r in rows], dtype=LABEL_DTYPE)
    # Weighted frequencies: float sums must match bucket for bucket.
    freqs = rng.random(labels.size) * 7.0 + rng.integers(1, 4, labels.size)
    owners, best = overflow_cms_max_scores(
        program, vertex_ids, labels, freqs, depth, width
    )
    ref_owners, ref_best = _per_vertex_cms_max(
        program, vertex_ids, labels, freqs, depth, width
    )
    assert np.array_equal(owners, ref_owners)
    assert np.array_equal(best, ref_best, equal_nan=True)
    if isinstance(program, _NaNScores):
        assert np.isnan(best).any()
