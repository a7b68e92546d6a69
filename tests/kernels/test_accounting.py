"""Tests that the kernels produce the counter *profiles* the paper's
arguments rely on — not just correct labels."""

import numpy as np
import pytest

from repro.algorithms import ClassicLP
from repro.graph.generators.bipartite import dense_interaction_core
from repro.graph.generators.road import road_network_graph
from repro.gpusim.device import Device
from repro.kernels.base import KernelContext, StrategyConfig
from repro.kernels.global_hash import run_global_hash
from repro.kernels.segmented_sort import run_segmented_sort
from repro.kernels.smem_cms_ht import run_smem_cms_ht
from repro.gpusim import warp as warp_intrinsics
from repro.kernels import mfl
from repro.kernels.warp_centric import _warp_multi_schedule, run_warp_multi
from repro.types import LABEL_DTYPE


def make_ctx(graph, labels, **config_kwargs):
    return KernelContext(
        device=Device(),
        graph=graph,
        current_labels=labels,
        program=ClassicLP(),
        config=StrategyConfig(**config_kwargs),
    )


@pytest.fixture(scope="module")
def dense_graph():
    """An aligraph-like core: every vertex is high degree."""
    return dense_interaction_core(128, 60.0, seed=2)


@pytest.fixture(scope="module")
def road_graph():
    return road_network_graph(30, 30, seed=2)


class TestSmemVsGlobal:
    def test_smem_kernel_avoids_global_counting_traffic(self, dense_graph):
        """Section 4.1's point: with concentrated labels the CMS+HT kernel
        counts entirely in shared memory while the global-hash kernel pays
        a transaction per neighbor."""
        labels = (
            np.arange(dense_graph.num_vertices, dtype=LABEL_DTYPE) % 3
        )
        vertices = np.flatnonzero(dense_graph.degrees > 16).astype(np.int64)

        smem_ctx = make_ctx(dense_graph, labels)
        run_smem_cms_ht(smem_ctx, vertices)
        global_ctx = make_ctx(dense_graph, labels)
        run_global_hash(global_ctx, vertices)

        smem_counters = smem_ctx.device.counters
        global_counters = global_ctx.device.counters
        # The smem kernel did its counting on-chip...
        assert smem_counters.shared_store_ops > 0
        assert smem_counters.global_atomic_ops == 0  # no fallback needed
        # ...while the global kernel hit device memory per neighbor.
        assert global_counters.global_atomic_ops > 0
        assert (
            global_counters.global_transactions
            > 1.5 * smem_counters.global_transactions
        )

    def test_concentrated_labels_serialize_global_atomics(self, dense_graph):
        vertices = np.flatnonzero(dense_graph.degrees > 16).astype(np.int64)
        rng = np.random.default_rng(0)

        diverse = rng.integers(
            0, dense_graph.num_vertices, dense_graph.num_vertices
        ).astype(LABEL_DTYPE)
        ctx_div = make_ctx(dense_graph, diverse)
        run_global_hash(ctx_div, vertices)

        concentrated = (diverse % 2).astype(LABEL_DTYPE)
        ctx_conc = make_ctx(dense_graph, concentrated)
        run_global_hash(ctx_conc, vertices)

        assert (
            ctx_conc.device.counters.global_atomic_serialized_ops
            > 2 * ctx_div.device.counters.global_atomic_serialized_ops
        )

    def test_no_fallback_when_labels_fit_ht(self, dense_graph):
        labels = (
            np.arange(dense_graph.num_vertices, dtype=LABEL_DTYPE) % 7
        )
        vertices = np.flatnonzero(dense_graph.degrees > 16).astype(np.int64)
        ctx = make_ctx(dense_graph, labels, ht_capacity=64)
        run_smem_cms_ht(ctx, vertices)
        assert ctx.stats["smem_fallback_vertices"] == 0
        assert ctx.stats["smem_overflow_groups"] == 0

    def test_fallback_engages_with_tiny_ht(self, dense_graph):
        rng = np.random.default_rng(1)
        labels = rng.integers(
            0, dense_graph.num_vertices, dense_graph.num_vertices
        ).astype(LABEL_DTYPE)
        vertices = np.flatnonzero(dense_graph.degrees > 16).astype(np.int64)
        ctx = make_ctx(dense_graph, labels, ht_capacity=2, cms_depth=2)
        run_smem_cms_ht(ctx, vertices)
        assert ctx.stats["smem_overflow_groups"] > 0
        # With unique-ish labels and a 2-slot HT, fallbacks must happen...
        assert ctx.stats["smem_fallback_vertices"] > 0
        # ...and they show up as global atomics.
        assert ctx.device.counters.global_atomic_ops > 0


class TestWarpPacking:
    def test_warp_multi_improves_lane_utilization(self, road_graph):
        """Section 4.2: one-warp-one-vertex wastes ~29/32 lanes on roads;
        packing multiple vertices per warp fixes utilization."""
        labels = np.arange(road_graph.num_vertices, dtype=LABEL_DTYPE)
        low = np.flatnonzero(road_graph.degrees < 32).astype(np.int64)

        packed_ctx = make_ctx(road_graph, labels)
        run_warp_multi(packed_ctx, low)
        warp_per_vertex_ctx = make_ctx(road_graph, labels)
        run_global_hash(warp_per_vertex_ctx, low)

        assert (
            packed_ctx.device.counters.lane_utilization
            > 2 * warp_per_vertex_ctx.device.counters.lane_utilization
        )

    def test_warp_multi_launches_fewer_warps(self, road_graph):
        labels = np.arange(road_graph.num_vertices, dtype=LABEL_DTYPE)
        low = np.flatnonzero(road_graph.degrees < 32).astype(np.int64)

        packed_ctx = make_ctx(road_graph, labels)
        run_warp_multi(packed_ctx, low)
        baseline_ctx = make_ctx(road_graph, labels)
        run_global_hash(baseline_ctx, low)

        assert (
            packed_ctx.device.counters.warps_launched
            < baseline_ctx.device.counters.warps_launched / 2
        )

    def test_warp_multi_uses_no_atomics(self, road_graph):
        labels = np.arange(road_graph.num_vertices, dtype=LABEL_DTYPE)
        low = np.flatnonzero(road_graph.degrees < 32).astype(np.int64)
        ctx = make_ctx(road_graph, labels)
        run_warp_multi(ctx, low)
        counters = ctx.device.counters
        assert counters.global_atomic_ops == 0
        assert counters.shared_atomic_serialized_ops == 0

    def test_popc_edges_match_batch(self, road_graph):
        """The intrinsics really executed: popc over all lmasks counts each
        active lane exactly as many times as its label's frequency."""
        labels = (
            np.arange(road_graph.num_vertices, dtype=LABEL_DTYPE) % 11
        )
        low = np.flatnonzero(
            (road_graph.degrees < 32) & (road_graph.degrees > 0)
        ).astype(np.int64)
        ctx = make_ctx(road_graph, labels)
        run_warp_multi(ctx, low)
        assert ctx.stats["warp_multi_warps"] > 0
        # sum over lanes of freq(lane) = sum over groups freq^2 >= edges.
        total_edges = int(road_graph.degrees[low].sum())
        assert ctx.stats["warp_multi_popc_edges"] >= total_edges

    @pytest.mark.parametrize("modulus", [1, 3, 11, 10**6])
    def test_popc_equals_group_frequency(self, road_graph, modulus):
        """With unit weights each active lane's popc is the aggregated
        frequency of its (vertex, label) group, so the statistic is the
        sum of squared group frequencies."""
        labels = (
            np.arange(road_graph.num_vertices, dtype=LABEL_DTYPE) % modulus
        )
        low = np.flatnonzero(road_graph.degrees < 32).astype(np.int64)
        ctx = make_ctx(road_graph, labels)
        run_warp_multi(ctx, low)

        schedule = _warp_multi_schedule(make_ctx(road_graph, labels), low)
        batch = schedule.batch
        groups = mfl.aggregate_label_frequencies(ClassicLP(), batch, labels)
        assert ctx.stats["warp_multi_popc_edges"] == int(
            (groups.frequencies**2).sum()
        )
        active = schedule.active_lanes
        keys = np.zeros(active.shape, dtype=np.int64)
        keys.ravel()[schedule.lane_slots] = (
            batch.vertex_ids * np.int64(1 << 32) + groups.edge_labels
        )
        lane_popc = warp_intrinsics.popc(
            warp_intrinsics.match_any_sync(active, keys)
        ).ravel()[schedule.lane_slots]
        edge_frequency = np.empty(batch.num_edges)
        edge_frequency[groups.edge_order] = groups.frequencies[
            groups.group_of_edge
        ]
        assert np.array_equal(lane_popc, edge_frequency)
        assert int(active.sum()) == batch.num_edges


class TestGSortProfile:
    def test_gsort_allocates_nl_array(self, dense_graph):
        labels = np.arange(dense_graph.num_vertices, dtype=LABEL_DTYPE)
        vertices = np.arange(dense_graph.num_vertices, dtype=np.int64)
        ctx = make_ctx(dense_graph, labels)
        run_segmented_sort(ctx, vertices)
        # NL array freed afterwards...
        assert ctx.device.allocated_bytes == 0
        # ...but the extra gather+store+scan traffic happened.
        assert (
            ctx.device.counters.global_store_transactions > 0
        )

    def test_gsort_more_traffic_than_glp_kernels(self, dense_graph):
        labels = (
            np.arange(dense_graph.num_vertices, dtype=LABEL_DTYPE) % 5
        )
        vertices = np.flatnonzero(dense_graph.degrees > 16).astype(np.int64)

        gsort_ctx = make_ctx(dense_graph, labels)
        run_segmented_sort(gsort_ctx, vertices)
        smem_ctx = make_ctx(dense_graph, labels)
        run_smem_cms_ht(smem_ctx, vertices)

        assert (
            gsort_ctx.device.counters.global_transactions
            > 2 * smem_ctx.device.counters.global_transactions
        )
