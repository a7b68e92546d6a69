"""Tests for the in-house distributed cluster simulator."""

import numpy as np
import pytest

from repro import ClassicLP
from repro.baselines import InHouseDistributedEngine, SerialEngine
from repro.baselines.distributed import ClusterSpec, TAOBAO_CLUSTER
from repro.graph.generators.rmat import rmat_graph


class TestCorrectness:
    def test_matches_serial(self, powerlaw_graph):
        reference = SerialEngine().run(
            powerlaw_graph, ClassicLP(), max_iterations=8,
            stop_on_convergence=False,
        )
        result = InHouseDistributedEngine().run(
            powerlaw_graph, ClassicLP(), max_iterations=8,
            stop_on_convergence=False,
        )
        assert np.array_equal(result.labels, reference.labels)

    def test_reused_engine_matches_fresh_engine(self):
        """One engine run over many short-lived graphs times each exactly
        as a fresh engine does, even when a new graph reuses a freed
        graph's ``id``."""
        reused = InHouseDistributedEngine()
        kwargs = dict(max_iterations=2, stop_on_convergence=False)
        for seed in range(30):
            graph = rmat_graph(6 + seed % 3, 4.0, seed=seed)
            got = reused.run(graph, ClassicLP(), **kwargs)
            want = InHouseDistributedEngine().run(graph, ClassicLP(), **kwargs)
            assert got.total_seconds == want.total_seconds, seed

    def test_engine_name(self, two_cliques_graph):
        result = InHouseDistributedEngine().run(
            two_cliques_graph, ClassicLP(), max_iterations=2
        )
        assert result.engine == "InHouse-Distributed"


class TestCostModel:
    def test_network_dominates_compute(self, powerlaw_graph):
        """The cluster's defining weakness: per-edge messages through NICs
        cost more than the local compute."""
        engine = InHouseDistributedEngine()
        seconds = engine._iteration_seconds(
            powerlaw_graph,
            active_edges=powerlaw_graph.num_edges,
            active_vertices=powerlaw_graph.num_vertices,
        )
        cluster = engine.cluster
        machine = cluster.machine
        part_edges, boundary = engine._partition_profile(powerlaw_graph)
        compute = part_edges.max() / (
            machine.edges_per_core_per_second * machine.num_cores * 1.2
        )
        assert seconds > 2 * compute

    def test_barrier_floor(self):
        from repro.graph.csr import CSRGraph

        empty = CSRGraph(
            offsets=np.zeros(3, dtype=np.int64),
            indices=np.empty(0, dtype=np.int64),
        )
        engine = InHouseDistributedEngine()
        seconds = engine._iteration_seconds(
            empty, active_edges=0, active_vertices=2
        )
        assert seconds >= engine.cluster.barrier_seconds

    def test_bigger_cluster_not_proportionally_faster(self, powerlaw_graph):
        """Adding machines shrinks compute but the per-machine NIC share of
        a skewed shuffle doesn't vanish — the scaling wall that motivates
        the single-GPU solution."""
        small = InHouseDistributedEngine(ClusterSpec(num_machines=8))
        large = InHouseDistributedEngine(ClusterSpec(num_machines=64))
        t_small = small._iteration_seconds(
            powerlaw_graph,
            active_edges=powerlaw_graph.num_edges,
            active_vertices=powerlaw_graph.num_vertices,
        )
        t_large = large._iteration_seconds(
            powerlaw_graph,
            active_edges=powerlaw_graph.num_edges,
            active_vertices=powerlaw_graph.num_vertices,
        )
        assert t_large < t_small  # more machines do help...
        assert t_large > t_small / 8  # ...but far from linearly

    def test_activity_scales_cost(self, powerlaw_graph):
        engine = InHouseDistributedEngine()
        full = engine._iteration_seconds(
            powerlaw_graph,
            active_edges=powerlaw_graph.num_edges,
            active_vertices=powerlaw_graph.num_vertices,
        )
        tenth = engine._iteration_seconds(
            powerlaw_graph,
            active_edges=powerlaw_graph.num_edges // 10,
            active_vertices=powerlaw_graph.num_vertices,
        )
        assert tenth < full

    def test_spec_totals(self):
        assert TAOBAO_CLUSTER.num_machines == 32
        assert TAOBAO_CLUSTER.total_cores == 32 * 96
