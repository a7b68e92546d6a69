"""Tests for the CPU baseline engines."""

import numpy as np
import pytest

from repro import ClassicLP, LayeredLP, SpeakerListenerLP, obs
from repro.baselines import (
    LigraEngine,
    OMPEngine,
    SerialEngine,
    TigerGraphEngine,
)
from repro.baselines.cpumodel import CPUSpec, XEON_W2133
from repro.errors import ProgramError

CPU_ENGINES = [SerialEngine, OMPEngine, LigraEngine]


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("engine_cls", CPU_ENGINES + [TigerGraphEngine])
    def test_classic_lp_agreement(self, powerlaw_graph, engine_cls):
        reference = SerialEngine().run(
            powerlaw_graph, ClassicLP(), max_iterations=10,
            stop_on_convergence=False,
        )
        result = engine_cls().run(
            powerlaw_graph, ClassicLP(), max_iterations=10,
            stop_on_convergence=False,
        )
        assert np.array_equal(result.labels, reference.labels)

    @pytest.mark.parametrize("engine_cls", CPU_ENGINES)
    def test_llp_agreement(self, community_graph, engine_cls):
        graph, _ = community_graph
        reference = SerialEngine().run(
            graph, LayeredLP(gamma=2.0), max_iterations=8,
            stop_on_convergence=False,
        )
        result = engine_cls().run(
            graph, LayeredLP(gamma=2.0), max_iterations=8,
            stop_on_convergence=False,
        )
        assert np.array_equal(result.labels, reference.labels)

    @pytest.mark.parametrize("engine_cls", CPU_ENGINES)
    def test_slp_agreement(self, community_graph, engine_cls):
        graph, _ = community_graph
        reference = SerialEngine().run(
            graph, SpeakerListenerLP(seed=4), max_iterations=6,
            stop_on_convergence=False,
        )
        result = engine_cls().run(
            graph, SpeakerListenerLP(seed=4), max_iterations=6,
            stop_on_convergence=False,
        )
        assert np.array_equal(result.labels, reference.labels)


class TestTimingModels:
    def test_omp_faster_than_serial(self, powerlaw_graph):
        serial = SerialEngine().run(
            powerlaw_graph, ClassicLP(), max_iterations=5,
            stop_on_convergence=False,
        )
        omp = OMPEngine().run(
            powerlaw_graph, ClassicLP(), max_iterations=5,
            stop_on_convergence=False,
        )
        assert omp.total_seconds < serial.total_seconds

    def test_tg_slower_than_omp(self, powerlaw_graph):
        """Figure 4: TG trails OMP and Ligra."""
        omp = OMPEngine().run(
            powerlaw_graph, ClassicLP(), max_iterations=5,
            stop_on_convergence=False,
        )
        tg = TigerGraphEngine().run(
            powerlaw_graph, ClassicLP(), max_iterations=5,
            stop_on_convergence=False,
        )
        assert tg.total_seconds > omp.total_seconds

    def test_time_scales_with_edges(self):
        from repro.graph.generators.rmat import rmat_graph

        small = rmat_graph(8, 4.0, seed=1)
        large = rmat_graph(10, 4.0, seed=1)
        t_small = OMPEngine().run(
            small, ClassicLP(), max_iterations=3, stop_on_convergence=False
        ).total_seconds
        t_large = OMPEngine().run(
            large, ClassicLP(), max_iterations=3, stop_on_convergence=False
        ).total_seconds
        assert t_large > 2 * t_small

    def test_custom_spec_respected(self, powerlaw_graph):
        slow = CPUSpec(
            edges_per_core_per_second=XEON_W2133.edges_per_core_per_second
            / 10
        )
        fast = OMPEngine(XEON_W2133).run(
            powerlaw_graph, ClassicLP(), max_iterations=3,
            stop_on_convergence=False,
        )
        slowed = OMPEngine(slow).run(
            powerlaw_graph, ClassicLP(), max_iterations=3,
            stop_on_convergence=False,
        )
        assert slowed.total_seconds > 5 * fast.total_seconds


class TestLigraFrontier:
    def test_frontier_sparsifies_late_iterations(self, community_graph):
        """Once labels settle, Ligra's active set (and hence modeled time)
        collapses for frontier-safe programs."""
        graph, _ = community_graph
        result = LigraEngine().run(
            graph, ClassicLP(), max_iterations=20, stop_on_convergence=False
        )
        first = result.iterations[0].seconds
        last = result.iterations[-1].seconds
        assert last < first

    def test_sparse_rounds_publish_sparse_passes(self, community_graph):
        """A sparse Ligra round is counted as one, and reports the
        vertices and edges it actually processed."""
        graph, _ = community_graph
        with obs.observe() as session:
            result = LigraEngine().run(
                graph, ClassicLP(), max_iterations=20,
                stop_on_convergence=False,
            )
        modes = [s.kernel_stats["pass_mode"] for s in result.iterations]
        assert modes[0] == "dense" and "sparse" in modes
        passes = {
            e["labels"]["mode"]: e["value"]
            for e in session.metrics.to_dict()["metrics"]
            if e["name"] == "engine_pass_total"
        }
        assert passes["sparse"] == modes.count("sparse")
        dense = result.iterations[0]
        assert dense.frontier_size == graph.num_vertices
        assert dense.processed_edges == graph.num_edges
        sparse = result.iterations[modes.index("sparse")]
        assert 0 < sparse.frontier_size < graph.num_vertices
        assert sparse.processed_edges < graph.num_edges

    def test_dense_mode_for_unsafe_programs(self, community_graph):
        """LLP's global volumes force dense iterations (no sparsification
        advantage)."""
        graph, _ = community_graph
        llp = LigraEngine().run(
            graph, LayeredLP(gamma=1.0), max_iterations=6,
            stop_on_convergence=False,
        )
        omp = OMPEngine().run(
            graph, LayeredLP(gamma=1.0), max_iterations=6,
            stop_on_convergence=False,
        )
        # Similar (dense) per-iteration cost: within 2x of OMP.
        ratio = llp.seconds_per_iteration / omp.seconds_per_iteration
        assert 0.5 < ratio < 2.0


class TestTigerGraphRestrictions:
    def test_rejects_non_classic(self, powerlaw_graph):
        with pytest.raises(ProgramError, match="classic"):
            TigerGraphEngine().run(
                powerlaw_graph, LayeredLP(gamma=1.0), max_iterations=2
            )
