"""Differential and accounting tests for frontier-based delta propagation.

The frontier and auto engines must be *bitwise* interchangeable with the
dense engine for every LP variant — sparse execution is an optimization,
never a semantics change.
"""

import numpy as np
import pytest

from repro import (
    ClassicLP,
    GLPEngine,
    LayeredLP,
    SeededFraudLP,
    SpeakerListenerLP,
)
from repro.core.hybrid import HybridEngine
from repro.core.multigpu import MultiGPUEngine
from repro.errors import KernelError, OutOfDeviceMemoryError
from repro.graph.builder import from_edge_arrays
from repro.graph.generators.lfr import lfr_graph
from repro.graph.generators.rmat import rmat_graph
from repro.gpusim.config import TITAN_V
from repro.gpusim.device import Device
from repro.kernels.frontier import FrontierConfig, use_sparse_pass

MODES = ("frontier", "auto")


def _weighted_graph():
    rng = np.random.default_rng(11)
    src = rng.integers(0, 120, size=600)
    dst = rng.integers(0, 120, size=600)
    weights = rng.integers(1, 5, size=600).astype(float)
    return from_edge_arrays(
        src, dst, 120, weights=weights, symmetrize=True, name="weighted"
    )


def _graph_with_isolated():
    # 40 connected vertices + 10 isolated ones at the top of the id range.
    rng = np.random.default_rng(3)
    src = rng.integers(0, 40, size=200)
    dst = rng.integers(0, 40, size=200)
    return from_edge_arrays(src, dst, 50, symmetrize=True, name="isolated")


def _graphs():
    return [
        rmat_graph(8, 6.0, seed=5, name="rmat"),
        lfr_graph(300, mu=0.2, seed=9)[0],
        _weighted_graph(),
        _graph_with_isolated(),
    ]


def _programs(graph):
    seeds = {0: 100, min(3, graph.num_vertices - 1): 200}
    return [
        lambda: ClassicLP(),
        lambda: LayeredLP(gamma=0.5),
        lambda: SpeakerListenerLP(seed=17),
        lambda: SeededFraudLP(dict(seeds)),
    ]


class TestDifferentialIdentity:
    @pytest.mark.parametrize("mode", MODES)
    def test_all_programs_all_graphs(self, mode):
        for graph in _graphs():
            for make_program in _programs(graph):
                dense = GLPEngine().run(
                    graph, make_program(), max_iterations=12
                )
                other = GLPEngine(frontier=mode).run(
                    graph, make_program(), max_iterations=12
                )
                assert np.array_equal(dense.labels, other.labels), (
                    f"{mode} diverged on {graph.name} / "
                    f"{make_program().name}"
                )
                assert dense.num_iterations == other.num_iterations

    @pytest.mark.parametrize("mode", MODES)
    def test_no_convergence_stop(self, mode):
        graph = rmat_graph(8, 6.0, seed=5)
        dense = GLPEngine().run(
            graph, ClassicLP(), max_iterations=10, stop_on_convergence=False
        )
        other = GLPEngine(frontier=mode).run(
            graph, ClassicLP(), max_iterations=10, stop_on_convergence=False
        )
        assert np.array_equal(dense.labels, other.labels)

    def test_gsort_pass_kind(self):
        graph = rmat_graph(8, 6.0, seed=5)
        dense = GLPEngine(pass_kind="gsort").run(
            graph, ClassicLP(), max_iterations=10
        )
        sparse = GLPEngine(pass_kind="gsort", frontier="frontier").run(
            graph, ClassicLP(), max_iterations=10
        )
        assert np.array_equal(dense.labels, sparse.labels)

    def test_multigpu_identity(self):
        graph = rmat_graph(8, 6.0, seed=5)
        dense = MultiGPUEngine(2).run(graph, ClassicLP(), max_iterations=12)
        sparse = MultiGPUEngine(2, frontier="auto").run(
            graph, ClassicLP(), max_iterations=12
        )
        assert np.array_equal(dense.labels, sparse.labels)

    def test_hybrid_identity(self):
        graph = rmat_graph(8, 6.0, seed=5)
        spec = TITAN_V.with_memory(
            graph.nbytes // 2 + 80 * (graph.num_vertices + 1) * 8
        )
        dense = HybridEngine(spec=spec).run(
            graph, ClassicLP(), max_iterations=12
        )
        sparse = HybridEngine(spec=spec, frontier="auto").run(
            graph, ClassicLP(), max_iterations=12
        )
        assert np.array_equal(dense.labels, sparse.labels)


class TestFrontierStats:
    def test_frontier_shrinks_and_edges_drop(self):
        graph = rmat_graph(8, 6.0, seed=5)
        result = GLPEngine(frontier="frontier").run(
            graph, ClassicLP(), max_iterations=12
        )
        stats = result.iterations
        assert stats[0].kernel_stats["pass_mode"] == "dense"
        assert stats[0].frontier_size == graph.num_vertices
        assert stats[0].processed_edges == graph.num_edges
        for later in stats[1:]:
            assert later.kernel_stats["pass_mode"] == "sparse"
            assert later.frontier_size <= graph.num_vertices
            assert later.processed_edges <= graph.num_edges
        # The last iterations converge: tiny frontier, tiny edge counts.
        assert stats[-1].frontier_size < graph.num_vertices

    def test_auto_mode_switch_visible(self):
        graph = rmat_graph(8, 6.0, seed=5)
        result = GLPEngine(frontier="auto").run(
            graph, ClassicLP(), max_iterations=12
        )
        modes = [s.kernel_stats["pass_mode"] for s in result.iterations]
        fractions = [
            s.kernel_stats.get("frontier_fraction") for s in result.iterations
        ]
        assert modes[0] == "dense"
        assert "sparse" in modes  # the switch actually fired
        assert all(f is not None for f in fractions)

    def test_frontier_kernels_on_timeline(self):
        graph = rmat_graph(8, 6.0, seed=5)
        engine = GLPEngine(frontier="frontier")
        engine.run(graph, ClassicLP(), max_iterations=6)
        names = {record.name for record in engine.device.timeline}
        assert "frontier-expand" in names
        assert "frontier-compact" in names

    def test_sparse_run_is_cheaper(self):
        graph = rmat_graph(9, 8.0, seed=7)
        dense = GLPEngine().run(
            graph, ClassicLP(), max_iterations=12, stop_on_convergence=False
        )
        sparse = GLPEngine(frontier="auto").run(
            graph, ClassicLP(), max_iterations=12, stop_on_convergence=False
        )
        dense_k = sum(s.kernel_seconds for s in dense.iterations)
        sparse_k = sum(s.kernel_seconds for s in sparse.iterations)
        assert sparse_k < dense_k


class TestResidencyAndConfig:
    def test_reversed_csr_counts_against_device_memory(self):
        graph = rmat_graph(8, 6.0, seed=5)
        label_bytes = graph.num_vertices * 8
        dense_need = graph.nbytes + 2 * label_bytes
        spec = TITAN_V.with_memory(dense_need + 1024)
        # Dense fits...
        GLPEngine(device=Device(spec)).run(
            graph, ClassicLP(), max_iterations=2
        )
        # ...but the reversed CSR + bitmap residency does not.
        with pytest.raises(OutOfDeviceMemoryError):
            GLPEngine(device=Device(spec), frontier="frontier").run(
                graph, ClassicLP(), max_iterations=2
            )

    def test_memory_released_after_frontier_run(self):
        graph = rmat_graph(8, 6.0, seed=5)
        engine = GLPEngine(frontier="frontier")
        engine.run(graph, ClassicLP(), max_iterations=4)
        assert engine.device.allocated_bytes == 0

    def test_invalid_mode_rejected(self):
        with pytest.raises(KernelError):
            GLPEngine(frontier="eager")
        with pytest.raises(KernelError):
            FrontierConfig(mode="auto", dense_threshold=0.0)

    def test_direction_switch_thresholds(self):
        auto = FrontierConfig(mode="auto", dense_threshold=0.25)
        assert use_sparse_pass(auto, 10, 100)
        assert use_sparse_pass(auto, 25, 100)
        assert not use_sparse_pass(auto, 26, 100)
        always = FrontierConfig(mode="frontier")
        assert use_sparse_pass(always, 99, 100)
        dense = FrontierConfig(mode="dense")
        assert not use_sparse_pass(dense, 0, 100)

    def test_reversed_graph_memoized(self):
        graph = rmat_graph(7, 4.0, seed=2)
        assert graph.reversed() is graph.reversed()


class TestDegreeBinsCaching:
    def test_dense_run_bins_once(self, monkeypatch):
        import repro.core.device_round as device_round
        import repro.kernels.propagate as propagate

        calls = {"round": 0, "propagate": 0}
        real = device_round.bin_vertices_by_degree

        def counting_round(*args, **kwargs):
            calls["round"] += 1
            return real(*args, **kwargs)

        def counting_propagate(*args, **kwargs):
            calls["propagate"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(
            device_round, "bin_vertices_by_degree", counting_round
        )
        monkeypatch.setattr(
            propagate, "bin_vertices_by_degree", counting_propagate
        )
        graph = rmat_graph(7, 4.0, seed=2)
        GLPEngine().run(
            graph, ClassicLP(), max_iterations=6, stop_on_convergence=False
        )
        # One full-graph binning for the whole run; the per-iteration
        # passes reuse it instead of re-binning.
        assert calls["round"] == 1
        assert calls["propagate"] == 0


class TestWarmStartSpeedup:
    def test_warm_frontier_processes_far_fewer_edges(self):
        graph = lfr_graph(400, mu=0.15, seed=4)[0]
        cold = GLPEngine().run(graph, ClassicLP(), max_iterations=20)

        # Warm start: seed every vertex with its converged label.
        class WarmLP(ClassicLP):
            def init_labels(self, g):
                return cold.labels.copy()

        dense = GLPEngine().run(
            graph, WarmLP(), max_iterations=20, stop_on_convergence=False
        )
        sparse = GLPEngine(frontier="auto").run(
            graph, WarmLP(), max_iterations=20, stop_on_convergence=False
        )
        assert np.array_equal(dense.labels, sparse.labels)
        dense_tail = sum(s.processed_edges for s in dense.iterations[1:])
        sparse_tail = sum(s.processed_edges for s in sparse.iterations[1:])
        assert sparse_tail * 5 <= dense_tail
