"""Incremental re-convergence across the three device engines.

The contract under test (see ``docs/incremental_lp.md``): every
:class:`~repro.core.driver.BSPEngine` accepts an
``initial_frontier`` — the affected vertex set of a window slide — and
re-converges to the *bitwise identical* labeling of the dense warm
recompute while charging only the frontier's edges.  Pinned seed
vertices are pruned from every sparse worklist.
"""

import numpy as np
import pytest

from repro import ClassicLP, GLPEngine, LayeredLP, SeededFraudLP
from repro.core.driver import BSPEngine
from repro.core.hybrid import HybridEngine
from repro.core.multigpu import MultiGPUEngine
from repro.errors import ConvergenceError, KernelError, ProgramError
from repro.kernels.frontier import prune_pinned
from repro.pipeline.dynlp import plan_slide
from repro.pipeline.incremental import (
    IncrementalWindowBuilder,
    warm_start_seeds,
)
from repro.pipeline.seeds import SeedStore
from repro.pipeline.transactions import (
    TransactionStream,
    TransactionStreamConfig,
)

ENGINE_FACTORIES = {
    "glp": lambda: GLPEngine(frontier="auto"),
    "hybrid": lambda: HybridEngine(frontier="auto"),
    "multigpu": lambda: MultiGPUEngine(2, frontier="auto"),
}


@pytest.fixture(scope="module")
def stream():
    return TransactionStream(
        TransactionStreamConfig(
            num_users=800,
            num_products=400,
            num_days=12,
            transactions_per_day=400,
            num_rings=3,
            ring_size=6,
            seed=33,
        )
    )


@pytest.fixture(scope="module")
def slide(stream):
    """One warm slide: previous/current windows, diff, and seed sets."""
    builder = IncrementalWindowBuilder(stream)
    for day in range(8):
        builder.add_day(day)
    previous = builder.build()
    diff = builder.slide()
    current = builder.build()
    store = SeedStore(stream.blacklist())
    return {
        "previous": previous,
        "diff": diff,
        "current": current,
        "prev_seeds": store.window_seeds(previous),
        "base_seeds": store.window_seeds(current),
    }


def total_processed_edges(result):
    return sum(s.processed_edges for s in result.iterations)


def warm_seeds_for(slide, prev_labels):
    return warm_start_seeds(
        slide["previous"],
        prev_labels,
        slide["current"],
        slide["base_seeds"],
        carry_products=True,
    )


class TestIncrementalVsFull:
    @pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
    def test_bitwise_identity_with_fewer_edges(self, name, slide):
        factory = ENGINE_FACTORIES[name]
        assert isinstance(factory(), BSPEngine)

        prev = factory().run(
            slide["previous"].graph,
            SeededFraudLP(slide["prev_seeds"]),
            max_iterations=20,
        )
        assert prev.final_frontier is not None
        seeds = warm_seeds_for(slide, prev.labels)
        plan = plan_slide(
            slide["diff"],
            slide["previous"],
            slide["current"],
            residual_frontier=prev.final_frontier,
            seeds=seeds,
            cutover_ratio=1.0,
        )
        assert plan.incremental

        full = factory().run(
            slide["current"].graph,
            SeededFraudLP(seeds),
            max_iterations=20,
        )
        inc = factory().run(
            slide["current"].graph,
            SeededFraudLP(seeds),
            max_iterations=20,
            initial_frontier=plan.frontier,
        )
        assert inc.labels_hash() == full.labels_hash()
        assert inc.converged == full.converged
        assert total_processed_edges(inc) < total_processed_edges(full)

    def test_full_vertex_superset_is_identical(self, slide):
        # Any superset of the iteration-1 changers preserves identity;
        # the whole vertex set is the extreme case.
        graph = slide["current"].graph
        seeds = slide["base_seeds"]
        full = GLPEngine(frontier="auto").run(
            graph, SeededFraudLP(seeds), max_iterations=20
        )
        superset = GLPEngine(frontier="auto").run(
            graph,
            SeededFraudLP(seeds),
            max_iterations=20,
            initial_frontier=np.arange(graph.num_vertices, dtype=np.int64),
        )
        assert superset.labels_hash() == full.labels_hash()
        assert superset.num_iterations == full.num_iterations


class TestRunArguments:
    def test_empty_initial_frontier_converges_immediately(self, slide):
        result = GLPEngine(frontier="auto").run(
            slide["current"].graph,
            SeededFraudLP(slide["base_seeds"]),
            max_iterations=20,
            initial_frontier=np.empty(0, dtype=np.int64),
        )
        assert result.converged
        assert result.num_iterations == 1

    def test_unsafe_program_ignores_initial_frontier(self, slide):
        # LayeredLP is not frontier_safe: the engine must run it dense
        # (the correct superset), not crash or mislabel.
        graph = slide["current"].graph
        reference = GLPEngine(frontier="auto").run(
            graph, LayeredLP(), max_iterations=8
        )
        seeded = GLPEngine(frontier="auto").run(
            graph,
            LayeredLP(),
            max_iterations=8,
            initial_frontier=np.array([0, 1], dtype=np.int64),
        )
        assert seeded.labels_hash() == reference.labels_hash()

    def test_out_of_range_initial_frontier_rejected(self, slide):
        graph = slide["current"].graph
        with pytest.raises(KernelError):
            GLPEngine(frontier="auto").run(
                graph,
                SeededFraudLP(slide["base_seeds"]),
                initial_frontier=np.array(
                    [graph.num_vertices + 5], dtype=np.int64
                ),
            )

    @pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
    def test_warm_labels_shape_rejected(self, name, slide):
        graph = slide["current"].graph
        with pytest.raises(ConvergenceError):
            ENGINE_FACTORIES[name]().run(
                graph,
                SeededFraudLP(slide["base_seeds"]),
                warm_labels=np.zeros(graph.num_vertices - 1, dtype=np.int64),
            )

    def test_warm_labels_resume_from_fixpoint(self, slide):
        graph = slide["current"].graph
        seeds = slide["base_seeds"]
        reference = GLPEngine(frontier="auto").run(
            graph, SeededFraudLP(seeds), max_iterations=20
        )
        assert reference.converged
        resumed = GLPEngine(frontier="auto").run(
            graph,
            SeededFraudLP(seeds),
            max_iterations=20,
            warm_labels=reference.labels,
            initial_frontier=np.empty(0, dtype=np.int64),
        )
        assert resumed.converged
        assert np.array_equal(resumed.labels, reference.labels)


class TestFinalFrontier:
    def test_frontier_run_exposes_residual(self, slide):
        result = GLPEngine(frontier="auto").run(
            slide["current"].graph,
            SeededFraudLP(slide["base_seeds"]),
            max_iterations=20,
        )
        assert isinstance(result.final_frontier, np.ndarray)

    def test_dense_run_has_no_residual(self, slide):
        result = GLPEngine().run(
            slide["current"].graph,
            SeededFraudLP(slide["base_seeds"]),
            max_iterations=20,
        )
        assert result.final_frontier is None


class TestPinnedVertices:
    def test_default_program_pins_nothing(self, slide):
        assert ClassicLP().pinned_vertices(slide["current"].graph) is None

    def test_seeded_program_pins_its_seeds(self, slide):
        seeds = slide["base_seeds"]
        program = SeededFraudLP(seeds)
        # Engines resolve the pinned set after ``init_labels`` (which is
        # where the program materializes its seed arrays).
        program.init_labels(slide["current"].graph)
        pinned = program.pinned_vertices(slide["current"].graph)
        assert np.array_equal(pinned, np.unique(seeds.vertices))

    def test_prune_pinned_drops_only_pinned(self):
        frontier = np.array([1, 3, 5, 7], dtype=np.int64)
        pinned = np.zeros(10, dtype=bool)
        pinned[[3, 7, 9]] = True
        assert np.array_equal(
            prune_pinned(frontier, pinned), np.array([1, 5])
        )
        assert prune_pinned(frontier, None) is frontier
        empty = np.empty(0, dtype=np.int64)
        assert prune_pinned(empty, pinned) is empty

    @pytest.mark.parametrize("past_end", [False, True])
    def test_out_of_range_pinned_id_rejected(self, slide, past_end):
        """The pinned set is built through a bool mask, where an id of -1
        would silently mark the last vertex."""
        graph = slide["current"].graph
        bad = graph.num_vertices if past_end else -1

        class BadPins(ClassicLP):
            def pinned_vertices(self, graph):
                return np.array([bad], dtype=np.int64)

        with pytest.raises(ProgramError, match="pinned"):
            GLPEngine(frontier="auto").run(graph, BadPins(), max_iterations=2)

    def test_residual_frontier_excludes_pinned(self, slide):
        seeds = slide["base_seeds"]
        program = SeededFraudLP(seeds)
        result = GLPEngine(frontier="auto").run(
            slide["current"].graph, program, max_iterations=20
        )
        pinned = program.pinned_vertices(slide["current"].graph)
        assert np.intersect1d(result.final_frontier, pinned).size == 0
