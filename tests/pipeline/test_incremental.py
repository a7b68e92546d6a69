"""Tests for incremental window maintenance and warm-started detection."""

import numpy as np
import pytest

from repro import GLPEngine, SeededFraudLP
from repro.errors import PipelineError
from repro.pipeline.detector import ClusterDetector
from repro.pipeline.incremental import (
    IncrementalWindowBuilder,
    SlidingWindowDetector,
    warm_start_seeds,
)
from repro.pipeline.transactions import (
    TransactionStream,
    TransactionStreamConfig,
)
from repro.pipeline.window import build_window_graph
from repro.pipeline.seeds import SeedStore


@pytest.fixture(scope="module")
def stream():
    return TransactionStream(
        TransactionStreamConfig(
            num_users=1500,
            num_products=800,
            num_days=15,
            transactions_per_day=600,
            num_rings=4,
            ring_size=8,
            seed=21,
        )
    )


class TestIncrementalBuilder:
    def test_matches_batch_construction(self, stream):
        builder = IncrementalWindowBuilder(stream)
        for day in range(5):
            builder.add_day(day)
        incremental = builder.build()
        batch = build_window_graph(stream, 0, 5)
        assert incremental.graph.num_vertices == batch.graph.num_vertices
        assert incremental.graph.num_edges == batch.graph.num_edges
        assert np.array_equal(incremental.users, batch.users)
        # Same adjacency and weights after compaction.
        assert np.array_equal(
            incremental.graph.offsets, batch.graph.offsets
        )
        assert np.array_equal(
            incremental.graph.indices, batch.graph.indices
        )
        np.testing.assert_allclose(
            incremental.graph.weights, batch.graph.weights
        )

    def test_slide_matches_rebuilt_window(self, stream):
        """Every slid window is bitwise the window rebuilt from the stream."""
        builder = IncrementalWindowBuilder(stream)
        for day in range(5):
            builder.add_day(day)
        for start in range(1, stream.config.num_days - 4):
            builder.slide()
            slid = builder.build()
            rebuilt = build_window_graph(stream, start, 5)
            for got, want in (
                (slid.graph.offsets, rebuilt.graph.offsets),
                (slid.graph.indices, rebuilt.graph.indices),
                (slid.graph.weights, rebuilt.graph.weights),
                (slid.users, rebuilt.users),
                (slid.products, rebuilt.products),
            ):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
        assert start >= 10

    def test_retire_then_add_roundtrip(self, stream):
        builder = IncrementalWindowBuilder(stream)
        builder.add_day(0)
        builder.add_day(1)
        pairs_before = builder.num_pairs
        builder.retire_day(1)
        builder.add_day(1)
        assert builder.num_pairs == pairs_before

    def test_double_add_rejected(self, stream):
        builder = IncrementalWindowBuilder(stream)
        builder.add_day(0)
        with pytest.raises(PipelineError):
            builder.add_day(0)

    def test_retire_missing_rejected(self, stream):
        builder = IncrementalWindowBuilder(stream)
        with pytest.raises(PipelineError):
            builder.retire_day(3)

    def test_empty_build_rejected(self, stream):
        with pytest.raises(PipelineError):
            IncrementalWindowBuilder(stream).build()

    def test_slide_past_stream_end(self, stream):
        builder = IncrementalWindowBuilder(stream)
        builder.add_day(stream.config.num_days - 1)
        with pytest.raises(PipelineError):
            builder.slide()

    def test_five_slides_match_dict_reference(self, stream):
        """The vectorized builder tracks a naive per-transaction dict
        exactly across five consecutive one-day slides."""

        def reference_counts(start, num_days):
            counts = {}
            txns = stream.window_transactions(start, num_days)
            for user, product in zip(txns["user"], txns["product"]):
                counts[(int(user), int(product))] = (
                    counts.get((int(user), int(product)), 0) + 1
                )
            return counts

        builder = IncrementalWindowBuilder(stream)
        for day in range(5):
            builder.add_day(day)
        for start in range(1, 6):
            builder.slide()
            expected = reference_counts(start, 5)
            got = {
                (int(k >> 32), int(k & 0xFFFFFFFF)): c
                for k, c in zip(builder._pair_keys, builder._pair_counts)
            }
            assert len(got) == len(expected)
            for pair, count in expected.items():
                assert got[pair] == count


class TestWarmStart:
    def _detect(self, window, seeds):
        program = SeededFraudLP(seeds)
        result = GLPEngine().run(
            window.graph, program, max_iterations=20
        )
        return result

    def test_warm_start_converges_faster(self, stream):
        store = SeedStore(stream.blacklist())
        previous = build_window_graph(stream, 0, 10)
        prev_result = self._detect(previous, store.window_seeds(previous))

        current = build_window_graph(stream, 1, 10)
        cold_seeds = store.window_seeds(current)
        cold = self._detect(current, cold_seeds)

        warm_seeds = warm_start_seeds(
            previous, prev_result.labels, current, cold_seeds
        )
        warm = self._detect(current, warm_seeds)
        assert warm.num_iterations <= cold.num_iterations
        # Warm start begins with far more labeled vertices.
        assert len(warm_seeds) > 5 * len(cold_seeds)

    def test_blacklist_wins_conflicts(self, stream):
        store = SeedStore(stream.blacklist())
        previous = build_window_graph(stream, 0, 10)
        prev_result = self._detect(previous, store.window_seeds(previous))
        current = build_window_graph(stream, 1, 10)
        base = store.window_seeds(current)
        merged = warm_start_seeds(
            previous, prev_result.labels, current, base
        )
        for vertex, label in base.items():
            assert merged[vertex] == label

    def test_max_carryover_cap(self, stream):
        store = SeedStore(stream.blacklist())
        previous = build_window_graph(stream, 0, 10)
        prev_result = self._detect(previous, store.window_seeds(previous))
        current = build_window_graph(stream, 1, 10)
        base = store.window_seeds(current)
        capped = warm_start_seeds(
            previous, prev_result.labels, current, base, max_carryover=5
        )
        assert len(capped) <= 5 + len(base)


class TestSlidingWindowDetector:
    def test_start_then_slide_warm_starts(self, stream):
        detector = SlidingWindowDetector(
            stream, ClusterDetector(GLPEngine(frontier="auto"))
        )
        window, cold = detector.start(0, 8)
        assert window.start_day == 0
        slid_window, warm = detector.slide()
        assert slid_window.start_day == 1
        # Warm start converges at least as fast as the cold run.
        assert (
            warm.lp_result.num_iterations <= cold.lp_result.num_iterations
        )
        assert warm.clusters

    def test_slide_before_start_rejected(self, stream):
        detector = SlidingWindowDetector(
            stream, ClusterDetector(GLPEngine())
        )
        with pytest.raises(PipelineError):
            detector.slide()

    def test_double_start_rejected(self, stream):
        detector = SlidingWindowDetector(
            stream, ClusterDetector(GLPEngine())
        )
        detector.start(0, 5)
        with pytest.raises(PipelineError):
            detector.start(0, 5)


class TestWarmStartEmptyProductSide:
    """Regression: ``carry_products=True`` with an empty current product
    side raised IndexError — ``&`` does not short-circuit, so the
    emptiness test folded into the ``found`` mask still indexed
    ``current.products``.  The guard must return user-only carryover."""

    def _window(self, users, products):
        from repro.pipeline.window import WindowGraph

        # warm_start_seeds never touches .graph — id mappings only.
        return WindowGraph(
            graph=None,
            users=np.asarray(users, dtype=np.int64),
            products=np.asarray(products, dtype=np.int64),
            start_day=0,
            num_days=1,
        )

    def test_empty_current_products_returns_user_carryover(self):
        from repro.types import NO_LABEL

        previous = self._window([10, 20], [5])
        # user 10 -> label 7, user 20 unlabeled, product 5 -> label 9.
        previous_labels = np.array([7, NO_LABEL, 9], dtype=np.int64)
        current = self._window([10, 20], [])
        merged = warm_start_seeds(
            previous, previous_labels, current, {1: 42},
            carry_products=True,
        )
        # User 10 is window vertex 0 in the current window; the labeled
        # product has nowhere to land and must be silently dropped.
        assert merged == {0: 7, 1: 42}

    def test_nonempty_products_still_carry(self, stream):
        store = SeedStore(stream.blacklist())
        previous = build_window_graph(stream, 0, 10)
        program = SeededFraudLP(store.window_seeds(previous))
        prev_result = GLPEngine().run(
            previous.graph, program, max_iterations=20
        )
        current = build_window_graph(stream, 1, 10)
        base = store.window_seeds(current)
        user_only = warm_start_seeds(
            previous, prev_result.labels, current, base
        )
        with_products = warm_start_seeds(
            previous, prev_result.labels, current, base,
            carry_products=True,
        )
        product_seeds = {
            v for v in with_products if v >= current.num_users
        }
        assert product_seeds  # the guard must not disable the feature
        assert len(with_products) > len(user_only)
