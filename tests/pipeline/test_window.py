"""Tests for sliding-window graph construction."""

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.pipeline.transactions import (
    TransactionStream,
    TransactionStreamConfig,
)
from repro.graph.builder import from_edge_arrays
from repro.pipeline.window import (
    SlidingWindow,
    WindowGraph,
    build_window_graph,
)


def searchsorted_lookup(sorted_ids, ids, first_vertex=0):
    """The binary-search lookup the dense id maps replaced: the window
    vertex ``first_vertex + i`` of each id at ``sorted_ids[i]``, else -1.
    The oracle of the maps' tests."""
    ids = np.asarray(ids, dtype=np.int64)
    if sorted_ids.size == 0:
        return np.full(ids.shape, -1, dtype=np.int64)
    positions = np.clip(
        np.searchsorted(sorted_ids, ids), 0, sorted_ids.size - 1
    )
    found = sorted_ids[positions] == ids
    return np.where(found, positions + first_vertex, -1).astype(np.int64)


def assert_maps_match_lookup(window, queried):
    """Both maps answer every queried id like the binary search."""
    queried = np.asarray(queried, dtype=np.int64)
    got = window.window_vertex_of_user(queried)
    assert got.dtype == np.int64 and got.shape == queried.shape
    assert np.array_equal(got, searchsorted_lookup(window.users, queried))
    assert np.array_equal(
        window.window_vertex_of_product(queried),
        searchsorted_lookup(window.products, queried, window.num_users),
    )


def assert_vertex_map_composes(previous, current):
    """``current.vertex_map_from(previous)`` is each previous vertex's
    global id, looked up in ``current``."""
    users = np.arange(previous.num_users)
    products = np.arange(previous.num_users, previous.graph.num_vertices)
    assert np.array_equal(
        current.vertex_map_from(previous),
        np.concatenate(
            [
                current.window_vertex_of_user(
                    previous.user_of_window_vertex(users)
                ),
                current.window_vertex_of_product(
                    previous.products[products - previous.num_users]
                ),
            ]
        ),
    )


@pytest.fixture(scope="module")
def stream():
    return TransactionStream(
        TransactionStreamConfig(
            num_users=1000,
            num_products=500,
            num_days=30,
            transactions_per_day=400,
            num_rings=3,
            ring_size=6,
            seed=2,
        )
    )


class TestWindowGraph:
    def test_bipartite_structure(self, stream):
        window = build_window_graph(stream, 0, 10)
        graph = window.graph
        n_users = window.num_users
        # Users only connect to products and vice versa.
        for v in range(0, min(50, n_users)):
            nbrs = graph.neighbors(v)
            assert np.all(nbrs >= n_users)
        for v in range(n_users, min(n_users + 50, graph.num_vertices)):
            nbrs = graph.neighbors(v)
            assert np.all(nbrs < n_users)

    def test_vertices_are_touched_entities(self, stream):
        window = build_window_graph(stream, 5, 5)
        tx = stream.window_transactions(5, 5)
        assert window.users.size == np.unique(tx["user"]).size
        assert window.products.size == np.unique(tx["product"]).size

    def test_edge_weights_are_transaction_counts(self, stream):
        window = build_window_graph(stream, 0, 30)
        tx = stream.window_transactions(0, 30)
        graph = window.graph
        assert graph.weights is not None
        # Total weight = 2x transactions (symmetrized).
        assert graph.weights.sum() == pytest.approx(2 * tx.size)

    def test_user_vertex_roundtrip(self, stream):
        window = build_window_graph(stream, 0, 10)
        some_users = window.users[:20]
        vertices = window.window_vertex_of_user(some_users)
        assert np.array_equal(
            window.user_of_window_vertex(vertices), some_users
        )

    def test_absent_user_maps_to_minus_one(self, stream):
        window = build_window_graph(stream, 0, 1)
        # Guaranteed-absent id (beyond the universe used in the window).
        missing = np.array([stream.num_users - 1 + 10**6])
        assert window.window_vertex_of_user(missing)[0] == -1

    def test_product_vertices_map_to_minus_one_user(self, stream):
        window = build_window_graph(stream, 0, 10)
        product_vertex = np.array([window.num_users])
        assert window.user_of_window_vertex(product_vertex)[0] == -1

    def test_longer_window_superset_shape(self, stream):
        short = build_window_graph(stream, 20, 5)
        long = build_window_graph(stream, 10, 15)
        assert long.graph.num_vertices >= short.graph.num_vertices
        assert long.graph.num_edges >= short.graph.num_edges


def _bare_window(users, products):
    """A window of the given ids and no edges."""
    users = np.asarray(users, dtype=np.int64)
    products = np.asarray(products, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    graph = from_edge_arrays(
        empty, empty, users.size + products.size, symmetrize=True
    )
    return WindowGraph(
        graph=graph, users=users, products=products, start_day=0, num_days=1
    )


class TestIdMaps:
    """The dense id maps answer like the binary search they replaced."""

    @pytest.mark.parametrize("start,num_days", [(0, 1), (0, 10), (12, 18)])
    def test_every_id_matches_lookup(self, stream, start, num_days):
        window = build_window_graph(stream, start, num_days)
        largest = max(stream.num_users, stream.num_products)
        queried = np.concatenate(
            [
                np.arange(-3, largest + 3),
                [-(2**62), 2**40, np.iinfo(np.int64).max],
            ]
        )
        assert_maps_match_lookup(window, queried)

    @pytest.mark.parametrize(
        "users,products",
        [([], [7]), ([4, 9], []), ([], []), ([0], [0])],
        ids=["no-users", "no-products", "empty", "id-zero"],
    )
    def test_windows_with_an_empty_side(self, users, products):
        window = _bare_window(users, products)
        assert_maps_match_lookup(window, np.arange(-2, 12))
        assert_maps_match_lookup(window, np.empty(0, dtype=np.int64))

    def test_maps_sized_by_the_largest_window_id(self):
        # A stream may name ids up to 2**31; a window holding only small
        # ids must not pay for the id space.
        window = _bare_window([3, 5], [2**20])
        assert window._user_vertex.size == 6
        assert window._product_vertex.size == 2**20 + 1
        assert window.window_vertex_of_user(np.array([2**31 - 1]))[0] == -1
        assert not window._user_vertex.flags.writeable

    def test_ids_past_the_largest_and_negative(self, stream):
        window = build_window_graph(stream, 0, 10)
        past = np.array([window.users[-1] + 1, -1, -window.users[-1]])
        assert np.all(window.window_vertex_of_user(past) == -1)
        past = np.array([window.products[-1] + 1, -1])
        assert np.all(window.window_vertex_of_product(past) == -1)

    @pytest.mark.parametrize(
        "previous,current",
        [((0, 10), (1, 10)), ((0, 3), (10, 12)), ((5, 15), (8, 2))],
        ids=["slide", "gains", "loses"],
    )
    def test_vertex_map_composes_the_lookups(self, stream, previous, current):
        previous = build_window_graph(stream, *previous)
        current = build_window_graph(stream, *current)
        assert_vertex_map_composes(previous, current)
        mapped = current.vertex_map_from(previous)
        assert mapped.size == previous.graph.num_vertices
        # Users map to users and products to products, one to one.
        users, products = np.split(mapped, [previous.num_users])
        assert np.all(users < current.num_users)
        assert np.all((products == -1) | (products >= current.num_users))
        present = mapped[mapped >= 0]
        assert np.unique(present).size == present.size

    def test_vertex_map_from_an_empty_side(self, stream):
        window = build_window_graph(stream, 0, 5)
        for bare in (
            _bare_window([], [1, 2]),
            _bare_window([3], []),
            _bare_window([], []),
        ):
            assert_vertex_map_composes(bare, window)
            assert_vertex_map_composes(window, bare)
            assert_vertex_map_composes(bare, bare)


class TestEmptyWindow:
    """Regression: a zero-user window must answer lookups, not raise.

    ``window_vertex_of_user`` used to evaluate ``self.users[positions]``
    unconditionally; with an empty user set the clip bound collapsed to
    ``-1`` and the fancy index raised ``IndexError`` deep inside the
    serving path (seed translation, score lookups).
    """

    @pytest.fixture
    def empty_window(self):
        # One product vertex, zero users, no edges: the shape a day of
        # product-only activity (or a fully-retired window) produces.
        return _bare_window([], [7])

    def test_lookup_returns_all_absent(self, empty_window):
        queried = np.array([0, 3, 10**6], dtype=np.int64)
        vertices = empty_window.window_vertex_of_user(queried)
        assert vertices.shape == queried.shape
        assert np.all(vertices == -1)

    def test_empty_query_on_empty_window(self, empty_window):
        vertices = empty_window.window_vertex_of_user(
            np.empty(0, dtype=np.int64)
        )
        assert vertices.size == 0

    def test_seed_store_translation(self, empty_window):
        from repro.pipeline.seeds import SeedStore

        store = SeedStore({4: 1, 9: 2})
        assert len(store.window_seeds(empty_window)) == 0

    def test_serving_score_on_empty_window(self, empty_window):
        from repro.serving.service import score_user
        from repro.types import NO_LABEL

        labels = np.full(1, NO_LABEL, dtype=np.int64)
        label, flagged = score_user(empty_window, labels, frozenset(), 42)
        assert label == int(NO_LABEL)
        assert flagged is False


class TestSlidingWindow:
    def test_tumbling_iteration(self, stream):
        windows = list(SlidingWindow(stream, 10))
        assert len(windows) == 3
        assert [w.start_day for w in windows] == [0, 10, 20]

    def test_sliding_step(self, stream):
        windows = list(SlidingWindow(stream, 10, step_days=5))
        assert [w.start_day for w in windows] == [0, 5, 10, 15, 20]

    def test_latest(self, stream):
        latest = SlidingWindow(stream, 10).latest()
        assert latest.start_day == 20
        assert latest.num_days == 10

    def test_window_longer_than_stream_rejected(self, stream):
        with pytest.raises(PipelineError):
            SlidingWindow(stream, 31)

    def test_invalid_params(self, stream):
        with pytest.raises(PipelineError):
            SlidingWindow(stream, 0)
        with pytest.raises(PipelineError):
            SlidingWindow(stream, 5, step_days=0)

    def test_latest_rejects_drifted_config(self, stream):
        """Regression: config drift past the ``__init__`` guard.

        Reconfiguring ``window_days`` after construction used to make
        ``latest()`` compute a negative ``start_day`` and silently build
        a window over the wrong transactions; it must raise instead.
        """
        sliding = SlidingWindow(stream, 10)
        sliding.window_days = stream.config.num_days + 5
        with pytest.raises(PipelineError, match="no complete window"):
            sliding.latest()

    def test_latest_exact_stream_length_ok(self, stream):
        sliding = SlidingWindow(stream, 10)
        sliding.window_days = stream.config.num_days
        latest = sliding.latest()
        assert latest.start_day == 0
        assert latest.num_days == stream.config.num_days
