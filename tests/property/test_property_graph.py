"""Property-based tests for the graph substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder, from_edge_arrays


@st.composite
def edge_lists(draw, max_vertices=24, max_edges=80):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=m, max_size=m,
        )
    )
    dst = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=m, max_size=m,
        )
    )
    return n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


class TestBuilderInvariants:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_csr_structurally_valid(self, data):
        n, src, dst = data
        graph = from_edge_arrays(src, dst, n)
        assert graph.offsets[0] == 0
        assert graph.offsets[-1] == graph.num_edges
        assert np.all(np.diff(graph.offsets) >= 0)
        if graph.num_edges:
            assert graph.indices.min() >= 0
            assert graph.indices.max() < n

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_dedup_removes_duplicates_and_self_loops(self, data):
        n, src, dst = data
        graph = from_edge_arrays(src, dst, n)
        for v in range(n):
            nbrs = graph.neighbors(v)
            assert np.unique(nbrs).size == nbrs.size  # no duplicates
            assert v not in nbrs  # no self loops
            assert np.all(np.diff(nbrs) > 0)  # sorted

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_edges_preserved_modulo_dedup(self, data):
        n, src, dst = data
        graph = from_edge_arrays(src, dst, n)
        expected = {
            (int(d), int(s)) for s, d in zip(src, dst) if s != d
        }
        actual = set(graph.iter_edges())
        assert actual == expected

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_symmetrize_makes_undirected(self, data):
        n, src, dst = data
        graph = from_edge_arrays(src, dst, n, symmetrize=True)
        edges = set(graph.iter_edges())
        for v, u in edges:
            assert (u, v) in edges

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_reverse_is_involution(self, data):
        n, src, dst = data
        graph = from_edge_arrays(src, dst, n)
        double = graph.reversed().reversed()
        assert set(graph.iter_edges()) == set(double.iter_edges())

    @given(
        edge_lists(),
        st.lists(st.floats(min_value=0.1, max_value=10.0), max_size=80),
    )
    @settings(max_examples=40, deadline=None)
    def test_weight_mass_preserved(self, data, raw_weights):
        """Dedup sums duplicate weights, so total mass (minus dropped
        self-loops) is invariant."""
        n, src, dst = data
        weights = np.ones(src.size)
        take = min(len(raw_weights), src.size)
        weights[:take] = raw_weights[:take]
        graph = from_edge_arrays(src, dst, n, weights=weights)
        keep = src != dst
        if graph.weights is not None:
            np.testing.assert_allclose(
                graph.weights.sum(), weights[keep].sum()
            )


class TestPartitionInvariants:
    @given(edge_lists(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_balanced_partition_tiles(self, data, k):
        from repro.graph.partition import balanced_edge_partition

        n, src, dst = data
        graph = from_edge_arrays(src, dst, n)
        parts = balanced_edge_partition(graph, k)
        assert parts[0].start == 0
        assert parts[-1].stop == n
        assert sum(p.num_edges for p in parts) == graph.num_edges

    @given(edge_lists(), st.integers(min_value=1, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_edge_budget_partition_tiles(self, data, budget):
        from repro.graph.partition import partition_by_edge_count

        n, src, dst = data
        graph = from_edge_arrays(src, dst, n)
        parts = partition_by_edge_count(graph, budget)
        covered = sum(p.num_vertices for p in parts)
        assert covered == n


#: Weights whose sums depend on the order they are added in.
_TRICKY_WEIGHTS = [1.0, 0.1, 0.2, 0.3, 1e16, -1e16, 2.5, -0.5]


@st.composite
def weighted_edge_lists(draw):
    """Small vertex ranges, so duplicates, self-loops and pairs given in
    both directions are common."""
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=0, max_value=40))
    ids = st.integers(min_value=0, max_value=n - 1)
    src = draw(st.lists(ids, min_size=m, max_size=m))
    dst = draw(st.lists(ids, min_size=m, max_size=m))
    weights = draw(
        st.none()
        | st.lists(
            st.sampled_from(_TRICKY_WEIGHTS)
            | st.floats(min_value=-1e6, max_value=1e6),
            min_size=m,
            max_size=m,
        )
    )
    return (
        n,
        np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64),
        None if weights is None else np.array(weights, dtype=np.float64),
    )


def _reference_csr(n, src, dst, weights, symmetrize):
    """Deduped CSR through a two-key ``np.lexsort`` and an in-order sum."""
    if symmetrize:
        dst, src = np.concatenate([dst, src]), np.concatenate([src, dst])
        if weights is not None:
            weights = np.concatenate([weights, weights])
    keep = dst != src
    order = np.lexsort((src[keep], dst[keep]))
    dst, src = dst[keep][order], src[keep][order]
    edge_weights = (
        [0.0] * dst.size if weights is None
        else weights[keep][order].tolist()
    )
    sums = []
    pairs = []
    for pair, weight in zip(zip(dst.tolist(), src.tolist()), edge_weights):
        if not pairs or pairs[-1] != pair:
            pairs.append(pair)
            sums.append(0.0)
        sums[-1] += weight
    rows = np.array([d for d, _ in pairs], dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    indices = np.array([s for _, s in pairs], dtype=np.int64)
    return offsets, indices, (
        None if weights is None else np.array(sums, dtype=np.float64)
    )


def _reference_transpose(graph):
    """Explicit transpose: row u lists every v with u in N(v), v ascending."""
    rows = [[] for _ in range(graph.num_vertices)]
    for v in range(graph.num_vertices):
        weights = graph.neighbor_weights(v)
        for u, w in zip(graph.neighbors(v).tolist(), weights.tolist()):
            rows[u].append((v, w))
    offsets = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    indices = np.array([v for row in rows for v, _ in row], dtype=np.int64)
    weights = np.array([w for row in rows for _, w in row], dtype=np.float64)
    return offsets, indices, weights


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestBuilderMatchesReference:
    """The packed-key build and the self-transpose shortcut, bit for bit."""

    @given(weighted_edge_lists(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_csr_matches_lexsort_reference(self, data, symmetrize):
        n, src, dst, weights = data
        graph = from_edge_arrays(
            src, dst, n, weights=weights, symmetrize=symmetrize
        )
        offsets, indices, ref_weights = _reference_csr(
            n, src, dst, weights, symmetrize
        )
        assert _same_bytes(graph.offsets, offsets)
        assert _same_bytes(graph.indices, indices)
        if weights is None:
            assert graph.weights is None
        else:
            assert _same_bytes(graph.weights, ref_weights)

    @given(weighted_edge_lists(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_reversed_matches_explicit_transpose(self, data, symmetrize):
        n, src, dst, weights = data
        graph = from_edge_arrays(
            src, dst, n, weights=weights, symmetrize=symmetrize
        )
        reversed_graph = graph.reversed()
        offsets, indices, ref_weights = _reference_transpose(graph)
        assert _same_bytes(reversed_graph.offsets, offsets)
        assert _same_bytes(reversed_graph.indices, indices)
        if weights is None:
            assert reversed_graph.weights is None
        else:
            assert _same_bytes(reversed_graph.weights, ref_weights)
        if symmetrize and weights is None:
            assert reversed_graph is graph

    def test_one_direction_input_is_its_own_transpose(self):
        graph = from_edge_arrays(
            np.array([0, 0, 1, 0]),
            np.array([1, 2, 2, 1]),
            3,
            weights=np.array([0.1, 0.2, 0.3, 0.7]),
            symmetrize=True,
        )
        assert graph.reversed() is graph

    def test_order_dependent_sums_refuse_self_transpose(self):
        """``1e16 + 1.0 - 1e16`` is 0.0 one way and 1.0 the other."""
        graph = from_edge_arrays(
            np.array([0, 0, 1]),
            np.array([1, 1, 0]),
            2,
            weights=np.array([1e16, 1.0, -1e16]),
            symmetrize=True,
        )
        assert graph.neighbor_weights(1).tolist() == [0.0]
        assert graph.neighbor_weights(0).tolist() == [1.0]
        reversed_graph = graph.reversed()
        assert reversed_graph is not graph
        assert reversed_graph.neighbor_weights(0).tolist() == [0.0]
        assert reversed_graph.neighbor_weights(1).tolist() == [1.0]
