"""Tests for the shared MFL building blocks."""

import numpy as np
import pytest

from repro.algorithms import ClassicLP
from repro.kernels import mfl
from repro.types import LABEL_DTYPE


class TestExpandEdges:
    def test_full_graph(self, star_graph):
        batch = mfl.expand_edges(star_graph)
        assert batch.num_edges == star_graph.num_edges
        assert np.array_equal(batch.neighbor_ids, star_graph.indices)
        assert np.array_equal(
            batch.edge_positions, np.arange(star_graph.num_edges)
        )

    def test_subset_contiguous_positions(self, star_graph):
        batch = mfl.expand_edges(star_graph, np.array([0, 3]))
        assert batch.num_edges == star_graph.degree(0) + star_graph.degree(3)
        # Positions must point at the right CSR slots.
        for vid, nbr, pos in zip(
            batch.vertex_ids, batch.neighbor_ids, batch.edge_positions
        ):
            assert star_graph.indices[pos] == nbr
            lo, hi = star_graph.offsets[vid], star_graph.offsets[vid + 1]
            assert lo <= pos < hi

    def test_subset_with_isolated_vertex(self, empty_graph):
        batch = mfl.expand_edges(empty_graph, np.array([1, 2]))
        assert batch.num_edges == 0
        assert batch.vertices.tolist() == [1, 2]

    def test_weights_default_to_ones(self, triangle_graph):
        batch = mfl.expand_edges(triangle_graph)
        assert np.all(batch.edge_weights == 1.0)


class TestAggregation:
    def test_counts_simple(self, two_cliques_graph):
        labels = np.zeros(10, dtype=LABEL_DTYPE)
        labels[5:] = 1
        batch = mfl.expand_edges(two_cliques_graph)
        groups = mfl.aggregate_label_frequencies(
            ClassicLP(), batch, labels
        )
        # Vertex 0 (clique A, away from bridge): all 4 neighbors label 0.
        mask = groups.vertex_ids == 0
        assert groups.labels[mask].tolist() == [0]
        assert groups.frequencies[mask].tolist() == [4.0]
        # Vertex 4 (bridge endpoint): 4 label-0 + 1 label-1.
        mask = groups.vertex_ids == 4
        assert dict(
            zip(groups.labels[mask].tolist(), groups.frequencies[mask])
        ) == {0: 4.0, 1: 1.0}

    def test_groups_sorted_by_vertex_then_label(self, powerlaw_graph):
        labels = np.arange(powerlaw_graph.num_vertices, dtype=LABEL_DTYPE) % 7
        batch = mfl.expand_edges(powerlaw_graph)
        groups = mfl.aggregate_label_frequencies(ClassicLP(), batch, labels)
        keys = groups.vertex_ids * 1000 + groups.labels
        assert np.all(np.diff(keys) > 0)

    def test_group_of_edge_mapping(self, triangle_graph):
        labels = np.array([5, 5, 9], dtype=LABEL_DTYPE)
        batch = mfl.expand_edges(triangle_graph)
        groups = mfl.aggregate_label_frequencies(ClassicLP(), batch, labels)
        # Every edge maps to the group holding its (vertex, label).
        sorted_vertices = batch.vertex_ids[groups.edge_order]
        for i, group in enumerate(groups.group_of_edge):
            assert groups.vertex_ids[group] == sorted_vertices[i]

    def test_frequencies_sum_to_edge_weights(self, powerlaw_graph):
        rng = np.random.default_rng(0)
        labels = rng.integers(
            0, 20, powerlaw_graph.num_vertices
        ).astype(LABEL_DTYPE)
        batch = mfl.expand_edges(powerlaw_graph)
        groups = mfl.aggregate_label_frequencies(ClassicLP(), batch, labels)
        assert groups.frequencies.sum() == pytest.approx(
            batch.edge_weights.sum()
        )

    def test_empty_batch(self, empty_graph):
        batch = mfl.expand_edges(empty_graph)
        groups = mfl.aggregate_label_frequencies(
            ClassicLP(), batch, np.zeros(5, dtype=LABEL_DTYPE)
        )
        assert groups.num_groups == 0

    def test_distinct_counts(self, two_cliques_graph):
        labels = np.arange(10, dtype=LABEL_DTYPE)
        batch = mfl.expand_edges(two_cliques_graph)
        groups = mfl.aggregate_label_frequencies(ClassicLP(), batch, labels)
        vertices, counts = groups.distinct_counts()
        # All neighbor labels unique -> m equals degree.
        for v, m in zip(vertices, counts):
            assert m == two_cliques_graph.degree(int(v))


class TestSelectBest:
    def test_most_frequent_wins(self, star_graph):
        labels = np.array([9, 3, 3, 3, 4, 4, 5, 6, 7], dtype=LABEL_DTYPE)
        batch = mfl.expand_edges(star_graph, np.array([0]))
        groups = mfl.aggregate_label_frequencies(ClassicLP(), batch, labels)
        best_labels, best_scores = mfl.select_best_labels(
            ClassicLP(), groups, np.array([0]), labels
        )
        assert best_labels[0] == 3
        assert best_scores[0] == 3.0

    def test_tie_breaks_to_smaller_label(self, star_graph):
        labels = np.array([9, 8, 8, 2, 2, 5, 6, 7, 1], dtype=LABEL_DTYPE)
        batch = mfl.expand_edges(star_graph, np.array([0]))
        groups = mfl.aggregate_label_frequencies(ClassicLP(), batch, labels)
        best_labels, _ = mfl.select_best_labels(
            ClassicLP(), groups, np.array([0]), labels
        )
        assert best_labels[0] == 2  # 2 and 8 both appear twice

    def test_isolated_vertex_keeps_label(self, empty_graph):
        labels = np.array([4, 5, 6, 7, 8], dtype=LABEL_DTYPE)
        batch = mfl.expand_edges(empty_graph, np.array([2]))
        groups = mfl.aggregate_label_frequencies(ClassicLP(), batch, labels)
        best_labels, best_scores = mfl.select_best_labels(
            ClassicLP(), groups, np.array([2]), labels
        )
        assert best_labels[0] == 6
        assert best_scores[0] == mfl.NO_SCORE

    @staticmethod
    def lexsort_selection(groups, vertices, current_labels):
        """The former definition: sort by (vertex, -score, label)."""
        best_labels = current_labels[vertices].copy()
        best_scores = np.full(vertices.size, mfl.NO_SCORE)
        scores = groups.frequencies  # ClassicLP scores are frequencies
        order = np.lexsort((groups.labels, -scores, groups.vertex_ids))
        ordered = groups.vertex_ids[order]
        first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
        idx = np.searchsorted(vertices, ordered[first])
        best_labels[idx] = groups.labels[order][first]
        best_scores[idx] = scores[order][first]
        return best_labels, best_scores

    @staticmethod
    def groups_of(rows):
        """LabelGroups from ``(vertex, label, score)`` rows."""
        rows = sorted(rows, key=lambda row: (row[0], row[1]))
        return mfl.LabelGroups(
            vertex_ids=np.array([r[0] for r in rows], dtype=np.int64),
            labels=np.array([r[1] for r in rows], dtype=LABEL_DTYPE),
            frequencies=np.array([r[2] for r in rows], dtype=np.float64),
            edge_order=np.empty(0, dtype=np.int64),
            group_of_edge=np.empty(0, dtype=np.int64),
        )

    @pytest.mark.parametrize(
        "rows",
        [
            # Tied scores: the smallest label wins.
            [(0, 9, 2.0), (0, 4, 2.0), (0, 6, 1.0), (1, 3, 5.0), (1, 2, 5.0)],
            # NO_SCORE (-inf) loses to anything finite, ties among itself.
            [(0, 1, -np.inf), (0, 2, -3.0), (1, 5, -np.inf), (1, 4, -np.inf)],
            # NaN never beats a number, -inf included.
            [(0, 1, np.nan), (0, 2, 0.5), (1, 3, np.nan), (1, 7, -np.inf)],
            # All-NaN vertex: its smallest label, with a NaN score.
            [(0, 8, np.nan), (0, 3, np.nan), (2, 1, 1.0)],
            # Vertices with one group each, plus a signed-zero tie.
            [(0, 5, 1.0), (1, 6, 0.0), (2, 7, -0.0), (2, 1, 0.0)],
            # Weighted float frequencies.
            [(0, 1, 0.1 + 0.2), (0, 2, 0.3), (1, 4, 2.5), (1, 9, 2.5000001)],
        ],
    )
    def test_matches_lexsort_definition(self, rows):
        groups = self.groups_of(rows)
        vertices = np.arange(4, dtype=np.int64)
        current = np.array([40, 41, 42, 43], dtype=LABEL_DTYPE)
        got = mfl.select_best_labels(ClassicLP(), groups, vertices, current)
        want = self.lexsort_selection(groups, vertices, current)
        assert np.array_equal(got[0], want[0])
        # Bitwise: NaN == NaN and -0.0 != 0.0 at this level.
        assert got[1].tobytes() == want[1].tobytes()

    def test_matches_lexsort_definition_random(self):
        rng = np.random.default_rng(7)
        pool = np.array([np.nan, -np.inf, np.inf, -0.0, 0.0, 1.0, 2.0, 0.5])
        for _ in range(200):
            n = int(rng.integers(1, 40))
            rows = {
                (int(v), int(l)): float(rng.choice(pool))
                for v, l in zip(rng.integers(0, 6, n), rng.integers(0, 5, n))
            }
            groups = self.groups_of([(v, l, s) for (v, l), s in rows.items()])
            vertices = np.arange(6, dtype=np.int64)
            current = np.arange(6, dtype=LABEL_DTYPE) + 100
            got = mfl.select_best_labels(ClassicLP(), groups, vertices, current)
            want = self.lexsort_selection(groups, vertices, current)
            assert np.array_equal(got[0], want[0])
            assert got[1].tobytes() == want[1].tobytes()

    def test_per_vertex_extremes(self, star_graph):
        labels = np.array([9, 3, 3, 3, 4, 4, 5, 6, 7], dtype=LABEL_DTYPE)
        batch = mfl.expand_edges(star_graph)
        groups = mfl.aggregate_label_frequencies(ClassicLP(), batch, labels)
        vertices, m, f_max = mfl.per_vertex_extremes(groups)
        hub = np.flatnonzero(vertices == 0)[0]
        assert m[hub] == 5  # labels {3,4,5,6,7}
        assert f_max[hub] == 3.0
