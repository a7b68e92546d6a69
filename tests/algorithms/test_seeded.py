"""Tests for seeded fraud LP."""

import numpy as np
import pytest

from repro import GLPEngine, SeededFraudLP
from repro.algorithms.seeded import Seeds
from repro.errors import ProgramError
from repro.graph.builder import GraphBuilder
from repro.graph.generators.community import fraud_ring_graph
from repro.types import NO_LABEL


def chain_graph(n):
    builder = GraphBuilder(num_vertices=n)
    for i in range(n - 1):
        builder.add_edge(i, i + 1)
    return builder.build(symmetrize=True)


class TestSeeding:
    def test_init_labels(self, two_cliques_graph):
        program = SeededFraudLP({0: 5, 7: 9})
        labels = program.init_labels(two_cliques_graph)
        assert labels[0] == 5
        assert labels[7] == 9
        assert (labels == NO_LABEL).sum() == 8

    def test_empty_seeds_rejected(self):
        with pytest.raises(ProgramError):
            SeededFraudLP({})

    def test_negative_label_rejected(self):
        with pytest.raises(ProgramError):
            SeededFraudLP({0: -2})

    def test_out_of_range_seed_rejected(self, triangle_graph):
        program = SeededFraudLP({99: 1})
        with pytest.raises(ProgramError):
            program.init_labels(triangle_graph)

    def test_invalid_max_hops(self):
        with pytest.raises(ProgramError):
            SeededFraudLP({0: 1}, max_hops=0)


class TestSeedsType:
    def test_mapping_becomes_sorted_arrays(self):
        seeds = Seeds.of({7: 1, 2: 3, 5: 0})
        assert seeds.vertices.tolist() == [2, 5, 7]
        assert seeds.labels.tolist() == [3, 0, 1]
        assert len(seeds) == 3
        assert Seeds.of(seeds) is seeds

    def test_empty_is_falsy(self):
        assert not Seeds.of({})
        assert len(Seeds(np.empty(0), np.empty(0))) == 0

    def test_negative_label_rejected(self):
        message = "^seed labels must be non-negative$"
        with pytest.raises(ProgramError, match=message):
            Seeds.of({0: 1, 3: -2})
        with pytest.raises(ProgramError, match=message):
            SeededFraudLP({0: -2})

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ProgramError, match="^duplicate seed vertex ids$"):
            Seeds.of(Seeds(np.array([4, 1, 4]), np.array([0, 1, 2])))

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ProgramError, match="parallel"):
            Seeds(np.array([1, 2]), np.array([0]))

    def test_program_accepts_either_form(self, two_cliques_graph):
        mapping = {9: 200, 0: 100}
        arrays = Seeds(np.array([0, 9]), np.array([100, 200]))
        by_mapping = GLPEngine().run(
            two_cliques_graph, SeededFraudLP(mapping), max_iterations=10
        )
        by_arrays = GLPEngine().run(
            two_cliques_graph, SeededFraudLP(arrays), max_iterations=10
        )
        assert by_mapping.labels_hash() == by_arrays.labels_hash()
        assert SeededFraudLP(arrays).seeds is arrays


class TestPropagation:
    def test_seeds_never_change(self, two_cliques_graph):
        program = SeededFraudLP({0: 100, 9: 200})
        result = GLPEngine().run(
            two_cliques_graph, program, max_iterations=10
        )
        assert result.labels[0] == 100
        assert result.labels[9] == 200

    def test_labels_spread_from_seeds(self, two_cliques_graph):
        program = SeededFraudLP({0: 100})
        result = GLPEngine().run(
            two_cliques_graph, program, max_iterations=10
        )
        # The seed's whole clique adopts its label.
        assert np.all(result.labels[:5] == 100)

    def test_unreachable_vertices_stay_unlabeled(self):
        # Two disconnected components, seed in the first.
        builder = GraphBuilder(num_vertices=6)
        builder.add_edge(0, 1)
        builder.add_edge(1, 2)
        builder.add_edge(3, 4)
        builder.add_edge(4, 5)
        graph = builder.build(symmetrize=True)
        program = SeededFraudLP({0: 7})
        result = GLPEngine().run(graph, program, max_iterations=10)
        assert np.all(result.labels[:3] == 7)
        assert np.all(result.labels[3:] == NO_LABEL)

    def test_max_hops_bounds_iterations(self):
        graph = chain_graph(20)
        program = SeededFraudLP({0: 7}, max_hops=3)
        result = GLPEngine().run(graph, program, max_iterations=20)
        assert result.num_iterations == 3
        # A 3-iteration propagation reaches exactly distance 3.
        assert result.labels[3] == 7
        assert result.labels[4] == NO_LABEL

    def test_competing_seeds_cover_graph(self):
        graph = chain_graph(11)
        program = SeededFraudLP({0: 1, 10: 2})
        result = GLPEngine().run(graph, program, max_iterations=20)
        # Deterministic tie-breaking favors the smaller label, so label 1
        # wins every boundary tie and advances up to the pinned seed.
        assert result.labels[1] == 1
        assert result.labels[10] == 2  # the seed itself never flips
        assert np.all(result.labels[1:10] == 1)
        # No vertex is left unlabeled.
        assert (result.labels == NO_LABEL).sum() == 0

    def test_clusters_extraction(self, two_cliques_graph):
        program = SeededFraudLP({0: 100, 9: 200})
        result = GLPEngine().run(
            two_cliques_graph, program, max_iterations=10
        )
        clusters = program.clusters(result.labels)
        assert set(clusters) == {100, 200}
        assert 0 in clusters[100]
        assert 9 in clusters[200]


def _int64_grouping(labels):
    """``clusters`` by an int64 stable sort: the grouping before the
    narrow-key radix sort."""
    labeled = np.flatnonzero(labels != NO_LABEL)
    order = np.argsort(labels[labeled].astype(np.int64), kind="stable")
    groups = {}
    for vertex in labeled[order].tolist():
        groups.setdefault(int(labels[vertex]), []).append(vertex)
    return groups


class TestClustersGrouping:
    """``clusters`` groups like an int64 stable sort: the same keys in
    ascending order, each group's vertices ascending."""

    @pytest.mark.parametrize(
        "high", [3, 255, 256, 65_535, 65_536, 2**40], ids=str
    )
    def test_matches_int64_sort(self, high):
        rng = np.random.default_rng(high % 997)
        labels = rng.integers(0, min(high, 50), 5_000) + max(0, high - 50)
        labels[rng.random(labels.size) < 0.2] = NO_LABEL
        labels[7] = high
        got = SeededFraudLP({0: 1}).clusters(labels)
        want = _int64_grouping(labels)
        assert list(got) == list(want) == sorted(want)
        for key, vertices in got.items():
            assert vertices.tolist() == want[key]

    def test_single_label(self):
        labels = np.full(9, NO_LABEL, dtype=np.int64)
        labels[[8, 2, 5]] = 70_000
        got = SeededFraudLP({0: 1}).clusters(labels)
        assert list(got) == [70_000]
        assert got[70_000].tolist() == [2, 5, 8]

    def test_empty_labeled_set(self):
        program = SeededFraudLP({0: 1})
        assert program.clusters(np.full(4, NO_LABEL, dtype=np.int64)) == {}
        assert program.clusters(np.empty(0, dtype=np.int64)) == {}


class TestFraudRings:
    def test_rings_recovered_from_partial_seeds(self):
        graph, ring_id = fraud_ring_graph(
            1000, 6, 10, ring_density=0.9, seed=3
        )
        seeds = {}
        for ring in range(6):
            members = np.flatnonzero(ring_id == ring)
            seeds[int(members[0])] = ring
        program = SeededFraudLP(seeds, max_hops=4)
        result = GLPEngine().run(graph, program, max_iterations=10)
        # Most ring members adopt their ring's seed label.
        hits = 0
        total = 0
        for ring in range(6):
            members = np.flatnonzero(ring_id == ring)
            total += members.size
            hits += int((result.labels[members] == ring).sum())
        assert hits / total > 0.8
