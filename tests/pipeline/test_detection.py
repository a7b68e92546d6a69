"""Tests for seeds, detector, downstream scoring and metrics."""

import types

import numpy as np
import pytest

from repro import GLPEngine
from repro.errors import PipelineError
from repro.pipeline.detector import ClusterDetector
from repro.pipeline.downstream import ClusterScorer
from repro.pipeline.metrics import cluster_purity, user_detection_metrics
from repro.pipeline.seeds import SeedStore
from repro.pipeline.transactions import (
    TransactionStream,
    TransactionStreamConfig,
)
from repro.pipeline.window import build_window_graph
from repro.types import NO_LABEL


@pytest.fixture(scope="module")
def stream():
    return TransactionStream(
        TransactionStreamConfig(
            num_users=3000,
            num_products=1500,
            num_days=20,
            transactions_per_day=1500,
            num_rings=8,
            ring_size=10,
            ring_transactions_per_day=25,
            seed=4,
        )
    )


@pytest.fixture(scope="module")
def window(stream):
    return build_window_graph(stream, 0, 20)


class TestSeedStore:
    def test_add_and_contains(self):
        store = SeedStore()
        store.add(5, 1)
        assert 5 in store
        assert 6 not in store
        assert len(store) == 1

    def test_add_batch_and_remove(self):
        store = SeedStore()
        store.add_batch([1, 2, 3], [0, 0, 1])
        assert len(store) == 3
        store.remove(2)
        assert 2 not in store
        store.remove(999)  # silently ignored

    def test_invalid_entries(self):
        store = SeedStore()
        with pytest.raises(PipelineError):
            store.add(-1, 0)
        with pytest.raises(PipelineError):
            store.add(0, -1)

    def test_window_translation(self, stream, window):
        store = SeedStore(stream.blacklist())
        seeds = store.window_seeds(window)
        assert seeds  # some seeded users are active in the window
        membership = stream.ring_membership()
        for vertex, label in zip(seeds.vertices, seeds.labels):
            user = window.user_of_window_vertex(np.array([vertex]))[0]
            assert membership[user] == label

    def test_empty_store_empty_seeds(self, window):
        assert len(SeedStore().window_seeds(window)) == 0


class TestDetector:
    def test_detects_ring_clusters(self, stream, window):
        store = SeedStore(stream.blacklist())
        detector = ClusterDetector(
            GLPEngine(), max_iterations=10, max_hops=5
        )
        detection = detector.detect(window, store.window_seeds(window))
        assert detection.clusters
        assert detection.lp_seconds > 0
        # Flagged users overlap heavily with true ring members.
        metrics = user_detection_metrics(
            detection.flagged_users(), stream, active_users=window.users
        )
        assert metrics.recall > 0.5

    def test_cluster_size_band(self, stream, window):
        store = SeedStore(stream.blacklist())
        detector = ClusterDetector(
            GLPEngine(), max_iterations=10, max_hops=5,
            min_cluster_size=3, max_cluster_size=100,
        )
        detection = detector.detect(window, store.window_seeds(window))
        for cluster in detection.clusters:
            assert 3 <= cluster.vertices.size <= 100

    def test_empty_seeds_rejected(self, window):
        detector = ClusterDetector(GLPEngine())
        with pytest.raises(PipelineError):
            detector.detect(window, {})

    def test_invalid_size_band(self):
        with pytest.raises(PipelineError):
            ClusterDetector(GLPEngine(), min_cluster_size=10,
                            max_cluster_size=5)

    def test_num_seeds_counted(self, stream, window):
        store = SeedStore(stream.blacklist())
        detector = ClusterDetector(GLPEngine(), max_iterations=10, max_hops=5)
        detection = detector.detect(window, store.window_seeds(window))
        assert any(c.num_seeds > 0 for c in detection.clusters)

    def test_num_seeds_equals_isin_count(self, stream, window):
        """Each cluster's count is the per-cluster ``np.isin`` count it
        replaced, also when the final labels move seeds off their label."""
        seeds = SeedStore(stream.blacklist()).window_seeds(window)

        class Unpinning:
            """GLP, then every third seed relabeled and every fifth
            unlabeled: a seed must count only for its own label."""

            def run(self, graph, program, **kwargs):
                result = GLPEngine().run(graph, program, **kwargs)
                labels = result.labels.copy()
                labels[seeds.vertices[::3]] = seeds.labels[::3] + 1
                labels[seeds.vertices[::5]] = NO_LABEL
                return types.SimpleNamespace(
                    labels=labels,
                    total_seconds=result.total_seconds,
                    num_iterations=result.num_iterations,
                )

        detector = ClusterDetector(
            Unpinning(), max_iterations=10, max_hops=5,
            min_cluster_size=1, max_cluster_size=10**6,
        )
        detection = detector.detect(window, seeds)
        assert detection.clusters
        counted = 0
        for cluster in detection.clusters:
            want = np.isin(
                seeds.vertices[seeds.labels == cluster.label],
                cluster.vertices,
            ).sum()
            assert cluster.num_seeds == want
            counted += cluster.num_seeds
        assert 0 < counted < len(seeds)


class TestScorerAndMetrics:
    def test_scoring_features(self, stream, window):
        store = SeedStore(stream.blacklist())
        detector = ClusterDetector(GLPEngine(), max_iterations=10, max_hops=5)
        detection = detector.detect(window, store.window_seeds(window))
        scoring = ClusterScorer().score(window, detection.clusters)
        assert len(scoring.scored) == len(detection.clusters)
        assert scoring.seconds > 0
        for scored in scoring.scored:
            assert 0.0 <= scored.score <= 1.0
            assert 0.0 <= scored.density <= 1.0
            assert 0.0 <= scored.seed_fraction <= 1.0

    def test_ring_clusters_score_high(self, stream, window):
        store = SeedStore(stream.blacklist())
        detector = ClusterDetector(GLPEngine(), max_iterations=10, max_hops=5)
        detection = detector.detect(window, store.window_seeds(window))
        scoring = ClusterScorer().score(window, detection.clusters)
        purities = cluster_purity(detection.clusters, stream)
        # Clusters that are pure rings should mostly classify as fraud.
        pure_labels = [l for l, p in purities.items() if p > 0.8]
        fraud_labels = {s.cluster.label for s in scoring.fraud_clusters()}
        if pure_labels:
            hit = sum(1 for l in pure_labels if l in fraud_labels)
            assert hit / len(pure_labels) > 0.6

    def test_scorer_invalid_rate(self):
        with pytest.raises(PipelineError):
            ClusterScorer(edges_per_second=0)

    def test_metrics_arithmetic(self):
        from repro.pipeline.metrics import DetectionMetrics

        metrics = DetectionMetrics(
            true_positives=8, false_positives=2, false_negatives=8
        )
        assert metrics.precision == 0.8
        assert metrics.recall == 0.5
        assert metrics.f1 == pytest.approx(2 * 0.8 * 0.5 / 1.3)

    def test_metrics_empty_flagged(self, stream):
        metrics = user_detection_metrics(np.empty(0, dtype=np.int64), stream)
        assert metrics.precision == 0.0
        assert metrics.true_positives == 0
