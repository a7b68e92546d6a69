"""Tests for the synthetic transaction stream."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.graph.generators.bipartite import zipf_popularity
from repro.pipeline.transactions import (
    TransactionStream,
    TransactionStreamConfig,
    popularity_cdf,
)


@pytest.fixture(scope="module")
def small_stream():
    return TransactionStream(
        TransactionStreamConfig(
            num_users=2000,
            num_products=1000,
            num_days=20,
            transactions_per_day=500,
            num_rings=5,
            ring_size=8,
            seed=1,
        )
    )


def stream_digest(stream):
    digest = hashlib.sha256(stream.transactions.tobytes())
    for ring in stream.rings:
        digest.update(ring.products.tobytes())
    return digest.hexdigest()


class TestGoldenStream:
    """Every byte of the stream is pinned: the benchmark's expected label
    hashes and the committed baselines are all derived from it."""

    def test_small_stream(self, small_stream):
        assert stream_digest(small_stream) == (
            "ebf5aa4979d3a7bb7acd1d3e3a44af547f820ee405979704390e1381a43b665d"
        )

    def test_default_65_days(self):
        stream = TransactionStream(TransactionStreamConfig(num_days=65, seed=0))
        assert stream_digest(stream) == (
            "69cda597de5feffaae80b77a7c9f6d930f010ccbf31e7f352b9a839e8f7b9fa0"
        )


class TestZipfSampler:
    @pytest.mark.parametrize("k", [0, 1, 30, 17_000])
    def test_matches_generator_choice(self, k):
        popularity = zipf_popularity(45_000, 1.05)
        ours = np.random.default_rng(11)
        theirs = np.random.default_rng(11)
        sampled = popularity_cdf(popularity).searchsorted(
            ours.random(k), side="right"
        )
        expected = theirs.choice(popularity.size, size=k, p=popularity)
        assert np.array_equal(sampled, expected)
        # Both consumed the same number of draws.
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize(
        "popularity",
        [
            np.array([0.5, np.nan, 0.5]),
            np.array([0.5, np.inf, 0.5]),
            np.array([1.5, -0.5]),
            np.array([0.3, 0.3]),
        ],
    )
    def test_rejects_non_distribution(self, popularity):
        with pytest.raises(PipelineError):
            popularity_cdf(popularity)


class TestGeneration:
    def test_record_fields(self, small_stream):
        tx = small_stream.transactions
        assert set(tx.dtype.names) == {"day", "user", "product", "amount"}
        assert tx["day"].min() == 0
        assert tx["day"].max() == 19
        assert tx["user"].max() < 2000
        assert tx["product"].max() < 1000
        assert np.all(tx["amount"] > 0)

    def test_deterministic(self):
        config = TransactionStreamConfig(
            num_users=500, num_products=200, num_days=5,
            transactions_per_day=100, num_rings=2, ring_size=5, seed=9,
        )
        a = TransactionStream(config).transactions
        b = TransactionStream(config).transactions
        assert np.array_equal(a, b)

    def test_construction_peak_is_about_the_stream(self):
        # One record buffer: no per-day chunks concatenated at the end.
        config = TransactionStreamConfig(num_days=20)
        tracemalloc.start()
        try:
            stream = TransactionStream(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * stream.transactions.nbytes

    def test_rings_at_top_of_id_space(self, small_stream):
        config = small_stream.config
        ring_base = config.num_users - config.num_rings * config.ring_size
        for ring in small_stream.rings:
            assert ring.members.min() >= ring_base
            assert ring.members.size == config.ring_size

    def test_ring_membership_array(self, small_stream):
        membership = small_stream.ring_membership()
        assert membership.size == small_stream.num_users
        for ring in small_stream.rings:
            assert np.all(membership[ring.members] == ring.ring_id)
        honest = membership == -1
        assert honest.sum() == small_stream.num_users - 5 * 8

    def test_blacklist_subset_of_rings(self, small_stream):
        blacklist = small_stream.blacklist()
        membership = small_stream.ring_membership()
        for user, label in blacklist.items():
            assert membership[user] == label
        # seed_fraction=0.25 of ring_size=8 -> 2 per ring.
        assert len(blacklist) == 5 * 2

    def test_ring_traffic_concentrates_on_ring_products(self, small_stream):
        tx = small_stream.transactions
        ring = small_stream.rings[0]
        ring_tx = tx[np.isin(tx["user"], ring.members)]
        on_ring_products = np.isin(ring_tx["product"], ring.products).mean()
        assert on_ring_products > 0.6

    def test_window_slicing(self, small_stream):
        window = small_stream.window_transactions(5, 3)
        assert window["day"].min() >= 5
        assert window["day"].max() < 8
        with pytest.raises(PipelineError):
            small_stream.window_transactions(0, 0)
        with pytest.raises(PipelineError):
            small_stream.window_transactions(3, -2)

    @pytest.mark.parametrize("start", [-25, -3, 0, 1, 7, 19, 20, 31])
    @pytest.mark.parametrize("num_days", [1, 2, 5, 20, 40])
    def test_window_matches_day_mask(self, small_stream, start, num_days):
        tx = small_stream.transactions
        days = tx["day"]
        expected = tx[(days >= start) & (days < start + num_days)]
        window = small_stream.window_transactions(start, num_days)
        assert window.tobytes() == expected.tobytes()

    def test_window_is_read_only_view(self, small_stream):
        window = small_stream.window_transactions(2, 4)
        assert not window.flags.writeable
        assert np.shares_memory(window, small_stream.transactions)
        with pytest.raises(ValueError):
            window["amount"][0] = 0.0

    def test_unsorted_stream_rejected(self, monkeypatch):
        generate = TransactionStream._generate

        def shuffled(self):
            tx = generate(self)
            return tx[::-1].copy()

        monkeypatch.setattr(TransactionStream, "_generate", shuffled)
        with pytest.raises(PipelineError, match="sorted by day"):
            TransactionStream(
                TransactionStreamConfig(
                    num_users=200, num_products=100, num_days=3,
                    transactions_per_day=20, num_rings=1, ring_size=4,
                )
            )


class TestConfigValidation:
    def test_rings_exceed_universe(self):
        with pytest.raises(PipelineError):
            TransactionStreamConfig(
                num_users=10, num_rings=3, ring_size=5
            )

    def test_bad_seed_fraction(self):
        with pytest.raises(PipelineError):
            TransactionStreamConfig(seed_fraction=0.0)

    def test_bad_days(self):
        with pytest.raises(PipelineError):
            TransactionStreamConfig(num_days=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"ring_products": 0},
            {"num_products": 3, "ring_products": 4},
            {"regular_fraction": -0.1},
            {"regular_fraction": 1.5},
            {"regular_fraction": float("nan")},
            {"ring_size": 0},
            {"ring_size": -2},
            {"num_rings": -1},
            {"ring_transactions_per_day": -1},
            {"zipf_exponent": float("nan")},
            {"zipf_exponent": float("inf")},
            {"regulars_pool_fraction": 0.0},
            {"regulars_pool_fraction": 3.0},
            {"num_users": 480, "num_rings": 40, "ring_size": 12},
        ],
    )
    def test_invalid_config_rejected(self, overrides):
        with pytest.raises(PipelineError):
            TransactionStreamConfig(**overrides)

    def test_default_and_edge_configs_accepted(self):
        TransactionStreamConfig()
        TransactionStreamConfig(num_rings=0, ring_size=0)
        TransactionStreamConfig(
            num_users=480, num_rings=40, ring_size=12, transactions_per_day=0
        )
        TransactionStreamConfig(
            regular_fraction=0.0, regulars_pool_fraction=1.0,
            ring_transactions_per_day=0,
        )
