"""Tests for the synthetic transaction stream."""

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.pipeline.transactions import (
    TransactionStream,
    TransactionStreamConfig,
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
