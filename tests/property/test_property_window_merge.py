"""Property test of the sliding window's one-merge slide.

``IncrementalWindowBuilder.slide()`` merges the retired and the added day
into one batch of net count deltas and folds it into the pair table once,
reading the edge diff and the per-product pair counts off that fold.  Over
tiny generated streams, every slide is checked against independent
oracles: a from-scratch fold of the window's days, a ``bincount`` of the
table, ``compute_window_diff`` of the before and after tables, and the
batch ``build_window_graph``.  A slide whose detection raises must roll
the product counts back with the table.
"""

import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import GLPEngine
from repro.errors import PipelineError
from repro.pipeline.detector import ClusterDetector
from repro.pipeline.dynlp import compute_window_diff
from repro.pipeline.incremental import (
    IncrementalWindowBuilder,
    SlidingWindowDetector,
)
from repro.pipeline.seeds import SeedStore
from repro.pipeline.transactions import TRANSACTION_DTYPE
from repro.pipeline.window import PRODUCT_MASK, build_window_graph, pack_pairs


class _Stream:
    """A transaction stream over explicit per-day (user, product) lists."""

    def __init__(self, num_users, num_products, days):
        self.days = days
        self.config = types.SimpleNamespace(
            num_users=num_users,
            num_products=num_products,
            num_days=len(days),
        )

    def window_transactions(self, start, num_days):
        pairs = [
            pair for day in self.days[start:start + num_days] for pair in day
        ]
        transactions = np.zeros(len(pairs), dtype=TRANSACTION_DTYPE)
        if pairs:
            transactions["user"], transactions["product"] = zip(*pairs)
        return transactions


class _FlakyDetector(ClusterDetector):
    """A detector whose detection raises while ``armed``."""

    armed = False

    def detect(self, *args, **kwargs):
        if self.armed:
            raise RuntimeError("injected detection failure")
        return super().detect(*args, **kwargs)


@st.composite
def streams(draw):
    num_users = draw(st.integers(1, 3))
    num_products = draw(st.integers(1, 3))
    pairs = st.tuples(
        st.integers(0, num_users - 1), st.integers(0, num_products - 1)
    )
    # Few ids and short, often empty days: pairs retire and come back,
    # counts fall to zero, and users and products leave and re-enter.
    days = draw(
        st.lists(st.lists(pairs, max_size=4), min_size=2, max_size=7)
    )
    window_days = draw(st.integers(1, len(days) - 1))
    return num_users, num_products, days, window_days


def _from_scratch(stream, start, num_days):
    """The window's pair table, folded from its transactions by dict."""
    counts = {}
    for day in stream.days[start:start + num_days]:
        for user, product in day:
            key = int(pack_pairs([user], [product])[0])
            counts[key] = counts.get(key, 0.0) + 1.0
    keys = np.array(sorted(counts), dtype=np.int64)
    return keys, np.array([counts[k] for k in keys.tolist()], dtype=np.float64)


def _assert_same_arrays(got, want):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _assert_builder_state(builder, stream, start, window_days):
    state = builder.snapshot()
    keys, counts = _from_scratch(stream, start, window_days)
    _assert_same_arrays(state["pair_keys"], keys)
    _assert_same_arrays(state["pair_counts"], counts)
    _assert_same_arrays(
        state["product_counts"],
        np.bincount(
            keys & PRODUCT_MASK, minlength=stream.config.num_products
        ),
    )
    for name in ("pair_keys", "pair_counts", "product_counts"):
        assert not state[name].flags.writeable
    built = builder.build()
    batch = build_window_graph(stream, start, window_days)
    for field in ("offsets", "indices", "weights"):
        _assert_same_arrays(
            getattr(built.graph, field), getattr(batch.graph, field)
        )
    _assert_same_arrays(built.users, batch.users)
    _assert_same_arrays(built.products, batch.products)


# Hand-picked streams that hold every case the merge must get right.
_CRAFTED = [
    # Slide 1 retires (0, 0) and re-adds it, and drops (1, 1) to zero,
    # so user 1 and product 1 leave the window; slide 2 retires an empty
    # day and brings them back; slide 3 adds an empty day.
    (2, 2, [[(0, 0), (1, 1)], [], [(0, 0)], [(1, 1), (1, 1)], []], 2),
    # A pair reweighted by the merge (retired once, added twice), and a
    # window that empties completely and refills.
    (2, 3, [[(1, 2)], [(1, 2), (1, 2)], [], [(0, 0)]], 1),
]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(streams())
@example(_CRAFTED[0])
@example(_CRAFTED[1])
def test_slide_matches_oracles(case):
    num_users, num_products, days, window_days = case
    stream = _Stream(num_users, num_products, days)
    builder = IncrementalWindowBuilder(stream)
    for day in range(window_days):
        builder.add_day(day)
    _assert_builder_state(builder, stream, 0, window_days)
    for start in range(1, len(days) - window_days + 1):
        before = builder.snapshot()
        diff = builder.slide()
        after = builder.snapshot()
        full = compute_window_diff(
            before["pair_keys"], before["pair_counts"],
            after["pair_keys"], after["pair_counts"],
        )
        for field in ("added_keys", "removed_keys", "reweighted_keys"):
            _assert_same_arrays(getattr(diff, field), getattr(full, field))
        assert diff.num_pairs_before == full.num_pairs_before
        assert diff.num_pairs_after == full.num_pairs_after
        _assert_builder_state(builder, stream, start, window_days)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(streams())
@example(_CRAFTED[0])
def test_failed_detection_rolls_back_product_counts(case):
    num_users, num_products, days, window_days = case
    stream = _Stream(num_users, num_products, days)
    detector = _FlakyDetector(GLPEngine(frontier="auto"), max_iterations=5)
    sliding = SlidingWindowDetector(
        stream,
        detector,
        seed_store=SeedStore({user: 1 for user in range(num_users)}),
        degrade=False,
        incremental=True,
    )
    builder = sliding.builder
    try:
        sliding.start(0, window_days)
    except PipelineError:
        return  # an empty first window has no seeds to detect from
    for start in range(1, len(days) - window_days + 1):
        snapshot = builder.snapshot()
        detector.armed = True
        with pytest.raises((RuntimeError, PipelineError)):
            sliding.slide()
        detector.armed = False
        for name in ("pair_keys", "pair_counts", "product_counts"):
            assert builder.snapshot()[name] is snapshot[name]
        assert builder.days == snapshot["days"]
        try:
            sliding.slide()  # replays the same day
        except PipelineError:
            return  # the window emptied: no seeds to detect from
        _assert_builder_state(builder, stream, start, window_days)
