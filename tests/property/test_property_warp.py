"""Property-based tests for the warp intrinsics."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import warp


@st.composite
def warp_states(draw, warp_size=16):
    """(active, values) for a single warp."""
    active = draw(
        st.lists(st.booleans(), min_size=warp_size, max_size=warp_size)
    )
    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=5),
            min_size=warp_size,
            max_size=warp_size,
        )
    )
    return (
        np.array([active], dtype=bool),
        np.array([values], dtype=np.int64),
    )


class TestMatchAnyProperties:
    @given(warp_states())
    @settings(max_examples=100, deadline=None)
    def test_reflexive_on_active_lanes(self, state):
        active, values = state
        masks = warp.match_any_sync(active, values)
        for lane in range(active.shape[1]):
            if active[0, lane]:
                assert masks[0, lane] & (1 << lane)
            else:
                assert masks[0, lane] == 0

    @given(warp_states())
    @settings(max_examples=100, deadline=None)
    def test_symmetric(self, state):
        active, values = state
        masks = warp.match_any_sync(active, values)
        n = active.shape[1]
        for i in range(n):
            for j in range(n):
                if active[0, i] and active[0, j]:
                    assert bool(masks[0, i] & (1 << j)) == bool(
                        masks[0, j] & (1 << i)
                    )

    @given(warp_states())
    @settings(max_examples=100, deadline=None)
    def test_popc_equals_group_size(self, state):
        """popc(lmask) = the true frequency of the lane's value — the basis
        of the Section 4.2 counting trick."""
        active, values = state
        masks = warp.match_any_sync(active, values)
        counts = warp.popc(masks)
        for lane in range(active.shape[1]):
            if active[0, lane]:
                expected = sum(
                    1
                    for other in range(active.shape[1])
                    if active[0, other]
                    and values[0, other] == values[0, lane]
                )
                assert counts[0, lane] == expected

    @given(warp_states())
    @settings(max_examples=60, deadline=None)
    def test_groups_partition_active_lanes(self, state):
        active, values = state
        masks = warp.match_any_sync(active, values)
        distinct_masks = {int(m) for m in masks[0] if m}
        union = 0
        for mask in distinct_masks:
            assert (union & mask) == 0 or any(
                (mask == other) for other in distinct_masks
            )
        union = 0
        for mask in distinct_masks:
            union |= mask
        expected_union = int(warp.ballot_sync(active, active)[0])
        assert union == expected_union


@st.composite
def warp_grids(draw):
    """(active, values, predicate) for up to 8 warps of 32 or 64 lanes.

    Values come from a tiny alphabet, so equal values in *different* warps
    are the norm: a mask that leaks across warps cannot go unnoticed.
    """
    warp_size = draw(st.sampled_from([32, 64]))
    num_warps = draw(st.integers(min_value=0, max_value=8))
    lane_masks = st.one_of(
        st.sampled_from([0, (1 << warp_size) - 1]),
        st.integers(min_value=0, max_value=(1 << warp_size) - 1),
    )
    rows = draw(st.lists(lane_masks, min_size=num_warps, max_size=num_warps))
    active = np.array(
        [[(row >> lane) & 1 for lane in range(warp_size)] for row in rows],
        dtype=bool,
    ).reshape(num_warps, warp_size)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphabet = draw(st.integers(min_value=1, max_value=6))
    values = rng.integers(0, alphabet, size=active.shape, dtype=np.int64)
    predicate = rng.random(active.shape) < 0.5
    return active, values, predicate


def reference_lanes(active, values, predicate):
    """Pure-Python per-lane ``match_any`` masks and per-warp ballots."""
    num_warps, warp_size = active.shape
    match = [[0] * warp_size for _ in range(num_warps)]
    ballot = [0] * num_warps
    for w in range(num_warps):
        for i in range(warp_size):
            if not active[w, i]:
                continue
            if predicate[w, i]:
                ballot[w] |= 1 << i
            for j in range(warp_size):
                if active[w, j] and values[w, j] == values[w, i]:
                    match[w][i] |= 1 << j
    return match, ballot


class TestMultiWarpAgainstReference:
    @given(warp_grids())
    @settings(max_examples=80, deadline=None)
    def test_match_any_and_ballot(self, grid):
        active, values, predicate = grid
        match, ballot = reference_lanes(active, values, predicate)
        masks = warp.match_any_sync(active, values)
        assert masks.dtype == np.uint64
        assert masks.shape == active.shape
        assert [[int(m) for m in row] for row in masks] == match
        assert [int(b) for b in warp.ballot_sync(active, predicate)] == ballot

    @given(warp_grids())
    @settings(max_examples=80, deadline=None)
    def test_popc_and_ffs_of_match_masks(self, grid):
        active, values, _ = grid
        masks = warp.match_any_sync(active, values)
        flat = [int(m) for m in masks.ravel()]
        assert warp.popc(masks).ravel().tolist() == [
            bin(m).count("1") for m in flat
        ]
        assert warp.ffs(masks).ravel().tolist() == [
            (m & -m).bit_length() for m in flat
        ]

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_popc_and_ffs_full_64_bit_range(self, words):
        masks = np.array(words, dtype=np.uint64)
        assert warp.popc(masks).tolist() == [bin(m).count("1") for m in words]
        assert warp.ffs(masks).tolist() == [
            (m & -m).bit_length() for m in words
        ]


class TestBallotProperties:
    @given(warp_states())
    @settings(max_examples=100, deadline=None)
    def test_ballot_popcount_counts_true_lanes(self, state):
        active, values = state
        predicate = values % 2 == 0
        mask = warp.ballot_sync(active, predicate)
        expected = int((active[0] & predicate[0]).sum())
        assert warp.popc(mask)[0] == expected

    @given(warp_states())
    @settings(max_examples=60, deadline=None)
    def test_ballot_subset_of_activemask(self, state):
        active, values = state
        full = warp.ballot_sync(active, np.ones_like(active))
        partial = warp.ballot_sync(active, values > 2)
        assert (int(partial[0]) & ~int(full[0])) == 0
