"""Property tests: the simulator's counters against set/dict references.

Coalescing, atomic serialization and bank conflicts are computed with one
packed-key sort per access (:func:`repro.pairsort.pack_pair_keys`),
falling back to ``np.lexsort`` when the key would overflow int64.  Both
paths must count exactly what the definitions below count.
"""

from collections import Counter, defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.atomics import serialization_cost
from repro.gpusim.memory import count_sector_transactions
from repro.gpusim.sharedmem import bank_conflict_replays
from repro.kernels.base import _STEP_SHIFT
from repro.pairsort import pack_pair_keys, pair_order


def ref_sectors(addresses, warps, sector_bytes):
    return len({(w, a // sector_bytes) for w, a in zip(warps, addresses)})


def ref_serialization(addresses, warps):
    multiplicity = Counter(zip(warps, addresses))
    worst = defaultdict(int)
    for (w, _), count in multiplicity.items():
        worst[w] = max(worst[w], count)
    return len(addresses), sum(worst.values())


def ref_bank_replays(addresses, warps, num_banks):
    per_bank = defaultdict(set)
    for w, a in set(zip(warps, addresses)):
        per_bank[(w, a % num_banks)].add(a)
    worst = defaultdict(int)
    for (w, _), distinct in per_bank.items():
        worst[w] = max(worst[w], len(distinct))
    return sum(count - 1 for count in worst.values())


#: Warp ids as the kernels build them: ``vertex << _STEP_SHIFT | step``,
#: with vertex ids near 2^38 (keys near 2^62) or small.
warp_bases = st.sampled_from([0, int(((1 << 38) - 5) << int(_STEP_SHIFT))])

#: Warp ids spanning [-2^62, 2^62]: packed keys overflow int64.
overflow_warps = st.lists(
    st.sampled_from([-(1 << 62), -1, 0, 1, 1 << 62]), min_size=2, max_size=40
)


@st.composite
def accesses(draw, overflow=False):
    """(addresses, warp_ids) arrays of one access, possibly empty."""
    if overflow:
        warps = draw(overflow_warps)
        warps[:2] = [-(1 << 62), 1 << 62]
        # A wide address range makes the span product exceed int64.
        addresses = draw(
            st.lists(
                st.integers(0, 1 << 40), min_size=len(warps), max_size=len(warps)
            )
        )
        addresses[:2] = [0, 1 << 40]
    else:
        n = draw(st.integers(min_value=0, max_value=80))
        base = draw(warp_bases)
        steps = st.tuples(st.integers(0, 6), st.integers(0, 3))
        warps = [
            base + (vertex << int(_STEP_SHIFT) | step)
            for vertex, step in draw(st.lists(steps, min_size=n, max_size=n))
        ]
        addresses = draw(
            st.lists(st.integers(0, 600), min_size=n, max_size=n)
        )
    return (
        np.array(addresses, dtype=np.int64),
        np.array(warps, dtype=np.int64),
    )


class TestPairKeys:
    @given(accesses())
    @settings(max_examples=100, deadline=None)
    def test_step_shift_warp_ids_pack(self, access):
        addresses, warps = access
        keys = pack_pair_keys(warps, addresses)
        assert keys is not None
        assert np.array_equal(
            np.argsort(keys, kind="stable"), np.lexsort((addresses, warps))
        )

    @given(accesses(overflow=True))
    @settings(max_examples=50, deadline=None)
    def test_overflowing_spans_fall_back_to_lexsort(self, access):
        addresses, warps = access
        assert pack_pair_keys(warps, addresses) is None
        assert np.array_equal(
            pair_order(warps, addresses), np.lexsort((addresses, warps))
        )

    def test_single_pair_and_empty(self):
        assert pack_pair_keys(np.array([7]), np.array([-3])).tolist() == [0]
        assert pack_pair_keys(np.empty(0), np.empty(0)).size == 0
        assert pair_order(np.empty(0), np.empty(0)).size == 0


class TestCountersAgainstReferences:
    @given(st.one_of(accesses(), accesses(overflow=True)), st.sampled_from([8, 32]))
    @settings(max_examples=150, deadline=None)
    def test_sector_transactions(self, access, sector_bytes):
        addresses, warps = access
        assert count_sector_transactions(
            addresses, warps, sector_bytes
        ) == ref_sectors(addresses.tolist(), warps.tolist(), sector_bytes)

    @given(st.one_of(accesses(), accesses(overflow=True)))
    @settings(max_examples=150, deadline=None)
    def test_serialization_cost(self, access):
        addresses, warps = access
        assert serialization_cost(addresses, warps) == ref_serialization(
            addresses.tolist(), warps.tolist()
        )

    @given(st.one_of(accesses(), accesses(overflow=True)), st.sampled_from([4, 32]))
    @settings(max_examples=150, deadline=None)
    def test_bank_conflict_replays(self, access, num_banks):
        addresses, warps = access
        assert bank_conflict_replays(
            addresses, warps, num_banks
        ) == ref_bank_replays(addresses.tolist(), warps.tolist(), num_banks)

    def test_single_lane(self):
        addresses = np.array([96], dtype=np.int64)
        warps = np.array([(1 << 38) << int(_STEP_SHIFT)], dtype=np.int64)
        assert count_sector_transactions(addresses, warps, 32) == 1
        assert serialization_cost(addresses, warps) == (1, 1)
        assert bank_conflict_replays(addresses, warps, 32) == 0
