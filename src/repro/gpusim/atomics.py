"""Atomic-operation model with intra-warp serialization.

``atomicAdd`` to the *same address* from multiple lanes of a warp serializes:
the hardware retries conflicting lanes one at a time.  The cost of a warp's
atomic instruction is therefore the maximum same-address multiplicity across
its lanes.  Label counting is atomic-heavy (one add per neighbor), and the
serialization pattern differs sharply between strategies:

* a **global hash table** sees high multiplicity once communities form
  (many neighbors share the MFL → same counter address),
* the **warp-centric** low-degree kernel replaces atomics entirely with
  ``match_any``/``popc`` bit tricks — the paper's Section 4.2 punchline.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.gpusim import hooks
from repro.gpusim.config import DeviceSpec
from repro.gpusim.counters import PerfCounters
from repro.gpusim.memory import count_sector_transactions, default_warp_ids
from repro.pairsort import pack_pair_keys


def serialization_cost(
    addresses: np.ndarray, warp_ids: np.ndarray
) -> Tuple[int, int]:
    """Return ``(total_ops, serialized_ops)`` for the given atomic accesses.

    ``serialized_ops`` is the sum over warps of that warp's issue count,
    where a warp issues ``max same-address multiplicity`` times; fully
    conflict-free warps issue once per distinct address group in parallel
    (cost counted as 1 issue).  In counter terms we charge
    ``sum_over_warps(max_multiplicity)`` serialized ops.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    warp_ids = np.asarray(warp_ids, dtype=np.int64)
    total = int(addresses.size)
    if total == 0:
        return 0, 0
    # Group (warp, address) pairs with one sort of their packed keys: a
    # key's warp part is ``key // address_span`` (both offset by their
    # minimums), so no permutation or gather is needed.  Wide spans fall
    # back to lexsort.  Sort kind as in ``count_sector_transactions``.
    keys = pack_pair_keys(warp_ids, addresses)
    if keys is None:
        order = np.lexsort((addresses, warp_ids))
        a = addresses[order]
        w = warp_ids[order]
        new_group = (a[1:] != a[:-1]) | (w[1:] != w[:-1])
    else:
        keys.sort(kind="stable")
        new_group = keys[1:] != keys[:-1]
    boundaries = np.flatnonzero(np.concatenate(([True], new_group)))
    multiplicities = np.diff(np.concatenate((boundaries, [total])))
    if keys is None:
        group_warps = w[boundaries]
    else:
        address_span = int(addresses.max()) - int(addresses.min()) + 1
        group_warps = keys[boundaries] // address_span
    warp_boundaries = np.flatnonzero(
        np.concatenate(([True], group_warps[1:] != group_warps[:-1]))
    )
    max_per_warp = np.maximum.reduceat(multiplicities, warp_boundaries)
    return total, int(max_per_warp.sum())


class AtomicsModel:
    """Accounting facade for atomic operations of one device."""

    def __init__(self, spec: DeviceSpec, counters: PerfCounters) -> None:
        self._spec = spec
        self._counters = counters

    def global_atomic_add(
        self,
        element_indices: np.ndarray,
        element_bytes: int,
        warp_ids: Optional[np.ndarray] = None,
        *,
        array: Optional[str] = None,
    ) -> None:
        """Account atomicAdds to global-memory addresses.

        Charges one global transaction per touched sector (the read-modify-
        write round trip) plus serialization cycles for same-address lanes.
        """
        element_indices = np.asarray(element_indices)
        if warp_ids is None:
            warp_ids = default_warp_ids(
                element_indices.size, self._spec.warp_size
            )
        warp_ids = np.asarray(warp_ids)
        total, serialized = serialization_cost(element_indices, warp_ids)
        self._counters.global_atomic_ops += count_sector_transactions(
            element_indices.astype(np.int64) * element_bytes,
            warp_ids,
            self._spec.sector_bytes,
        )
        self._counters.global_atomic_serialized_ops += serialized
        if array is not None:
            active = hooks.ACTIVE.get()
            if active is not None:
                active.record(
                    "global",
                    array,
                    element_indices,
                    kind="atomic",
                    warp_ids=warp_ids,
                )

    def shared_atomic_add(
        self,
        word_addresses: np.ndarray,
        warp_ids: Optional[np.ndarray] = None,
        *,
        array: Optional[str] = None,
        size: Optional[int] = None,
    ) -> None:
        """Account atomicAdds to shared-memory word addresses."""
        word_addresses = np.asarray(word_addresses)
        if warp_ids is None:
            warp_ids = default_warp_ids(
                word_addresses.size, self._spec.warp_size
            )
        warp_ids = np.asarray(warp_ids)
        total, serialized = serialization_cost(word_addresses, warp_ids)
        self._counters.shared_store_ops += total
        self._counters.shared_atomic_serialized_ops += serialized
        if array is not None:
            active = hooks.ACTIVE.get()
            if active is not None:
                active.record(
                    "shared",
                    array,
                    word_addresses,
                    kind="atomic",
                    warp_ids=warp_ids,
                    size=size,
                )
