"""Shared-memory model: capacity checks and bank conflicts.

Shared memory on NVIDIA GPUs is divided into 32 four-byte-wide banks.  When
two lanes of a warp access *different addresses in the same bank* the warp
replays the access; the cost of a shared op is therefore
``max_k |{distinct addresses in bank k}|`` over the warp (same-address
accesses broadcast for free on loads).

The CMS+HT kernel of Section 4.1 lives or dies on shared memory, so the
model computes conflicts from the actual slot indices the sketch structures
touch.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SharedMemoryError
from repro.gpusim import hooks
from repro.gpusim.config import DeviceSpec
from repro.gpusim.counters import PerfCounters
from repro.gpusim.memory import default_warp_ids
from repro.pairsort import pair_order


def bank_conflict_replays(
    word_addresses: np.ndarray,
    warp_ids: np.ndarray,
    num_banks: int = 32,
) -> int:
    """Total replay count (beyond the first issue) for the given accesses.

    For each warp, the access costs as many cycles as the most-contended
    bank's distinct-address count; the excess over 1 is the replay count
    this function returns.  Same-address lanes broadcast and do not count
    twice, which the unique-(warp, address) reduction captures.
    """
    if word_addresses.size == 0:
        return 0
    word_addresses = word_addresses.astype(np.int64)
    warp_ids = warp_ids.astype(np.int64)
    # Distinct (warp, address) pairs: duplicates broadcast for free.
    order = pair_order(warp_ids, word_addresses)
    a = word_addresses[order]
    w = warp_ids[order]
    keep = np.concatenate(([True], (a[1:] != a[:-1]) | (w[1:] != w[:-1])))
    u_addresses = a[keep]
    u_warps = w[keep]
    banks = u_addresses % num_banks
    # Count distinct addresses per (warp, bank), then take max per warp.
    order2 = pair_order(u_warps, banks)
    b = banks[order2]
    w2 = u_warps[order2]
    boundaries = np.flatnonzero(
        np.concatenate(([True], (b[1:] != b[:-1]) | (w2[1:] != w2[:-1])))
    )
    counts = np.diff(np.concatenate((boundaries, [b.size])))
    group_warps = w2[boundaries]
    # Max bank-contention per warp.
    warp_boundaries = np.flatnonzero(
        np.concatenate(([True], group_warps[1:] != group_warps[:-1]))
    )
    max_per_warp = np.maximum.reduceat(counts, warp_boundaries)
    return int((max_per_warp - 1).sum())


class SharedMemoryModel:
    """Accounting facade for shared-memory traffic of one device."""

    def __init__(self, spec: DeviceSpec, counters: PerfCounters) -> None:
        self._spec = spec
        self._counters = counters

    def check_allocation(self, nbytes: int) -> None:
        """Raise if a block requests more shared memory than available."""
        if nbytes > self._spec.shared_mem_per_block:
            raise SharedMemoryError(
                f"block requested {nbytes} B shared memory; device offers "
                f"{self._spec.shared_mem_per_block} B per block"
            )

    def load(
        self,
        word_addresses: np.ndarray,
        warp_ids: Optional[np.ndarray] = None,
        *,
        array: Optional[str] = None,
        size: Optional[int] = None,
    ) -> None:
        """Account a shared-memory load for each given 4-byte-word address.

        Naming the tile (``array=``, with its declared word ``size=``)
        additionally reports the accesses to an attached sanitizer for
        race and out-of-bounds checking.
        """
        self._access(word_addresses, warp_ids, store=False, array=array, size=size)

    def store(
        self,
        word_addresses: np.ndarray,
        warp_ids: Optional[np.ndarray] = None,
        *,
        array: Optional[str] = None,
        size: Optional[int] = None,
    ) -> None:
        """Account a shared-memory store for each given word address."""
        self._access(word_addresses, warp_ids, store=True, array=array, size=size)

    def _access(
        self,
        word_addresses: np.ndarray,
        warp_ids: Optional[np.ndarray],
        *,
        store: bool,
        array: Optional[str] = None,
        size: Optional[int] = None,
    ) -> None:
        word_addresses = np.asarray(word_addresses)
        if warp_ids is None:
            warp_ids = default_warp_ids(
                word_addresses.size, self._spec.warp_size
            )
        ops = int(word_addresses.size)
        if store:
            self._counters.shared_store_ops += ops
        else:
            self._counters.shared_load_ops += ops
        self._counters.shared_bank_conflicts += bank_conflict_replays(
            word_addresses, np.asarray(warp_ids), self._spec.num_shared_banks
        )
        if array is not None:
            active = hooks.ACTIVE.get()
            if active is not None:
                active.record(
                    "shared",
                    array,
                    word_addresses,
                    kind="write" if store else "read",
                    warp_ids=warp_ids,
                    size=size,
                )
