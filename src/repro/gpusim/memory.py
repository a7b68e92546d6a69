"""Global-memory access model with sector-level coalescing.

On Volta-class GPUs a warp's 32 lane addresses are serviced in 32-byte
*sector* transactions: if all lanes hit consecutive 8-byte words the warp
needs 8 sectors; if every lane hits a distinct random sector it needs 32.
This difference — not raw op counts — is what separates the paper's kernel
strategies, so the model computes transactions from the *actual* addresses a
kernel touches:

``transactions = |{(warp, address // sector_bytes)}|``

The arithmetic is fully vectorized so kernels can account a whole edge-array
load with one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gpusim import hooks
from repro.gpusim.config import DeviceSpec
from repro.gpusim.counters import PerfCounters
from repro.pairsort import pack_pair_keys


def default_warp_ids(num_elements: int, warp_size: int = 32) -> np.ndarray:
    """Lane→warp map when consecutive elements go to consecutive lanes."""
    return np.arange(num_elements, dtype=np.int64) // warp_size


def count_sector_transactions(
    byte_addresses: np.ndarray,
    warp_ids: np.ndarray,
    sector_bytes: int,
) -> int:
    """Number of memory transactions for the given per-lane addresses.

    Parameters
    ----------
    byte_addresses:
        Byte address each lane accesses (one entry per active lane).
    warp_ids:
        Warp that issues each access; accesses in the same warp to the same
        sector coalesce into one transaction.
    sector_bytes:
        Transaction granularity.
    """
    if byte_addresses.size == 0:
        return 0
    sectors = byte_addresses // sector_bytes
    # Count distinct (warp, sector) pairs after one sort.  Packed keys are
    # one-to-one with the pairs, so sorting the keys themselves suffices:
    # no permutation, no gathers.  Wide spans fall back to lexsort.  The
    # keys arrive in long ascending runs (lanes in warp order), which
    # timsort (kind="stable") exploits: it beats quicksort here.
    keys = pack_pair_keys(warp_ids, sectors)
    if keys is None:
        order = np.lexsort((sectors, warp_ids))
        s = sectors[order]
        w = warp_ids[order]
        return int(np.count_nonzero((s[1:] != s[:-1]) | (w[1:] != w[:-1])) + 1)
    keys.sort(kind="stable")
    return int(np.count_nonzero(keys[1:] != keys[:-1]) + 1)


@dataclass(frozen=True)
class CountedLoad:
    """A global load whose transactions are counted but not yet charged.

    Transaction counts depend only on addresses and warp ids, so a kernel
    whose addresses do not change between launches counts once and charges
    the same load every launch.  The record keeps what the sanitizer is
    shown when the load is charged: element ``indices`` and ``warp_ids``
    for a gather, or segment ``indices`` (starts) and ``lengths`` for
    per-warp segment streams.
    """

    transactions: int
    array: Optional[str]
    indices: np.ndarray
    warp_ids: Optional[np.ndarray] = None
    lengths: Optional[np.ndarray] = None


class GlobalMemoryModel:
    """Accounting facade for global-memory traffic of one device.

    All methods are *pure accounting*: the functional data movement happens
    in numpy inside the kernels; this class only observes the addresses.
    """

    def __init__(self, spec: DeviceSpec, counters: PerfCounters) -> None:
        self._spec = spec
        self._counters = counters

    def _sanitize(
        self,
        array: Optional[str],
        offsets,
        kind: str,
        warp_ids=None,
    ) -> None:
        """Forward a *named* access to the attached sanitizer, if any.

        Unnamed traffic (``array=None``) is accounting-only: the sanitizer
        never sees it, which is what guarantees zero false positives on
        arrays a kernel has not opted into checking.
        """
        if array is None:
            return
        active = hooks.ACTIVE.get()
        if active is not None:
            active.record(
                "global", array, offsets, kind=kind, warp_ids=warp_ids
            )

    # ------------------------------------------------------------------
    # Streaming (coalesced) access
    # ------------------------------------------------------------------
    def load_sequential(
        self,
        num_elements: int,
        element_bytes: int,
        *,
        array: Optional[str] = None,
    ) -> int:
        """Contiguous streaming read by consecutive lanes (fully coalesced)."""
        transactions = self._sequential_transactions(num_elements, element_bytes)
        self._counters.global_load_transactions += transactions
        if self._listening(array, num_elements):
            self._sanitize(array, np.arange(num_elements), "read")
        return transactions

    def store_sequential(
        self,
        num_elements: int,
        element_bytes: int,
        *,
        array: Optional[str] = None,
    ) -> int:
        """Contiguous streaming write by consecutive lanes."""
        transactions = self._sequential_transactions(num_elements, element_bytes)
        self._counters.global_store_transactions += transactions
        if self._listening(array, num_elements):
            self._sanitize(array, np.arange(num_elements), "write")
        return transactions

    @staticmethod
    def _listening(array: Optional[str], num_elements: int) -> bool:
        """Whether a sanitizer sees this named sequential access: its
        offsets are O(num_elements), so they are built only then."""
        return (
            array is not None
            and num_elements > 0
            and hooks.ACTIVE.get() is not None
        )

    def _sequential_transactions(
        self, num_elements: int, element_bytes: int
    ) -> int:
        if num_elements <= 0:
            return 0
        total_bytes = num_elements * element_bytes
        return -(-total_bytes // self._spec.sector_bytes)

    # ------------------------------------------------------------------
    # Indexed (possibly uncoalesced) access
    # ------------------------------------------------------------------
    def load_gather(
        self,
        indices: np.ndarray,
        element_bytes: int,
        warp_ids: Optional[np.ndarray] = None,
        *,
        array: Optional[str] = None,
    ) -> int:
        """Gather ``array[indices]`` — transactions from actual addresses.

        ``indices`` are *element* indices into a device array; the model
        multiplies by ``element_bytes`` to obtain byte addresses.  When
        ``warp_ids`` is omitted, consecutive indices are assumed to map to
        consecutive lanes (the layout of an edge-parallel kernel).
        """
        return self.charge_load(
            self.count_gather(indices, element_bytes, warp_ids, array=array)
        )

    def count_gather(
        self,
        indices: np.ndarray,
        element_bytes: int,
        warp_ids: Optional[np.ndarray] = None,
        *,
        array: Optional[str] = None,
    ) -> CountedLoad:
        """Count a :meth:`load_gather` without charging it."""
        indices = np.asarray(indices)
        if warp_ids is None:
            warp_ids = default_warp_ids(indices.size, self._spec.warp_size)
        transactions = count_sector_transactions(
            indices.astype(np.int64) * element_bytes,
            warp_ids,
            self._spec.sector_bytes,
        )
        return CountedLoad(transactions, array, indices, warp_ids=warp_ids)

    def charge_load(self, load: CountedLoad) -> int:
        """Charge a counted load and show its accesses to a sanitizer."""
        self._counters.global_load_transactions += load.transactions
        if load.lengths is None:
            self._sanitize(
                load.array, load.indices, "read", warp_ids=load.warp_ids
            )
        elif load.array is not None and hooks.ACTIVE.get() is not None:
            # Expand per-element offsets (one warp per segment) only when
            # a sanitizer is actually listening — it is O(total length).
            nonzero = load.lengths > 0
            lengths = load.lengths[nonzero]
            starts = load.indices[nonzero]
            if lengths.size:
                total = int(lengths.sum())
                seg_of = np.repeat(np.arange(lengths.size), lengths)
                within = np.arange(total) - np.repeat(
                    np.cumsum(lengths) - lengths, lengths
                )
                self._sanitize(
                    load.array,
                    starts[seg_of] + within,
                    "read",
                    warp_ids=seg_of,
                )
        return load.transactions

    def store_scatter(
        self,
        indices: np.ndarray,
        element_bytes: int,
        warp_ids: Optional[np.ndarray] = None,
        *,
        array: Optional[str] = None,
        idempotent: bool = False,
    ) -> int:
        """Scatter write ``array[indices] = values``.

        ``idempotent=True`` marks stores where every lane writes the same
        value (frontier-bitmap "set to 1" scatters): the sanitizer treats
        duplicate idempotent stores as benign, but still flags them
        against readers and non-idempotent writers.
        """
        indices = np.asarray(indices)
        if warp_ids is None:
            warp_ids = default_warp_ids(indices.size, self._spec.warp_size)
        transactions = count_sector_transactions(
            indices.astype(np.int64) * element_bytes,
            warp_ids,
            self._spec.sector_bytes,
        )
        self._counters.global_store_transactions += transactions
        self._sanitize(
            array,
            indices,
            "idempotent" if idempotent else "write",
            warp_ids=warp_ids,
        )
        return transactions

    def load_segments(
        self,
        segment_starts: np.ndarray,
        segment_lengths: np.ndarray,
        element_bytes: int,
        *,
        array: Optional[str] = None,
    ) -> int:
        """Per-warp sequential reads of many contiguous segments.

        Models a kernel where each warp (or block) streams one contiguous
        segment — e.g. a vertex's neighbor list.  Each segment pays
        ``ceil(length * element_bytes / sector)`` transactions plus the
        partial leading sector when the segment start is unaligned.
        """
        return self.charge_load(
            self.count_segments(
                segment_starts, segment_lengths, element_bytes, array=array
            )
        )

    def count_segments(
        self,
        segment_starts: np.ndarray,
        segment_lengths: np.ndarray,
        element_bytes: int,
        *,
        array: Optional[str] = None,
    ) -> CountedLoad:
        """Count a :meth:`load_segments` without charging it."""
        segment_lengths = np.asarray(segment_lengths, dtype=np.int64)
        segment_starts = np.asarray(segment_starts, dtype=np.int64)
        transactions = 0
        if segment_lengths.size:
            start_bytes = segment_starts * element_bytes
            end_bytes = start_bytes + segment_lengths * element_bytes
            sector = self._spec.sector_bytes
            first = start_bytes // sector
            last = (np.maximum(end_bytes - 1, start_bytes)) // sector
            transactions = int((last - first + 1)[segment_lengths > 0].sum())
        return CountedLoad(
            transactions, array, segment_starts, lengths=segment_lengths
        )
