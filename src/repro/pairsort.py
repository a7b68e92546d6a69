"""One-key sorting of ``(major, minor)`` integer pairs.

Graph construction sorts edges by ``(dst, src)`` and the simulator's
accounting sorts accesses by ``(warp, address)``.  Both orders are the
stable ``np.lexsort((minor, major))``; packing each pair into one int64
key gets the same permutation from a single-key sort, which is several
times faster than the two-key lexsort.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def pack_pair_keys(
    major: np.ndarray, minor: np.ndarray
) -> Optional[np.ndarray]:
    """One int64 key per ``(major, minor)`` pair, ordered like the pairs.

    Keys compare exactly as ``np.lexsort((minor, major))`` orders the
    pairs, so one single-key sort replaces the two-key lexsort.  Both
    values are offset by their minimums, which keeps warp-step ids
    (``vertex << _STEP_SHIFT``) packable whenever their *span* is small.
    Returns ``None`` when ``span(major) * span(minor)`` exceeds int64;
    callers then fall back to ``np.lexsort``.
    """
    major = np.asarray(major, dtype=np.int64)
    minor = np.asarray(minor, dtype=np.int64)
    if major.size == 0:
        return np.empty(0, dtype=np.int64)
    major_min = int(major.min())
    minor_min = int(minor.min())
    minor_span = int(minor.max()) - minor_min + 1
    if (int(major.max()) - major_min + 1) * minor_span > 1 << 63:
        return None
    return (major - major_min) * minor_span + (minor - minor_min)


def pair_order(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """The stable permutation ``np.lexsort((minor, major))``, sorted once."""
    keys = pack_pair_keys(major, minor)
    if keys is None:
        return np.lexsort((minor, major))
    return np.argsort(keys, kind="stable")
