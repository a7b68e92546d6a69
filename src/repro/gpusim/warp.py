"""Bit-exact warp intrinsics.

These reproduce the CUDA warp-level primitives the paper's Section 4.2
kernel is built from — ``__ballot_sync``, ``__match_any_sync``, ``__popc``
and the shuffle family — vectorized over *batches of warps*: every function
takes arrays shaped ``(num_warps, warp_size)`` and returns per-warp or
per-lane results, so a kernel can evaluate thousands of simulated warps with
one call.

Masks are returned as ``uint64`` holding a ``warp_size``-bit value in the
low bits (warp_size is 32 in practice, matching CUDA's 32-bit masks).
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelError
from repro.gpusim import hooks

#: Powers of two for mask assembly, index = lane id.
_LANE_BITS = (np.uint64(1) << np.arange(64, dtype=np.uint64))


def _notify_sync(intrinsic: str, active: np.ndarray) -> None:
    """Report a ``*_sync`` execution to an attached sanitizer, if any.

    Synccheck semantics: naming lanes that never reach the intrinsic (a
    warp with an empty active mask) is undefined behaviour on hardware.
    """
    sanitizer = hooks.ACTIVE.get()
    if sanitizer is not None:
        sanitizer.warp_sync(intrinsic, active)


def full_mask(warp_size: int = 32) -> int:
    """The all-lanes-active mask (``0xFFFFFFFF`` for warp_size 32)."""
    return (1 << warp_size) - 1


def _check_lane_shape(arr: np.ndarray) -> None:
    if arr.ndim != 2:
        raise KernelError(
            f"warp intrinsics expect (num_warps, warp_size) arrays, "
            f"got shape {arr.shape}"
        )
    if arr.shape[1] > 64:
        raise KernelError(f"warp_size {arr.shape[1]} exceeds 64")


def ballot_sync(active: np.ndarray, predicate: np.ndarray) -> np.ndarray:
    """``__ballot_sync``: per-warp mask of active lanes with a true predicate.

    Parameters
    ----------
    active:
        Boolean ``(W, warp_size)`` participation mask.
    predicate:
        Boolean ``(W, warp_size)`` per-lane predicate.

    Returns
    -------
    ``(W,)`` uint64 array; bit ``i`` of entry ``w`` is set iff lane ``i`` of
    warp ``w`` is active and its predicate is non-zero.
    """
    active = np.asarray(active, dtype=bool)
    predicate = np.asarray(predicate, dtype=bool)
    _check_lane_shape(active)
    if predicate.shape != active.shape:
        raise KernelError("predicate shape must match active shape")
    _notify_sync("ballot_sync", active)
    warp_size = active.shape[1]
    bits = _LANE_BITS[:warp_size]
    return ((active & predicate) * bits).sum(axis=1, dtype=np.uint64)


def match_any_sync(active: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``__match_any_sync``: per-lane mask of active lanes holding equal values.

    For every active lane the result contains the mask of all active lanes in
    its warp whose ``values`` entry compares equal.  Inactive lanes get 0.

    Returns a ``(W, warp_size)`` uint64 array.
    """
    active = np.asarray(active, dtype=bool)
    values = np.asarray(values)
    _check_lane_shape(active)
    if values.shape != active.shape:
        raise KernelError("values shape must match active shape")
    _notify_sync("match_any_sync", active)
    if active.size == 0:
        return np.zeros(active.shape, dtype=np.uint64)
    # Group-by inside each warp row: sort the row's values, then OR the
    # lane bits of every run of equal values into the mask its lanes
    # receive.  Inactive lanes contribute no bit and get a 0 mask; an OR
    # ignores the order of lanes within a run, so any sort kind will do.
    order = np.argsort(values, axis=1)
    sorted_values = np.take_along_axis(values, order, axis=1)
    bits = np.where(
        np.take_along_axis(active, order, axis=1),
        _LANE_BITS[order],
        np.uint64(0),
    )
    new_run = np.ones(active.shape, dtype=bool)
    new_run[:, 1:] = sorted_values[:, 1:] != sorted_values[:, :-1]
    new_run = new_run.ravel()
    run_masks = np.bitwise_or.reduceat(bits.ravel(), np.flatnonzero(new_run))
    sorted_masks = run_masks[np.cumsum(new_run) - 1].reshape(active.shape)
    masks = np.empty(active.shape, dtype=np.uint64)
    np.put_along_axis(masks, order, sorted_masks, axis=1)
    masks[~active] = 0
    return masks


_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def popc(masks: np.ndarray) -> np.ndarray:
    """``__popc``: number of set bits per entry (SWAR popcount)."""
    # At least 1-d, so the intended uint64 wrap-around stays an array op
    # (numpy warns on scalar integer overflow).
    x = np.array(masks, dtype=np.uint64, ndmin=1)
    x = x - ((x >> np.uint64(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    counts = ((x * _H01) >> np.uint64(56)).astype(np.int64)
    return counts.reshape(np.shape(masks))


def ffs(masks: np.ndarray) -> np.ndarray:
    """``__ffs``: 1-based index of the least-significant set bit (0 if none)."""
    x = np.array(masks, dtype=np.uint64, ndmin=1)
    lowest = x & (~x + np.uint64(1))
    # Bits below the lowest set bit, plus one; zero masks stay 0.
    index = np.where(x != 0, popc(lowest - np.uint64(1)) + 1, 0)
    return index.reshape(np.shape(masks))


def lane_masks_lt(warp_size: int = 32) -> np.ndarray:
    """``%lanemask_lt``: per-lane mask of all lower-numbered lanes."""
    lanes = np.arange(warp_size, dtype=np.uint64)
    return (np.uint64(1) << lanes) - np.uint64(1)


def shfl_sync(
    active: np.ndarray, values: np.ndarray, src_lane: int
) -> np.ndarray:
    """``__shfl_sync``: broadcast lane ``src_lane``'s value to all lanes."""
    active = np.asarray(active, dtype=bool)
    values = np.asarray(values)
    _check_lane_shape(active)
    if not 0 <= src_lane < active.shape[1]:
        raise KernelError(f"src_lane {src_lane} out of range")
    _notify_sync("shfl_sync", active)
    out = np.broadcast_to(
        values[:, src_lane : src_lane + 1], values.shape
    ).copy()
    out[~active] = 0
    return out


def shfl_down_sync(
    active: np.ndarray, values: np.ndarray, delta: int
) -> np.ndarray:
    """``__shfl_down_sync``: each lane reads the value ``delta`` lanes up.

    Lanes whose source would fall off the warp keep their own value
    (matching CUDA semantics).
    """
    active = np.asarray(active, dtype=bool)
    values = np.asarray(values)
    _check_lane_shape(active)
    warp_size = active.shape[1]
    if delta < 0:
        raise KernelError("delta must be non-negative")
    _notify_sync("shfl_down_sync", active)
    out = values.copy()
    if delta and delta < warp_size:
        out[:, : warp_size - delta] = values[:, delta:]
    return out


def warp_reduce_max(
    active: np.ndarray, values: np.ndarray, fill
) -> np.ndarray:
    """Butterfly max-reduction over each warp's active lanes.

    Returns a ``(W,)`` array of per-warp maxima; warps with no active lanes
    return ``fill``.  The hardware cost is ``log2(warp_size)`` shuffle steps,
    which callers account as warp instructions.
    """
    active = np.asarray(active, dtype=bool)
    values = np.asarray(values)
    _check_lane_shape(active)
    # Deliberately NOT _notify_sync'd: empty-active warps are part of this
    # helper's documented semantics (they return ``fill``), unlike the
    # hardware ``*_sync`` intrinsics above.
    masked = np.where(active, values, fill)
    return masked.max(axis=1)
