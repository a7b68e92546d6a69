"""Thread-block helpers: BlockReduce and block configuration.

``SharedMemBigNodes`` (paper, Section 4.1) assigns one thread block to each
high-degree vertex and finishes with two ``BlockReduce(max)`` calls.  The
functional reduction is trivial; what matters for the model is its cost:
each warp does a ``log2(warp_size)``-step butterfly, partial results go
through shared memory, and the first warp reduces the partials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import KernelError
from repro.gpusim import hooks
from repro.gpusim.config import DeviceSpec
from repro.gpusim.counters import PerfCounters


@dataclass(frozen=True)
class BlockConfig:
    """Launch geometry of a thread block."""

    block_size: int

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise KernelError("block_size must be positive")

    def num_warps(self, warp_size: int = 32) -> int:
        return -(-self.block_size // warp_size)


def block_reduce_max_cost(
    num_blocks: int,
    config: BlockConfig,
    spec: DeviceSpec,
    counters: PerfCounters,
) -> None:
    """Account the cost of ``num_blocks`` BlockReduce(max) invocations.

    Per block: every warp runs a log2(warp_size)-step shuffle butterfly,
    writes its partial to shared memory, and warp 0 reduces the partials
    with one more butterfly.
    """
    if num_blocks <= 0:
        return
    warps = config.num_warps(spec.warp_size)
    butterfly_steps = int(np.log2(spec.warp_size))
    per_block_instructions = warps * butterfly_steps + butterfly_steps + 2
    counters.warp_instructions += num_blocks * per_block_instructions
    counters.active_lane_sum += (
        num_blocks * per_block_instructions * spec.warp_size
    )
    counters.shared_store_ops += num_blocks * warps
    counters.shared_load_ops += num_blocks * warps
    # BlockReduce contains a __syncthreads between the per-warp partial
    # stores and warp 0's final reduction: advance the sanitizer's
    # happens-before epoch (no cost — already folded into the
    # instruction counts above).
    sanitizer = hooks.ACTIVE.get()
    if sanitizer is not None:
        sanitizer.barrier(expected_warps=warps, arrived_warps=warps)


def block_reduce_max(values: np.ndarray, fill) -> float:
    """Functional BlockReduce(max) over one block's per-thread values."""
    values = np.asarray(values)
    if values.size == 0:
        return fill
    return values.max()
