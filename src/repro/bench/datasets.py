"""Workload registries for the benchmark harness.

Two workload families:

* the eight Table 2 dataset stand-ins (re-exported from
  :mod:`repro.graph.generators.datasets`), and
* the Table 4 sliding-window workloads, built once from a shared
  transaction stream and cached for the session.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.algorithms.seeded import Seeds
from repro.gpusim.config import TITAN_V, DeviceSpec
from repro.graph.generators.datasets import (  # noqa: F401 (re-export)
    DATASETS,
    dataset_names,
    load_dataset,
    table2_rows,
)
from repro.pipeline.seeds import SeedStore
from repro.pipeline.transactions import TransactionStream, TransactionStreamConfig
from repro.pipeline.window import WindowGraph, build_window_graph

#: The Table 4 window lengths, in days.
WINDOW_DAYS: List[int] = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]

#: Paper's Table 4 shapes: days -> (V millions, E billions).
PAPER_TABLE4: Dict[int, Tuple[int, float]] = {
    10: (460, 1.7),
    20: (630, 3.0),
    30: (700, 4.3),
    40: (770, 5.5),
    50: (820, 6.7),
    60: (880, 7.8),
    70: (920, 8.9),
    80: (970, 9.8),
    90: (990, 10.2),
    100: (1010, 10.7),
}

#: Device used for the Figure 7 experiments: a Titan V whose memory is
#: scaled with the ~1e-4 window workloads so the largest window exceeds
#: capacity and GLP switches to the CPU-GPU hybrid mode, as in the paper.
FIG7_DEVICE: DeviceSpec = TITAN_V.with_memory(46 * 1024 * 1024)

_STREAM: TransactionStream = None
_WINDOWS: Dict[int, WindowGraph] = {}


def taobao_stream() -> TransactionStream:
    """The session-cached synthetic TaoBao transaction stream."""
    global _STREAM
    if _STREAM is None:
        _STREAM = TransactionStream(TransactionStreamConfig(num_days=100))
    return _STREAM


def taobao_window(days: int) -> WindowGraph:
    """The most recent ``days``-day window graph (cached)."""
    if days not in _WINDOWS:
        stream = taobao_stream()
        _WINDOWS[days] = build_window_graph(
            stream, stream.config.num_days - days, days
        )
    return _WINDOWS[days]


def window_seeds(days: int) -> Seeds:
    """The black-list seeds translated to the window's vertex ids."""
    return SeedStore(taobao_stream().blacklist()).window_seeds(
        taobao_window(days)
    )


def clear_caches() -> None:
    """Drop the cached stream and windows (tests use this)."""
    global _STREAM
    _STREAM = None
    _WINDOWS.clear()
