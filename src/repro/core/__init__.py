"""The GLP framework: programmable LP engine and execution modes.

* :mod:`~repro.core.api` — the user-defined hook API of Table 1
  (``PickLabel`` / ``LoadNeighbor`` / ``LabelScore`` / ``UpdateVertex``).
* :mod:`~repro.core.framework` — the bulk-synchronous GLP engine.
* :mod:`~repro.core.device_round` — the device round and stats builder
  every GPU engine shares.
* :mod:`~repro.core.hybrid` — CPU-GPU hybrid mode for graphs exceeding
  device memory.
* :mod:`~repro.core.multigpu` — multi-GPU execution.
* :mod:`~repro.core.results` — result containers with timing breakdowns.
"""

from repro.core.api import LPProgram
from repro.core.framework import GLPEngine
from repro.core.results import IterationStats, LPResult

__all__ = ["LPProgram", "GLPEngine", "LPResult", "IterationStats"]
