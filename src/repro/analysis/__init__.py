"""Correctness tooling for the GLP reproduction: sanitizer + LP lint.

Two layers, one finding currency (:mod:`repro.analysis.findings`):

* :mod:`repro.analysis.sanitizer` — a compute-sanitizer-style *dynamic*
  race/sync checker inside :mod:`repro.gpusim`.  Enable per launch
  (``device.launch(name, sanitize=True)``), per device
  (``Device(spec, sanitize=True)`` or ``DeviceSpec(sanitize=True)``), or
  ambiently for a whole run with :func:`sanitize` — mirroring how
  :mod:`repro.obs` sessions wrap engines that build their own devices::

      with analysis.sanitize() as san:
          engine.run(graph, program)
      report = san.report()        # AnalysisReport; san.has_hazards gates

* :mod:`repro.analysis.lint` — a *static* AST checker over LP-program
  hooks and simulator-API kernel code (``repro check`` on the CLI).

Three further static layers ride behind ``repro check --all``:

* :mod:`repro.analysis.dataflow` — interval abstract interpretation
  proving shared-memory accesses in-bounds for every launch geometry;
* :mod:`repro.analysis.contracts` — hook-signature / registry-callback /
  CLI-wiring contract checks;
* :mod:`repro.analysis.consistency` — cross-module literal-drift lint
  checking emit sites against the enums their modules declare.

All are off by default and, like observability, never perturb labels,
hashes, counters, or modeled timings.
"""

from __future__ import annotations

from typing import ContextManager, Optional

from repro.analysis.consistency import check_consistency
from repro.analysis.contracts import check_contracts
from repro.analysis.dataflow import check_dataflow
from repro.analysis.findings import (
    RULES,
    SCHEMA_VERSION,
    SEVERITIES,
    SOURCES,
    AnalysisReport,
    Finding,
)
from repro.analysis.lint import (
    HOOK_NAMES,
    iter_python_files,
    lint_file,
    lint_module,
    lint_paths,
    lint_program,
    lint_source,
)
from repro.analysis.sanitizer import Sanitizer, SanitizerConfig
from repro.gpusim import hooks as _hooks

__all__ = [
    "RULES",
    "SCHEMA_VERSION",
    "SEVERITIES",
    "SOURCES",
    "AnalysisReport",
    "Finding",
    "HOOK_NAMES",
    "Sanitizer",
    "SanitizerConfig",
    "check_consistency",
    "check_contracts",
    "check_dataflow",
    "iter_python_files",
    "lint_file",
    "lint_module",
    "lint_paths",
    "lint_program",
    "lint_source",
    "sanitize",
]


def sanitize(
    config: Optional[SanitizerConfig] = None,
) -> ContextManager[Sanitizer]:
    """Scope an ambient session sanitizer to a ``with`` block.

    Every kernel launch on any device inside the block attaches to it
    (unless the launch explicitly passes ``sanitize=False``).
    """
    return _hooks.installed(_hooks.SESSION, Sanitizer(config=config))
