"""The end-to-end benchmark's tracer still finds every entry point it wraps.

``benchmarks/e2e/tracing.py`` patches ``vars(owner)[attr]`` for each of its
targets, so renaming or inlining one of them (say ``from_edge_arrays`` in
``repro.pipeline.incremental``) makes every traced run raise ``KeyError``.
This test catches that in the tier-1 suite.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path


def _load_tracing():
    path = (
        Path(__file__).resolve().parent.parent
        / "benchmarks" / "e2e" / "tracing.py"
    )
    spec = importlib.util.spec_from_file_location("e2e_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_exists():
    targets = _load_tracing()._targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _name, _note in targets
        if attr not in vars(owner)
    ]
    assert missing == []
