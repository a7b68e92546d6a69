"""Static contract checks for the LP-hook and registry interface surface.

The platform's cross-module interfaces are deliberately duck-typed — the
``gpusim.hooks`` registry imports nothing.  This module turns those
conventions into machine-checked contracts (engines need none: the
:class:`~repro.core.driver.BSPEngine` base rejects a subclass missing a
driver hook at construction, and :func:`~repro.core.driver.drive` is the
one ``run`` signature):

``contract-hook-signature-mismatch``
    An :class:`~repro.core.api.LPProgram` subclass overriding a Table-1
    hook with an incompatible positional signature.
``contract-registry-callback-mismatch``
    A ``gpusim.hooks`` subscriber (memory tracker, fault injector,
    sanitizer) whose callback shape no longer matches what the simulator
    actually calls.

Two modes: with no ``paths`` the *shipped* interfaces are imported and
checked via :mod:`inspect`; with explicit ``paths`` the checks run purely
on the AST, which is what the seeded test fixtures exercise.
"""

from __future__ import annotations

import ast
import inspect
from typing import Dict, List, Optional, Tuple

from repro.analysis.findings import AnalysisReport, Finding
from repro.analysis.lint import iter_python_files

#: LP hook -> expected positional parameter count (including ``self``).
HOOK_ARITY: Dict[str, int] = {
    "pick_labels": 4,       # self, graph, labels, iteration
    "load_neighbor": 5,     # self, vertex_ids, neighbor_ids, labels, weights
    "score": 4,             # self, vertex_ids, labels, frequencies
    "update_vertices": 5,   # self, vertex_ids, best, scores, current
}

#: What the simulator actually calls on each ``gpusim.hooks`` slot:
#: method -> (positional names after self, required keyword-only names).
#: Derived from the call sites in ``gpusim/device.py`` / ``atomics.py``.
REGISTRY_SHAPES = {
    "memory": {
        "on_alloc": (("device", "handle", "kind"), ()),
        "on_free": (("device", "handle"), ()),
        "on_free_all": (("device", "released", "count"), ()),
        "on_transfer": (
            ("device", "direction", "nbytes", "seconds"),
            ("streamed",),
        ),
    },
    "faults": {
        "on_alloc": (("device", "nbytes"), ()),
        "on_transfer": (("device", "nbytes", "direction"), ()),
        "on_launch": (("device", "name"), ()),
    },
    "sanitizer": {
        "record": (("space", "array", "offsets"), ("kind",)),
    },
}


def _location_of(obj) -> str:
    try:
        path = inspect.getsourcefile(obj) or "<unknown>"
        _, lineno = inspect.getsourcelines(obj)
        return f"{path}:{lineno}"
    except (OSError, TypeError):
        return "<unknown>:0"


def _signature_accepts(sig: inspect.Signature, kwarg: str) -> bool:
    for param in sig.parameters.values():
        if param.kind == inspect.Parameter.VAR_KEYWORD:
            return True
        if param.name == kwarg and param.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Shipped-interface (import) mode
# ---------------------------------------------------------------------------


def _program_classes():
    import repro.algorithms  # noqa: F401 -- registers the shipped programs
    import repro.algorithms.labelrank  # noqa: F401
    import repro.algorithms.seeded  # noqa: F401
    import repro.algorithms.slp  # noqa: F401
    from repro.core.api import LPProgram

    classes, frontier = [], [LPProgram]
    while frontier:
        cls = frontier.pop()
        for sub in cls.__subclasses__():
            classes.append(sub)
            frontier.append(sub)
    return LPProgram, classes


def _positional_count(sig: inspect.Signature) -> Tuple[int, bool]:
    count, variadic = 0, False
    for param in sig.parameters.values():
        if param.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            count += 1
        elif param.kind == inspect.Parameter.VAR_POSITIONAL:
            variadic = True
    return count, variadic


def _check_program_hooks(report: AnalysisReport) -> None:
    base, classes = _program_classes()
    for cls in classes:
        for hook, expected in HOOK_ARITY.items():
            impl = cls.__dict__.get(hook)
            if impl is None or not callable(impl):
                continue
            report.checked += 1
            count, variadic = _positional_count(inspect.signature(impl))
            if variadic or count == expected:
                continue
            report.add(
                Finding(
                    rule="contract-hook-signature-mismatch",
                    message=(
                        f"{cls.__name__}.{hook} takes {count} positional "
                        f"parameter(s); the {base.__name__} hook contract "
                        f"requires {expected}"
                    ),
                    kernel=cls.__name__,
                    location=_location_of(impl),
                )
            )


def _check_registry_subscribers(report: AnalysisReport) -> None:
    from repro.analysis.sanitizer import Sanitizer
    from repro.obs.memory import MemoryTracker
    from repro.resilience.faults import FaultInjector

    subscribers = {
        "memory": MemoryTracker,
        "faults": FaultInjector,
        "sanitizer": Sanitizer,
    }
    for slot, shapes in REGISTRY_SHAPES.items():
        cls = subscribers[slot]
        for method_name, (positional, required_kw) in shapes.items():
            report.checked += 1
            method = getattr(cls, method_name, None)
            if method is None:
                report.add(
                    Finding(
                        rule="contract-registry-callback-mismatch",
                        message=(
                            f"{cls.__name__} is missing the registry "
                            f"callback {method_name}() the simulator calls"
                        ),
                        kernel=cls.__name__,
                        location=_location_of(cls),
                    )
                )
                continue
            sig = inspect.signature(method)
            count, variadic = _positional_count(sig)
            # +1 for self: inspect.signature on the unbound function keeps it.
            if not variadic and count != len(positional) + 1:
                report.add(
                    Finding(
                        rule="contract-registry-callback-mismatch",
                        message=(
                            f"{cls.__name__}.{method_name} takes "
                            f"{count - 1} positional argument(s); the "
                            f"simulator calls it with "
                            f"{len(positional)}: {positional}"
                        ),
                        kernel=cls.__name__,
                        location=_location_of(method),
                    )
                )
                continue
            for kwarg in required_kw:
                if not _signature_accepts(sig, kwarg):
                    report.add(
                        Finding(
                            rule="contract-registry-callback-mismatch",
                            message=(
                                f"{cls.__name__}.{method_name} does not "
                                f"accept the {kwarg}= keyword the "
                                "simulator passes"
                            ),
                            kernel=cls.__name__,
                            location=_location_of(method),
                        )
                    )


# ---------------------------------------------------------------------------
# AST (fixture/path) mode
# ---------------------------------------------------------------------------


def _looks_like_program(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else getattr(
            base, "id", ""
        )
        if "LP" in name or "Program" in name:
            return True
    return False


def _check_ast_file(path: str, report: AnalysisReport) -> None:
    with open(path, "r") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not _looks_like_program(node):
            continue
        defs = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, ast.FunctionDef)
        }
        for hook, expected in HOOK_ARITY.items():
            hook_def = defs.get(hook)
            if hook_def is None:
                continue
            report.checked += 1
            if hook_def.args.vararg is not None:
                continue
            count = len(hook_def.args.args)
            if count != expected:
                report.add(
                    Finding(
                        rule="contract-hook-signature-mismatch",
                        message=(
                            f"{node.name}.{hook} takes {count} "
                            f"positional parameter(s); the LPProgram "
                            f"hook contract requires {expected}"
                        ),
                        kernel=node.name,
                        location=f"{path}:{hook_def.lineno}",
                    )
                )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def check_contracts(paths: Optional[List[str]] = None) -> AnalysisReport:
    """Run the contract checker; returns a ``source="contracts"`` report.

    With ``paths`` the AST checks run on those files; without, the shipped
    LP programs and registry subscribers are imported and verified.
    """
    report = AnalysisReport(source="contracts")
    if paths:
        for path in iter_python_files(paths):
            _check_ast_file(path, report)
        return report
    _check_program_hooks(report)
    _check_registry_subscribers(report)
    return report
