"""Static interval dataflow proofs for the simulated-GPU kernels.

The sanitizer (PR 4) checks named-array accesses *dynamically*: only
addresses an actual run produced are validated against the declared
``size=`` extent.  This module closes the gap with an intra-kernel
abstract interpreter over an **interval domain** whose endpoints are
polynomials over symbolic launch parameters (``config.ht_capacity``,
``config.cms_width``, ...), each assumed to be an integer ``>= 1``.  An
access is *proven* in-bounds when its symbolic upper bound is ``<=
extent - 1`` and its lower bound is ``>= 0`` for **every** assignment of
the symbols — i.e. for every launch geometry, not just exercised ones.

Three rules are emitted:

``dataflow-proven-clean`` (info)
    A ``size=``-annotated shared access whose address interval is
    provably contained in ``[0, size)``.
``dataflow-oob-possible`` (error)
    An annotated access the interpreter cannot prove in-bounds.
``dataflow-overlap-possible`` (warning)
    A non-atomic ``device.shared.store`` whose addresses are not
    provably lane-disjoint (atomics are exempt: the hardware serializes
    them).

A fourth rule, ``dataflow-nonmonotone-update`` (error), checks the
paper's convergence argument: ``update_vertices`` hooks must *select*
labels (copy/mask/delegate), never derive new ones arithmetically from
``best_labels``/``current_labels`` — arithmetic on label values can move
a vertex off the min-frequent-label lattice and break monotone
convergence.

Abstract values track three things: a lower/upper bound (``None`` =
unbounded), and whether the value is provably *injective per lane*
(``np.arange`` and affine images of it), which is what the overlap
check needs.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, List, Optional, Tuple

from repro.analysis.findings import AnalysisReport, Finding
from repro.analysis.lint import _attr_chain, _string_kwarg, iter_python_files

# ---------------------------------------------------------------------------
# Polynomials over positive-integer symbols
# ---------------------------------------------------------------------------
# A polynomial maps a monomial -- a sorted tuple of symbol names, repeated
# per power -- to an integer coefficient.  The empty monomial is the
# constant term.  Every symbol is assumed to be an integer >= 1, which is
# what makes the max/min queries below decidable.

Poly = Dict[Tuple[str, ...], int]

_INF = float("inf")


def _p_const(value: int) -> Poly:
    return {(): int(value)} if value else {}


def _p_sym(name: str) -> Poly:
    return {(name,): 1}


def _p_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for mono, coeff in b.items():
        total = out.get(mono, 0) + coeff
        if total:
            out[mono] = total
        else:
            out.pop(mono, None)
    return out


def _p_neg(a: Poly) -> Poly:
    return {mono: -coeff for mono, coeff in a.items()}


def _p_sub(a: Poly, b: Poly) -> Poly:
    return _p_add(a, _p_neg(b))


def _p_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for mono_a, coeff_a in a.items():
        for mono_b, coeff_b in b.items():
            mono = tuple(sorted(mono_a + mono_b))
            total = out.get(mono, 0) + coeff_a * coeff_b
            if total:
                out[mono] = total
            else:
                out.pop(mono, None)
    return out


def _p_max(a: Poly) -> float:
    """Max of the polynomial over all symbol assignments >= 1."""
    total = a.get((), 0)
    for mono, coeff in a.items():
        if mono == ():
            continue
        if coeff > 0:
            return _INF
        total += coeff  # monomial's minimum value is 1
    return total


def _p_min(a: Poly) -> float:
    return -_p_max(_p_neg(a))


def _p_subst(a: Poly, mapping: Dict[str, Poly]) -> Poly:
    """Substitute symbols with (point) polynomials."""
    out: Poly = {}
    for mono, coeff in a.items():
        term: Poly = {(): coeff}
        for sym in mono:
            term = _p_mul(term, mapping.get(sym, _p_sym(sym)))
        out = _p_add(out, term)
    return out


def _p_render(a: Poly) -> str:
    if not a:
        return "0"
    parts = []
    for mono, coeff in sorted(a.items()):
        term = "*".join(mono) if mono else ""
        if term and coeff == 1:
            piece = term
        elif term and coeff == -1:
            piece = f"-{term}"
        elif term:
            piece = f"{coeff}*{term}"
        else:
            piece = str(coeff)
        parts.append(piece)
    rendered = parts[0]
    for piece in parts[1:]:
        rendered += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return rendered


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------


class Interval:
    """Bounds on an integer (or elementwise on an integer array).

    ``lo``/``hi`` are polynomials or ``None`` (unbounded).  ``injective``
    records that, viewed as a per-lane address vector, distinct lanes are
    guaranteed distinct values (``np.arange`` and affine images).
    """

    __slots__ = ("lo", "hi", "injective")

    def __init__(
        self,
        lo: Optional[Poly],
        hi: Optional[Poly],
        injective: bool = False,
    ) -> None:
        self.lo = lo
        self.hi = hi
        self.injective = injective

    @property
    def is_point(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    @property
    def nonneg(self) -> bool:
        return self.lo is not None and _p_min(self.lo) >= 0


def _top() -> Interval:
    return Interval(None, None)


def _nonneg() -> Interval:
    return Interval(_p_const(0), None)


def _point(poly: Poly) -> Interval:
    return Interval(poly, poly)


class _CMSValue:
    """A tracked ``CountMinSketch(depth, width)`` instance."""

    __slots__ = ("depth", "width")

    def __init__(self, depth: Poly, width: Poly) -> None:
        self.depth = depth
        self.width = width


#: Calls that pass values through unchanged (bounds-wise).
_PASSTHROUGH_CALLS = {
    "asarray",
    "ascontiguousarray",
    "int64",
    "int32",
    "float64",
    "abs",
}
_UNSIGNED_CASTS = {"uint64", "uint32", "uint8"}
_ARITH_BINOPS = (
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.FloorDiv,
    ast.Mod,
    ast.Pow,
)


def _unsigned(value: Interval) -> Interval:
    """Casting to an unsigned dtype wraps negatives to huge positives."""
    if value.nonneg:
        return Interval(value.lo, value.hi, value.injective)
    return _nonneg()


# ---------------------------------------------------------------------------
# Per-function abstract interpreter
# ---------------------------------------------------------------------------


class _FunctionAnalyzer:
    def __init__(
        self,
        filename: str,
        helpers: Dict[str, ast.FunctionDef],
        findings: List[Finding],
        *,
        symbol_prefix: str = "",
    ) -> None:
        self.filename = filename
        self.helpers = helpers
        self.findings = findings
        self.symbol_prefix = symbol_prefix
        self.env: Dict[str, object] = {}
        self.kernel = ""
        self.sites = 0

    # -- expression evaluation ------------------------------------------

    def eval(self, node: ast.expr) -> Interval:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return Interval(_p_const(0), _p_const(1))
            if isinstance(node.value, int):
                return _point(_p_const(node.value))
            return _top()
        if isinstance(node, ast.Name):
            bound = self.env.get(node.id)
            if isinstance(bound, Interval):
                return bound
            if bound is not None:
                return _top()  # CMS or other non-interval value
            return _point(_p_sym(self.symbol_prefix + node.id))
        if isinstance(node, ast.Attribute):
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                # Dotted reads (config.ht_capacity, batch.num_edges, ...)
                # are the symbols of the domain: fixed positive integers.
                # Array-valued attributes are harmless here -- subscripting
                # a symbolic scalar drops to top (see Subscript below).
                return _point(_p_sym(".".join(_attr_chain(node))))
            return _top()
        if isinstance(node, ast.Subscript):
            base = self.eval_value(node.value)
            if isinstance(base, Interval):
                # Indexing a symbolic *scalar* makes no sense -- the name
                # was really an unknown array; drop to top.  Indexing a
                # bounded array value keeps the elementwise bounds.
                if base.is_point and base.lo != _p_const(base.lo.get((), 0)):
                    return _top()
                return Interval(base.lo, base.hi, injective=False)
            return _top()
        if isinstance(node, ast.UnaryOp):
            inner = self.eval(node.operand)
            if isinstance(node.op, ast.USub):
                return Interval(
                    _p_neg(inner.hi) if inner.hi is not None else None,
                    _p_neg(inner.lo) if inner.lo is not None else None,
                )
            return _top()
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.IfExp):
            a, b = self.eval(node.body), self.eval(node.orelse)
            lo = None
            if a.lo is not None and b.lo is not None:
                lo = a.lo if _p_max(_p_sub(a.lo, b.lo)) <= 0 else b.lo
            hi = None
            if a.hi is not None and b.hi is not None:
                hi = a.hi if _p_max(_p_sub(b.hi, a.hi)) <= 0 else b.hi
            return Interval(lo, hi)
        return _top()

    def eval_value(self, node: ast.expr):
        """Like :meth:`eval` but surfaces tracked objects (CMS values)."""
        if isinstance(node, ast.Name):
            bound = self.env.get(node.id)
            if isinstance(bound, _CMSValue):
                return bound
        return self.eval(node)

    def _eval_binop(self, node: ast.BinOp) -> Interval:
        left = self.eval(node.left)
        right = self.eval(node.right)
        op = node.op
        if isinstance(op, ast.Add):
            lo = (
                _p_add(left.lo, right.lo)
                if left.lo is not None and right.lo is not None
                else None
            )
            hi = (
                _p_add(left.hi, right.hi)
                if left.hi is not None and right.hi is not None
                else None
            )
            injective = (left.injective and right.is_point) or (
                right.injective and left.is_point
            )
            return Interval(lo, hi, injective)
        if isinstance(op, ast.Sub):
            lo = (
                _p_sub(left.lo, right.hi)
                if left.lo is not None and right.hi is not None
                else None
            )
            hi = (
                _p_sub(left.hi, right.lo)
                if left.hi is not None and right.lo is not None
                else None
            )
            injective = (left.injective and right.is_point) or (
                right.injective and left.is_point
            )
            return Interval(lo, hi, injective)
        if isinstance(op, ast.Mult):
            if left.is_point and right.is_point:
                return _point(_p_mul(left.lo, right.lo))
            for point, other in ((left, right), (right, left)):
                if point.is_point and _p_min(point.lo) >= 0:
                    lo = (
                        _p_mul(other.lo, point.lo)
                        if other.lo is not None
                        else None
                    )
                    hi = (
                        _p_mul(other.hi, point.lo)
                        if other.hi is not None
                        else None
                    )
                    injective = other.injective and _p_min(point.lo) >= 1
                    return Interval(lo, hi, injective)
            if left.nonneg and right.nonneg:
                hi = (
                    _p_mul(left.hi, right.hi)
                    if left.hi is not None and right.hi is not None
                    else None
                )
                return Interval(_p_const(0), hi)
            return _top()
        if isinstance(op, ast.Mod):
            divisor = right
            if divisor.is_point and _p_min(divisor.lo) >= 1:
                return Interval(
                    _p_const(0), _p_sub(divisor.lo, _p_const(1))
                )
            if left.nonneg:
                return _nonneg()
            return _top()
        if isinstance(op, ast.FloorDiv):
            if left.nonneg:
                return Interval(_p_const(0), left.hi)
            return _top()
        if isinstance(op, ast.RShift):
            if left.nonneg:
                return Interval(_p_const(0), left.hi)
            return _top()
        if isinstance(op, (ast.BitXor, ast.BitOr, ast.BitAnd, ast.LShift)):
            if left.nonneg and right.nonneg:
                return _nonneg()
            return _top()
        return _top()

    def _eval_call(self, node: ast.Call) -> Interval:
        chain = _attr_chain(node.func)
        name = chain[-1] if chain else ""
        # Method-style casts/copies: x.astype(t), x.copy(), x.reshape(...)
        if (
            isinstance(node.func, ast.Attribute)
            and name in ("astype", "copy", "reshape", "ravel")
        ):
            receiver = self.eval(node.func.value)
            if name == "astype" and node.args:
                target = _attr_chain(node.args[0])
                if target and target[-1] in _UNSIGNED_CASTS:
                    return _unsigned(receiver)
            return receiver
        if name in _UNSIGNED_CASTS and node.args:
            return _unsigned(self.eval(node.args[0]))
        if name in _PASSTHROUGH_CALLS and node.args:
            return self.eval(node.args[0])
        if name == "arange" and node.args:
            stop = self.eval(node.args[-1 if len(node.args) == 1 else 1])
            start = (
                self.eval(node.args[0])
                if len(node.args) >= 2
                else _point(_p_const(0))
            )
            if start.lo is not None and stop.hi is not None:
                return Interval(
                    start.lo, _p_sub(stop.hi, _p_const(1)), injective=True
                )
            return Interval(start.lo, None, injective=True)
        if name == "flatnonzero":
            # Strictly increasing indices into the argument.
            return Interval(_p_const(0), None, injective=True)
        if name == "zeros":
            return _point(_p_const(0))
        if name == "ones":
            return _point(_p_const(1))
        if name == "bucket_addresses" and isinstance(node.func, ast.Attribute):
            base = self.eval_value(node.func.value)
            if isinstance(base, _CMSValue):
                extent = _p_mul(base.depth, base.width)
                return Interval(_p_const(0), _p_sub(extent, _p_const(1)))
            return _top()
        # Same-module helper: summarize its return interval with parameters
        # as symbols, then substitute the call-site arguments.
        if len(chain) == 1 and name in self.helpers:
            return self._eval_helper(self.helpers[name], node)
        return _top()

    def _eval_helper(
        self, helper: ast.FunctionDef, call: ast.Call
    ) -> Interval:
        params = [a.arg for a in helper.args.args]
        sub = _FunctionAnalyzer(
            self.filename,
            {},
            [],
            symbol_prefix=f"{helper.name}.",
        )
        returned: Optional[Interval] = None
        for stmt in helper.body:
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                returned = sub.eval(stmt.value)
                break
            sub.visit(stmt)
        if returned is None:
            return _top()
        mapping: Dict[str, Poly] = {}
        for index, param in enumerate(params):
            if index >= len(call.args):
                break
            arg = self.eval(call.args[index])
            symbol = f"{helper.name}.{param}"
            if arg.is_point:
                mapping[symbol] = arg.lo
            else:
                # A non-scalar argument: any bound mentioning it is void.
                for bound in (returned.lo, returned.hi):
                    if bound is not None and any(
                        symbol in mono for mono in bound
                    ):
                        return _top()
        lo = _p_subst(returned.lo, mapping) if returned.lo is not None else None
        hi = _p_subst(returned.hi, mapping) if returned.hi is not None else None
        return Interval(lo, hi, returned.injective)

    # -- statement walking ----------------------------------------------

    def visit_block(self, stmts) -> None:
        for stmt in stmts:
            self.visit(stmt)

    def visit(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.For):
            self._scan_sites(stmt.iter)
            iter_node = stmt.iter
            if (
                isinstance(iter_node, ast.Call)
                and _attr_chain(iter_node.func)[-1:] == ["range"]
                and isinstance(stmt.target, ast.Name)
            ):
                args = [self.eval(a) for a in iter_node.args]
                if len(args) == 1 and args[0].hi is not None:
                    self.env[stmt.target.id] = Interval(
                        _p_const(0), _p_sub(args[0].hi, _p_const(1))
                    )
                elif len(args) >= 2 and args[1].hi is not None:
                    self.env[stmt.target.id] = Interval(
                        args[0].lo, _p_sub(args[1].hi, _p_const(1))
                    )
                else:
                    self.env[stmt.target.id] = _top()
            elif isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = _top()
            self.visit_block(stmt.body)
            self.visit_block(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self.visit_block(stmt.body)
            self.visit_block(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self.visit_block(stmt.body)
            self.visit_block(stmt.orelse)
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                ctx = item.context_expr
                if isinstance(ctx, ast.Call):
                    chain = _attr_chain(ctx.func)
                    if chain[-1:] == ["launch"]:
                        label = None
                        if ctx.args and isinstance(ctx.args[0], ast.Constant):
                            label = ctx.args[0].value
                        if isinstance(label, str):
                            self.kernel = label
                if isinstance(item.optional_vars, ast.Name):
                    self.env[item.optional_vars.id] = _top()
            self.visit_block(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self.visit_block(stmt.body)
            for handler in stmt.handlers:
                self.visit_block(handler.body)
            self.visit_block(stmt.orelse)
            self.visit_block(stmt.finalbody)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        self._scan_sites(stmt)
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value)
        elif isinstance(stmt, ast.AugAssign) and isinstance(
            stmt.target, ast.Name
        ):
            combined = ast.BinOp(
                left=ast.Name(id=stmt.target.id, ctx=ast.Load()),
                op=stmt.op,
                right=stmt.value,
            )
            ast.copy_location(combined, stmt)
            ast.fix_missing_locations(combined)
            self.env[stmt.target.id] = self.eval(combined)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign([stmt.target], stmt.value)

    def _assign(self, targets, value: ast.expr) -> None:
        if (
            isinstance(value, ast.Call)
            and _attr_chain(value.func)[-1:] == ["CountMinSketch"]
            and len(value.args) >= 2
        ):
            depth = self.eval(value.args[0])
            width = self.eval(value.args[1])
            if depth.is_point and width.is_point:
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.env[target.id] = _CMSValue(depth.lo, width.lo)
                return
        evaluated = self.eval(value)
        for target in targets:
            if isinstance(target, ast.Name):
                self.env[target.id] = evaluated
            elif isinstance(target, ast.Tuple):
                values = (
                    value.elts
                    if isinstance(value, ast.Tuple)
                    and len(value.elts) == len(target.elts)
                    else None
                )
                for index, element in enumerate(target.elts):
                    if isinstance(element, ast.Name):
                        self.env[element.id] = (
                            self.eval(values[index]) if values else _top()
                        )

    # -- access-site checking -------------------------------------------

    def _scan_sites(self, node: ast.AST) -> None:
        for child in ast.walk(node):
            if not isinstance(child, ast.Call):
                continue
            chain = _attr_chain(child.func)
            if len(chain) < 2:
                continue
            is_atomic = chain[-1] == "shared_atomic_add"
            is_plain = chain[-2] == "shared" and chain[-1] in ("load", "store")
            if not (is_atomic or is_plain):
                continue
            self._check_site(child, store=is_plain and chain[-1] == "store",
                             atomic=is_atomic)

    def _check_site(
        self, call: ast.Call, *, store: bool, atomic: bool
    ) -> None:
        array = _string_kwarg(call, "array")
        size_expr = next(
            (kw.value for kw in call.keywords if kw.arg == "size"), None
        )
        if array is None or size_expr is None or not call.args:
            return  # unannotated site: nothing declared to check against
        self.sites += 1
        location = f"{self.filename}:{call.lineno}"
        extent = self.eval(size_expr)
        addresses = self.eval(call.args[0])
        if not extent.is_point:
            self.findings.append(
                Finding(
                    rule="dataflow-oob-possible",
                    message=(
                        f"declared extent of shared '{array}' is not "
                        "statically resolvable; cannot prove accesses "
                        "in-bounds"
                    ),
                    kernel=self.kernel,
                    array=array,
                    space="shared",
                    location=location,
                )
            )
            return
        extent_poly = extent.lo
        problems = []
        if addresses.lo is None or _p_min(addresses.lo) < 0:
            low = (
                _p_render(addresses.lo)
                if addresses.lo is not None
                else "-inf"
            )
            problems.append(f"lower bound {low} may be < 0")
        slack = (
            _p_add(_p_sub(addresses.hi, extent_poly), _p_const(1))
            if addresses.hi is not None
            else None
        )
        if slack is None or _p_max(slack) > 0:
            high = (
                _p_render(addresses.hi)
                if addresses.hi is not None
                else "+inf"
            )
            problems.append(
                f"upper bound {high} may reach declared extent "
                f"{_p_render(extent_poly)}"
            )
        if problems:
            self.findings.append(
                Finding(
                    rule="dataflow-oob-possible",
                    message=(
                        f"access to shared '{array}' not provably "
                        f"in-bounds: {'; '.join(problems)}"
                    ),
                    kernel=self.kernel,
                    array=array,
                    space="shared",
                    location=location,
                )
            )
        else:
            self.findings.append(
                Finding(
                    rule="dataflow-proven-clean",
                    message=(
                        f"access to shared '{array}' proven in-bounds: "
                        f"[{_p_render(addresses.lo)}, "
                        f"{_p_render(addresses.hi)}] within "
                        f"[0, {_p_render(extent_poly)}) for every launch "
                        "geometry"
                    ),
                    kernel=self.kernel,
                    array=array,
                    space="shared",
                    location=location,
                )
            )
        if store and not atomic and not addresses.injective:
            self.findings.append(
                Finding(
                    rule="dataflow-overlap-possible",
                    message=(
                        f"non-atomic store to shared '{array}' with "
                        "addresses not provably lane-disjoint; concurrent "
                        "lanes may overwrite each other (use an atomic or "
                        "an arange-affine address pattern)"
                    ),
                    kernel=self.kernel,
                    array=array,
                    space="shared",
                    location=location,
                )
            )


# ---------------------------------------------------------------------------
# Monotone-update check
# ---------------------------------------------------------------------------


def _label_operand(node: ast.expr, label_params) -> Optional[str]:
    """Name of the label parameter an operand reads from, if any."""
    while isinstance(node, (ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Call) and node.args:
        chain = _attr_chain(node.func)
        if chain and chain[-1] in _PASSTHROUGH_CALLS | {"astype"}:
            return _label_operand(node.args[0], label_params)
    if isinstance(node, ast.Name) and node.id in label_params:
        return node.id
    return None


def _check_monotone(
    func: ast.FunctionDef, filename: str, findings: List[Finding]
) -> None:
    params = [a.arg for a in func.args.args]
    label_params = {p for p in params if "label" in p}
    if not label_params:
        return
    for node in ast.walk(func):
        operands = ()
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITH_BINOPS):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.op, _ARITH_BINOPS
        ):
            operands = (node.target, node.value)
        for operand in operands:
            name = _label_operand(operand, label_params)
            if name is not None:
                findings.append(
                    Finding(
                        rule="dataflow-nonmonotone-update",
                        message=(
                            f"update_vertices derives labels arithmetically "
                            f"from '{name}'; hooks must select existing "
                            "labels (copy, mask, or delegate) to preserve "
                            "monotone convergence on the min-frequent-label "
                            "lattice"
                        ),
                        location=f"{filename}:{node.lineno}",
                    )
                )
                break


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def dataflow_source(
    source: str, filename: str = "<string>"
) -> Tuple[List[Finding], int]:
    """Analyze one module's source; returns (findings, units checked)."""
    tree = ast.parse(source, filename=filename)
    helpers: Dict[str, ast.FunctionDef] = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    # A body passed to ``run_launch(ctx, "<kernel>", vertices, build,
    # body)`` runs inside that kernel's launch.
    launched: Dict[str, str] = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and _attr_chain(node.func)[-1:] == ["run_launch"]
            and len(node.args) >= 5
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[4], ast.Name)
        ):
            launched[node.args[4].id] = node.args[1].value
    findings: List[Finding] = []
    checked = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name == "update_vertices":
            _check_monotone(node, filename, findings)
            checked += 1
            continue
        analyzer = _FunctionAnalyzer(filename, helpers, findings)
        analyzer.kernel = launched.get(node.name, "")
        # Parameters are opaque arrays/objects, not positive scalars.
        for arg in node.args.args:
            analyzer.env[arg.arg] = _top()
        analyzer.visit_block(node.body)
        checked += analyzer.sites
    return findings, checked


def dataflow_file(path: str) -> Tuple[List[Finding], int]:
    with open(path, "r") as fh:
        source = fh.read()
    return dataflow_source(source, filename=path)


def _default_paths() -> List[str]:
    import repro.kernels

    paths = [os.path.dirname(os.path.abspath(repro.kernels.__file__))]
    if os.path.isdir("examples"):
        paths.append("examples")
    return paths


def check_dataflow(paths=None) -> AnalysisReport:
    """Run the dataflow verifier; returns a ``source="dataflow"`` report."""
    report = AnalysisReport(source="dataflow")
    for path in iter_python_files(paths if paths else _default_paths()):
        try:
            findings, checked = dataflow_file(path)
        except SyntaxError as exc:
            report.add(
                Finding(
                    rule="dataflow-oob-possible",
                    message=f"could not parse module: {exc.msg}",
                    location=f"{path}:{exc.lineno or 0}",
                )
            )
            continue
        report.extend(findings)
        report.checked += checked
    return report
