"""Executor-contract rules: RS101 untimed-math, RS123 uncharged-branch,
RS102 unknown-phase, RS103 symbolic-unsafe.

These rules encode the simulated-GPU executor contract that the
reproduction's performance claims rest on:

- every FLOP on the modeled device path must be charged through an
  executor operation (RS101), on every path through a timed function
  (RS123);
- every charge must land on one of the paper's seven phase-legend tags
  (RS102);
- every code path reachable with a :class:`repro.gpu.SymArray` must
  either be shape-only or guard its value-dependent operations (RS103).
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Sequence, Set, Tuple

from .engine import BaseChecker, ModuleContext, register

__all__ = ["UntimedMathChecker", "UnchargedBranchChecker",
           "UnknownPhaseChecker", "SymbolicUnsafeChecker",
           "UNTIMED_MATH_SCOPES", "in_timed_scope"]

#: Path fragments (posix) where RS101 is enforced.  Algorithm code in
#: ``repro/core`` must route math through an executor; the executor
#: backends themselves (``repro/gpu``, ``repro/qr``) and the host-side
#: bench/matrix utilities are the allowlisted implementation layer.
UNTIMED_MATH_SCOPES: Tuple[str, ...] = ("repro/core/",)


def dotted_name(node: ast.expr) -> str:
    """``np.linalg.norm`` -> "np.linalg.norm"; "" when not a name chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def in_timed_scope(ctx: ModuleContext) -> bool:
    """True for modules whose math is billed to the modeled clock:
    anything under ``repro/gpu/`` or importing :mod:`repro.gpu.streams`
    (or names from :mod:`repro.gpu`)."""
    if "repro/gpu/" in ctx.relpath:
        return True
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("repro.gpu.streams")
                   for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("repro.gpu.streams") \
                    or node.module == "repro.gpu":
                return True
    return False


def _phases() -> Tuple[str, ...]:
    from ..gpu.trace import PHASES
    return PHASES


@register
class UntimedMathChecker(BaseChecker):
    """RS101: direct numpy math on the executor-managed path.

    Inside :mod:`repro.core`, linear-algebra FLOPs must go through
    executor operations so they are charged to the kernel model.  A
    bare ``@``, ``np.dot`` or ``np.linalg.*`` call silently runs at
    zero modeled cost and corrupts every reproduced performance figure.
    Host-side diagnostics opt out explicitly with
    ``@allow_untimed_math("reason")``.
    """

    rule = "RS101"
    summary = ("direct numpy math inside repro.core must be routed "
               "through an executor operation")

    #: Dotted-name prefixes whose calls count as raw math.
    _BANNED_PREFIXES = ("np.linalg.", "numpy.linalg.", "np.fft.",
                        "numpy.fft.", "scipy.linalg.", "sp.linalg.")
    _BANNED_CALLS = {"np.dot", "numpy.dot", "np.vdot", "numpy.vdot",
                     "np.matmul", "numpy.matmul", "np.einsum",
                     "numpy.einsum", "np.tensordot", "numpy.tensordot"}

    def run(self):
        if not any(scope in self.ctx.relpath
                   for scope in UNTIMED_MATH_SCOPES):
            return self.findings
        return super().run()

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.MatMult) and not self.in_untimed_scope:
            self.emit(node, "untimed matrix product ('@'); use an "
                            "executor op (e.g. ex.gemm/ex.sample_gemm) or "
                            "mark the function @allow_untimed_math")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if not self.in_untimed_scope:
            name = dotted_name(node.func)
            if name and (name in self._BANNED_CALLS
                         or name.startswith(self._BANNED_PREFIXES)):
                self.emit(node, f"untimed call to {name}; use an "
                                "executor op so the FLOPs are charged, or "
                                "mark the function @allow_untimed_math")
        self.generic_visit(node)


#: Call leaves that put modeled time on the clock (RS123's charge
#: events): the ``_t_*`` timing hooks and the device/scheduler calls.
_T_HOOK = re.compile(r"^_t_[a-z0-9_]+$")
_CHARGE_LEAVES = {"submit", "submit_group", "charge",
                  "_charge_all", "_charge_comm", "_local_gemm"}
#: Backend methods that are GEMM-class math.
_BACKEND_MATH = {"gemm", "syrk", "trsm", "matmul"}


def _is_charge(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Attribute):
        leaf = node.func.attr
        return bool(_T_HOOK.match(leaf)) or leaf in _CHARGE_LEAVES
    return dotted_name(node.func) in ("submit", "submit_group")


def _is_math(node: ast.AST) -> bool:
    """GEMM-class math: ``x @ y``, ``_mm(x, y)``, ``<...>.backend.gemm``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return True
    if not isinstance(node, ast.Call):
        return False
    if dotted_name(node.func) == "_mm":
        return True
    return (isinstance(node.func, ast.Attribute)
            and node.func.attr in _BACKEND_MATH
            and dotted_name(node.func.value).split(".")[-1] == "backend")


def _first_math(stmts: Sequence[ast.stmt]) -> Optional[ast.AST]:
    for stmt in stmts:
        for node in ast.walk(stmt):
            if _is_math(node):
                return node
    return None


def _contains_charge(stmts: Sequence[ast.stmt]) -> bool:
    return any(_is_charge(node)
               for stmt in stmts for node in ast.walk(stmt))


@register
class UnchargedBranchChecker(BaseChecker):
    """RS123: uncharged or double-charged execution paths.

    Inside timed scopes (``repro/gpu/`` or anything importing
    ``repro.gpu.streams``): GEMM-class math that is reachable both with
    and without a preceding charge event (a ``_t_*`` hook, ``charge``,
    ``submit``/``submit_group`` or a charging helper), and conditionals
    whose both arms compute math while only one arm charges.  Either
    way some path's seconds never reach — or reach twice — the modeled
    timeline.  Each function body is walked once, tracking the fewest
    and the most charges any path has issued so far: a loop body may
    run zero times, and an ``if`` joins its arms.
    """

    rule = "RS123"
    summary = ("math reachable on a path whose kernel charges differ "
               "from its sibling path")

    def run(self):
        if not in_timed_scope(self.ctx):
            return self.findings
        return super().run()

    def handle_function(self, node) -> None:
        self._lo = self._hi = 0
        self._block(node.body)

    def _block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes are walked on their own
        if isinstance(node, ast.If):
            self._expr(node.test)
            lo, hi = self._lo, self._hi
            self._block(node.body)
            body_lo, body_hi = self._lo, self._hi
            self._lo, self._hi = lo, hi
            self._block(node.orelse)
            self._lo = min(body_lo, self._lo)
            self._hi = max(body_hi, self._hi)
            self._check_arms(node)
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            self._expr(node.test if isinstance(node, ast.While)
                       else node.iter)
            lo = self._lo
            self._block(node.body)
            self._block(node.orelse)
            self._lo = lo  # the body may run zero times
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._expr(item.context_expr)
            self._block(node.body)
        elif isinstance(node, ast.Try):
            self._block(node.body)
            for handler in node.handlers:
                self._block(handler.body)
            self._block(node.orelse)
            self._block(node.finalbody)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._expr(child)

    def _expr(self, node: ast.expr) -> None:
        """Post-order, so a call's arguments count before the call."""
        for child in ast.iter_child_nodes(node):
            self._expr(child)
        if _is_charge(node):
            self._lo += 1
            self._hi += 1
        elif _is_math(node) and self._lo == 0 and self._hi > 0:
            self.emit(node, "GEMM-class math reachable both with and "
                            "without a preceding kernel charge; on the "
                            "uncharged path its seconds never reach the "
                            "modeled timeline")

    def _check_arms(self, node: ast.If) -> None:
        """Both arms compute, only one charges."""
        body_math = _first_math(node.body)
        else_math = _first_math(node.orelse)
        if body_math is None or else_math is None:
            return
        body_charges = _contains_charge(node.body)
        if body_charges == _contains_charge(node.orelse):
            return
        self.emit(else_math if body_charges else body_math,
                  "both arms of this conditional compute GEMM-class math "
                  "but only one arm charges the kernel model; the "
                  "uncharged arm's seconds vanish from the modeled "
                  "timeline")


@register
class UnknownPhaseChecker(BaseChecker):
    """RS102: phase tags must come from the paper's phase legend.

    Any string literal passed as a ``phase=`` keyword, as the first
    argument of a ``.charge(...)`` call, or as the default of a
    ``phase`` parameter must be a member of
    :data:`repro.gpu.trace.PHASES`.  A typo here would silently
    misattribute kernel time across the Figure 11-15 stacked bars.
    """

    rule = "RS102"
    summary = "phase tags must be members of repro.gpu.trace.PHASES"

    def __init__(self, ctx):
        super().__init__(ctx)
        self._legend = _phases()

    def _check_literal(self, node: ast.expr, where: str) -> None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value not in self._legend:
                self.emit(node, f"unknown phase {node.value!r} {where}; "
                                f"expected one of {', '.join(self._legend)}")

    def visit_Call(self, node: ast.Call) -> None:
        for kw in node.keywords:
            if kw.arg == "phase":
                self._check_literal(kw.value, "passed as phase=")
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "charge":
            if node.args:
                self._check_literal(node.args[0], "passed to charge()")
        self.generic_visit(node)

    def handle_function(self, node) -> None:
        args = node.args
        # Align defaults with their parameters (positional then kw-only).
        pos = args.posonlyargs + args.args
        for arg, default in zip(pos[len(pos) - len(args.defaults):],
                                args.defaults):
            if arg.arg == "phase":
                self._check_literal(default, "as a phase default")
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if arg.arg == "phase" and default is not None:
                self._check_literal(default, "as a phase default")


def _annotation_mentions_arraylike(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - malformed annotation
        return False
    return "ArrayLike" in text


class _GuardScan(ast.NodeVisitor):
    """Detect symbolic-execution guards inside one function body."""

    def __init__(self) -> None:
        self.guarded = False

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name.endswith("is_symbolic"):
            self.guarded = True
        if (isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and dotted_name(node.args[1]).endswith("SymArray")):
            self.guarded = True
        self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        if exc is not None and dotted_name(exc).endswith(
                "SymbolicExecutionError"):
            self.guarded = True
        self.generic_visit(node)


@register
class SymbolicUnsafeChecker(BaseChecker):
    """RS103: value-dependent ops on possibly-symbolic arrays.

    Functions that accept ``ArrayLike`` parameters run under symbolic
    (shape-only) execution at paper scale.  Reading actual values —
    ``float(x)``, ``x.item()``, truthiness, comparing ``x``/``np.abs(x)``
    — crashes a symbolic sweep unless the function guards with
    ``is_symbolic`` / ``isinstance(..., SymArray)`` or raises
    ``SymbolicExecutionError`` on the symbolic branch.
    """

    rule = "RS103"
    summary = ("value-dependent operation on an ArrayLike parameter "
               "without an is_symbolic guard")

    def __init__(self, ctx):
        super().__init__(ctx)
        # Stack of (param-name-set, guarded) per enclosing function.
        self._frames: List[Tuple[Set[str], bool]] = []

    def _visit_func(self, node) -> None:
        args = node.args
        names = {
            a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs
                            + ([args.vararg] if args.vararg else []))
            if _annotation_mentions_arraylike(a.annotation)}
        scan = _GuardScan()
        for stmt in node.body:
            scan.visit(stmt)
        self._frames.append((names, scan.guarded))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_func(node)
        super().visit_FunctionDef(node)
        self._frames.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_func(node)
        super().visit_AsyncFunctionDef(node)
        self._frames.pop()

    def _tracked(self, node: ast.expr) -> Optional[str]:
        """Name of an unguarded ArrayLike param, when ``node`` is one."""
        if not isinstance(node, ast.Name):
            return None
        for names, guarded in reversed(self._frames):
            if node.id in names:
                return None if guarded else node.id
        return None

    def _value_read(self, node: ast.expr) -> Optional[str]:
        """Match ``x`` or ``np.abs(x)`` / ``abs(x)`` for a tracked x."""
        direct = self._tracked(node)
        if direct:
            return direct
        if isinstance(node, ast.Call) and node.args:
            name = dotted_name(node.func)
            if name in ("abs", "np.abs", "numpy.abs", "np.absolute",
                        "numpy.absolute"):
                return self._tracked(node.args[0])
        return None

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name in ("float", "int", "bool", "complex") and node.args:
            p = self._tracked(node.args[0])
            if p:
                self.emit(node, f"{name}({p}) reads values of "
                                f"ArrayLike parameter {p!r} without an "
                                "is_symbolic guard")
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "item"):
            p = self._tracked(node.func.value)
            if p:
                self.emit(node, f"{p}.item() reads values of ArrayLike "
                                f"parameter {p!r} without an is_symbolic "
                                "guard")
        self.generic_visit(node)

    def _check_truthiness(self, test: ast.expr, what: str) -> None:
        node = test
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            node = node.operand
        p = self._tracked(node)
        if p:
            self.emit(test, f"truthiness of ArrayLike parameter {p!r} "
                            f"in {what} is value-dependent; guard with "
                            "is_symbolic first")

    def visit_If(self, node: ast.If) -> None:
        self._check_truthiness(node.test, "an if test")
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._check_truthiness(node.test, "a while test")
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        # Identity tests (`x is None`) are shape-safe, not value reads.
        if all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            self.generic_visit(node)
            return
        for side in [node.left] + list(node.comparators):
            p = self._value_read(side)
            if p:
                self.emit(node, f"comparison reads values of ArrayLike "
                                f"parameter {p!r} without an is_symbolic "
                                "guard")
                break
        self.generic_visit(node)
