"""Repo-hygiene rules: RS104 error-taxonomy, RS105 nondeterministic-rng,
RS106 missing-``__all__`` / export drift, RS113 stale suppressions,
RS125 async hygiene in the serve layer.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from .engine import BaseChecker, all_rules, register
from .findings import AnalysisFinding
from .rules_executor import dotted_name

__all__ = ["ErrorTaxonomyChecker", "NondeterministicRngChecker",
           "ExportDriftChecker", "StaleSuppressionChecker",
           "AsyncHygieneChecker"]


@register
class ErrorTaxonomyChecker(BaseChecker):
    """RS104: raise the :mod:`repro.errors` hierarchy, not bare builtins.

    Callers are promised that every library failure derives from
    ``ReproError`` — a bare ``raise ValueError`` escapes that contract.
    The hierarchy's multiple-inheritance classes (``ShapeError`` is a
    ``ValueError``, etc.) make the switch free for callers.
    """

    rule = "RS104"
    summary = "raise repro.errors classes instead of bare builtins"

    _BANNED = {"ValueError", "TypeError", "RuntimeError", "KeyError",
               "IndexError", "ArithmeticError", "Exception", "OSError"}
    #: Mapping used to suggest the closest in-hierarchy replacement.
    _SUGGEST = {"ValueError": "ConfigurationError or ShapeError",
                "TypeError": "ConfigurationError",
                "RuntimeError": "DeviceError or ConvergenceError",
                "ArithmeticError": "NotOrthogonalError or "
                                   "CholeskyBreakdownError"}

    def run(self):
        # The hierarchy module itself is the one place allowed to talk
        # about builtin exception classes.
        if self.ctx.relpath.endswith("errors.py"):
            return self.findings
        return super().run()

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = dotted_name(exc) if exc is not None else ""
        if name in self._BANNED:
            hint = self._SUGGEST.get(name, "a ReproError subclass")
            self.emit(node, f"raise {name} bypasses the repro.errors "
                            f"hierarchy; use {hint} (see repro/errors.py)")
        self.generic_visit(node)


@register
class NondeterministicRngChecker(BaseChecker):
    """RS105: randomness must flow through seeded ``Generator`` plumbing.

    The executors own a seeded ``np.random.default_rng`` so every run
    is reproducible end to end; legacy global-state calls
    (``np.random.rand``, ``np.random.seed``, ...) bypass that plumbing
    and make figures non-reproducible.
    """

    rule = "RS105"
    summary = ("module-level np.random.* call bypasses the seeded "
               "Generator plumbing")

    _ALLOWED = {"default_rng", "Generator", "SeedSequence", "PCG64",
                "PCG64DXSM", "Philox", "MT19937", "BitGenerator"}

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        parts = name.split(".")
        if (len(parts) == 3 and parts[0] in ("np", "numpy")
                and parts[1] == "random"
                and parts[2] not in self._ALLOWED):
            self.emit(node, f"{name}() uses the legacy global RNG; pass "
                            "a seeded np.random.Generator (executor.rng "
                            "or np.random.default_rng(seed)) instead")
        self.generic_visit(node)


def _literal_strings(node: ast.expr) -> Optional[List[str]]:
    """Statically evaluate an ``__all__`` value to a list of strings.

    Supports list/tuple displays and ``+`` concatenations of them;
    returns ``None`` when the value is not statically resolvable.
    """
    if isinstance(node, (ast.List, ast.Tuple)):
        out: List[str] = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.append(elt.value)
            else:
                return None
        return out
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _literal_strings(node.left)
        right = _literal_strings(node.right)
        if left is not None and right is not None:
            return left + right
    return None


@register
class ExportDriftChecker(BaseChecker):
    """RS106: every module declares ``__all__`` and it matches reality.

    Missing ``__all__`` makes ``from module import *`` and the API docs
    drift silently; names listed but no longer defined are the same bug
    in the other direction.
    """

    rule = "RS106"
    summary = "missing __all__, or __all__ names a binding that no longer exists"

    def run(self):
        # Entry-point stubs export nothing by design; pytest modules
        # (tests/benches/conftest) are collected, never `import *`-ed.
        name = self.ctx.relpath.rsplit("/", 1)[-1]
        if self.ctx.relpath.endswith("__main__.py") or \
                name.startswith("test_") or name == "conftest.py":
            return self.findings
        tree = self.ctx.tree
        bound = self._module_bindings(tree)
        all_node = self._find_all(tree)
        if all_node is None:
            if self._has_public_defs(tree):
                self.emit(tree, "module defines public names but no "
                                "__all__; declare the export list")
            return self.findings
        names = _literal_strings(all_node.value)
        if names is None:
            self.emit(all_node, "__all__ is not a static list of string "
                                "literals; the analyzer (and doc tools) "
                                "cannot verify it")
            return self.findings
        if "*" in bound:
            return self.findings  # star-import: drift is unverifiable
        for name in names:
            if name not in bound:
                self.emit(all_node, f"__all__ exports {name!r} but the "
                                    "module never binds that name")
        seen: Set[str] = set()
        for name in names:
            if name in seen:
                self.emit(all_node, f"__all__ lists {name!r} twice")
            seen.add(name)
        return self.findings

    @staticmethod
    def _find_all(tree: ast.Module) -> Optional[ast.Assign]:
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                for tgt in stmt.targets:
                    if isinstance(tgt, ast.Name) and tgt.id == "__all__":
                        return stmt
        return None

    @staticmethod
    def _has_public_defs(tree: ast.Module) -> bool:
        return any(
            isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef))
            and not s.name.startswith("_")
            for s in tree.body)

    @staticmethod
    def _module_bindings(tree: ast.Module) -> Set[str]:
        bound: Set[str] = set()

        def add_target(t: ast.expr) -> None:
            if isinstance(t, ast.Name):
                bound.add(t.id)
            elif isinstance(t, (ast.Tuple, ast.List)):
                for e in t.elts:
                    add_target(e)

        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                bound.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    add_target(t)
            elif isinstance(stmt, ast.AnnAssign):
                add_target(stmt.target)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    if alias.name == "*":
                        # `from x import *`: anything may be bound.
                        return bound | {"*"}
                    bound.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(stmt, (ast.If, ast.Try)):
                # One level of conditional definition (TYPE_CHECKING,
                # version guards) is enough for this codebase.
                for sub in ast.walk(stmt):
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef,
                                        ast.ClassDef)):
                        bound.add(sub.name)
                    elif isinstance(sub, ast.Assign):
                        for t in sub.targets:
                            add_target(t)
                    elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                        for alias in sub.names:
                            if alias.name != "*":
                                bound.add((alias.asname
                                           or alias.name).split(".")[0])
        return bound


@register
class StaleSuppressionChecker(BaseChecker):
    """RS113: a ``# repro: noqa`` that no longer suppresses anything.

    Suppressions are accepted exceptions; once the code they excused is
    gone, the leftover comment silently re-arms a blanket waiver for
    whatever lands on that line next.  This rule runs after every other
    selected rule (the engine orders it last) and flags noqa lines that
    silenced no finding — but only when every rule the comment names
    actually ran, so a partial ``--select`` can't produce false
    staleness.  A bare noqa needs the full rule set to have run.

    Because a bare noqa would suppress RS113 itself, findings here are
    reported directly rather than through :meth:`BaseChecker.emit`; an
    explicit ``RS113`` in the comment's rule list is the opt-out.
    """

    rule = "RS113"
    summary = ("stale '# repro: noqa' — the suppression no longer "
               "silences any finding")

    def run(self) -> List[AnalysisFinding]:
        everything = set(all_rules()) - {self.rule}
        for line in sorted(self.ctx.noqa):
            if line in self.ctx.used_noqa:
                continue
            rules = self.ctx.noqa[line]
            named = everything if rules is None else {
                r for r in rules if r != self.rule}
            if rules is not None and self.rule in rules:
                continue       # explicit RS113 opt-out
            if not named or not named <= self.ctx.rules_run:
                continue       # can't judge: rules not exercised
            what = ("bare noqa" if rules is None
                    else "noqa " + ", ".join(sorted(rules)))
            # Direct append: emit() would let the very suppression under
            # judgment silence its own staleness report.
            self.findings.append(AnalysisFinding(
                rule=self.rule,
                path=self.ctx.relpath,
                line=line,
                col=0,
                message=f"stale suppression: this {what} silenced no "
                        "finding in this run; delete the comment (or "
                        "add RS113 to keep it deliberately)",
                context="<module>"))
        return self.findings


# ---------------------------------------------------------------------------
# RS125: async hygiene in the serve layer
# ---------------------------------------------------------------------------

#: Call leaves that block the event loop outright.
_BLOCKING_LEAVES = {"run_jobs", "check_call", "check_output", "result"}
#: Dotted prefixes whose calls are synchronous by construction.
_BLOCKING_PREFIXES = ("time.sleep", "subprocess.", "np.linalg.",
                      "numpy.linalg.")


@register
class AsyncHygieneChecker(BaseChecker):
    """RS125: event-loop hazards in async code.

    Three shapes, all confined to files that define ``async def``
    coroutines (in practice the ``repro.serve`` layer):

    - a blocking call (``time.sleep``, ``subprocess.*``, ``run_jobs``,
      ``Future.result()``, ``Executor.shutdown(wait=True)``, raw
      ``np.linalg`` math) directly inside an ``async def`` body — it
      stalls every other request sharing the event loop; heavy work
      belongs behind ``loop.run_in_executor`` (nested ``def``/lambda
      bodies are exempt: that is exactly how the offload is written);
    - an un-awaited coroutine: a bare expression statement calling a
      same-file ``async def`` (or ``asyncio.sleep``) creates a
      coroutine object and silently drops it;
    - an unbounded ``asyncio.Queue()``: the serve layer bounds
      admission through ``ServeConfig``, so a queue with no ``maxsize``
      silently removes the backpressure those bounds exist to provide.
    """

    rule = "RS125"
    summary = ("async hygiene: blocking call in a coroutine, un-awaited "
               "coroutine, or unbounded asyncio.Queue")

    def run(self) -> List[AnalysisFinding]:
        async_defs = [node for node in ast.walk(self.ctx.tree)
                      if isinstance(node, ast.AsyncFunctionDef)]
        if not async_defs:
            return self.findings
        local_coroutines = {fn.name for fn in async_defs}
        for fn in async_defs:
            self._check_body(fn, local_coroutines)
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Call) \
                    and dotted_name(node.func) == "asyncio.Queue" \
                    and not node.args \
                    and not any(kw.arg == "maxsize"
                                for kw in node.keywords):
                self.emit(node,
                          "unbounded asyncio.Queue(): admission bounds "
                          "from ServeConfig never reach this queue, so "
                          "it grows without backpressure")
        return self.findings

    def _check_body(self, fn: ast.AsyncFunctionDef,
                    local_coroutines: Set[str]) -> None:
        for node in self._own_nodes(fn):
            if isinstance(node, ast.Expr) \
                    and isinstance(node.value, ast.Call):
                dotted = dotted_name(node.value.func)
                leaf = dotted.rsplit(".", 1)[-1]
                if dotted in ("asyncio.sleep", "asyncio.gather") \
                        or (leaf in local_coroutines and "." not in dotted):
                    self.emit(node,
                              f"coroutine {dotted or leaf}(...) is never "
                              f"awaited: the call builds a coroutine "
                              f"object and drops it, so the work never "
                              f"runs")
                    continue
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            leaf = dotted.rsplit(".", 1)[-1] if dotted else ""
            blocking = leaf in _BLOCKING_LEAVES \
                or any(dotted.startswith(p) or dotted == p.rstrip(".")
                       for p in _BLOCKING_PREFIXES)
            if leaf == "shutdown" \
                    and any(kw.arg == "wait"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True
                            for kw in node.keywords):
                blocking = True
            if blocking:
                self.emit(node,
                          f"blocking call {dotted or leaf}(...) inside "
                          f"async def {fn.name}: it stalls the event "
                          f"loop for every in-flight request; offload "
                          f"via loop.run_in_executor")

    @staticmethod
    def _own_nodes(fn: ast.AsyncFunctionDef):
        """Walk ``fn``'s body without descending into nested function
        scopes (offload lambdas/defs legitimately block — in the
        executor thread, not the event loop)."""
        stack = list(fn.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
