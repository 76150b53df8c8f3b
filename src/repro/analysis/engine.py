"""The analysis engine: file discovery, parsing, suppressions, driving.

The engine is rule-agnostic: it walks Python files, parses each into an
AST plus a per-line suppression table, runs every registered checker,
and filters the emitted findings through suppressions and (optionally)
a committed baseline.

Suppression syntax (per line, comma-separated rule list optional)::

    x = a @ b          # repro: noqa RS101
    y = risky()        # repro: noqa RS101, RS103
    z = anything()     # repro: noqa

A bare ``# repro: noqa`` silences every rule on that line.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Type

from ..errors import StaticAnalysisError
from .annotations import ALLOW_UNTIMED_MATH
from .findings import AnalysisFinding

__all__ = [
    "ModuleContext",
    "BaseChecker",
    "register",
    "all_rules",
    "iter_python_files",
    "analyze_paths",
    "parse_noqa",
]

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?P<rules>(?:\s*:?\s*RS\d{3}(?:\s*,\s*RS\d{3})*)?)",
    re.IGNORECASE)
_RULE_RE = re.compile(r"RS\d{3}", re.IGNORECASE)


def parse_noqa(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map 1-based line number -> suppressed rule set.

    ``None`` means "all rules suppressed on this line" (a bare noqa).

    Only genuine ``#`` comments count: the suppression syntax quoted in
    a docstring (as in this module's own header) is documentation, not
    a directive.  Tokenization is the arbiter; if the source does not
    tokenize (it can still AST-parse in edge cases), fall back to the
    per-line regex scan.
    """
    table: Dict[int, Optional[Set[str]]] = {}

    def scan(lineno: int, text: str) -> None:
        m = _NOQA_RE.search(text)
        if not m:
            return
        rules = {r.upper() for r in _RULE_RE.findall(m.group("rules") or "")}
        table[lineno] = rules or None

    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                scan(tok.start[0], tok.string)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        table.clear()
        for lineno, text in enumerate(source.splitlines(), start=1):
            scan(lineno, text)
    return table


class ModuleContext:
    """One parsed source file handed to every checker."""

    def __init__(self, path: Path, source: str, root: Optional[Path] = None):
        self.path = path
        self.source = source
        try:
            self.tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise StaticAnalysisError(
                f"cannot parse {path}: {exc}") from exc
        self.noqa = parse_noqa(source)
        self.relpath = self._normalize(path, root)
        #: Lines whose noqa actually silenced at least one finding this
        #: run (consumed by RS113, the stale-suppression rule).
        self.used_noqa: Set[int] = set()
        #: Rules the driver ran over this module — RS113 only calls a
        #: suppression stale when everything it names was exercised.
        self.rules_run: Set[str] = set()

    @staticmethod
    def _normalize(path: Path, root: Optional[Path]) -> str:
        p = path.resolve()
        candidates = [root.resolve()] if root is not None else []
        candidates.append(Path.cwd().resolve())
        for base in candidates:
            try:
                return p.relative_to(base).as_posix()
            except ValueError:
                continue
        return p.as_posix()

    def suppressed(self, rule: str, line: int) -> bool:
        if line not in self.noqa:
            return False
        rules = self.noqa[line]
        hit = rules is None or rule.upper() in rules
        if hit:
            self.used_noqa.add(line)
        return hit


def _decorator_name(node: ast.expr) -> str:
    """Trailing name of a decorator expression (``a.b.c(...)`` -> c)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


class BaseChecker(ast.NodeVisitor):
    """Base class for rules: function-stack tracking + emit helper.

    Subclasses set ``rule`` / ``summary`` and implement visitors.  The
    base visitor maintains ``self.stack`` (enclosing class/function
    names) and ``self.untimed_ok`` depth — how many enclosing
    definitions carry the :func:`repro.analysis.allow_untimed_math`
    marker.
    """

    rule: str = ""
    summary: str = ""

    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self.findings: List[AnalysisFinding] = []
        self.stack: List[str] = []
        self._untimed_depth = 0

    # -- driving ---------------------------------------------------------
    def run(self) -> List[AnalysisFinding]:
        self.visit(self.ctx.tree)
        return self.findings

    def emit(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if self.ctx.suppressed(self.rule, line):
            return
        self.findings.append(AnalysisFinding(
            rule=self.rule,
            path=self.ctx.relpath,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            context=self.qualname()))

    def qualname(self) -> str:
        return ".".join(self.stack) if self.stack else "<module>"

    # -- scope tracking --------------------------------------------------
    @property
    def in_untimed_scope(self) -> bool:
        """True inside a definition marked ``@allow_untimed_math``."""
        return self._untimed_depth > 0

    def _enter(self, node) -> bool:
        marked = any(_decorator_name(d) == ALLOW_UNTIMED_MATH
                     for d in getattr(node, "decorator_list", []))
        self.stack.append(node.name)
        if marked:
            self._untimed_depth += 1
        return marked

    def _leave(self, marked: bool) -> None:
        self.stack.pop()
        if marked:
            self._untimed_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        marked = self._enter(node)
        self.handle_function(node)
        self.generic_visit(node)
        self._leave(marked)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        marked = self._enter(node)
        self.handle_function(node)
        self.generic_visit(node)
        self._leave(marked)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        marked = self._enter(node)
        self.generic_visit(node)
        self._leave(marked)

    def handle_function(self, node) -> None:
        """Hook called on entry of every (async) function definition."""


_REGISTRY: Dict[str, Type[BaseChecker]] = {}


def register(cls: Type[BaseChecker]) -> Type[BaseChecker]:
    """Class decorator adding a checker to the global registry."""
    if not cls.rule or not _RULE_RE.fullmatch(cls.rule):
        raise StaticAnalysisError(
            f"checker {cls.__name__} has invalid rule id {cls.rule!r}")
    if cls.rule in _REGISTRY:
        raise StaticAnalysisError(f"duplicate checker for {cls.rule}")
    _REGISTRY[cls.rule] = cls
    return cls


def all_rules() -> Dict[str, Type[BaseChecker]]:
    """Rule id -> checker class, loading the built-in rule modules."""
    from . import (rules_backends, rules_bench,  # noqa: F401 (side effect)
                   rules_executor, rules_hygiene, rules_streams)
    return dict(sorted(_REGISTRY.items()))


def iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    seen: Set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if not p.exists():
            raise StaticAnalysisError(f"no such file or directory: {p}")
        if p.is_dir():
            found = sorted(q for q in p.rglob("*.py")
                           if "egg-info" not in q.parts)
        elif p.suffix == ".py":
            found = [p]
        else:
            raise StaticAnalysisError(f"not a Python file: {p}")
        for q in found:
            r = q.resolve()
            if r not in seen:
                seen.add(r)
                yield q


def analyze_paths(paths: Sequence[Path],
                  select: Optional[Iterable[str]] = None,
                  ignore: Optional[Iterable[str]] = None,
                  root: Optional[Path] = None) -> List[AnalysisFinding]:
    """Run the (selected) checkers over ``paths``, one file at a time.

    Returns every unsuppressed finding, ordered by file, line, rule.
    Baseline filtering is the caller's concern (see
    :mod:`repro.analysis.baseline`).
    """
    registry = all_rules()
    wanted = _resolve_rules(registry, select, ignore)
    # The stale-suppression rule judges what every *other* rule left
    # unused, so it must see their suppression hits first.
    wanted.sort(key=lambda r: r == "RS113")
    findings: List[AnalysisFinding] = []
    for path in iter_python_files(paths):
        ctx = ModuleContext(path, path.read_bytes().decode("utf-8"),
                            root=root)
        ctx.rules_run = set(wanted)
        for rule in wanted:
            findings.extend(registry[rule](ctx).run())
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.col))
    return findings


def _resolve_rules(registry: Dict[str, Type[BaseChecker]],
                   select: Optional[Iterable[str]],
                   ignore: Optional[Iterable[str]]) -> List[str]:
    chosen = ([r.upper() for r in select] if select
              else list(registry))
    unknown = [r for r in chosen if r not in registry]
    if ignore:
        bad = [r.upper() for r in ignore if r.upper() not in registry]
        unknown.extend(bad)
        chosen = [r for r in chosen
                  if r not in {i.upper() for i in ignore}]
    if unknown:
        raise StaticAnalysisError(
            f"unknown rule(s): {', '.join(sorted(set(unknown)))}; "
            f"known: {', '.join(registry)}")
    return chosen
