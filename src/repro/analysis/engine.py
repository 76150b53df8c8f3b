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
import pickle
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Type

from ..errors import StaticAnalysisError
from .annotations import ALLOW_UNTIMED_MATH
from .cache import content_hash, selection_key
from .findings import AnalysisFinding

__all__ = [
    "ModuleContext",
    "BaseChecker",
    "register",
    "all_rules",
    "iter_python_files",
    "analyze_paths",
    "run_analysis",
    "AnalysisStats",
    "AnalysisResult",
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
                   rules_executor, rules_hygiene, rules_residency,
                   rules_streams)
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


class AnalysisStats:
    """Counters the incremental-cache and --jobs tests assert on."""

    def __init__(self) -> None:
        #: Files in the analysis set.
        self.files = 0
        #: ``ast.parse`` calls issued by the driver this run.
        self.parses = 0
        #: Files whose findings replayed from a valid cache entry.
        self.cache_hits = 0
        #: Files whose rules actually (re-)ran.
        self.analyzed = 0

    def as_dict(self) -> Dict[str, int]:
        return {"files": self.files, "parses": self.parses,
                "cache_hits": self.cache_hits, "analyzed": self.analyzed}


class AnalysisResult:
    """Findings plus run statistics (see :func:`run_analysis`)."""

    def __init__(self, findings: List[AnalysisFinding],
                 stats: AnalysisStats):
        self.findings = findings
        self.stats = stats


class _FileRecord:
    """Book-keeping for one file across the run phases."""

    __slots__ = ("path", "abs_path", "source", "hash", "relpath",
                 "entry", "valid", "ctx", "module_info", "findings")

    def __init__(self, path: Path, root: Optional[Path]):
        self.path = path
        self.abs_path = path.resolve()
        data = path.read_bytes()
        self.source = data.decode("utf-8")
        self.hash = content_hash(data)
        self.relpath = ModuleContext._normalize(path, root)
        self.entry = None
        self.valid = False
        self.ctx: Optional[ModuleContext] = None
        self.module_info = None
        self.findings: List[AnalysisFinding] = []


def _needs_project(registry, wanted: List[str]) -> bool:
    return any(getattr(registry[r], "requires_project", False)
               for r in wanted)


def _raw_to_tuples(raws) -> List[tuple]:
    return [(r.rule, r.relpath, r.line, r.col, r.message, r.context)
            for r in raws]


def _tuples_to_raw(tuples: Sequence[tuple]):
    from .dataflow import RawFinding
    return [RawFinding(*t) for t in tuples]


def _run_rules_on_ctx(ctx: ModuleContext, wanted: List[str],
                      registry) -> List[AnalysisFinding]:
    ctx.rules_run = set(wanted)
    findings: List[AnalysisFinding] = []
    for rule in wanted:
        findings.extend(registry[rule](ctx).run())
    return findings


def _analyze_file_worker(payload) -> List[AnalysisFinding]:
    """Multiprocessing worker: per-file rules for one file.

    The cross-module pass already ran in the parent (its raw findings
    ride along in the payload); workers only re-parse their own file
    and run the per-file checkers, so ordering and output are
    byte-identical to a sequential run after the final global sort.
    """
    (path_str, source, root_str, wanted, raw_tuples) = payload
    registry = all_rules()
    ctx = ModuleContext(Path(path_str), source,
                        root=Path(root_str) if root_str else None)
    ctx.project_findings = _tuples_to_raw(raw_tuples)
    return _run_rules_on_ctx(ctx, wanted, registry)


def run_analysis(paths: Sequence[Path],
                 select: Optional[Iterable[str]] = None,
                 ignore: Optional[Iterable[str]] = None,
                 root: Optional[Path] = None,
                 jobs: int = 1,
                 cache=None) -> AnalysisResult:
    """Run the (selected) checkers over ``paths``.

    The full pipeline: discover files, consult the incremental cache
    (``cache`` is an :class:`repro.analysis.cache.AnalysisCache` or
    ``None``), build the project-wide symbol table and dataflow pass
    when any RS115-RS119 rule is selected, run per-file rules (fanned
    out over ``jobs`` processes when > 1), and store fresh cache
    entries.  Findings are ordered by file, line, rule regardless of
    cache state or job count.  Baseline filtering is the caller's
    concern (see :mod:`repro.analysis.baseline`).
    """
    registry = all_rules()
    wanted = _resolve_rules(registry, select, ignore)
    # The stale-suppression rule judges what every *other* rule left
    # unused, so it must see their suppression hits first.
    wanted.sort(key=lambda r: r == "RS113")
    stats = AnalysisStats()

    records = [_FileRecord(p, root) for p in iter_python_files(paths)]
    stats.files = len(records)
    needs_project = _needs_project(registry, wanted)

    # -- cache validity --------------------------------------------------
    hash_by_relpath = {rec.relpath: rec.hash for rec in records}
    sel_key = None
    if cache is not None:
        sel_key = selection_key(wanted, hash_by_relpath)
        for rec in records:
            rec.entry = cache.load(rec.abs_path)
            rec.valid = (
                rec.entry is not None
                and rec.entry.get("hash") == rec.hash
                and rec.entry.get("relpath") == rec.relpath
                and rec.entry.get("sel_key") == sel_key
                and all(hash_by_relpath.get(rp) == h
                        for rp, h in rec.entry.get("deps", {}).items()))
            if rec.valid:
                cache.hits += 1
            else:
                cache.misses += 1
    stats.cache_hits = sum(1 for rec in records if rec.valid)
    to_analyze = [rec for rec in records if not rec.valid]
    stats.analyzed = len(to_analyze)

    # -- project pass (RS115-RS119 residency) -----------------------------
    table = None
    raw_by_file: Dict[str, List] = {}
    if needs_project and to_analyze:
        from .callgraph import ModuleInfo, SymbolTable
        infos = []
        for rec in records:
            if rec.valid and rec.entry.get("module_blob"):
                try:
                    rec.module_info = pickle.loads(
                        rec.entry["module_blob"])
                except Exception:
                    rec.module_info = None
            if rec.module_info is None:
                rec.ctx = ModuleContext(rec.path, rec.source, root=root)
                stats.parses += 1
                rec.module_info = ModuleInfo(rec.path, rec.relpath,
                                             rec.ctx.tree)
            infos.append(rec.module_info)
        table = SymbolTable(infos)
        from .dataflow import ProjectAnalysis
        for raw in ProjectAnalysis(table).run().findings:
            raw_by_file.setdefault(raw.relpath, []).append(raw)

    # -- per-file rules ---------------------------------------------------
    if jobs and jobs > 1 and len(to_analyze) > 1:
        import multiprocessing
        payloads = [(str(rec.path), rec.source,
                     str(root) if root else None, list(wanted),
                     _raw_to_tuples(raw_by_file.get(rec.relpath, [])))
                    for rec in to_analyze]
        with multiprocessing.Pool(processes=jobs) as pool:
            results = pool.map(_analyze_file_worker, payloads)
        for rec, found in zip(to_analyze, results):
            rec.findings = found
    else:
        for rec in to_analyze:
            if rec.ctx is None:
                rec.ctx = ModuleContext(rec.path, rec.source, root=root)
                stats.parses += 1
            rec.ctx.project_findings = raw_by_file.get(rec.relpath, [])
            rec.findings = _run_rules_on_ctx(rec.ctx, wanted, registry)

    # -- cache store ------------------------------------------------------
    if cache is not None:
        dep_closure = _dep_closures(table) if table is not None else {}
        for rec in to_analyze:
            deps = {}
            for dep_relpath in dep_closure.get(rec.relpath, ()):
                if dep_relpath in hash_by_relpath \
                        and dep_relpath != rec.relpath:
                    deps[dep_relpath] = hash_by_relpath[dep_relpath]
            blob = None
            if rec.module_info is not None:
                try:
                    blob = pickle.dumps(
                        rec.module_info,
                        protocol=pickle.HIGHEST_PROTOCOL)
                except Exception:
                    blob = None
            cache.store(rec.abs_path, {
                "hash": rec.hash,
                "relpath": rec.relpath,
                "sel_key": sel_key,
                "deps": deps,
                "findings": rec.findings,
                "module_blob": blob,
            })

    findings: List[AnalysisFinding] = []
    for rec in records:
        if rec.valid:
            findings.extend(rec.entry.get("findings", []))
        else:
            findings.extend(rec.findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.col))
    return AnalysisResult(findings, stats)


def _dep_closures(table) -> Dict[str, Set[str]]:
    """relpath -> transitive import-closure relpaths (analyzed files)."""
    graph = table.import_graph()
    relpath_of = {name: m.relpath for name, m in table.modules.items()}
    # Iterative fixpoint: handles import cycles and always
    # over-approximates (an oversized closure only means an extra
    # re-analysis, never a stale cache hit).
    closures: Dict[str, Set[str]] = {
        name: set(deps) for name, deps in graph.items()}
    changed = True
    while changed:
        changed = False
        for name, deps in closures.items():
            extra: Set[str] = set()
            for dep in deps:
                extra |= closures.get(dep, set())
            if not extra <= deps:
                deps |= extra
                changed = True

    result: Dict[str, Set[str]] = {}
    for mod in table.all_modules:
        names = closures.get(mod.name, set())
        result[mod.relpath] = {relpath_of[n] for n in names
                               if n in relpath_of}
    return result


def analyze_paths(paths: Sequence[Path],
                  select: Optional[Iterable[str]] = None,
                  ignore: Optional[Iterable[str]] = None,
                  root: Optional[Path] = None,
                  jobs: int = 1,
                  cache=None) -> List[AnalysisFinding]:
    """Back-compat wrapper around :func:`run_analysis`.

    Returns every unsuppressed finding, ordered by file, line, rule.
    """
    return run_analysis(paths, select=select, ignore=ignore, root=root,
                        jobs=jobs, cache=cache).findings


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
