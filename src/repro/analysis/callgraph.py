"""Project-wide symbol table, import graph and call graph.

This is the *structural* half of the cross-module dataflow pass (the
semantic half — the residency lattice and abstract interpretation —
lives in :mod:`repro.analysis.dataflow`).  Given the set of files under
analysis it builds, per module:

- the dotted module name (derived by walking up ``__init__.py``
  packages from the file, so ``src/repro/core/sampling.py`` becomes
  ``repro.core.sampling`` regardless of the invocation directory);
- the import table (``import numpy as np`` / ``from ..backends import
  hostmath`` / ``from .device import GPUExecutor``), with relative
  imports resolved against the module's package;
- every function and method definition (:class:`FunctionInfo`), with
  decorator metadata (``allow_untimed_math``, ``residency``) decoded;
- every class with its base-class expressions, so ``self.method(...)``
  resolves through single-inheritance chains that may cross modules.

Resolution is deliberately *name-based and conservative*: a call that
cannot be resolved to a definition inside the analyzed set produces no
edge (and therefore no finding downstream).  An attribute call
``obj.meth(...)`` on a receiver of unknown class resolves to *all*
methods of that name in the project and downstream consumers join over
the candidates, which keeps the analysis sound-for-findings (a finding
is only emitted on a *definite* fact) at the cost of completeness.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .annotations import ALLOW_UNTIMED_MATH, RESIDENCY

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "SymbolTable",
    "module_name_for",
    "call_name",
]


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, walking up ``__init__.py`` roots.

    A file outside any package keeps its bare stem, which is exactly
    what fixture tests want (a flat tmpdir of ``mod_a.py`` /
    ``mod_b.py`` importing each other by stem).
    """
    path = path.resolve()
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        parent = parent.parent
    if parts[0] == "__init__":
        parts = parts[1:] or [path.parent.name]
    return ".".join(reversed(parts))


def call_name(node: ast.expr) -> str:
    """Dotted source text of a call target (``a.b.c`` or ``""``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _decorator_call(node: ast.expr) -> Tuple[str, Optional[ast.Call]]:
    if isinstance(node, ast.Call):
        name = call_name(node.func)
        return name.rsplit(".", 1)[-1], node
    name = call_name(node)
    return name.rsplit(".", 1)[-1], None


def _residency_decl(dec: Optional[ast.Call]) -> Dict[str, str]:
    """Decode ``@residency(returns=..., params={...})`` keywords."""
    decl: Dict[str, str] = {}
    if dec is None:
        return decl
    for kw in dec.keywords:
        if kw.arg == "returns" and isinstance(kw.value, ast.Constant) \
                and isinstance(kw.value.value, str):
            decl["return"] = kw.value.value
        elif kw.arg == "params" and isinstance(kw.value, ast.Dict):
            for k, v in zip(kw.value.keys, kw.value.values):
                if (isinstance(k, ast.Constant) and isinstance(k.value, str)
                        and isinstance(v, ast.Constant)
                        and isinstance(v.value, str)):
                    decl[k.value] = v.value
    return decl


class FunctionInfo:
    """One function or method definition plus decoded decorators."""

    __slots__ = ("name", "qualname", "module", "node", "params",
                 "class_name", "untimed", "residency", "lineno", "owner")

    def __init__(self, node: ast.AST, module: str,
                 class_name: Optional[str] = None):
        self.node = node
        self.module = module
        self.class_name = class_name
        self.name = node.name
        self.qualname = (f"{class_name}.{node.name}" if class_name
                         else node.name)
        self.lineno = node.lineno
        args = node.args
        self.params: List[str] = (
            [a.arg for a in getattr(args, "posonlyargs", [])]
            + [a.arg for a in args.args])
        self.untimed = False
        self.residency: Dict[str, str] = {}
        for dec in node.decorator_list:
            name, dec_call = _decorator_call(dec)
            if name == ALLOW_UNTIMED_MATH:
                self.untimed = True
            elif name == RESIDENCY:
                self.residency = _residency_decl(dec_call)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    def param_index(self, name: str) -> Optional[int]:
        try:
            return self.params.index(name)
        except ValueError:
            return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionInfo {self.module}:{self.qualname}>"


class ClassInfo:
    """One class definition: bases (as dotted names) and methods."""

    __slots__ = ("name", "module", "bases", "methods", "lineno",
                 "owner")

    def __init__(self, node: ast.ClassDef, module: str):
        self.name = node.name
        self.module = module
        self.lineno = node.lineno
        self.bases = [call_name(b) for b in node.bases if call_name(b)]
        self.methods: Dict[str, FunctionInfo] = {}


class _ModuleScanner(ast.NodeVisitor):
    def __init__(self, info: "ModuleInfo"):
        self.info = info
        self._class_stack: List[ClassInfo] = []
        self._func_depth = 0

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.info.imports[alias.asname or alias.name.split(".")[0]] = \
                alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self.info.resolve_from(node)
        for alias in node.names:
            if alias.name == "*":
                continue
            target = f"{base}.{alias.name}" if base else alias.name
            self.info.from_imports[alias.asname or alias.name] = target

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._func_depth or self._class_stack:
            return  # nested classes are out of model
        cls = ClassInfo(node, self.info.name)
        self.info.classes[cls.name] = cls
        self._class_stack.append(cls)
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()

    def _function(self, node) -> None:
        if self._func_depth:
            return  # nested defs are analyzed as part of their parent
        if self._class_stack:
            cls = self._class_stack[-1]
            fn = FunctionInfo(node, self.info.name, cls.name)
            cls.methods[fn.name] = fn
        else:
            fn = FunctionInfo(node, self.info.name)
            self.info.functions[fn.name] = fn
        self.info.all_functions.append(fn)
        self._func_depth += 1
        for child in node.body:
            self.visit(child)
        self._func_depth -= 1

    visit_FunctionDef = _function
    visit_AsyncFunctionDef = _function

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._func_depth and not self._class_stack:
            self.info.module_assigns.append(node)
        self.generic_visit(node)


class ModuleInfo:
    """Everything the project pass needs to know about one file."""

    def __init__(self, path: Path, relpath: str, tree: ast.Module):
        self.path = path
        self.relpath = relpath
        self.tree = tree
        self.name = module_name_for(path)
        #: ``import X [as Y]`` → alias -> full dotted module.
        self.imports: Dict[str, str] = {}
        #: ``from M import X [as Y]`` → local name -> dotted target.
        self.from_imports: Dict[str, str] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.all_functions: List[FunctionInfo] = []
        self.module_assigns: List[ast.Assign] = []
        _ModuleScanner(self).visit(tree)
        # Back-references survive dotted-name collisions between loose
        # files (resolution by name prefers first-registered, but every
        # definition still knows its own module).
        for fn in self.all_functions:
            fn.owner = self
        for cls in self.classes.values():
            cls.owner = self

    def resolve_from(self, node: ast.ImportFrom) -> str:
        """Absolute dotted base of a ``from ... import`` statement."""
        if not node.level:
            return node.module or ""
        pkg_parts = self.name.split(".")[:-1]
        drop = node.level - 1
        if drop:
            pkg_parts = pkg_parts[:-drop] if drop <= len(pkg_parts) else []
        base = ".".join(pkg_parts)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base

    def imported_module(self, dotted: str) -> Optional[str]:
        """Resolve the module a dotted call prefix refers to, if any.

        ``hostmath.norm`` resolves through ``from ..backends import
        hostmath``; ``repro.backends.hostmath.norm`` matches a plain
        ``import``.  Returns the absolute module name or ``None``.
        """
        head = dotted.split(".", 1)[0]
        if head in self.imports:
            return self.imports[head] + dotted[len(head):]
        if head in self.from_imports:
            return self.from_imports[head] + dotted[len(head):]
        return None


class SymbolTable:
    """The project: modules by name, plus cross-module resolution."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        #: Every analyzed module, in input order (colliding dotted
        #: names — e.g. two loose fixture files with the same stem —
        #: are all analyzed; only name-based *resolution* prefers the
        #: first one registered).
        self.all_modules: List[ModuleInfo] = list(modules)
        self.modules: Dict[str, ModuleInfo] = {}
        for m in modules:
            self.modules.setdefault(m.name, m)
        self.by_relpath: Dict[str, ModuleInfo] = {
            m.relpath: m for m in modules}
        #: method name -> every FunctionInfo of that name on any class.
        self._methods_by_name: Dict[str, List[FunctionInfo]] = {}
        for m in modules:
            for cls in m.classes.values():
                for fn in cls.methods.values():
                    self._methods_by_name.setdefault(fn.name, []).append(fn)

    # -- import graph ----------------------------------------------------
    def module_deps(self, mod: ModuleInfo) -> Set[str]:
        """Names of analyzed modules ``mod`` imports (direct edges)."""
        deps: Set[str] = set()
        for target in list(mod.imports.values()) \
                + list(mod.from_imports.values()):
            # `from pkg.mod import name` records pkg.mod.name; strip
            # trailing attribute components until an analyzed module (or
            # package __init__) matches.
            parts = target.split(".")
            for cut in range(len(parts), 0, -1):
                cand = ".".join(parts[:cut])
                if cand in self.modules and cand != mod.name:
                    deps.add(cand)
                    break
        return deps

    def import_graph(self) -> Dict[str, Set[str]]:
        return {name: self.module_deps(m)
                for name, m in self.modules.items()}

    # -- callable resolution ---------------------------------------------
    def resolve_function(self, mod: ModuleInfo,
                         dotted: str) -> Optional[FunctionInfo]:
        """Resolve a plain or module-qualified function call by name."""
        if "." not in dotted:
            if dotted in mod.functions:
                return mod.functions[dotted]
            target = mod.from_imports.get(dotted)
            if target and "." in target:
                owner, leaf = target.rsplit(".", 1)
                owner_mod = self.modules.get(owner)
                if owner_mod:
                    return owner_mod.functions.get(leaf)
            return None
        prefix, leaf = dotted.rsplit(".", 1)
        target = mod.imported_module(prefix)
        if target is None and prefix in self.modules:
            target = prefix
        if target and target in self.modules:
            return self.modules[target].functions.get(leaf)
        return None

    def resolve_class(self, mod: ModuleInfo,
                      dotted: str) -> Optional[ClassInfo]:
        """Resolve a class reference (plain name or imported)."""
        if "." not in dotted:
            if dotted in mod.classes:
                return mod.classes[dotted]
            target = mod.from_imports.get(dotted)
            if target and "." in target:
                owner, leaf = target.rsplit(".", 1)
                owner_mod = self.modules.get(owner)
                if owner_mod:
                    return owner_mod.classes.get(leaf)
            return None
        prefix, leaf = dotted.rsplit(".", 1)
        target = mod.imported_module(prefix)
        if target and target in self.modules:
            return self.modules[target].classes.get(leaf)
        return None

    def resolve_method(self, mod: ModuleInfo, cls: ClassInfo,
                       name: str) -> Optional[FunctionInfo]:
        """Look ``name`` up on ``cls`` and then its base chain."""
        seen: Set[Tuple[str, str]] = set()
        queue: List[Tuple[ModuleInfo, ClassInfo]] = [(mod, cls)]
        while queue:
            owner_mod, owner = queue.pop(0)
            if (owner.module, owner.name) in seen:
                continue
            seen.add((owner.module, owner.name))
            if name in owner.methods:
                return owner.methods[name]
            for base in owner.bases:
                base_cls = self.resolve_class(owner_mod, base)
                if base_cls is not None:
                    queue.append((base_cls.owner, base_cls))
        return None

    def methods_named(self, name: str) -> List[FunctionInfo]:
        """Every method of this name anywhere in the project."""
        return self._methods_by_name.get(name, [])
