"""Per-module semantic facts and the conservative project call graph.

The project analyzer (``project.py``) parses every module once and asks
this module two questions about each:

* :func:`module_name_for` — what dotted module does this file define?
  (Derived structurally, by walking up through ``__init__.py`` package
  directories, so the extractor works on the real tree and on fixture
  trees alike.)
* :func:`extract_facts` — a :class:`ModuleFacts` summary: module-scope
  internal imports (for the RA601 layer contract), per-function call
  candidates, module/class-state writes and pool-dispatch sites (for
  the RA501 race detector), and the file's ``# repro: noqa`` map so
  project rules can honour suppressions without re-reading source.

Facts are plain dataclasses (round-tripped by
:func:`~repro.analysis.base.to_plain`/``from_plain``) because the
project cache persists them keyed by content hash; a warm run rebuilds
the call graph from cached facts without re-parsing unchanged files.
Functions come from the module's :class:`~repro.analysis.ir.ModuleIR`
grouping; each function's facts are collected breadth-first over its
whole body (nested defs and lambdas included), which is the order the
dispatch and write records keep.

The call graph is *conservative* in the usual static-analysis sense:
edges exist only where a callee is resolvable by name (module-level
functions, imported symbols — including one level of package
re-exports — ``self.method()`` within a class, and class
instantiation, which edges to ``__init__``).  Calls through arbitrary
objects resolve to nothing and add no edges; the race detector
documents that blind spot rather than guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Dict, FrozenSet, List, Optional, Sequence, Set,
                    Tuple)

from .base import Violation, name_chain, suppressed_lines
from .parallel import DISPATCH_ALWAYS, DISPATCH_POOLISH, receiver_is_poolish
from .ir import ModuleIR

#: method names that mutate the receiver in place (RA501 here, RA502 in
#: ``locks.py``)
MUTATING_METHODS: FrozenSet[str] = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "appendleft",
    "extendleft",
})


@dataclass(frozen=True)
class ImportFact:
    """One module-scope runtime import of an internal module."""

    target: str     # dotted module, e.g. "repro.core.training"
    lineno: int
    col: int


@dataclass(frozen=True)
class WriteFact:
    """One write to module- or class-level state inside a function."""

    target: str     # e.g. "_WORKER" or "Config.registry"
    kind: str       # "global-assign" | "mutation" | "class-attr"
    lineno: int
    col: int


@dataclass(frozen=True)
class DispatchFact:
    """One pool-dispatch site: the callable candidate it ships."""

    callee: str     # dotted candidate, resolved like a call
    how: str        # human description, e.g. ".submit(...)"
    lineno: int
    col: int


@dataclass
class FunctionFacts:
    """What one top-level function (or method) does, summarised."""

    qualname: str                       # "f", "C.m", or "<module>"
    calls: Tuple[str, ...] = ()         # dotted callee candidates
    writes: Tuple[WriteFact, ...] = ()
    dispatches: Tuple[DispatchFact, ...] = ()


@dataclass
class ModuleFacts:
    """Everything the project rules need to know about one module."""

    module: str                         # dotted name ("repro.core.service")
    display_path: str
    internal_imports: Tuple[ImportFact, ...] = ()
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)
    #: top-level name -> "function" | "class"
    defs: Dict[str, str] = field(default_factory=dict)
    #: imported symbol -> dotted origin, for re-export following
    symbol_imports: Dict[str, str] = field(default_factory=dict)
    #: lineno -> suppressed codes (None = bare noqa, all codes)
    suppressed: Dict[int, Optional[FrozenSet[str]]] = field(
        default_factory=dict)

    def is_suppressed(self, lineno: int, code: str) -> bool:
        """Does the noqa map silence ``code`` on ``lineno``?"""
        codes = self.suppressed.get(lineno, frozenset())
        return codes is None or code in codes

    def violation(self, at: Any, code: str, message: str) -> Violation:
        """A ``code`` finding in this module at ``at.lineno``/``at.col``
        (a site, fact, or anything else carrying a source position)."""
        return Violation(path=self.display_path, line=at.lineno,
                         col=at.col, code=code, message=message)


# -- module naming ------------------------------------------------------------

def module_name_for(path: Path) -> str:
    """Dotted module name for a file, derived from the package tree.

    Walks up while the parent directory is a package (has
    ``__init__.py``); a file outside any package is just its stem.
    """
    path = path.resolve()
    parts: List[str] = []
    if path.name != "__init__.py":
        parts.append(path.stem)
    cursor = path.parent
    while (cursor / "__init__.py").exists():
        parts.append(cursor.name)
        parent = cursor.parent
        if parent == cursor:
            break
        cursor = parent
    return ".".join(reversed(parts)) or path.stem


def _package_parts(module: str, is_init: bool) -> List[str]:
    """The package path relative imports resolve against."""
    parts = module.split(".")
    return parts if is_init else parts[:-1]


# -- extraction ---------------------------------------------------------------

class _Extractor:
    """Single pass over one module's AST producing :class:`ModuleFacts`."""

    def __init__(self, module: str, is_init: bool,
                 internal_roots: FrozenSet[str]):
        self.module = module
        self.package = _package_parts(module, is_init)
        self.internal_roots = internal_roots
        #: local name -> dotted target it was bound to by an import
        self.import_bindings: Dict[str, str] = {}
        self.symbol_imports: Dict[str, str] = {}
        self.internal_imports: List[ImportFact] = []
        self.defs: Dict[str, str] = {}
        self.module_level_names: Set[str] = set()

    # -- import resolution -------------------------------------------------

    def _absolute_module(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        anchor = self.package[:len(self.package) - (node.level - 1)]
        if not anchor and node.level > 1:
            return None  # relative import escaping the package tree
        if node.module:
            return ".".join(anchor + node.module.split("."))
        return ".".join(anchor) or None

    def _note_import(self, node: ast.stmt, target: str,
                     module_scope: bool) -> None:
        if module_scope and target.split(".")[0] in self.internal_roots:
            self.internal_imports.append(ImportFact(
                target=target, lineno=node.lineno,
                col=node.col_offset + 1))

    def _collect_import(self, node: ast.stmt, module_scope: bool) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                bound = alias.name if alias.asname else local
                self.import_bindings[local] = bound
                self._note_import(node, alias.name, module_scope)
                if module_scope:
                    self.module_level_names.add(local)
        elif isinstance(node, ast.ImportFrom):
            module = self._absolute_module(node)
            if module is None:
                return
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                dotted = f"{module}.{alias.name}"
                self.import_bindings[local] = dotted
                self.symbol_imports[local] = dotted
                # "from repro import core" imports the submodule itself
                self._note_import(
                    node,
                    dotted if module.split(".")[0] in self.internal_roots
                    else module,
                    module_scope)
                if module_scope:
                    self.module_level_names.add(local)

    # -- name/call resolution ----------------------------------------------

    def _dotted_for(self, node: ast.expr) -> Optional[str]:
        """Fully-dotted candidate for a Name/Attribute expression."""
        chain = name_chain(node)
        if chain is None:
            return None
        base = self.import_bindings.get(chain[0])
        if base is not None:
            return ".".join([base] + chain[1:])
        if chain[0] in self.defs:
            return ".".join([self.module] + chain)
        return None

    def _callee_candidate(self, node: ast.expr,
                          owner_class: Optional[str]) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self._dotted_for(node)
        if isinstance(node, ast.Attribute):
            if (owner_class is not None
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")):
                return f"{self.module}.{owner_class}.{node.attr}"
            return self._dotted_for(node)
        return None

    # -- per-function walk ---------------------------------------------------

    @staticmethod
    def _binding_names(target: ast.expr, into: Set[str]) -> None:
        """Names a store target actually *binds* locally.

        ``x = ...`` and ``a, b = ...`` bind; ``x[k] = ...`` and
        ``x.attr = ...`` mutate an existing object and bind nothing.
        """
        if isinstance(target, ast.Name):
            into.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                _Extractor._binding_names(element, into)
        elif isinstance(target, ast.Starred):
            _Extractor._binding_names(target.value, into)

    def _local_bindings(self, fn: ast.AST) -> Tuple[Set[str], Set[str]]:
        """(names local to the function, names declared ``global``)."""
        local: Set[str] = set()
        declared_global: Set[str] = set()
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = fn.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [a for a in (args.vararg, args.kwarg) if a]):
                local.add(arg.arg)
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)) and node is not fn:
                local.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                                   ast.For, ast.AsyncFor, ast.withitem,
                                   ast.NamedExpr)):
                targets: List[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    targets = [node.target]
                elif isinstance(node, ast.withitem):
                    if node.optional_vars is not None:
                        targets = [node.optional_vars]
                elif isinstance(node, ast.NamedExpr):
                    targets = [node.target]
                for target in targets:
                    self._binding_names(target, local)
            elif isinstance(node, ast.comprehension):
                self._binding_names(node.target, local)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                local.add(node.name)
        return local - declared_global, declared_global

    def _is_module_state(self, name: str, local: Set[str]) -> bool:
        return name not in local and name in self.module_level_names

    def _class_target(self, node: ast.expr,
                      owner_class: Optional[str]) -> Optional[str]:
        """``C.attr = ...`` / ``cls.attr = ...`` write target, if any."""
        if not isinstance(node, ast.Attribute):
            return None
        base = node.value
        if isinstance(base, ast.Name):
            if base.id == "cls" and owner_class is not None:
                return f"{owner_class}.{node.attr}"
            if self.defs.get(base.id) == "class":
                return f"{base.id}.{node.attr}"
            bound = self.symbol_imports.get(base.id)
            # imported-name class writes resolve only if clearly a class
            # (CapWord convention) — anything else is too speculative
            if bound is not None and base.id[:1].isupper():
                return f"{base.id}.{node.attr}"
        return None

    def _walk_function(self, fn_body: Sequence[ast.stmt], qualname: str,
                       owner_class: Optional[str],
                       local: Set[str],
                       declared_global: Set[str]) -> FunctionFacts:
        calls: List[str] = []
        writes: List[WriteFact] = []
        dispatches: List[DispatchFact] = []

        def record_write(target: str, kind: str, node: ast.AST) -> None:
            writes.append(WriteFact(
                target=target, kind=kind,
                lineno=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1))

        def check_store(target: ast.expr, node: ast.AST) -> None:
            # X = ... / X += ... where X was declared global
            if isinstance(target, ast.Name):
                if target.id in declared_global:
                    record_write(target.id, "global-assign", node)
                return
            # X[...] = ... / X.attr = ... forms
            if isinstance(target, ast.Subscript):
                base = target.value
                if isinstance(base, ast.Name) and self._is_module_state(
                        base.id, local):
                    record_write(base.id, "mutation", node)
                elif isinstance(base, ast.Attribute):
                    dotted = self._dotted_for(base)
                    if dotted is not None:
                        record_write(dotted, "mutation", node)
                return
            if isinstance(target, ast.Attribute):
                class_attr = self._class_target(target, owner_class)
                if class_attr is not None:
                    record_write(class_attr, "class-attr", node)
                    return
                if isinstance(target.value, ast.Name) \
                        and self._is_module_state(target.value.id, local):
                    record_write(f"{target.value.id}.{target.attr}",
                                 "mutation", node)
                elif self._dotted_for(target.value) is not None:
                    dotted = self._dotted_for(target.value)
                    # attribute store on an imported module is a write to
                    # that module's state
                    if dotted in self.import_bindings.values():
                        record_write(f"{dotted}.{target.attr}",
                                     "mutation", node)
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    check_store(element, node)

        def check_call(node: ast.Call) -> None:
            candidate = self._callee_candidate(node.func, owner_class)
            if candidate is not None:
                calls.append(candidate)
            # mutating method on module-level state: X.append(...) etc.
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATING_METHODS:
                base = node.func.value
                if isinstance(base, ast.Name) and self._is_module_state(
                        base.id, local):
                    writes.append(WriteFact(
                        target=base.id, kind="mutation",
                        lineno=node.lineno, col=node.col_offset + 1))
            # pool dispatches
            if isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                poolish = attr in DISPATCH_POOLISH and receiver_is_poolish(
                    node.func.value)
                if (attr in DISPATCH_ALWAYS or poolish) and node.args:
                    callee = self._callee_candidate(node.args[0],
                                                    owner_class)
                    if callee is not None:
                        dispatches.append(DispatchFact(
                            callee=callee, how=f".{attr}(...)",
                            lineno=node.lineno, col=node.col_offset + 1))
            for keyword in node.keywords:
                if keyword.arg == "initializer":
                    callee = self._callee_candidate(keyword.value,
                                                    owner_class)
                    if callee is not None:
                        dispatches.append(DispatchFact(
                            callee=callee, how="as `initializer=`",
                            lineno=node.lineno, col=node.col_offset + 1))

        for stmt in fn_body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        check_store(target, node)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    check_store(node.target, node)
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        check_store(target, node)
                elif isinstance(node, ast.Call):
                    check_call(node)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    # lazy imports extend resolution but are not layer
                    # edges (deliberate cycle-breaks happen in functions)
                    self._collect_import(node, module_scope=False)
        return FunctionFacts(qualname=qualname, calls=tuple(calls),
                             writes=tuple(writes),
                             dispatches=tuple(dispatches))

    # -- the module walk -----------------------------------------------------

    def extract(self, ir: ModuleIR, source: str,
                display_path: str) -> ModuleFacts:
        # module-scope bindings (imports, defs, assignments) first, so
        # function walks can classify names
        self.defs = dict(ir.defs)
        self.module_level_names.update(ir.defs)
        for node, module_scope in ir.scope_imports:
            self._collect_import(node, module_scope=module_scope)
        for stmt in ir.module_body:
            for target in ast.walk(stmt):
                if isinstance(target, ast.Name) and isinstance(
                        target.ctx, ast.Store):
                    self.module_level_names.add(target.id)

        functions: Dict[str, FunctionFacts] = {}
        for fn in ir.functions:
            assert fn.node is not None
            local, declared_global = self._local_bindings(fn.node)
            functions[fn.qualname] = self._walk_function(
                fn.body, fn.qualname, fn.owner_class, local,
                declared_global)
        # module-level statements form a pseudo-function so top-level
        # dispatch sites (scripts, examples) still seed reachability
        functions["<module>"] = self._walk_function(
            ir.module_body, "<module>", None, set(), set())

        return ModuleFacts(
            module=self.module,
            display_path=display_path,
            internal_imports=tuple(self.internal_imports),
            functions=functions,
            defs=self.defs,
            symbol_imports=self.symbol_imports,
            suppressed=suppressed_lines(source),
        )


def extract_facts(tree: ast.Module, source: str, path: Path,
                  display_path: str, internal_roots: FrozenSet[str],
                  ir: Optional[ModuleIR] = None) -> ModuleFacts:
    """Extract :class:`ModuleFacts` from one parsed module.

    ``ir`` is the module's :class:`ModuleIR` when the caller already
    built one (project mode does); otherwise it is built here.
    """
    module = module_name_for(path)
    extractor = _Extractor(module, path.name == "__init__.py",
                           internal_roots)
    return extractor.extract(ir if ir is not None else ModuleIR(tree),
                             source, display_path)


# -- the linked project graph -------------------------------------------------

#: a resolved function node: (module dotted name, qualname)
FunctionKey = Tuple[str, str]


class ProjectGraph:
    """All modules' facts linked into a resolvable call graph."""

    def __init__(self, modules: Dict[str, ModuleFacts]):
        self.modules = modules

    @classmethod
    def link(cls, facts: List[ModuleFacts]) -> "ProjectGraph":
        return cls({f.module: f for f in facts})

    def function(self, key: FunctionKey) -> Optional[FunctionFacts]:
        module = self.modules.get(key[0])
        if module is None:
            return None
        return module.functions.get(key[1])

    def resolve_callable(self, dotted: str,
                         _depth: int = 0) -> Optional[FunctionKey]:
        """Map a dotted candidate to a known function, conservatively.

        Handles plain functions, methods, classes (→ ``__init__``), and
        one chain of package re-exports (``from repro.core import
        TipsyService`` where ``repro.core.__init__`` re-imports it).
        """
        if _depth > 8:
            return None
        found = self.locate(dotted)
        if found is None:
            return None
        module, rest = found
        name = ".".join(rest)
        if name in module.functions:
            return (module.module, name)
        head = rest[0]
        if module.defs.get(head) == "class":
            init = f"{head}.__init__"
            if len(rest) == 1 and init in module.functions:
                return (module.module, init)
            if len(rest) == 2:
                target = f"{head}.{rest[1]}"
                if target in module.functions:
                    return (module.module, target)
            return None
        if head in module.symbol_imports:
            chained = ".".join([module.symbol_imports[head]] + rest[1:])
            return self.resolve_callable(chained, _depth + 1)
        return None

    def locate(self, dotted: str) -> Optional[Tuple[ModuleFacts, List[str]]]:
        """The longest known module prefix of ``dotted``, and the rest."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = self.modules.get(".".join(parts[:cut]))
            if module is not None:
                return module, parts[cut:]
        return None

    def dispatch_roots(self) -> List[Tuple[FunctionKey, ModuleFacts,
                                           DispatchFact]]:
        """Every resolvable pool-dispatched callable, with its site."""
        roots: List[Tuple[FunctionKey, ModuleFacts, DispatchFact]] = []
        for module in sorted(self.modules.values(),
                             key=lambda m: m.display_path):
            for fn in sorted(module.functions.values(),
                             key=lambda f: f.qualname):
                for dispatch in fn.dispatches:
                    key = self.resolve_callable(dispatch.callee)
                    if key is not None:
                        roots.append((key, module, dispatch))
        return roots

    def reachable_from(self, roots: List[FunctionKey]
                       ) -> Dict[FunctionKey, FunctionKey]:
        """BFS closure over call edges: node -> the root it came from."""
        origin: Dict[FunctionKey, FunctionKey] = {}
        queue: List[FunctionKey] = []
        for root in roots:
            if root not in origin:
                origin[root] = root
                queue.append(root)
        while queue:
            key = queue.pop(0)
            fn = self.function(key)
            if fn is None:
                continue
            for candidate in fn.calls:
                callee = self.resolve_callable(candidate)
                if callee is not None and callee not in origin:
                    origin[callee] = origin[key]
                    queue.append(callee)
        return origin
