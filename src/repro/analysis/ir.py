"""The per-module site IR that every project-mode rule wave reads.

``repro lint --project`` parses each file once and builds one
:class:`ModuleIR` from the tree:

* the file's :class:`~repro.analysis.base.ImportMap`, collected once
  and shared with the per-file checkers (RA0xx–RA4xx);
* its functions, grouped once: top-level defs, class methods, and a
  ``<module>`` pseudo-function for module-level statements, skipping
  ``if TYPE_CHECKING:`` blocks (the rules the call graph keys on);
* one statement-ordered walk, :meth:`ModuleIR.walk_sites`, over every
  function body.  The walk feeds each :class:`SiteBuilder` the same
  events — calls (with resolved dotted names), assignments and their
  bound targets, loop iteration sources, with-block entries (with the
  lock identity of lock-like context managers) and exits, returns, and
  nested-scope boundaries — so the RA7xx determinism, RA801–803/805
  lifecycle and RA804 durability site builders never walk the AST on
  their own.

A new rule wave plugs in as one more :class:`SiteBuilder` subclass:
override the hooks it needs, name the expression roles it ignores in
``skip_roles``, and add it to the builder list in ``project.py``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (Any, Dict, FrozenSet, List, Optional, Sequence, Tuple,
                    Union)

from .base import ImportMap

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: expression nodes the site builders react to; everything else in an
#: expression is structure they look through
_EXPR_EVENTS = (ast.Call, ast.ListComp, ast.GeneratorExp, ast.DictComp,
                ast.Subscript, ast.Yield, ast.YieldFrom)


# -- small shared AST helpers -------------------------------------------------

def is_type_checking(test: ast.expr) -> bool:
    """``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:``."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def snippet(node: ast.expr, limit: int = 40) -> str:
    """Short source rendering of an expression for messages."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        text = "<expr>"
    return text if len(text) <= limit else text[:limit - 3] + "..."


def is_lock_name(name: str) -> bool:
    return "lock" in name.lower()


def lock_identity(expr: ast.expr, owner_class: Optional[str]) -> Optional[str]:
    """Stable identity for a lock-like ``with`` context expression.

    ``self._lock`` inside class ``C`` becomes ``C._lock`` so every
    method of the class (and every instance) maps to one node in the
    order graph; subscripts are stripped (``self._locks[i]`` and
    ``self._locks[j]`` are the same *level* in a lock hierarchy, and
    same-identity edges are ignored rather than reported).  Returns
    None for non-lock expressions.
    """
    node: ast.expr = expr.func if isinstance(expr, ast.Call) else expr
    while isinstance(node, ast.Subscript):
        node = node.value
    parts: List[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
        while isinstance(cursor, ast.Subscript):
            cursor = cursor.value
    parts.reverse()
    if not isinstance(cursor, ast.Name):
        return None
    if cursor.id in ("self", "cls"):
        if not parts or not is_lock_name(parts[0]):
            return None
        return f"{owner_class or 'self'}.{parts[0]}"
    chain = [cursor.id] + parts
    for index, part in enumerate(chain):
        if is_lock_name(part):
            return ".".join(chain[:index + 1])
    return None


# -- the module IR ------------------------------------------------------------

@dataclass
class FunctionIR:
    """One function as the rule waves see it.

    ``node`` is None for the ``<module>`` pseudo-function, whose
    ``body`` is the module-level statements.
    """

    qualname: str                       # "f", "C.m", or "<module>"
    owner_class: Optional[str]
    node: Optional[_FunctionNode]
    body: Sequence[ast.stmt]


class SiteBuilder:
    """Receives :meth:`ModuleIR.walk_sites` events; every hook is a no-op.

    ``expr`` gets the call, comprehension, subscript and yield nodes of
    one expression in ``ast.walk`` order; ``assign``/``returned`` come
    after the value's ``expr`` event, ``loop`` after the iterable's and
    before the body, ``with_item``/``with_bound`` around each with-item's
    context expression (``lock`` is its lock identity, if lock-like).
    Some expressions carry a role, and a builder ignores the roles in
    ``skip_roles``: ``"target"`` (a non-name assignment target),
    ``"aug-target"`` (a non-name augmented assignment target),
    ``"annotation"`` (of a bare ``x: T``) and ``"lock"`` (a lock-like
    with-item's context expression).

    Per-scope state lives in attributes that :meth:`fresh` sets: each
    function starts fresh, and so does each nested def or nested-class
    method body (it runs later), with the enclosing state restored
    afterwards.  Sites attribute to the enclosing top-level function,
    ``self.qualname``, so call-graph reachability still covers them.
    """

    skip_roles: FrozenSet[str] = frozenset()

    def __init__(self, ir: "ModuleIR") -> None:
        self.ir = ir
        self.qualname = "<module>"
        self._saved: List[Dict[str, Any]] = []
        self.fresh()

    def fresh(self) -> None:
        """Reset the per-scope state."""

    def begin(self, fn: FunctionIR) -> None:
        self.qualname = fn.qualname
        self.fresh()

    def end(self, fn: FunctionIR) -> None:
        pass

    def push(self) -> None:
        self._saved.append(dict(vars(self)))
        self.fresh()

    def pop(self) -> None:
        vars(self).update(self._saved.pop())

    def expr(self, nodes: Sequence[ast.AST]) -> None:
        pass

    def assign(self, stmt: ast.stmt, targets: Sequence[ast.expr],
               value: ast.expr) -> None:
        pass

    def loop(self, stmt: Union[ast.For, ast.AsyncFor]) -> None:
        pass

    def with_item(self, item: ast.withitem, lock: Optional[str]) -> None:
        pass

    def with_bound(self, item: ast.withitem, lock: Optional[str]) -> None:
        pass

    def with_exit(self, locks: int) -> None:
        pass

    def returned(self, value: ast.expr) -> None:
        pass


class ModuleIR:
    """One parsed module: its import map, functions, and the site walk."""

    def __init__(self, tree: ast.Module) -> None:
        self.tree = tree
        self.imports = ImportMap().collect(tree)
        self.functions: List[FunctionIR] = []
        #: top-level name -> "function" | "class"
        self.defs: Dict[str, str] = {}
        #: (import statement, is a runtime module-scope import), in
        #: source order; ``TYPE_CHECKING`` imports are not module scope
        self.scope_imports: List[Tuple[ast.stmt, bool]] = []
        #: module-level statements the call graph summarises: flattened
        #: through non-``TYPE_CHECKING`` ifs and through try blocks
        self.module_body: List[ast.stmt] = []
        #: module-level statements the site walk covers: the same, but
        #: a try block stays whole (defs inside it belong to <module>)
        self.site_module_body: List[ast.stmt] = []
        self._dotted: Dict[int, Optional[str]] = {}
        self._builders: Sequence[SiteBuilder] = ()
        self._owner: Optional[str] = None
        self._group(tree.body, in_try=False)
        self.module_fn = FunctionIR("<module>", None, None,
                                    self.site_module_body)

    def _group(self, body: Sequence[ast.stmt], in_try: bool) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self.defs[node.name] = ("class" if isinstance(
                    node, ast.ClassDef) else "function")
                if not in_try:
                    self._add_functions(node)
                continue
            if isinstance(node, ast.If):
                if is_type_checking(node.test):
                    # bindings still resolve names; the imports are
                    # not runtime layer edges
                    self.scope_imports.extend(
                        (sub, False) for sub in ast.walk(node)
                        if isinstance(sub, (ast.Import, ast.ImportFrom)))
                else:
                    self._group(node.body, in_try)
                    self._group(node.orelse, in_try)
                continue
            if not in_try:
                self.site_module_body.append(node)
            if isinstance(node, ast.Try):
                # `try: import x / except ImportError:` fallbacks
                for part in ([node.body] + [h.body for h in node.handlers]
                             + [node.orelse, node.finalbody]):
                    self._group(part, in_try=True)
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self.scope_imports.append((node, True))
            self.module_body.append(node)

    def _add_functions(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.functions.append(FunctionIR(node.name, None, node,
                                             node.body))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    self.functions.append(FunctionIR(
                        f"{node.name}.{item.name}", node.name, item,
                        item.body))

    def dotted(self, node: ast.expr) -> Optional[str]:
        """Memoised :meth:`ImportMap.resolve_attribute` for this tree."""
        key = id(node)
        if key not in self._dotted:
            self._dotted[key] = self.imports.resolve_attribute(node)
        return self._dotted[key]

    # -- the site walk --------------------------------------------------------

    def walk_sites(self, builders: Sequence[SiteBuilder]) -> None:
        """One statement-ordered pass over every function, all builders."""
        self._builders = builders
        for fn in self.functions + [self.module_fn]:
            self._owner = fn.owner_class
            self._emit("begin", fn)
            self._block(fn.body)
            self._emit("end", fn)

    def _emit(self, hook: str, *args: Any) -> None:
        for builder in self._builders:
            getattr(builder, hook)(*args)

    def _expr(self, root: ast.expr, role: Optional[str] = None) -> None:
        nodes = [node for node in ast.walk(root)
                 if isinstance(node, _EXPR_EVENTS)]
        if not nodes:
            return
        for builder in self._builders:
            if role not in builder.skip_roles:
                builder.expr(nodes)

    def _block(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _nested(self, body: Sequence[ast.stmt]) -> None:
        self._emit("push")
        self._block(body)
        self._emit("pop")

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) \
                and stmt.value is not None:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            self._expr(stmt.value)
            self._emit("assign", stmt, targets, stmt.value)
            for target in targets:
                if not isinstance(target, ast.Name):
                    self._expr(target, "target")
        elif isinstance(stmt, ast.AnnAssign):
            if not isinstance(stmt.target, ast.Name):
                self._expr(stmt.target)
            self._expr(stmt.annotation, "annotation")
        elif isinstance(stmt, ast.AugAssign):
            self._expr(stmt.value)
            if not isinstance(stmt.target, ast.Name):
                self._expr(stmt.target, "aug-target")
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr(stmt.value)
                self._emit("returned", stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter)
            self._emit("loop", stmt)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.While, ast.If)):
            self._expr(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            locks = 0
            for item in stmt.items:
                lock = lock_identity(item.context_expr, self._owner)
                self._emit("with_item", item, lock)
                self._expr(item.context_expr,
                           None if lock is None else "lock")
                self._emit("with_bound", item, lock)
                locks += lock is not None
            self._block(stmt.body)
            self._emit("with_exit", locks)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._nested(stmt.body)
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    self._nested(item.body)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child)
