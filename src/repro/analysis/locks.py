"""RA502: lock discipline for classes that guard state with a lock.

``repro.obs`` promises thread safety by funnelling every mutation of a
registry/tracer through ``with self._lock:``.  That promise decays the
moment one method reads a guarded field bare — a torn read is silent
until a pathological interleaving hits production.  This checker makes
the convention mechanical:

* A class *opts in* simply by owning a lock attribute: any ``self.X``
  where ``"lock"`` appears in ``X`` (``_lock``, ``_span_lock`` …).
* The *guarded set* is every ``self.Y`` **written** inside a
  ``with self.<lock>:`` block anywhere in the class (plain stores,
  subscript stores, and in-place mutating calls like ``.append``),
  excluding ``__init__`` (construction happens-before sharing).
* A violation is any read or write of a guarded attribute outside such
  a block, in any method of the class.

Two sanctioned escapes, both documented in ``docs/static-analysis.md``:

* ``__init__`` is exempt (the object is not yet shared), and
* methods whose name ends in ``_locked`` are exempt — the repo-wide
  convention for helpers that require the caller to hold the lock.

The analysis tracks ``self.<attr>`` accesses only; aliasing a guarded
field through a local is invisible to it (conservative by design —
aliasing a guarded field is itself the bug).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .base import Violation
from .callgraph import MUTATING_METHODS, ModuleFacts
from .ir import is_lock_name


def _self_attr(node: ast.expr) -> str:
    """``"Y"`` for a ``self.Y`` expression, else ``""``."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return ""


@dataclass
class _Access:
    attr: str
    lineno: int
    col: int
    is_write: bool
    under_lock: bool
    method: str


@dataclass
class _ClassFacts:
    name: str
    lock_attrs: Set[str] = field(default_factory=set)
    accesses: List[_Access] = field(default_factory=list)


class _MethodWalker(ast.NodeVisitor):
    """Collects self-attribute accesses in one method, lock-aware."""

    def __init__(self, facts: _ClassFacts, method: str):
        self.facts = facts
        self.method = method
        self.lock_depth = 0

    def _record(self, attr: str, node: ast.AST, is_write: bool) -> None:
        if is_lock_name(attr):
            self.facts.lock_attrs.add(attr)
            return  # touching the lock itself is never a violation
        self.facts.accesses.append(_Access(
            attr=attr,
            lineno=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            is_write=is_write,
            under_lock=self.lock_depth > 0,
            method=self.method,
        ))

    # -- lock scopes --------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: ast.AST) -> None:
        items = getattr(node, "items", [])
        locks = 0
        for item in items:
            expr = item.context_expr
            # `with self._lock:` or `with self._lock.acquire_timeout():`
            attr = _self_attr(expr)
            if not attr and isinstance(expr, ast.Call):
                attr = _self_attr(expr.func)
                if attr and "." in attr:
                    attr = attr.split(".")[0]
            if attr and is_lock_name(attr):
                self.facts.lock_attrs.add(attr)
                locks += 1
            else:
                self.visit(expr)
        self.lock_depth += locks
        for stmt in getattr(node, "body", []):
            self.visit(stmt)
        self.lock_depth -= locks

    # -- accesses -----------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node)
        if attr:
            self._record(attr, node,
                         is_write=isinstance(node.ctx,
                                             (ast.Store, ast.Del)))
            return  # `self` beneath needs no visit
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # `self.X[k] = v` / `del self.X[k]` / `self.X[k] += v` mutate X
        # even though the Attribute node itself carries a Load context
        attr = _self_attr(node.value)
        if attr and isinstance(node.ctx, (ast.Store, ast.Del)):
            self._record(attr, node, is_write=True)
            self.visit(node.slice)
            return
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # self.X.append(...) mutates X in place: count it as a write
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATING_METHODS:
            attr = _self_attr(node.func.value)
            if attr:
                self._record(attr, node, is_write=True)
                for arg in node.args:
                    self.visit(arg)
                for kw in node.keywords:
                    self.visit(kw.value)
                return
        self.generic_visit(node)

    # nested defs run later, possibly on other threads; their accesses
    # are NOT covered by an enclosing with-block, so walk them with the
    # lock depth reset
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_nested(node)

    def _visit_nested(self, node: ast.AST) -> None:
        saved = self.lock_depth
        self.lock_depth = 0
        for stmt in getattr(node, "body", []):
            self.visit(stmt)
        self.lock_depth = saved


def _collect_class(node: ast.ClassDef) -> _ClassFacts:
    facts = _ClassFacts(name=node.name)
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            walker = _MethodWalker(facts, item.name)
            for stmt in item.body:
                walker.visit(stmt)
    return facts


@dataclass(frozen=True)
class LockFinding:
    """One off-lock access of a guarded attribute (pre-suppression).

    Findings are plain data because the project cache stores them next
    to the module facts — a warm run renders RA502 without
    re-parsing the file.
    """

    attr: str
    lineno: int
    col: int
    is_write: bool
    method: str
    class_name: str
    guard_method: str       # a method that guards the attr (for context)


def find_lock_findings(tree: ast.Module) -> List[LockFinding]:
    """All RA502 findings in one module (suppressions not applied)."""
    findings: List[LockFinding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        facts = _collect_class(node)
        if not facts.lock_attrs:
            continue
        # guarded set: attrs written under lock outside __init__
        guard_site: Dict[str, str] = {}
        for access in facts.accesses:
            if (access.is_write and access.under_lock
                    and access.method != "__init__"
                    and access.attr not in guard_site):
                guard_site[access.attr] = access.method
        if not guard_site:
            continue
        for access in facts.accesses:
            if access.attr not in guard_site or access.under_lock:
                continue
            if access.method == "__init__":
                continue  # happens-before: not yet shared
            if access.method.endswith("_locked"):
                continue  # caller-holds-lock convention
            findings.append(LockFinding(
                attr=access.attr,
                lineno=access.lineno,
                col=access.col,
                is_write=access.is_write,
                method=access.method,
                class_name=facts.name,
                guard_method=guard_site[access.attr],
            ))
    return findings


def violations_from_findings(findings: List[LockFinding],
                             facts: ModuleFacts) -> List[Violation]:
    """Render one module's findings to violations, honouring noqa."""
    violations: List[Violation] = []
    for finding in findings:
        if facts.is_suppressed(finding.lineno, "RA502"):
            continue
        action = "written" if finding.is_write else "read"
        violations.append(facts.violation(
            finding, "RA502",
            f"`self.{finding.attr}` is {action} in "
            f"`{finding.class_name}.{finding.method}` outside "
            f"`with self.<lock>:` but is lock-guarded in "
            f"`{finding.class_name}.{finding.guard_method}`; "
            "take the lock, or suffix the method `_locked` if "
            "callers must hold it"))
    return violations


#: explicit export list keeps the package surface deliberate
__all__: Tuple[str, ...] = ("LockFinding", "find_lock_findings",
                            "violations_from_findings")
