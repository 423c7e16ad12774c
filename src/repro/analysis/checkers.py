"""The per-file rules (RA001–RA401), checked in one visit of each module.

Each rule family keeps its tables and messages in its own module —
:mod:`.rng` (RA001–RA003), :mod:`.parallel` (RA101, RA102),
:mod:`.hygiene` (RA201, RA301) and :mod:`.docstrings` (RA401) — and
:class:`FileChecker` walks the tree once, asking each family about the
nodes it cares about.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from .base import ModuleContext, Violation
from .docstrings import missing_docstring
from .hygiene import WALL_CLOCK, mutable_defaults, wall_clock_message
from .parallel import dispatched_callables, unpicklable_finding
from .rng import rng_finding


class FileChecker(ast.NodeVisitor):
    """One visit of a module reporting every per-file rule."""

    def __init__(self, context: ModuleContext) -> None:
        self.context = context
        assert context.imports is not None  # set by ModuleContext
        self.imports = context.imports
        self.violations: List[Violation] = []
        # names of functions defined *inside* the current function-scope
        # stack — dispatching one of these is RA102
        self._local_funcs: List[Set[str]] = []
        # local names bound to lambda expressions, same scoping
        self._local_lambdas: List[Set[str]] = []

    def report(self, node: ast.AST, code: str, message: str) -> None:
        self.violations.append(Violation(
            path=self.context.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        ))

    def _report_finding(self, node: ast.AST,
                        finding: Optional[Tuple[str, str]]) -> None:
        if finding is not None:
            self.report(node, *finding)

    def run(self) -> List[Violation]:
        message = missing_docstring(self.context.path, self.context.tree)
        if message is not None:
            # ast.Module has no lineno; report() anchors it at 1:1,
            # which is exactly where the docstring belongs.
            self.report(self.context.tree, "RA401", message)
        self.visit(self.context.tree)
        return self.violations

    # -- scopes (RA102) and defaults (RA301) ---------------------------------

    def _check_args(self, node: ast.arguments, owner: str) -> None:
        for default, message in mutable_defaults(node, owner):
            self.report(default, "RA301", message)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
                        ) -> None:
        self._check_args(node.args, node.name)
        if self._local_funcs:
            self._local_funcs[-1].add(node.name)
        self._local_funcs.append(set())
        self._local_lambdas.append(set())
        self.generic_visit(node)
        self._local_funcs.pop()
        self._local_lambdas.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_args(node.args, "<lambda>")
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._local_lambdas and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._local_lambdas[-1].add(target.id)
        self.generic_visit(node)

    # -- calls (RA001-RA003, RA101, RA102, RA201) ----------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.imports.resolve_attribute(node.func)
        if dotted is not None:
            self._report_finding(node, rng_finding(node, dotted))
            if dotted in WALL_CLOCK and self.context.is_hot_path:
                self.report(node, "RA201", wall_clock_message(
                    dotted, self.context.hot_packages))
        for arg, how in dispatched_callables(node, dotted, self.imports):
            self._report_finding(arg, unpicklable_finding(
                arg, how, self._local_lambdas, self._local_funcs))
        self.generic_visit(node)
