"""Pool-boundary rules (RA101, RA102), checked by :mod:`.checkers`.

Everything handed to a process pool crosses a pickle boundary; a
``lambda`` (RA101) or a function defined inside another function
(RA102) fails there at runtime, and only on the parallel path.
``submit``/``apply``/``apply_async``/``imap*``/``starmap*``/
``map_async`` are always checked; bare ``.map(...)`` only when the
receiver's name mentions ``pool`` or ``executor``; pool constructors'
``initializer=`` too.  The call graph (:mod:`.callgraph`) uses the same
dispatch tables to find pool entry points.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from .base import ImportMap

#: attribute calls always treated as a pool dispatch
DISPATCH_ALWAYS: FrozenSet[str] = frozenset({
    "submit", "apply", "apply_async", "imap", "imap_unordered",
    "starmap", "starmap_async", "map_async",
})

#: attribute calls treated as a dispatch only for pool-ish receivers
DISPATCH_POOLISH: FrozenSet[str] = frozenset({"map"})

#: constructors whose ``initializer=`` kwarg also crosses the boundary
_POOL_CONSTRUCTORS: FrozenSet[str] = frozenset({
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
})


def receiver_is_poolish(node: ast.expr) -> bool:
    """True when a receiver's name suggests an executor or pool."""
    name: Optional[str] = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Call):
        return receiver_is_poolish(node.func)
    if name is None:
        return False
    lowered = name.lower()
    return "pool" in lowered or "executor" in lowered


def dispatched_callables(call: ast.Call, dotted: Optional[str],
                         imports: ImportMap
                         ) -> List[Tuple[ast.expr, str]]:
    """The callables ``call`` hands across a pool boundary, each with
    how it is handed over."""
    out: List[Tuple[ast.expr, str]] = []
    # pool.submit(fn, ...) / pool.imap(fn, ...) / executor.map(fn, ...)
    if isinstance(call.func, ast.Attribute):
        attr = call.func.attr
        is_dispatch = attr in DISPATCH_ALWAYS or (
            attr in DISPATCH_POOLISH
            and receiver_is_poolish(call.func.value))
        if is_dispatch and call.args:
            out.append((call.args[0], f"passed to `.{attr}(...)`"))
    # ProcessPoolExecutor(initializer=...) / Pool(initializer=...)
    if dotted is None and isinstance(call.func, ast.Name):
        resolved = imports.symbols.get(call.func.id)
        if resolved is not None:
            dotted = f"{resolved[0]}.{resolved[1]}"
    if dotted in _POOL_CONSTRUCTORS:
        for keyword in call.keywords:
            if keyword.arg == "initializer":
                out.append((keyword.value, "passed as `initializer=`"))
    return out


def unpicklable_finding(node: ast.expr, how: str,
                        local_lambdas: Sequence[Set[str]],
                        local_funcs: Sequence[Set[str]]
                        ) -> Optional[Tuple[str, str]]:
    """The ``(code, message)`` RA101/RA102 report for a dispatched
    callable, given the enclosing scopes' local lambdas and functions."""
    if isinstance(node, ast.Lambda):
        return ("RA101",
                f"lambda {how} cannot be pickled into a worker process; "
                f"define a module-level function instead")
    if isinstance(node, ast.Name):
        if any(node.id in scope for scope in local_lambdas):
            return ("RA101",
                    f"`{node.id}` is bound to a lambda and {how}; "
                    f"lambdas cannot be pickled into a worker process")
        if any(node.id in scope for scope in local_funcs):
            return ("RA102",
                    f"`{node.id}` is defined inside a function and {how}; "
                    f"closures cannot be pickled — lift it to module "
                    f"level")
    return None
