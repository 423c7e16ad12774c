"""Hot-path hygiene rules (RA201, RA301), checked by :mod:`.checkers`.

RA201 — every hourly quantity in the hot packages (``pipeline/``,
``core/``, ``traffic/`` by default) must be a pure function of
``(scenario seed, hour)``; a ``time.time()`` or ``datetime.now()``
there breaks bit-identical replay.  Timing instrumentation belongs in
``perf/`` and the CLI.  The dataflow rules (:mod:`.dataflow`) reuse the
same wall-clock table.

RA301 — ``def f(x, acc=[])`` evaluates the default once at import and
shares it across calls (and workers).
"""

from __future__ import annotations

import ast
from typing import AbstractSet, FrozenSet, List, Tuple

#: dotted call paths that read the wall clock
WALL_CLOCK: FrozenSet[str] = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: constructor names whose call as a default produces a fresh-but-shared
#: mutable object
_MUTABLE_FACTORIES: FrozenSet[str] = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque",
    "OrderedDict", "Counter",
})


def wall_clock_message(dotted: str, hot_packages: AbstractSet[str]) -> str:
    """The RA201 message for a wall-clock read on the hot path."""
    packages = ", ".join(sorted(hot_packages))
    return (f"`{dotted}` reads the wall clock inside a "
            f"determinism-critical package ({packages}); hot-path "
            f"output must be a pure function of (seed, hour) — "
            f"move timing instrumentation to perf/ or the CLI")


def _is_mutable(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        return name in _MUTABLE_FACTORIES
    return False


def mutable_defaults(node: ast.arguments, owner: str
                     ) -> List[Tuple[ast.expr, str]]:
    """Each mutable default of ``owner``'s arguments with its RA301
    message."""
    positional = node.posonlyargs + node.args
    defaults = node.defaults
    pairs = list(zip(positional[len(positional) - len(defaults):],
                     defaults))
    pairs += [(arg, default) for arg, default
              in zip(node.kwonlyargs, node.kw_defaults)
              if default is not None]
    return [(default,
             f"mutable default for `{arg.arg}` in `{owner}` is "
             f"shared across calls; default to None and create "
             f"the object in the body")
            for arg, default in pairs if _is_mutable(default)]
