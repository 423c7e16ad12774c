"""Shared plumbing for the repo-specific static checkers.

The per-file checker (``checkers.py``) visits one parsed module and
reports :class:`Violation` records.  The engine (``engine.py``) feeds it
a :class:`ModuleContext` describing the file under analysis — its path,
source lines, import map, and whether it lives on a
determinism-critical hot path — and afterwards filters out violations
the author suppressed with an inline ``# repro: noqa[RAxxx]`` marker.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import hashlib
import re
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, FrozenSet, List, Optional,
                    Sequence, Tuple)

#: linter version, part of the cache fingerprint: bump on any release
#: that changes what the analyzer reports without touching rule text
LINT_VERSION = "3.0.0"

#: registry of rule code -> (symbolic name, one-line description).
#: ``docs/static-analysis.md`` documents each in depth.
RULES: Dict[str, Tuple[str, str]] = {
    "RA000": ("parse-error",
              "file could not be parsed; nothing else was checked"),
    "RA001": ("global-random-call",
              "call to a global `random` module function (unseeded, "
              "process-wide RNG state)"),
    "RA002": ("numpy-global-random",
              "call to the legacy `numpy.random` global API (shared, "
              "unseeded generator state)"),
    "RA003": ("unseeded-rng",
              "RNG constructed without an explicit seed expression"),
    "RA101": ("pool-lambda",
              "lambda handed across a process-pool boundary (not "
              "picklable)"),
    "RA102": ("pool-closure",
              "locally-defined function handed across a process-pool "
              "boundary (not picklable)"),
    "RA201": ("wall-clock-hot-path",
              "wall-clock read inside a determinism-critical package"),
    "RA301": ("mutable-default-arg",
              "mutable default argument value shared across calls"),
    "RA401": ("missing-module-docstring",
              "public module does not open with a docstring"),
    "RA501": ("shared-state-race",
              "module- or class-level state written by a function "
              "reachable from a process-pool dispatch"),
    "RA502": ("lock-discipline",
              "lock-guarded attribute read or written outside a "
              "`with self._lock:` block"),
    "RA601": ("layer-contract",
              "module-scope import crosses the architecture layer map "
              "([tool.repro.layers]) upward"),
    "RA700": ("determinism-config",
              "a [tool.repro.determinism] contract entry point does not "
              "resolve to a known function, class, or module"),
    "RA701": ("unordered-iteration",
              "iteration over an unordered collection feeds accumulation "
              "or emitted output on a determinism-contract path"),
    "RA702": ("unordered-float-sum",
              "order-sensitive float accumulation over an unordered "
              "collection on a determinism-contract path"),
    "RA703": ("dtype-instability",
              "numpy array built without a platform-stable pinned dtype "
              "on a determinism-contract path"),
    "RA704": ("ambient-nondeterminism",
              "ambient input (wall clock, environment, unseeded RNG, "
              "object identity) read on a determinism-contract path"),
    "RA800": ("durability-config",
              "a [tool.repro.durability] pattern cannot match, or a "
              "file is governed by a different durability table than "
              "the one this run resolved"),
    "RA801": ("lock-order-deadlock",
              "two locks are acquired in opposite orders on different "
              "paths (cycle in the acquired-while-holding graph)"),
    "RA802": ("blocking-under-lock",
              "unbounded blocking call (join/recv/get/wait/sleep/file "
              "IO) executed while a lock is held"),
    "RA803": ("thread-lifecycle",
              "Thread/Process started but never reaped, or a bare "
              "join() without timeout= on a shutdown path"),
    "RA804": ("durability-protocol",
              "tracked durable artifact written without the "
              "tmp+fsync+rename protocol, or committed after its "
              "manifest"),
    "RA805": ("unclosed-resource",
              "open/NamedTemporaryFile/Pipe result never closed and "
              "never handed off (report-only)"),
}

#: rules that need whole-program context: they only run under
#: ``repro lint --project`` (see ``project.py``)
PROJECT_RULES: FrozenSet[str] = frozenset({
    "RA501", "RA502", "RA601",
    "RA700", "RA701", "RA702", "RA703", "RA704",
    "RA800", "RA801", "RA802", "RA803", "RA804", "RA805",
})

#: RA7xx rules with an autofix: ``repro lint --fix`` can rewrite these
FIXABLE_RULES: FrozenSet[str] = frozenset({"RA701", "RA702", "RA703"})


def ruleset_fingerprint() -> str:
    """Content hash of the rule set and the analyzer's own source.

    Folded into the project cache key so that adding a rule, editing a
    checker, or bumping :data:`LINT_VERSION` invalidates every warm
    entry — a stale cache must never serve a clean verdict computed by
    an older rule set.
    """
    digest = hashlib.sha256()
    digest.update(LINT_VERSION.encode("utf-8"))
    for code, (name, description) in sorted(RULES.items()):
        digest.update(f"{code}\x00{name}\x00{description}\x00"
                      .encode("utf-8"))
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        digest.update(path.name.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()

#: package directories whose hourly code must be a pure function of
#: (seed, hour) — wall-clock reads are banned inside them (RA201).
DEFAULT_HOT_PACKAGES: FrozenSet[str] = frozenset(
    {"pipeline", "core", "traffic"})

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_,\s]*)\])?")


@dataclass(frozen=True, order=True)
class Violation:
    """One rule firing at a specific source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def rule_name(self) -> str:
        return RULES.get(self.code, ("unknown", ""))[0]

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.code} [{self.rule_name}] {self.message}")

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "rule": self.rule_name,
            "message": self.message,
        }


@dataclass
class ModuleContext:
    """Everything a checker needs to know about the file under analysis."""

    path: Path
    source: str
    tree: ast.Module
    hot_packages: FrozenSet[str] = DEFAULT_HOT_PACKAGES
    display_path: str = ""
    #: the module's import map; project mode passes the one its
    #: :class:`~repro.analysis.ir.ModuleIR` built, so each file's
    #: imports are collected once
    imports: Optional["ImportMap"] = None

    def __post_init__(self) -> None:
        if not self.display_path:
            self.display_path = str(self.path)
        if self.imports is None:
            self.imports = ImportMap().collect(self.tree)

    @property
    def is_hot_path(self) -> bool:
        """True when the file lives under a determinism-critical package."""
        return bool(self.hot_packages.intersection(self.path.parts))


@dataclass
class ImportMap:
    """Resolves local names to the modules / symbols they were bound to.

    Tracks ``import x.y as z`` and ``from x import y as z`` forms so the
    RNG checkers can recognise ``numpy.random`` and ``random`` access
    regardless of aliasing (``import numpy.random as npr``,
    ``from numpy.random import default_rng as rng_of`` …).
    """

    #: local name -> dotted module path ("np" -> "numpy")
    modules: Dict[str, str] = field(default_factory=dict)
    #: local name -> (source module, original symbol name)
    symbols: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    def collect(self, tree: ast.Module) -> "ImportMap":
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # un-aliased "import numpy.random" binds "numpy"
                    target = alias.name if alias.asname else local
                    self.modules[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports never hit stdlib/numpy
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.symbols[local] = (node.module, alias.name)
        return self

    def resolve_attribute(self, node: ast.expr) -> Optional[str]:
        """Dotted path for an expression like ``np.random.rand``.

        Returns e.g. ``"numpy.random.rand"`` or None when the base name
        is not a tracked import.
        """
        chain = name_chain(node)
        if chain is None:
            return None
        if chain[0] in self.modules:
            prefix = self.modules[chain[0]]
        elif chain[0] in self.symbols:
            module, original = self.symbols[chain[0]]
            prefix = f"{module}.{original}"
        else:
            return None
        return ".".join([prefix] + chain[1:])


def name_chain(node: ast.expr) -> Optional[List[str]]:
    """``["np", "random", "rand"]`` for ``np.random.rand``; None unless
    the expression is a name followed by attribute accesses."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return parts[::-1]


# -- the cache codec ----------------------------------------------------------
#
# Everything project mode caches per file (facts, sites, findings) is a
# dataclass of plain fields, so one pair of functions round-trips all of
# it through JSON, driven by the field annotations.

def to_plain(value: Any) -> Any:
    """A dataclass tree as JSON-ready lists, dicts and scalars."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [to_plain(item) for item in value]
    if isinstance(value, frozenset):
        return sorted(to_plain(item) for item in value)
    if isinstance(value, dict):
        return {str(key): to_plain(item) for key, item in value.items()}
    return value


def from_plain(kind: Any, raw: Any) -> Any:
    """Inverse of :func:`to_plain` for a value annotated as ``kind``.

    Malformed input raises ``KeyError``/``TypeError``/``ValueError``,
    which the project cache treats as a miss.
    """
    return _decoder(kind)(raw)


@functools.lru_cache(maxsize=None)
def _decoder(kind: Any) -> Callable[[Any], Any]:
    """A decoding function for ``kind``, built once per type (the warm
    lint path decodes every cached entry through these)."""
    if dataclasses.is_dataclass(kind):
        module = vars(sys.modules[kind.__module__])
        hints = typing.get_type_hints(kind, module)
        fields = [(f.name, _decoder(hints[f.name]))
                  for f in dataclasses.fields(kind) if f.init]
        return lambda raw: kind(**{name: decode(raw[name])
                                   for name, decode in fields})
    origin = typing.get_origin(kind)
    variadic = Ellipsis in typing.get_args(kind)
    args = [_decoder(arg) for arg in typing.get_args(kind)
            if arg is not type(None) and arg is not Ellipsis]
    if origin is typing.Union:  # Optional[X]
        return lambda raw: None if raw is None else args[0](raw)
    if origin in (list, frozenset) or (origin is tuple and variadic):
        build = typing.cast(Callable[[Any], Any], origin)
        return lambda raw: build(args[0](item) for item in raw)
    if origin is tuple:  # fixed length

        def fixed(raw: Any) -> Any:
            if len(raw) != len(args):
                raise ValueError(f"expected {len(args)} items: {raw!r}")
            return tuple(decode(item) for decode, item in zip(args, raw))
        return fixed
    if origin is dict:
        return lambda raw: {args[0](key): args[1](item)
                            for key, item in raw.items()}
    if kind in (int, str, bool):

        def scalar(raw: Any) -> Any:
            if not isinstance(raw, (int, str, bool)):
                raise TypeError(f"expected {kind.__name__}: {raw!r}")
            return kind(raw)
        return scalar
    raise TypeError(f"no codec for {kind!r}")


def suppressed_lines(source: str) -> Dict[int, Optional[FrozenSet[str]]]:
    """Map line numbers to the rule codes suppressed on that line.

    A bare ``# repro: noqa`` suppresses every rule (value ``None``);
    ``# repro: noqa[RA001, RA301]`` suppresses only the listed codes.
    """
    out: Dict[int, Optional[FrozenSet[str]]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(text)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(
                c.strip().upper() for c in codes.split(",") if c.strip())
    return out


def apply_suppressions(source: str,
                       violations: Sequence[Violation]) -> List[Violation]:
    """Drop violations whose line carries a matching noqa marker."""
    markers = suppressed_lines(source)
    kept: List[Violation] = []
    for violation in violations:
        codes = markers.get(violation.line, frozenset())
        if codes is None:  # bare noqa: everything on the line
            continue
        if violation.code in codes:
            continue
        kept.append(violation)
    return kept
