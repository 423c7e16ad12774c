"""Interprocedural determinism & numeric-safety dataflow (RA700-RA704).

The repo's load-bearing claims are *bit-identical equivalences*:
parallel aggregation equals serial, incremental retrain equals strict
rebuild, snapshot/restore equals an uninterrupted service.  Each holds
only while every function on the contract path is free of order- and
platform-dependence.  This module makes those paths explicit and
checkable:

1. a ``[tool.repro.determinism]`` table in ``pyproject.toml`` names
   each contract's *entry points* (functions, ``Class.method`` pairs,
   classes, or whole modules/packages)::

       [tool.repro.determinism]
       exempt = ["repro.obs"]          # instrumentation, not results
       [tool.repro.determinism.contracts]
       parallel-pipeline = ["repro.perf.parallel._aggregate_shard"]
       snapshot-restore  = ["repro.store"]

2. :class:`DetBuilder` reads each module's site walk
   (:mod:`repro.analysis.ir`) once (cacheable, plain data) for
   *sites* — expressions whose value or visible effect can
   depend on iteration order, float summation order, platform dtype
   defaults, or ambient process state;

3. :func:`check_determinism` resolves the entry points against the
   conservative call graph (``callgraph.ProjectGraph``), computes the
   reachable closure, and reports only the sites inside it.  A site in
   a function no contract reaches is silent: nondeterminism is allowed
   anywhere it cannot leak into an equivalence guarantee.

The rules:

* **RA701** iteration over an unordered collection (``set``, ``dict``
  views of sets, ``os.listdir``/``glob``/``Path.iterdir`` results)
  feeding accumulation or emitted output — fix: ``sorted(...)``;
* **RA702** order-sensitive float accumulation (``sum()`` or a ``+=``
  loop) over an unordered collection — fix:
  :func:`repro.util.exactsum.exact_total` (order-independent,
  correctly rounded) or sorted iteration.  Integer sums are exact and
  hence order-free, so provably-integer literals are skipped; the
  autofix applies only to a bare single-argument ``sum(...)`` (a
  ``start`` argument is reported but left alone) and always yields a
  ``float`` — the remedy text calls that out for int inputs;
* **RA703** numpy arrays built without a platform-stable dtype
  (``dtype=int`` is the C ``long``: 64-bit on Linux, 32-bit on
  Windows) — fix: pin ``int64``/``float64`` explicitly;
* **RA704** ambient process state (wall clock, ``os.environ``,
  ``uuid``, global RNG, ``id()``-keyed lookups) — report-only, the
  value must be threaded in explicitly.

Sites are conservative and carry their own autofix recipe where one is
safe (see ``fixer.py``); everything honours ``# repro: noqa[RAxxx]``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import (Dict, FrozenSet, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from .base import Violation
from .callgraph import FunctionKey, ProjectGraph
from .hygiene import WALL_CLOCK
from .config import find_table, read_table
from .ir import ModuleIR, SiteBuilder, snippet


class DeterminismConfigError(ValueError):
    """The ``[tool.repro.determinism]`` table is malformed."""


@dataclass(frozen=True)
class DeterminismConfig:
    """Validated contract table: contract name -> entry-point paths."""

    contracts: Mapping[str, Tuple[str, ...]]
    exempt: Tuple[str, ...] = ()
    source: str = "<memory>"

    def is_exempt(self, module: str) -> bool:
        """True when ``module`` sits under an exempt prefix."""
        return any(module == prefix or module.startswith(prefix + ".")
                   for prefix in self.exempt)


def _config_from_mapping(raw: Mapping[str, object],
                         source: str) -> DeterminismConfig:
    contracts: Dict[str, Tuple[str, ...]] = {}
    exempt: Tuple[str, ...] = ()

    def entry_list(name: str, value: object) -> Tuple[str, ...]:
        if not isinstance(value, (list, tuple)) or not all(
                isinstance(item, str) for item in value):
            raise DeterminismConfigError(
                f"{source}: [tool.repro.determinism] key {name!r} must "
                "map to a list of dotted paths")
        return tuple(value)

    for key, value in raw.items():
        if key == "exempt":
            exempt = entry_list(key, value)
        elif key == "contracts":
            if not isinstance(value, dict):
                raise DeterminismConfigError(
                    f"{source}: [tool.repro.determinism.contracts] must "
                    "be a table of contract-name = [entry, ...] pairs")
            for name, entries in value.items():
                contracts[str(name)] = entry_list(str(name), entries)
        else:
            # `name = [...]` directly under the table is sugar for a
            # contract, so small configs need only one section
            contracts[key] = entry_list(key, value)
    return DeterminismConfig(contracts=contracts, exempt=exempt,
                             source=source)


def read_determinism_table(pyproject: Path) -> Optional[DeterminismConfig]:
    """Load ``[tool.repro.determinism]`` from a pyproject file.

    Returns None when the file has no such table; raises
    :class:`DeterminismConfigError` when it exists but is invalid.
    """
    return read_table(pyproject, "determinism", _config_from_mapping,
                      DeterminismConfigError)


def find_determinism_config(start: Path) -> Optional[DeterminismConfig]:
    """Walk up from ``start`` to the nearest determinism table."""
    return find_table(start, "determinism", _config_from_mapping,
                      DeterminismConfigError)


# -- sites --------------------------------------------------------------------

#: sort key for scandir-derived iterables: ``os.DirEntry`` defines no
#: ``<``, so a bare ``sorted(...)`` over one raises TypeError
_SCANDIR_SORT_KEY = "key=lambda e: e.name"


@dataclass(frozen=True)
class DetSite:
    """One potential determinism hazard inside one function.

    Sites are extracted per file with no knowledge of the contract
    table, so they cache alongside :class:`ModuleFacts`; whether a site
    is *reported* depends on reachability, decided at link time.
    """

    function: str        # qualname within the module ("f", "C.m", "<module>")
    code: str            # RA701..RA704
    lineno: int
    col: int             # 1-based, like Violation
    detail: str          # message fragment describing the hazard
    #: autofix recipe applied by ``fixer.py``: "wrap-sorted" (insert
    #: sorted( ... ) around the span; a payload becomes an extra sorted()
    #: argument), "exact-total" (replace the span, the `sum` name, with
    #: exact_total), "dtype-replace" (replace the span, a dtype value,
    #: with the payload) or "dtype-add" (insert the payload at the span)
    fix_kind: Optional[str] = None
    #: (lineno, col_offset, end_lineno, end_col_offset) — AST positions,
    #: 0-based columns; the region the fix edits (zero-width for inserts)
    span: Optional[Tuple[int, int, int, int]] = None
    payload: str = ""


# -- extraction ---------------------------------------------------------------

#: calls that return filesystem listings in arbitrary order
_UNORDERED_PRODUCERS: FrozenSet[str] = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})

#: attribute calls returning unordered listings regardless of receiver
#: (Path.iterdir/glob/rglob yield in os.scandir order, i.e. arbitrary)
_UNORDERED_METHODS: FrozenSet[str] = frozenset({
    "iterdir", "glob", "rglob", "scandir", "listdir",
})

#: set methods returning another unordered set
_SET_RETURNING_METHODS: FrozenSet[str] = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
    "copy",
})

#: builtins whose result does not depend on argument order (ties in
#: min/max are a documented blind spot)
_ORDER_FREE_CONSUMERS: FrozenSet[str] = frozenset({
    "min", "max", "len", "any", "all", "set", "frozenset", "sorted",
})

#: numpy constructors whose dtype handling RA703 audits
_NUMPY_CTORS: FrozenSet[str] = frozenset({
    "array", "asarray", "ascontiguousarray", "zeros", "ones", "empty",
    "full", "arange",
})

#: dtype spellings that mean "the platform C long" (RA703, fixable)
_PLATFORM_INT_DTYPES: FrozenSet[str] = frozenset({
    "numpy.int_", "numpy.intp", "numpy.intc", "numpy.long",
})

#: ambient-state calls (RA704, report-only): dotted names -> detail
_AMBIENT: Tuple[Tuple[FrozenSet[str], str], ...] = (
    (WALL_CLOCK, "wall-clock read `{}(...)` makes output depend on "
                  "when the run happened"),
    (frozenset({"os.getenv", "os.environ.get"}),
     "`{}(...)` reads ambient process environment"),
    (frozenset({"uuid.uuid1", "uuid.uuid4"}),
     "`{}()` draws from OS entropy/clock"),
    (frozenset({
        "random.random", "random.randint", "random.randrange",
        "random.choice", "random.choices", "random.shuffle",
        "random.sample", "random.uniform", "random.gauss",
        "random.getrandbits",
        "numpy.random.rand", "numpy.random.randn", "numpy.random.randint",
        "numpy.random.random"}),
     "`{}(...)` draws from process-global RNG state"),
)

_COMPREHENSIONS = (ast.ListComp, ast.GeneratorExp, ast.DictComp)


def _span_of(node: ast.expr) -> Optional[Tuple[int, int, int, int]]:
    end_lineno = getattr(node, "end_lineno", None)
    end_col = getattr(node, "end_col_offset", None)
    if end_lineno is None or end_col is None:  # pragma: no cover
        return None
    return (node.lineno, node.col_offset, end_lineno, end_col)


def _int_only_set_literal(node: ast.expr) -> bool:
    """``{1, 2, 3}``: integer summation is exact, hence order-free.

    The one case where the RA702 detector can *prove* the summands are
    ints — where ``exact_total`` (always float) would change the result
    type — is a set literal of integer constants, so it is skipped.
    """
    return isinstance(node, ast.Set) and bool(node.elts) and all(
        isinstance(elt, ast.Constant) and isinstance(elt.value, int)
        for elt in node.elts)


def _contains_id_call(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"):
            return True
    return False


class DetBuilder(SiteBuilder):
    """Collects :class:`DetSite` records from the module's site walk.

    Tracks which local names are currently bound to unordered values in
    statement order (``xs = set(...)`` then ``xs = sorted(xs)`` clears
    the taint).
    """

    skip_roles = frozenset({"annotation"})

    def __init__(self, ir: ModuleIR) -> None:
        self.sites: List[DetSite] = []
        super().__init__(ir)

    def fresh(self) -> None:
        self.unordered: Set[str] = set()
        #: names currently bound to scandir results (DirEntry streams)
        self.scandir: Set[str] = set()
        #: comprehension nodes already claimed by an order-free consumer
        self.consumed: Set[int] = set()

    # -- recording ----------------------------------------------------------

    def _site(self, node: ast.expr, code: str, detail: str,
              fix_kind: Optional[str] = None,
              span: Optional[Tuple[int, int, int, int]] = None,
              payload: str = "") -> None:
        if fix_kind is not None and span is None:
            fix_kind = None  # no span, no safe edit: report-only
        self.sites.append(DetSite(
            function=self.qualname, code=code,
            lineno=node.lineno, col=node.col_offset + 1,
            detail=detail, fix_kind=fix_kind, span=span,
            payload=payload))

    # -- value-kind inference ------------------------------------------------

    def is_unordered(self, node: ast.expr) -> bool:
        """Conservatively: does this expression yield in arbitrary order?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.unordered
        if isinstance(node, ast.IfExp):
            return (self.is_unordered(node.body)
                    or self.is_unordered(node.orelse))
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return (self.is_unordered(node.left)
                    or self.is_unordered(node.right))
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in ("set", "frozenset"):
                    return True
                if func.id == "sorted":
                    return False
            if self.ir.dotted(func) in _UNORDERED_PRODUCERS:
                return True
            if isinstance(func, ast.Attribute):
                if func.attr in _UNORDERED_METHODS:
                    return True
                if (func.attr in _SET_RETURNING_METHODS
                        and self.is_unordered(func.value)):
                    return True
        return False

    def is_scandir(self, node: ast.expr) -> bool:
        """Does this expression yield ``os.DirEntry`` objects?

        DirEntry does not support ``<``, so the wrap-sorted fix for a
        scandir-derived iterable must sort by ``e.name`` instead of the
        elements themselves.
        """
        if isinstance(node, ast.Name):
            return node.id in self.scandir
        if isinstance(node, ast.IfExp):
            return (self.is_scandir(node.body)
                    or self.is_scandir(node.orelse))
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and node.args
                    and func.id in ("set", "frozenset", "list",
                                    "tuple", "iter", "reversed")):
                return self.is_scandir(node.args[0])
            if self.ir.dotted(func) == "os.scandir":
                return True
            if isinstance(func, ast.Attribute) and func.attr == "scandir":
                return True
        return False

    def _sorted_payload(self, node: ast.expr) -> str:
        """Extra ``sorted()`` argument the wrap-sorted fix needs, if any."""
        return _SCANDIR_SORT_KEY if self.is_scandir(node) else ""

    def _genexp_iter_unordered(self,
                               node: ast.expr) -> Optional[ast.expr]:
        """First unordered generator iterable of a comprehension arg."""
        if not isinstance(node, _COMPREHENSIONS):
            return None
        for gen in node.generators:
            if self.is_unordered(gen.iter):
                return gen.iter
        return None

    # -- statements ----------------------------------------------------------

    def _bind(self, target: ast.expr, unordered: bool,
              scandir: bool = False) -> None:
        if isinstance(target, ast.Name):
            if unordered:
                self.unordered.add(target.id)
            else:
                self.unordered.discard(target.id)
            if scandir:
                self.scandir.add(target.id)
            else:
                self.scandir.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, False)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, False)

    def assign(self, stmt: ast.stmt, targets: Sequence[ast.expr],
               value: ast.expr) -> None:
        unordered = self.is_unordered(value)
        scandir = self.is_scandir(value)
        for target in targets:
            self._bind(target, unordered, scandir)

    def with_bound(self, item: ast.withitem, lock: Optional[str]) -> None:
        if item.optional_vars is not None:
            self._bind(item.optional_vars, False)

    def loop(self, stmt: "ast.For | ast.AsyncFor") -> None:
        if self.is_unordered(stmt.iter):
            code = self._classify_loop_body(stmt.body)
            if code is not None:
                noun = ("order-sensitive arithmetic accumulation"
                        if code == "RA702" else
                        "order-dependent output (append/store/yield)")
                self._site(
                    stmt.iter, code,
                    detail=(f"loop over unordered `{snippet(stmt.iter)}` "
                            f"feeds {noun}"),
                    fix_kind="wrap-sorted", span=_span_of(stmt.iter),
                    payload=self._sorted_payload(stmt.iter))
        self._bind(stmt.target, False)

    @staticmethod
    def _classify_loop_body(body: Sequence[ast.stmt]) -> Optional[str]:
        """RA702 for arithmetic accumulation, RA701 for ordered output."""
        arith = False
        ordered = False
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.AugAssign) and isinstance(
                        node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
                    arith = True
                elif isinstance(node, ast.Call) and isinstance(
                        node.func, ast.Attribute) and node.func.attr in (
                        "append", "extend", "insert", "appendleft",
                        "write", "writerow"):
                    ordered = True
                elif isinstance(node, ast.Assign):
                    if any(isinstance(t, ast.Subscript)
                           for t in node.targets):
                        ordered = True
                elif isinstance(node, (ast.Yield, ast.YieldFrom,
                                       ast.Return, ast.Break)):
                    # first-match exit or emission: which element wins
                    # depends on iteration order
                    ordered = True
        if arith:
            return "RA702"
        if ordered:
            return "RA701"
        return None

    # -- expressions ---------------------------------------------------------

    def expr(self, nodes: Sequence[ast.AST]) -> None:
        for sub in nodes:
            if isinstance(sub, ast.Call):
                self._call(sub)
            elif isinstance(sub, _COMPREHENSIONS):
                self._comp(sub)
            elif isinstance(sub, ast.Subscript):
                self._subscript(sub)

    def _claim(self, node: ast.expr) -> None:
        if isinstance(node, _COMPREHENSIONS + (ast.SetComp,)):
            self.consumed.add(id(node))

    def _flag_unordered_arg(self, arg: ast.expr, code: str,
                            consumer: str) -> bool:
        """RA701/RA702 for a consumer whose argument is unordered."""
        if self.is_unordered(arg):
            self._claim(arg)
            self._site(
                arg, code,
                detail=(f"`{consumer}` consumes unordered "
                        f"`{snippet(arg)}`"),
                fix_kind="wrap-sorted", span=_span_of(arg),
                payload=self._sorted_payload(arg))
            return True
        gen_iter = self._genexp_iter_unordered(arg)
        if gen_iter is not None:
            self._claim(arg)
            self._site(
                gen_iter, code,
                detail=(f"`{consumer}` consumes a generator over "
                        f"unordered `{snippet(gen_iter)}`"),
                fix_kind="wrap-sorted", span=_span_of(gen_iter),
                payload=self._sorted_payload(gen_iter))
            return True
        return False

    def _call(self, node: ast.Call) -> None:
        func = node.func
        dotted = self.ir.dotted(func)
        if isinstance(func, ast.Name) and node.args:
            if func.id == "sum":
                arg = node.args[0]
                if ((self.is_unordered(arg)
                        or self._genexp_iter_unordered(arg) is not None)
                        and not _int_only_set_literal(arg)):
                    self._claim(arg)
                    # exact_total takes exactly one iterable, so the
                    # rewrite is only safe for a bare sum(iterable);
                    # sum(xs, start) would become a TypeError — and a
                    # non-numeric start (list concatenation) is not
                    # float accumulation at all
                    bare = len(node.args) == 1 and not node.keywords
                    self._site(
                        node, "RA702",
                        detail=(f"`sum({snippet(arg)})` accumulates "
                                "floats in arbitrary order"
                                + ("" if bare else
                                   "; the start argument rules out the "
                                   "exact_total rewrite")),
                        fix_kind="exact-total" if bare else None,
                        span=_span_of(func) if bare else None,
                        payload="exact_total" if bare else "")
            elif func.id in ("list", "tuple"):
                self._flag_unordered_arg(node.args[0], "RA701", func.id)
            elif func.id in _ORDER_FREE_CONSUMERS:
                for arg in node.args:
                    self._claim(arg)
        elif (isinstance(func, ast.Attribute) and func.attr == "join"
                and node.args):
            self._flag_unordered_arg(node.args[0], "RA701", "join")
        if dotted is not None and dotted.startswith("numpy."):
            self._numpy(node, dotted)
        self._ambient(node, dotted)

    def _comp(self, node: ast.expr) -> None:
        if id(node) in self.consumed:
            return
        assert isinstance(node, _COMPREHENSIONS)
        kind = {"ListComp": "list", "GeneratorExp": "generator",
                "DictComp": "dict"}[type(node).__name__]
        for gen in node.generators:
            if self.is_unordered(gen.iter):
                self._site(
                    gen.iter, "RA701",
                    detail=(f"{kind} comprehension iterates unordered "
                            f"`{snippet(gen.iter)}`"),
                    fix_kind="wrap-sorted", span=_span_of(gen.iter),
                    payload=self._sorted_payload(gen.iter))
                return

    def _subscript(self, node: ast.Subscript) -> None:
        if _contains_id_call(node.slice):
            self._site(
                node, "RA704",
                detail="`id()`-keyed lookup depends on allocation "
                       "addresses, which differ every run")
        dotted = self.ir.dotted(node.value)
        if dotted == "os.environ":
            self._site(
                node, "RA704",
                detail="`os.environ[...]` reads ambient process state")

    # -- RA703: numpy dtype stability ---------------------------------------

    def _numpy_alias(self, func: ast.expr) -> Optional[str]:
        """Textual module expression for fixes, e.g. ``np``.

        ``np.zeros`` -> ``np``; ``from numpy import zeros`` -> whatever
        local name binds the numpy module, or None (report-only fix).
        """
        if isinstance(func, ast.Attribute):
            return snippet(func.value, limit=120)
        for local, target in self.ir.imports.modules.items():
            if target == "numpy":
                return local
        return None

    def _numpy(self, node: ast.Call, dotted: str) -> None:
        tail = dotted[len("numpy."):]
        if tail not in _NUMPY_CTORS:
            return
        alias = self._numpy_alias(node.func)
        dtype_kw = next(
            (kw for kw in node.keywords if kw.arg == "dtype"), None)
        if dtype_kw is not None:
            self._numpy_dtype_value(node, tail, alias, dtype_kw.value)
            return
        if tail in ("zeros", "ones", "empty"):
            self._numpy_add_dtype(node, tail, alias, "float64",
                                  "defaults to float64 but leaves the "
                                  "dtype unpinned in a persisted/hashed "
                                  "buffer")
        elif tail == "arange":
            consts = [a.value for a in node.args
                      if isinstance(a, ast.Constant)]
            if len(consts) == len(node.args) and node.args and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in consts):
                wanted = ("float64" if any(
                    isinstance(v, float) for v in consts) else "int64")
                self._numpy_add_dtype(
                    node, tail, alias, wanted,
                    "infers the platform default int (C long) from "
                    "integer bounds" if wanted == "int64" else
                    "leaves the dtype unpinned")
            else:
                self._site(node, "RA703",
                           detail=f"`{snippet(node)}` without dtype= "
                                  "infers a platform-dependent type")
        elif tail == "full":
            fill = node.args[1] if len(node.args) >= 2 else None
            if isinstance(fill, ast.Constant) and isinstance(
                    fill.value, (int, float)) and not isinstance(
                    fill.value, bool):
                wanted = ("int64" if isinstance(fill.value, int)
                          else "float64")
                self._numpy_add_dtype(
                    node, tail, alias, wanted,
                    "infers its dtype from the fill value (ints become "
                    "the platform C long)")
            else:
                self._site(node, "RA703",
                           detail=f"`{snippet(node)}` without dtype= "
                                  "infers a platform-dependent type")
        else:  # array / asarray / ascontiguousarray
            self._site(
                node, "RA703",
                detail=(f"`{tail}(...)` without dtype= infers from the "
                        "data: integer input becomes the platform C "
                        "long (64-bit Linux, 32-bit Windows)"))

    def _numpy_dtype_value(self, node: ast.Call, tail: str,
                           alias: Optional[str],
                           value: ast.expr) -> None:
        dotted = self.ir.dotted(value)
        is_platform_int = (
            (isinstance(value, ast.Name) and value.id == "int")
            or (isinstance(value, ast.Constant) and value.value == "int")
            or dotted in _PLATFORM_INT_DTYPES)
        if is_platform_int:
            span = _span_of(value)
            payload = f"{alias}.int64" if alias else ""
            self._site(
                node, "RA703",
                detail=(f"`{tail}(..., dtype={snippet(value)})` is the "
                        "platform C long (64-bit Linux, 32-bit Windows)"),
                fix_kind="dtype-replace" if payload else None,
                span=span, payload=payload)
        elif (dotted == "numpy.float32"
                or (isinstance(value, ast.Constant)
                    and value.value == "float32")):
            self._site(
                node, "RA703",
                detail=(f"`{tail}(..., dtype=float32)` silently upcasts "
                        "when mixed with float64 accumulators; keep "
                        "contract-path arrays float64 or isolate the "
                        "cast"))

    def _numpy_add_dtype(self, node: ast.Call, tail: str,
                         alias: Optional[str], wanted: str,
                         why: str) -> None:
        insert_after = self._last_arg_end(node)
        payload = f", dtype={alias}.{wanted}" if alias else ""
        self._site(
            node, "RA703",
            detail=f"`{tail}(...)` {why}",
            fix_kind="dtype-add" if payload and insert_after else None,
            span=(None if insert_after is None else
                  (insert_after[0], insert_after[1],
                   insert_after[0], insert_after[1])),
            payload=payload)

    @staticmethod
    def _last_arg_end(node: ast.Call) -> Optional[Tuple[int, int]]:
        """Position just after the last argument (insertion point)."""
        best: Optional[Tuple[int, int]] = None
        candidates: List[ast.expr] = list(node.args)
        candidates.extend(kw.value for kw in node.keywords)
        for arg in candidates:
            end_lineno = getattr(arg, "end_lineno", None)
            end_col = getattr(arg, "end_col_offset", None)
            if end_lineno is None or end_col is None:  # pragma: no cover
                return None
            if best is None or (end_lineno, end_col) > best:
                best = (end_lineno, end_col)
        return best

    # -- RA704: ambient state ------------------------------------------------

    def _ambient(self, node: ast.Call,
                 dotted: Optional[str]) -> None:
        func = node.func
        if dotted is None:
            if (isinstance(func, ast.Attribute)
                    and func.attr in ("get", "setdefault", "pop")
                    and node.args and _contains_id_call(node.args[0])):
                self._site(
                    node, "RA704",
                    detail="`id()`-keyed lookup depends on allocation "
                           "addresses, which differ every run")
            return
        for names, detail in _AMBIENT:
            if dotted in names:
                self._site(node, "RA704", detail=detail.format(dotted))
                return


# -- the check ----------------------------------------------------------------

def _resolve_entry(graph: ProjectGraph, entry: str,
                   _depth: int = 0) -> List[FunctionKey]:
    """Entry path -> function keys: function, Class.method, class
    (every method), or module/package (every function)."""
    if _depth > 8:
        return []
    matches = [name for name in graph.modules
               if name == entry or name.startswith(entry + ".")]
    if matches:
        return [(name, qualname)
                for name in sorted(matches)
                for qualname in sorted(graph.modules[name].functions)]
    found = graph.locate(entry)
    if found is None:
        return []
    module, rest = found
    if len(rest) == 1 and module.defs.get(rest[0]) == "class":
        head = rest[0] + "."
        return [(module.module, qualname)
                for qualname in sorted(module.functions)
                if qualname.startswith(head)]
    name = ".".join(rest)
    if name in module.functions:
        return [(module.module, name)]
    if rest[0] in module.symbol_imports:
        chained = ".".join([module.symbol_imports[rest[0]]] + rest[1:])
        return _resolve_entry(graph, chained, _depth + 1)
    return []


_REMEDIES: Dict[str, str] = {
    "RA701": "wrap the iterable in `sorted(...)`",
    "RA702": ("accumulate with `repro.util.exactsum.exact_total` "
              "(order-independent, correctly rounded; returns float "
              "even for int inputs) or iterate in sorted order"),
    "RA703": "pin an explicit platform-stable dtype",
    "RA704": ("thread the value in explicitly (seed, hour, config) "
              "instead of reading process state"),
}


def check_determinism(
    graph: ProjectGraph,
    sites_by_module: Mapping[str, Sequence[DetSite]],
    config: DeterminismConfig,
) -> Tuple[List[Violation], List[Tuple[str, DetSite]]]:
    """Report sites reachable from contract entry points.

    Returns ``(violations, fixable)`` where ``fixable`` pairs each
    reported auto-fixable site with its display path, in report order.
    """
    violations: List[Violation] = []
    fixable: List[Tuple[str, DetSite]] = []
    roots: Dict[FunctionKey, Tuple[str, str]] = {}
    for contract in sorted(config.contracts):
        for entry in config.contracts[contract]:
            keys = _resolve_entry(graph, entry)
            if not keys:
                violations.append(Violation(
                    path=config.source, line=1, col=1, code="RA700",
                    message=(f"contract `{contract}` entry `{entry}` "
                             "does not resolve to a known module, "
                             "class, or function; fix the path or "
                             "remove the entry")))
                continue
            for key in keys:
                roots.setdefault(key, (contract, entry))
    origin = graph.reachable_from(list(roots))
    for module_name in sorted(sites_by_module):
        facts = graph.modules.get(module_name)
        if facts is None or config.is_exempt(module_name):
            continue
        for site in sites_by_module[module_name]:
            root = origin.get((module_name, site.function))
            if root is None:
                continue
            if facts.is_suppressed(site.lineno, site.code):
                continue
            contract, entry = roots[root]
            fix_note = (" (auto-fixable with --fix)"
                        if site.fix_kind is not None else "")
            violations.append(facts.violation(
                site, site.code,
                (f"{site.detail} — on determinism contract "
                 f"`{contract}` (reachable from `{entry}`); "
                 f"{_REMEDIES[site.code]}{fix_note}")))
            if site.fix_kind is not None and site.span is not None:
                fixable.append((facts.display_path, site))
    return violations, fixable
