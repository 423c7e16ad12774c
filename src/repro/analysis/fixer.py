"""The ``repro lint --fix`` autofix engine.

Each auto-fixable :class:`~repro.analysis.dataflow.DetSite` carries a
*recipe* — a fix kind, a source span, and a payload — computed at
extraction time from exact AST positions.  This module turns recipes
into concrete text edits and applies them:

* ``wrap-sorted``   — ``for p in paths.iterdir():`` becomes
  ``for p in sorted(paths.iterdir()):`` (two zero-width inserts); a
  site payload becomes an extra ``sorted()`` argument, which is how
  ``os.scandir`` streams (``DirEntry`` defines no ``<``) get
  ``sorted(..., key=lambda e: e.name)`` instead of a TypeError;
* ``exact-total``   — ``sum(shares)`` becomes ``exact_total(shares)``
  and ``from repro.util.exactsum import exact_total`` is added after
  the module's import block if missing.  The detector attaches this
  recipe only to a bare single-argument ``sum(...)`` — ``exact_total``
  accepts one iterable, so ``sum(xs, start)`` is reported but never
  rewritten;
* ``dtype-replace`` — ``dtype=int`` becomes ``dtype=np.int64``;
* ``dtype-add``     — ``np.zeros(n)`` becomes
  ``np.zeros(n, dtype=np.float64)``.

Every rewrite is *behavior-preserving on the serial path by
construction* (sorting an iterable changes order only where order was
unspecified; ``exact_total`` is ``math.fsum``, correctly rounded;
``dtype`` pins name what numpy already chose on this platform) and
*idempotent*: the fixed form no longer matches its detector, so a
second ``--fix`` run produces zero edits — a property test enforces
this.  One caveat survives: ``exact_total`` always returns ``float``,
so summing a collection the analysis cannot prove to hold floats
changes ``sum([2, 3]) == 5`` into ``5.0``.  Provably-integer literals
are never flagged, but for opaque int-valued inputs the rewrite can
leak a float into indexing or serialized snapshots — review the diff
(``--fix --check``) when the summands might be ints.

All edits for one file are computed against the same original text and
applied back-to-front, so earlier edits never shift later spans.
Overlapping fixes (e.g. a sorted-wrap inside a sorted-wrap) keep the
first and drop the rest; the dropped finding simply reappears — still
fixable — on the next run if it survived the first rewrite.
"""

from __future__ import annotations

import ast
import difflib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .dataflow import DetSite

#: the one import --fix may introduce (for ``exact-total`` rewrites)
_EXACTSUM_MODULE = "repro.util.exactsum"
_EXACTSUM_NAME = "exact_total"


@dataclass(frozen=True)
class Edit:
    """One text replacement, in AST coordinates (0-based columns)."""

    lineno: int
    col: int
    end_lineno: int
    end_col: int
    replacement: str


@dataclass(frozen=True)
class Fix:
    """One applicable rewrite for one reported finding."""

    path: str           # real filesystem path to edit
    display: str        # display path (matches the Violation)
    code: str
    line: int
    col: int
    description: str
    edits: Tuple[Edit, ...]
    needs_exactsum_import: bool = False


@dataclass
class FileFixResult:
    """The outcome of fixing one file."""

    path: str
    display: str
    original: str
    fixed: str
    applied: Tuple[Fix, ...]

    @property
    def changed(self) -> bool:
        return self.fixed != self.original


def fix_for_site(path: str, display: str,
                 site: DetSite) -> Optional[Fix]:
    """Turn a site's recipe into concrete edits, or None."""
    if site.fix_kind is None or site.span is None:
        return None
    lineno, col, end_lineno, end_col = site.span
    needs_import = False
    if site.fix_kind == "wrap-sorted":
        closing = f", {site.payload})" if site.payload else ")"
        edits = (Edit(lineno, col, lineno, col, "sorted("),
                 Edit(end_lineno, end_col, end_lineno, end_col, closing))
        description = (f"wrap the iterable in sorted(..., {site.payload})"
                       if site.payload else
                       "wrap the iterable in sorted(...)")
    elif site.fix_kind == "exact-total":
        edits = (Edit(lineno, col, end_lineno, end_col, "exact_total"),)
        description = "replace sum(...) with exact_total(...)"
        needs_import = True
    elif site.fix_kind == "dtype-replace":
        edits = (Edit(lineno, col, end_lineno, end_col, site.payload),)
        description = f"pin dtype to {site.payload}"
    elif site.fix_kind == "dtype-add":
        edits = (Edit(lineno, col, lineno, col, site.payload),)
        description = f"add explicit {site.payload.lstrip(', ')}"
    else:  # pragma: no cover - DetSite.fix_kind is closed
        return None
    return Fix(path=path, display=display, code=site.code,
               line=site.lineno, col=site.col, description=description,
               edits=edits, needs_exactsum_import=needs_import)


# -- applying edits -----------------------------------------------------------

def _line_offsets(text: str) -> List[int]:
    offsets = [0]
    for line in text.splitlines(keepends=True):
        offsets.append(offsets[-1] + len(line))
    return offsets


def _absolute(offsets: List[int], lineno: int, col: int) -> int:
    index = min(lineno - 1, len(offsets) - 1)
    return offsets[index] + col


def _apply_edits(text: str, edits: Sequence[Edit]) -> str:
    offsets = _line_offsets(text)
    spans = sorted(
        ((_absolute(offsets, e.lineno, e.col),
          _absolute(offsets, e.end_lineno, e.end_col),
          e.replacement) for e in edits),
        reverse=True)
    for start, end, replacement in spans:
        text = text[:start] + replacement + text[end:]
    return text


_EXACTSUM_IMPORT_RE = re.compile(
    rf"from\s+{re.escape(_EXACTSUM_MODULE)}\s+import\s+"
    rf"[^\n]*\b{_EXACTSUM_NAME}\b")


def _ensure_exactsum_import(text: str) -> str:
    """Insert ``from repro.util.exactsum import exact_total`` if absent.

    The line goes after the last top-level import (or the module
    docstring when there are none), which keeps the edited file valid
    for any future-import-bearing module: ``from __future__`` must stay
    first, and it is itself an import, so insertion lands after it.
    """
    if _EXACTSUM_IMPORT_RE.search(text):
        return text
    tree = ast.parse(text)
    insert_after = 0
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            insert_after = node.end_lineno or node.lineno
        elif (insert_after == 0 and isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            insert_after = node.end_lineno or node.lineno  # docstring
    lines = text.splitlines(keepends=True)
    new_line = f"from {_EXACTSUM_MODULE} import {_EXACTSUM_NAME}\n"
    if insert_after == 0:
        return new_line + text
    return "".join(lines[:insert_after]) + new_line + "".join(
        lines[insert_after:])


def _fix_range(offsets: List[int], fix: Fix) -> Tuple[int, int]:
    starts = [_absolute(offsets, e.lineno, e.col) for e in fix.edits]
    ends = [_absolute(offsets, e.end_lineno, e.end_col)
            for e in fix.edits]
    return (min(starts), max(ends))


def apply_fixes(fixes: Sequence[Fix],
                write: bool = True) -> List[FileFixResult]:
    """Apply (or dry-run) fixes, grouped per file, first-wins on overlap.

    Returns one :class:`FileFixResult` per changed file, sorted by
    display path.  With ``write=False`` nothing touches disk — callers
    render the diff (``--fix --check``).
    """
    by_path: Dict[str, List[Fix]] = {}
    for fix in fixes:
        by_path.setdefault(fix.path, []).append(fix)
    results: List[FileFixResult] = []
    for path in sorted(by_path):
        original = Path(path).read_text(encoding="utf-8")
        offsets = _line_offsets(original)
        accepted: List[Fix] = []
        taken: List[Tuple[int, int]] = []
        for fix in sorted(by_path[path],
                          key=lambda f: _fix_range(offsets, f)):
            start, end = _fix_range(offsets, fix)
            if any(start < t_end and t_start < end
                   for t_start, t_end in taken):
                continue  # overlapping rewrite: first wins this round
            # two zero-width inserts at the same point (nested wraps)
            if any(start == t_start == end == t_end
                   for t_start, t_end in taken):
                continue
            accepted.append(fix)
            taken.append((start, end))
        if not accepted:
            continue
        edits = [edit for fix in accepted for edit in fix.edits]
        fixed = _apply_edits(original, edits)
        if any(fix.needs_exactsum_import for fix in accepted):
            fixed = _ensure_exactsum_import(fixed)
        if fixed == original:
            continue
        if write:
            Path(path).write_text(fixed, encoding="utf-8")
        results.append(FileFixResult(
            path=path, display=accepted[0].display, original=original,
            fixed=fixed, applied=tuple(accepted)))
    return results


def render_diffs(results: Sequence[FileFixResult]) -> str:
    """Unified diff of every file a fix run touched (or would touch)."""
    chunks: List[str] = []
    for result in results:
        diff = difflib.unified_diff(
            result.original.splitlines(keepends=True),
            result.fixed.splitlines(keepends=True),
            fromfile=f"a/{result.display}",
            tofile=f"b/{result.display}")
        chunks.append("".join(diff))
    return "".join(chunks)
