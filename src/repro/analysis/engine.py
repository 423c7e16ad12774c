"""The analyzer engine: walk files, run every checker, apply noqa.

The engine is deliberately dependency-free (stdlib ``ast`` only) so the
lint gate runs anywhere the package imports — CI, pre-commit, or a
bare container with nothing but the runtime installed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Sequence, Union)

from .base import (DEFAULT_HOT_PACKAGES, ImportMap, ModuleContext,
                   Violation, apply_suppressions)
from .checkers import FileChecker
from .fixer import Fix

#: directory names never worth scanning
_SKIP_DIRS: FrozenSet[str] = frozenset({
    "__pycache__", ".git", ".venv", "venv", "build", "dist",
    "node_modules",
})


@dataclass
class AnalysisReport:
    """Everything one lint run produced.

    ``cache_hits``/``cache_misses`` stay ``None`` for plain per-file
    runs; project mode (``--project``) fills them from its incremental
    per-file cache so callers — and the lint bench suite — can assert
    how much work a warm run actually skipped.
    """

    violations: List[Violation] = field(default_factory=list)
    files_scanned: int = 0
    cache_hits: Optional[int] = None
    cache_misses: Optional[int] = None
    #: applicable autofixes for the reported RA7xx findings (project
    #: mode only); ``repro lint --fix`` consumes these
    fixes: List[Fix] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def counts_by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.code] = counts.get(violation.code, 0) + 1
        return dict(sorted(counts.items()))

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "clean": self.clean,
            "files_scanned": self.files_scanned,
            "violation_count": len(self.violations),
            "counts_by_code": self.counts_by_code(),
            "violations": [v.to_json() for v in self.violations],
            "fixable_count": len(self.fixes),
        }
        if self.cache_hits is not None or self.cache_misses is not None:
            payload["cache"] = {"hits": self.cache_hits or 0,
                                "misses": self.cache_misses or 0}
        return payload


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a deterministic .py file sequence."""
    seen = set()
    for path in paths:
        if path.is_file():
            candidates: Iterable[Path] = [path]
        else:
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not _SKIP_DIRS.intersection(p.parts)
                and not any(part.endswith(".egg-info") for part in p.parts))
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def analyze_parsed(source: str, path: Path, tree: ast.Module,
                   hot_packages: FrozenSet[str] = DEFAULT_HOT_PACKAGES,
                   display_path: Optional[str] = None,
                   imports: Optional[ImportMap] = None) -> List[Violation]:
    """Run the per-file rules over an already-parsed module.

    ``imports`` is the module's already-collected import map, if the
    caller has one; otherwise it is collected once here for all the
    checkers.
    """
    display = display_path if display_path is not None else str(path)
    context = ModuleContext(path=path, source=source, tree=tree,
                            hot_packages=hot_packages,
                            display_path=display, imports=imports)
    return sorted(apply_suppressions(source, FileChecker(context).run()))


def parse_or_violation(source: str, path: Path,
                       display: str) -> Union[ast.Module, Violation]:
    """The parsed module, or the RA000 finding for a syntax error."""
    try:
        return ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Violation(path=display, line=exc.lineno or 1,
                         col=(exc.offset or 0) + 1, code="RA000",
                         message=f"syntax error: {exc.msg}")


def analyze_source(source: str, path: Path,
                   hot_packages: FrozenSet[str] = DEFAULT_HOT_PACKAGES,
                   display_path: Optional[str] = None) -> List[Violation]:
    """Run every checker over one module's source text."""
    display = display_path if display_path is not None else str(path)
    tree = parse_or_violation(source, path, display)
    if isinstance(tree, Violation):
        return [tree]
    return analyze_parsed(source, path, tree, hot_packages=hot_packages,
                          display_path=display)


def display_for(file_path: Path, root: Optional[Path]) -> Optional[str]:
    """Path shown in reports: relative to ``root`` when possible."""
    if root is None:
        return None
    try:
        return str(file_path.resolve().relative_to(root.resolve()))
    except ValueError:
        return str(file_path)


def analyze_paths(paths: Sequence[Path],
                  hot_packages: FrozenSet[str] = DEFAULT_HOT_PACKAGES,
                  select: Optional[FrozenSet[str]] = None,
                  root: Optional[Path] = None) -> AnalysisReport:
    """Lint every Python file under ``paths``.

    ``select`` restricts the report to the listed rule codes; ``root``
    relativises the paths shown in the report (for stable CI output).
    """
    report = AnalysisReport()
    for file_path in iter_python_files(paths):
        display = display_for(file_path, root)
        source = file_path.read_text(encoding="utf-8")
        found = analyze_source(source, file_path,
                               hot_packages=hot_packages,
                               display_path=display)
        report.files_scanned += 1
        if select is not None:
            found = [v for v in found if v.code in select]
        report.violations.extend(found)
    report.violations.sort()
    return report
