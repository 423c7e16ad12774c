"""Project mode: whole-program analysis with an incremental cache.

``repro lint --project`` upgrades the linter from per-file pattern
checks to semantic, cross-module rules:

1. every module is parsed **once** into a
   :class:`~repro.analysis.ir.ModuleIR` and summarised by
   :func:`extract_file` into a :class:`FileAnalysis`: the per-file
   rule violations, :class:`~repro.analysis.callgraph.ModuleFacts`,
   RA502 lock findings, and the RA7xx/RA8xx sites,
2. the summaries are linked into a
   :class:`~repro.analysis.callgraph.ProjectGraph`,
3. the project rules run over the graph — RA501 (shared-state races
   reachable from pool dispatches), RA502 (lock discipline, rendered
   from per-class findings), RA601 (the ``[tool.repro.layers]``
   architecture contract), the RA7xx determinism dataflow and the
   RA8xx lifecycle/durability wave.

The per-file step is cached on disk keyed by a SHA-256 of the file's
*content* plus the analysis parameters and a cache schema version, so
a warm run re-analyzes only files that actually changed; everything
else is loaded from JSON (one dataclass codec,
:func:`~repro.analysis.base.to_plain`/``from_plain``) and re-linked.  Linking and the project
rules are cheap (no parsing), which is what makes whole-program
analysis viable in a pre-commit hook.  Cache entries are self-contained
and content-addressed, so the cache directory is safe to delete at any
time and safe to share between branches.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (Any, Callable, Dict, FrozenSet, List, Optional,
                    Sequence, Set, Tuple, TypeVar)

from .base import (DEFAULT_HOT_PACKAGES, PROJECT_RULES, Violation,
                   from_plain, ruleset_fingerprint, to_plain)
from .callgraph import ModuleFacts, ProjectGraph, extract_facts, \
    module_name_for
from .dataflow import DetBuilder, DetSite, DeterminismConfig, \
    check_determinism, find_determinism_config
from .durability import DuraBuilder, DuraSite, DurabilityConfig, \
    check_durability, find_durability_config
from .engine import AnalysisReport, analyze_parsed, display_for, \
    iter_python_files, parse_or_violation
from .fixer import fix_for_site
from .ir import ModuleIR
from .layers import LayerConfig, check_layers, find_layer_config
from .lifecycle import LifeBuilder, LifeSite, check_lifecycle
from .locks import LockFinding, find_lock_findings, \
    violations_from_findings
from .races import check_races

#: bump when the facts schema or any project rule's extraction changes;
#: stale entries are simply misses (their keys never match again).
#: v2: determinism sites (RA7xx) joined the per-file payload.
#: v3: lifecycle and durability sites (RA8xx) joined the payload.
#: v4: one dataclass codec for the whole payload (field names as keys).
CACHE_SCHEMA_VERSION = 4

#: the contract tables whose scope a run checks (RA700/RA800)
_Table = TypeVar("_Table", DeterminismConfig, DurabilityConfig)

#: default cache location, relative to the current working directory
DEFAULT_CACHE_DIR = Path(".repro-lint-cache")


@dataclass
class FileAnalysis:
    """Everything project mode derives from one file."""

    facts: Optional[ModuleFacts]            # None when the parse failed
    violations: List[Violation]             # per-file rules (post-noqa)
    lock_findings: List[LockFinding] = field(default_factory=list)
    det_sites: List[DetSite] = field(default_factory=list)    # RA7xx
    life_sites: List[LifeSite] = field(default_factory=list)  # RA801-3/5
    dura_sites: List[DuraSite] = field(default_factory=list)  # RA804

    def with_display(self, display: str) -> "FileAnalysis":
        """This entry with its paths shown as ``display``.

        Cached entries are keyed by content, not location, so the paths
        they carry are recomputed for the run that loads them.
        """
        if self.facts is not None:
            self.facts.display_path = display
        self.violations = [replace(v, path=display)
                           for v in self.violations]
        return self


def extract_file(tree: ast.Module, source: str, path: Path,
                 display: str, hot_packages: FrozenSet[str],
                 internal_roots: FrozenSet[str]) -> FileAnalysis:
    """The single per-file pass: one :class:`ModuleIR` feeds the
    per-file checkers, the call-graph facts, and every site builder."""
    ir = ModuleIR(tree)
    violations = analyze_parsed(source, path, tree,
                                hot_packages=hot_packages,
                                display_path=display, imports=ir.imports)
    facts = extract_facts(tree, source, path, display, internal_roots,
                          ir=ir)
    det, life, dura = DetBuilder(ir), LifeBuilder(ir), DuraBuilder(ir)
    ir.walk_sites([det, life, dura])
    return FileAnalysis(facts=facts, violations=violations,
                        lock_findings=find_lock_findings(tree),
                        det_sites=det.sites, life_sites=life.sites,
                        dura_sites=dura.sites)


class ProjectCache:
    """Content-addressed per-file analysis cache with hit/miss counters.

    ``cache_dir=None`` disables persistence but keeps the counters, so
    callers can always read ``hits``/``misses``.
    """

    def __init__(self, cache_dir: Optional[Path],
                 params_key: str) -> None:
        self.cache_dir = cache_dir
        self.params_key = params_key
        self.hits = 0
        self.misses = 0

    def key_for(self, content: bytes, module: str) -> str:
        digest = hashlib.sha256()
        digest.update(
            f"v{CACHE_SCHEMA_VERSION}\x00{self.params_key}\x00"
            f"{module}\x00".encode("utf-8"))
        digest.update(content)
        return digest.hexdigest()

    def _path_for(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.json"

    def get(self, key: str, display: str) -> Optional[FileAnalysis]:
        path = self._path_for(key)
        if path is None or not path.is_file():
            self.misses += 1
            return None
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
            entry = from_plain(FileAnalysis, raw).with_display(display)
        except (ValueError, KeyError, TypeError, AttributeError):
            # a corrupt entry is just a miss; it will be rewritten
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: str, entry: FileAnalysis) -> None:
        path = self._path_for(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(to_plain(entry), sort_keys=True),
                       encoding="utf-8")
        tmp.replace(path)  # atomic: parallel lint runs never see torn JSON


def _analyze_file(file_path: Path, source: str, display: str,
                  hot_packages: FrozenSet[str],
                  internal_roots: FrozenSet[str]) -> FileAnalysis:
    tree = parse_or_violation(source, file_path, display)
    if isinstance(tree, Violation):
        return FileAnalysis(facts=None, violations=[tree])
    return extract_file(tree, source, file_path, display, hot_packages,
                        internal_roots)


def _resolve_table(files: Sequence[Tuple[Path, str]],
                   find: Callable[[Path], Optional[_Table]], code: str,
                   table: str, applied: str,
                   violations: List[Violation]) -> Optional[_Table]:
    """The table governing the first analyzed path, plus RA700/RA800
    warnings when the run spans pyprojects with different tables.

    A file that actually sits under a *different* pyproject would
    silently inherit the wrong table, so each distinct foreign root
    draws one ``code`` warning naming both tables instead of being
    checked against the wrong one in silence.
    """
    config = find(files[0][0])
    if config is None:
        return None
    source = config.source
    source_by_dir: Dict[Path, Optional[str]] = {}
    flagged: Set[str] = set()
    for path, display in files:
        directory = path.resolve().parent
        if directory not in source_by_dir:
            found = find(directory)
            source_by_dir[directory] = (None if found is None
                                        else found.source)
        governing = source_by_dir[directory]
        if governing == source:
            continue
        label = governing or f"<no {table} table>"
        if label in flagged:
            continue
        flagged.add(label)
        violations.append(Violation(
            path=display, line=1, col=1, code=code,
            message=(f"file is governed by {label}, but this run "
                     f"applied the {applied} from {source} (resolved "
                     "from the first analyzed path); lint each root "
                     "separately or pass one explicit config")))
    return config


def analyze_project(paths: Sequence[Path],
                    hot_packages: FrozenSet[str] = DEFAULT_HOT_PACKAGES,
                    select: Optional[FrozenSet[str]] = None,
                    root: Optional[Path] = None,
                    cache_dir: Optional[Path] = DEFAULT_CACHE_DIR,
                    layer_config: Optional[LayerConfig] = None,
                    determinism: Optional[DeterminismConfig] = None,
                    durability: Optional[DurabilityConfig] = None
                    ) -> AnalysisReport:
    """Whole-program lint: per-file rules plus RA5xx through RA8xx.

    ``layer_config`` defaults to the nearest ``[tool.repro.layers]``
    table above the first analyzed path; without one, RA601 is skipped
    (there is no contract to enforce).  ``determinism`` defaults the
    same way to the nearest ``[tool.repro.determinism]`` table and
    gates the RA700–RA704 dataflow rules; ``durability`` likewise
    defaults to the nearest ``[tool.repro.durability]`` table and
    gates RA804.  When the analyzed paths span pyprojects with
    *different* tables, the first root's table applies and every
    foreign root draws an RA700/RA800 warning.  The lifecycle rules
    RA801/RA802/RA803/RA805 need no configuration and always run.
    """
    files: List[Tuple[Path, str]] = []   # (path, display)
    for file_path in iter_python_files(paths):
        display = display_for(file_path, root)
        files.append((file_path, display if display is not None
                      else str(file_path)))

    # internal roots are derived from the analyzed set itself, so the
    # graph needs no package configuration; they feed the cache key
    # because facts extraction depends on them
    module_names = {path: module_name_for(path) for path, _ in files}
    internal_roots = frozenset(name.split(".")[0]
                               for name in module_names.values())

    # the rule-set fingerprint folds the linter version, the rule
    # registry, and the analyzer's own source into the key: editing any
    # checker invalidates every warm entry rather than serving clean
    # verdicts computed by an older rule set
    params_key = "|".join([
        ",".join(sorted(hot_packages)),
        ",".join(sorted(internal_roots)),
        ruleset_fingerprint(),
    ])
    cache = ProjectCache(cache_dir, params_key)

    report = AnalysisReport(cache_hits=0, cache_misses=0)
    analyses: List[FileAnalysis] = []
    for file_path, display in files:
        content = file_path.read_bytes()
        key = cache.key_for(content, module_names[file_path])
        entry = cache.get(key, display)
        if entry is None:
            entry = _analyze_file(
                file_path, content.decode("utf-8"), display,
                hot_packages, internal_roots)
            cache.put(key, entry)
        analyses.append(entry)
        report.files_scanned += 1

    violations: List[Violation] = []
    modules: List[ModuleFacts] = []
    for entry in analyses:
        violations.extend(entry.violations)
        if entry.facts is None:
            continue
        modules.append(entry.facts)
        violations.extend(violations_from_findings(entry.lock_findings,
                                                   entry.facts))

    graph = ProjectGraph.link(modules)
    violations.extend(check_races(graph))

    def by_module(sites: Callable[[FileAnalysis], List[Any]]
                  ) -> Dict[str, List[Any]]:
        grouped: Dict[str, List[Any]] = {}
        for entry in analyses:
            if entry.facts is not None:
                grouped.setdefault(entry.facts.module, []).extend(
                    sites(entry))
        return grouped

    violations.extend(check_lifecycle(
        graph, by_module(lambda entry: entry.life_sites)))

    if layer_config is None and files:
        layer_config = find_layer_config(files[0][0])
    if layer_config is not None:
        violations.extend(check_layers(modules, layer_config))

    if determinism is None and files:
        determinism = _resolve_table(files, find_determinism_config,
                                     "RA700", "determinism", "contracts",
                                     violations)
    if determinism is not None:
        det_violations, fixable = check_determinism(
            graph, by_module(lambda entry: entry.det_sites), determinism)
        violations.extend(det_violations)
        path_for_display = {display: str(path)
                            for path, display in files}
        for display, site in fixable:
            if select is not None and site.code not in select:
                continue
            real = path_for_display.get(display)
            if real is None:
                continue
            fix = fix_for_site(real, display, site)
            if fix is not None:
                report.fixes.append(fix)

    if durability is None and files:
        durability = _resolve_table(files, find_durability_config,
                                    "RA800", "durability",
                                    "artifact patterns", violations)
    if durability is not None:
        violations.extend(check_durability(
            graph, by_module(lambda entry: entry.dura_sites), durability))

    if select is not None:
        violations = [v for v in violations if v.code in select]
    report.violations = sorted(violations)
    report.cache_hits = cache.hits
    report.cache_misses = cache.misses
    return report


#: re-exported so callers can reason about which codes need --project
__all__ = ["CACHE_SCHEMA_VERSION", "DEFAULT_CACHE_DIR", "FileAnalysis",
           "ProjectCache", "analyze_project", "extract_file",
           "PROJECT_RULES"]
