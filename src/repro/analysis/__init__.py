"""Repo-specific static analysis: the determinism & parallel-safety gate.

``repro lint`` (see :mod:`repro.analysis.cli`) visits each module once
with the per-file checker (:mod:`repro.analysis.checkers`) enforcing the invariants the reproduction's
correctness rests on — explicitly-seeded RNG everywhere, picklable
symbols across process-pool boundaries, no wall-clock reads on the
hot path, no mutable default arguments.  ``repro lint --project``
(see :mod:`repro.analysis.project`) adds whole-program rules on top:
a call-graph race detector (RA501), a lock-discipline checker
(RA502), the architecture-layer contract (RA601), the
determinism/numeric-safety dataflow rules RA700–RA704 (see
:mod:`repro.analysis.dataflow`) driven by the
``[tool.repro.determinism]`` contract table, and the
concurrency-lifecycle & durability wave RA800–RA805 (see
:mod:`repro.analysis.lifecycle` and
:mod:`repro.analysis.durability`) — lock-order deadlocks, blocking
calls under a lock, leaked threads/processes, and durable artifacts
(``[tool.repro.durability]``) written without tmp+fsync+rename — with
per-file results cached incrementally by content hash.  Each file is
parsed once and summarised by one pass (see :mod:`repro.analysis.ir`)
that every rule wave reads.  ``repro lint
--fix`` applies the safe RA7xx rewrites (see
:mod:`repro.analysis.fixer`).  Rules are documented in
``docs/static-analysis.md`` and suppressed inline with
``# repro: noqa[RAxxx]``.
"""

from .base import (DEFAULT_HOT_PACKAGES, FIXABLE_RULES, LINT_VERSION,
                   PROJECT_RULES, RULES, ImportMap, ModuleContext,
                   Violation, apply_suppressions, ruleset_fingerprint,
                   suppressed_lines)
from .checkers import FileChecker
from .dataflow import (DetBuilder, DeterminismConfig,
                       DeterminismConfigError, DetSite, check_determinism,
                       find_determinism_config, read_determinism_table)
from .durability import (DuraBuilder, DurabilityConfig,
                         DurabilityConfigError, DuraSite, check_durability,
                         find_durability_config, read_durability_table)
from .engine import (AnalysisReport, analyze_paths, analyze_source,
                     iter_python_files)
from .ir import FunctionIR, ModuleIR, SiteBuilder
from .lifecycle import LifeBuilder, LifeSite, check_lifecycle
from .fixer import Fix, apply_fixes, fix_for_site, render_diffs
from .project import FileAnalysis, analyze_project, extract_file

__all__ = [
    "DEFAULT_HOT_PACKAGES",
    "FIXABLE_RULES",
    "LINT_VERSION",
    "PROJECT_RULES",
    "RULES",
    "FileChecker",
    "ImportMap",
    "ModuleContext",
    "Violation",
    "apply_suppressions",
    "ruleset_fingerprint",
    "suppressed_lines",
    "DetBuilder",
    "DeterminismConfig",
    "DeterminismConfigError",
    "DetSite",
    "check_determinism",
    "find_determinism_config",
    "read_determinism_table",
    "DuraBuilder",
    "DurabilityConfig",
    "DurabilityConfigError",
    "DuraSite",
    "check_durability",
    "find_durability_config",
    "read_durability_table",
    "FunctionIR",
    "ModuleIR",
    "SiteBuilder",
    "LifeBuilder",
    "LifeSite",
    "check_lifecycle",
    "AnalysisReport",
    "analyze_paths",
    "analyze_source",
    "analyze_project",
    "extract_file",
    "FileAnalysis",
    "iter_python_files",
    "Fix",
    "apply_fixes",
    "fix_for_site",
    "render_diffs",
]
