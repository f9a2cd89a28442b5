"""Repo-aware static analysis + runtime sanitizers for the hot path.

Static half (``python -m repro.lint src/`` or ``repro lint``): per-file
AST rules enforcing the conventions the concurrent SNAP/MD pipeline
relies on - deterministic iteration order (R1), complex/real dtype
discipline (R2), the ``# guarded-by: <lock>`` thread-safety annotation
convention (R3), hygiene (R4), shared-memory lifecycle (R5), io/tuning
ownership (R6/R7) - plus whole-program analyses on a shared call graph
(:mod:`repro.lint.graph` / :mod:`repro.lint.flow`): interprocedural
lockset checking of the guarded-by contracts (R8), ForceEngine protocol
conformance with phase-registry validation (R9) and flow-based
determinism taint (R10).  Findings are suppressed inline with
``# repro-lint: disable=<rule> -- <justification>``; results are cached
per file hash (:func:`run_lint`).

Runtime half (:mod:`repro.lint.sanitizers`): opt-in NaN/Inf guards with
phase attribution and a scatter-add race detector for the rank
decomposition, wired through ``SNAPParams.check_finite`` and the
``check_finite``/``race_check`` arguments of ``build_engine``.
"""

from .engine import (LintResult, LintStats, findings_to_json,
                     findings_to_sarif, format_findings, iter_py_files,
                     lint_file, lint_paths, lint_source, load_baseline,
                     run_lint, write_baseline)
from .flow import PROJECT_RULE_IDS, build_project, run_project_rules
from .graph import Project
from .rules import RULES, Finding, Rule
from .sanitizers import (NumericsError, Overlap, RaceDetector, RaceError,
                         WriteRecord, check_finite)

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_py_files",
    "format_findings",
    "run_lint",
    "LintResult",
    "LintStats",
    "load_baseline",
    "write_baseline",
    "findings_to_json",
    "findings_to_sarif",
    "Project",
    "build_project",
    "run_project_rules",
    "PROJECT_RULE_IDS",
    "NumericsError",
    "RaceError",
    "RaceDetector",
    "Overlap",
    "WriteRecord",
    "check_finite",
]
