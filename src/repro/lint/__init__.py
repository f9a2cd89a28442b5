"""Repo-aware static analysis + runtime sanitizers for the hot path.

Static half (``python -m repro.lint src/`` or ``repro lint``): one pass,
one analysis per bug class.  Per-file AST rules enforce deterministic
iteration order (R1), filled ``np.empty`` scratch (R2), shared-memory
lifecycle (R5) and the shm / io ownership table (R5-helper, R6);
whole-program analyses on a shared call graph
(:mod:`repro.lint.graph` / :mod:`repro.lint.flow`) check the
``# guarded-by: <lock>`` convention - declaration presence and lock
held on every call path (R8, the only lock rule) -, ForceEngine
protocol conformance with phase-registry validation (R9) and flow-based
determinism taint (R10).  :func:`run_lint` is the entry point
(:func:`lint_source` for one in-memory file); findings are suppressed
inline with ``# repro-lint: disable=<rule> -- <justification>``.

Runtime half (:mod:`repro.lint.sanitizers`): opt-in NaN/Inf guards with
phase and rank attribution, wired through ``SNAPParams.check_finite``
and the ``check_finite`` argument of ``build_engine``.
"""

from .engine import (LintResult, LintStats, findings_to_json,
                     format_findings, lint_source, run_lint)
from .flow import PROJECT_RULE_IDS, run_project_rules
from .graph import Project
from .rules import RULES, Finding, Rule
from .sanitizers import NumericsError, check_finite

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "lint_source",
    "run_lint",
    "format_findings",
    "LintResult",
    "LintStats",
    "findings_to_json",
    "Project",
    "run_project_rules",
    "PROJECT_RULE_IDS",
    "NumericsError",
    "check_finite",
]
