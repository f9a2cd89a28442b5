"""Driver for the :mod:`repro.lint` static pass.

One pass, one entry point.  :func:`run_lint` reads every ``.py`` file
under the given paths, parses each **once**, and hands the same parsed
module (:class:`repro.lint.graph.ModuleInfo`) to the per-file rules
(:mod:`repro.lint.rules`) and to the shared call graph on which the
whole-program R8/R9/R10 analyses (:mod:`repro.lint.flow`) run; every
finding then goes through the same scope / selection / pragma filter.
:func:`lint_source` is the same pass over one in-memory source - the
fixture tests drive it directly.

Output is human text or ``--format=json``; ``--stats`` summarises
findings and suppressions per rule.  Nothing is written to disk.

The shipped tree lints clean: ``python -m repro.lint src/`` exits 0,
and one tier-1 test asserts that it stays that way.
"""

from __future__ import annotations

import ast
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .flow import run_project_rules
from .graph import Project
from .pragmas import collect_pragmas
from .rules import RULES, Finding

__all__ = ["lint_source", "run_lint", "LintResult", "LintStats",
           "format_findings", "findings_to_json"]


def _select_rules(select: Sequence[str] | None,
                  ignore: Sequence[str] | None) -> set[str]:
    ids = set(RULES)
    if select:
        wanted = set()
        for pat in select:
            wanted |= {r for r in ids if r == pat or r.startswith(pat)}
        ids = wanted
    if ignore:
        for pat in ignore:
            ids -= {r for r in ids if r == pat or r.startswith(pat)}
    return ids


@dataclass
class LintStats:
    files: int = 0
    findings_per_rule: dict = field(default_factory=dict)
    suppressed_per_rule: dict = field(default_factory=dict)
    wall_s: float = 0.0

    def as_dict(self) -> dict:
        return {"files": self.files,
                "findings_per_rule": dict(sorted(
                    self.findings_per_rule.items())),
                "suppressed_per_rule": dict(sorted(
                    self.suppressed_per_rule.items())),
                "wall_s": round(self.wall_s, 4)}


@dataclass
class LintResult:
    findings: list
    stats: LintStats
    #: the call graph the whole-program rules ran on
    project: Project


def _lint_sources(sources: dict[str, str], active: set[str],
                  unreadable: Sequence[Finding] = ()) -> LintResult:
    """The pass itself over ``{path: source}``."""
    stats = LintStats(files=len(sources))
    project = Project()
    raw: list[Finding] = []             # rule findings, filtered below
    kept: list[Finding] = list(unreadable)  # E0/P0 diagnostics, unfiltered
    tables = {}

    for path in sorted(sources):
        source = sources[path]
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            kept.append(Finding("E0-syntax", Path(path).as_posix(),
                                exc.lineno or 1, 0,
                                f"file does not parse: {exc.msg}"))
            continue
        mod = project.add_parsed(path, source, tree)
        pragmas = tables[mod.path] = collect_pragmas(source, mod.comments)
        # a suppression without a recorded reason, or naming a rule that
        # does not exist, is itself a finding
        for p in pragmas.unjustified():
            kept.append(Finding("P0-unjustified-pragma", mod.path, p.line, 0,
                                "suppression pragma lacks a justification; "
                                "append ' -- <why this is safe>'"))
        for p, rule_id in pragmas.unknown(RULES):
            kept.append(Finding("P0-unknown-rule", mod.path, p.line, 0,
                                f"pragma names unknown rule {rule_id!r}; it "
                                "suppresses nothing (python -m repro.lint "
                                "--list-rules)"))
        # several rule ids share one check function: run each once
        checks = {r.check for r in RULES.values()
                  if r.check is not None and r.id in active
                  and r.applies_to(mod.path)}
        for check in checks:
            raw.extend(check(mod))
    project.link()
    raw.extend(run_project_rules(project, active))

    seen: set[tuple] = set()
    for f in raw:
        if f.rule not in active or not RULES[f.rule].applies_to(f.path):
            continue
        key = (f.rule, f.path, f.line, f.col, f.message)
        if key in seen:
            continue
        seen.add(key)
        if tables[f.path].suppresses(f.rule, f.line):
            stats.suppressed_per_rule[f.rule] = \
                stats.suppressed_per_rule.get(f.rule, 0) + 1
            continue
        kept.append(f)

    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    for f in kept:
        stats.findings_per_rule[f.rule] = \
            stats.findings_per_rule.get(f.rule, 0) + 1
    return LintResult(findings=kept, stats=stats, project=project)


def lint_source(source: str, path: str = "<string>",
                select: Sequence[str] | None = None,
                ignore: Sequence[str] | None = None) -> list[Finding]:
    """Lint one source string; ``path`` drives rule scoping."""
    return _lint_sources({path: source},
                         _select_rules(select, ignore)).findings


def _iter_py_files(paths: Iterable[str | Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        p = Path(path)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    return files


def run_lint(paths: Iterable[str | Path], *,
             select: Sequence[str] | None = None,
             ignore: Sequence[str] | None = None) -> LintResult:
    """Lint every ``.py`` file under ``paths``: per-file rules and the
    whole-program analyses over the call graph of the whole file set."""
    t0 = time.perf_counter()
    sources: dict[str, str] = {}
    unreadable: list[Finding] = []
    for p in _iter_py_files(paths):
        try:
            sources[p.as_posix()] = p.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            unreadable.append(Finding("E0-io", p.as_posix(), 1, 0,
                                      f"cannot read: {exc}"))
    result = _lint_sources(sources, _select_rules(select, ignore),
                           unreadable)
    result.stats.wall_s = time.perf_counter() - t0
    return result


# ======================================================================
# output formats
# ======================================================================
def format_findings(findings: Sequence[Finding]) -> str:
    lines = [f.render() for f in findings]
    lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)


def findings_to_json(findings: Sequence[Finding],
                     stats: LintStats | None = None) -> str:
    doc: dict = {"findings": [
        {"rule": f.rule, "path": f.path, "line": f.line, "col": f.col,
         "message": f.message, **({"trace": list(f.trace)} if f.trace else {})}
        for f in findings]}
    if stats is not None:
        doc["stats"] = stats.as_dict()
    return json.dumps(doc, indent=2, sort_keys=True)
