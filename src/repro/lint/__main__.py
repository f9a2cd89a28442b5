"""CLI entry point: ``python -m repro.lint [paths...]``.

Runs the one pass - per-file rules plus the whole-program call-graph
analysis, each file parsed once.  Exit status is 0 when no findings
survive suppression, 1 otherwise - suitable for CI gating alongside the
test suite.

Also reachable as ``repro lint`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

import argparse
import sys

from .engine import findings_to_json, format_findings, run_lint
from .rules import RULES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Repo-aware static analysis: per-file rules "
                    "(determinism, shm lifecycle, io ownership) plus the "
                    "whole-program call-graph lockset analysis.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--select", action="append", default=None,
                        metavar="RULE", help="only run rules matching this "
                        "id or prefix (repeatable)")
    parser.add_argument("--ignore", action="append", default=None,
                        metavar="RULE", help="skip rules matching this id "
                        "or prefix (repeatable)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--stats", action="store_true",
                        help="print a summary (findings per rule, "
                        "suppressions per rule, wall time) instead "
                        "of individual findings")
    parser.add_argument("--list-rules", action="store_true",
                        help="list rule ids and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in RULES.values():
            scope = ", ".join(rule.scope) if rule.scope else "all files"
            kind = "project" if rule.project else "file"
            print(f"{rule.id:24s} [{kind:7s}] {rule.summary}  [{scope}]")
        return 0

    result = run_lint(args.paths, select=args.select, ignore=args.ignore)
    findings, stats = result.findings, result.stats

    if args.stats:
        print(f"files:            {stats.files}")
        print(f"findings:         {len(findings)}")
        for rule, n in sorted(stats.findings_per_rule.items()):
            print(f"  {rule:28s} {n}")
        total_sup = sum(stats.suppressed_per_rule.values())
        print(f"suppressed:       {total_sup}")
        for rule, n in sorted(stats.suppressed_per_rule.items()):
            print(f"  {rule:28s} {n}")
        print(f"wall:             {stats.wall_s:.3f} s")
        return 1 if findings else 0

    if args.format == "json":
        print(findings_to_json(findings, stats))
    else:
        print(format_findings(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
