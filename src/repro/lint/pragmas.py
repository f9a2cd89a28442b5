"""Suppression pragmas for the :mod:`repro.lint` static pass.

A finding is suppressed with an inline pragma naming the rule and a
mandatory justification::

    for j in job_set:  # repro-lint: disable=R1-set-iter -- order folded by max()

A pragma that is the only content of its line applies to the *next*
line, which keeps long statements readable::

    # repro-lint: disable=R6-io-owner -- a scratch copy, never restored
    np.savez(ckpt_scratch, **arrays)

``disable=all`` suppresses every rule on the covered line.  A pragma
without a ``-- <justification>`` tail is itself reported
(``P0-unjustified-pragma``): the whole point of the convention is that
every suppression records *why* the flagged pattern is safe.  So is a
pragma naming a rule id that does not exist (``P0-unknown-rule``): a
typo, or a pragma left behind by a deleted rule, suppresses nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["Pragma", "PragmaTable", "collect_pragmas", "PRAGMA_TAG"]

PRAGMA_TAG = "repro-lint:"

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[\w\-,* ]+?)"
    r"\s*(?:--\s*(?P<why>.*))?$")


@dataclass
class Pragma:
    """One parsed suppression comment."""

    line: int            #: line the comment sits on
    applies_to: int      #: line whose findings it suppresses
    rules: frozenset[str]
    justification: str

    def covers(self, rule_id: str) -> bool:
        return "all" in self.rules or rule_id in self.rules


class PragmaTable:
    """Pragmas of one file, indexed by the line they apply to."""

    def __init__(self, pragmas: list[Pragma]) -> None:
        self._by_line: dict[int, list[Pragma]] = {}
        self.pragmas = pragmas
        for p in pragmas:
            self._by_line.setdefault(p.applies_to, []).append(p)

    def suppresses(self, rule_id: str, line: int) -> bool:
        """True if ``rule_id@line`` is disabled."""
        return any(p.covers(rule_id) for p in self._by_line.get(line, ()))

    def unjustified(self) -> list[Pragma]:
        return [p for p in self.pragmas if not p.justification]

    def unknown(self, known_ids) -> list[tuple[Pragma, str]]:
        """``(pragma, id)`` for every named id outside ``known_ids``."""
        return [(p, r) for p in self.pragmas for r in sorted(p.rules)
                if r != "all" and r not in known_ids]


def collect_pragmas(source: str, comments: dict[int, str]) -> PragmaTable:
    """Parse all ``repro-lint`` pragmas out of one file.

    Works from the tokenizer's comment map (``ModuleInfo.comments``),
    not line regexes, so pragmas inside string literals are never
    misread as suppressions.
    """
    pragmas: list[Pragma] = []
    lines = source.splitlines()
    for line, text in sorted(comments.items()):
        if PRAGMA_TAG not in text:
            continue
        m = _PRAGMA_RE.search(text)
        if m is None:
            # malformed pragma: record as unjustified so it gets reported
            pragmas.append(Pragma(line=line, applies_to=line,
                                  rules=frozenset(), justification=""))
            continue
        rules = frozenset(r.strip() for r in m.group("rules").split(",")
                          if r.strip())
        # a comment alone on its line covers the following line
        standalone = lines[line - 1].lstrip().startswith("#")
        pragmas.append(Pragma(
            line=line,
            applies_to=line + 1 if standalone else line,
            rules=rules,
            justification=(m.group("why") or "").strip()))
    return PragmaTable(pragmas)
