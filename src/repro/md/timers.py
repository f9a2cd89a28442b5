"""Phase timers mirroring the LAMMPS timing breakdown.

The paper's Fig. 4 splits wall time into "SNAP" (force), "MPI Comm" and
"Other" (I/O, thermostat, Verlet integration, ...).  :class:`PhaseTimers`
accumulates the same categories for our drivers so a run's
``RunSummary.phase_breakdown`` reports measured fractions in the
paper's terms.

Phases nest one level: a dotted name like ``"comm.halo_build"`` is a
*sub-phase* of the top-level ``"comm"`` phase.  Sub-phases are kept in a
separate ledger and never contribute to :attr:`total` or
:meth:`fractions` - they annotate where a top-level phase spent its time
(the drivers time the top-level phase around the whole stage and the
sub-phases inside it, so summing both would double count).
:meth:`breakdown` merges the two views into one nested report.
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["PhaseTimers", "TOP_PHASES", "SUB_PHASES",
           "DYNAMIC_SUB_PARENTS", "known_phase"]

# ----------------------------------------------------------------------
# canonical phase registry
# ----------------------------------------------------------------------
# Every backend reports its time through the same small phase
# vocabulary so one Fig. 4 breakdown can compare them; a backend
# that invents a phase string silently falls out of every cross-backend
# table.  PhaseTimers enforces this at run time: the first time a name
# is timed it must pass known_phase() or the call raises ValueError, so
# a typo fails the first run that reaches it instead of dropping a
# table column.  New phases are added HERE first, then used.

#: top-level phases (the Fig. 4 categories plus engine bookkeeping)
TOP_PHASES = ("neigh", "force", "comm", "other", "io", "analysis")

#: fixed dotted sub-phases the drivers report
SUB_PHASES = ("comm.halo_build", "comm.forward", "comm.reverse",
              "neigh.rebuild", "neigh.refresh")

# What the process workers book where: ``neigh`` is the span around
# their ``NeighborList.get`` (as in the serial engine); ``comm`` is all
# waiting on other ranks plus the owner assembly.  A rebuild step's one
# topology barrier (the pair-count exchange), its neighbor-id publish
# and its incidence build go to ``comm.halo_build``, a refresh step has
# no forward wait left (``comm.forward`` reads ~0), and the one barrier
# of every step - kept mask and per-pair values published together -
# sits in ``comm.reverse`` with the gather behind it.

#: parents whose sub-phase names are dynamic (per-kernel stage keys,
#: e.g. ``force.compute_yi`` from ``Potential.last_timings``)
DYNAMIC_SUB_PARENTS = ("force",)


def known_phase(name: str) -> bool:
    """Is ``name`` a registered phase (or a dynamic sub-phase)?"""
    if "." not in name:
        return name in TOP_PHASES
    if name in SUB_PHASES:
        return True
    return name.split(".", 1)[0] in DYNAMIC_SUB_PARENTS


class PhaseTimers:
    """Named accumulating wall-clock timers with one level of nesting.

    A name outside the registry raises ``ValueError`` the first time it
    is timed (:func:`known_phase`); names already seen cost nothing more.
    """

    def __init__(self) -> None:
        self._acc: dict[str, float] = {}
        self._sub: dict[str, float] = {}

    def phase(self, name: str) -> "_Phase":
        """Context manager booking its wall time to ``name``, also when
        the body raises (the exception propagates)."""
        return _Phase(self, name)

    def add(self, name: str, seconds: float) -> None:
        acc = self._sub if "." in name else self._acc
        try:
            acc[name] += seconds
        except KeyError:
            if not known_phase(name):
                raise ValueError(
                    f"phase {name!r} is not registered in repro.md.timers "
                    "(TOP_PHASES / SUB_PHASES / DYNAMIC_SUB_PARENTS)"
                ) from None
            acc[name] = seconds

    @property
    def totals(self) -> dict[str, float]:
        return dict(self._acc)

    @property
    def subtotals(self) -> dict[str, float]:
        """Accumulated seconds per dotted sub-phase."""
        return dict(self._sub)

    @property
    def total(self) -> float:
        return sum(self._acc.values())

    def fractions(self) -> dict[str, float]:
        """Fraction of total time per phase (empty dict if nothing timed)."""
        tot = self.total
        if tot <= 0:
            return {}
        return {k: v / tot for k, v in self._acc.items()}

    def breakdown(self) -> dict[str, dict]:
        """Nested report: per top-level phase, seconds/fraction/sub-split.

        Sub-phase seconds are reported as measured; a sub-phase whose
        parent was never timed at the top level still appears (with the
        parent's ``seconds`` set to the sum of its sub-phases).
        """
        tot = self.total
        out: dict[str, dict] = {}
        parents = set(self._acc) | {k.split(".", 1)[0] for k in self._sub}
        for top in sorted(parents):
            sub = {k.split(".", 1)[1]: v for k, v in self._sub.items()
                   if k.split(".", 1)[0] == top}
            seconds = self._acc.get(top, sum(sub.values()))
            entry: dict = {"seconds": seconds}
            if tot > 0 and top in self._acc:
                entry["fraction"] = seconds / tot
            if sub:
                entry["sub"] = sub
            out[top] = entry
        return out

    def reset(self) -> None:
        self._acc.clear()
        self._sub.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v:.3g}s"
                          for k, v in sorted({**self._acc, **self._sub}.items()))
        return f"PhaseTimers({parts})"


class _Phase:
    """One timed span of :meth:`PhaseTimers.phase`: a plain context
    object, a few calls cheaper per span than a generator context
    manager (the MD step opens four)."""

    __slots__ = ("timers", "name", "t0")

    def __init__(self, timers: PhaseTimers, name: str) -> None:
        self.timers = timers
        self.name = name

    def __enter__(self) -> None:
        self.t0 = perf_counter()

    def __exit__(self, *exc) -> None:
        self.timers.add(self.name, perf_counter() - self.t0)
