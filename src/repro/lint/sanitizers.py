"""Opt-in runtime sanitizers for the concurrent hot path.

Two debug instruments, both off by default and wired through
``SNAPParams.check_finite`` and the ``check_finite`` / ``race_check``
arguments of :func:`repro.md.build_engine`:

NaN/Inf guard
    :func:`check_finite` validates kernel outputs at every force/energy
    stage exit and raises :class:`NumericsError` naming the offending
    *phase* (and rank, in the distributed driver) plus the first bad
    index - so a poisoned value is caught where it is produced, not
    thousands of steps later in a drifting thermostat.

Scatter-add race detector
    The distributed engine's correctness rests on a convention: every
    rank scatter-adds only into its own *disjoint* owned-row region,
    while legitimately overlapping ghost contributions go through the
    fixed-order serialized reverse pass.  :class:`RaceDetector` records
    the write index-sets each rank declares per phase and reports any
    overlap between two non-serialized writers - with ranks run in
    order it is the owned-row disjointness check of the decomposition,
    the silent-race failure mode that dominated the TestSNAP
    optimization rounds at scale.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

__all__ = ["NumericsError", "RaceError", "Overlap", "WriteRecord",
           "RaceDetector", "check_finite"]


class NumericsError(FloatingPointError):
    """A kernel produced NaN/Inf; the message names phase and location."""


class RaceError(RuntimeError):
    """Two concurrent writers declared overlapping write regions."""

    def __init__(self, overlaps: list["Overlap"]) -> None:
        self.overlaps = overlaps
        detail = "; ".join(str(o) for o in overlaps[:5])
        more = f" (+{len(overlaps) - 5} more)" if len(overlaps) > 5 else ""
        super().__init__(
            f"concurrent scatter-add overlap detected: {detail}{more}")


def check_finite(phase: str, where: str = "", **arrays: np.ndarray) -> None:
    """Raise :class:`NumericsError` if any named array holds NaN/Inf.

    ``phase`` is the kernel stage that just produced the arrays (e.g.
    ``"compute_yi"``); ``where`` optionally adds rank/driver context.
    Scalars are accepted.  The error message carries the array name, the
    non-finite count and the first offending flat index, which is what
    makes an injected NaN attributable to the stage that created it.
    """
    for name, arr in arrays.items():
        if arr is None:
            continue
        a = np.asarray(arr)
        finite = np.isfinite(a) if a.dtype.kind in "fc" else None
        if finite is None or bool(finite.all()):
            continue
        bad = np.flatnonzero(~finite.ravel())
        ctx = f" [{where}]" if where else ""
        raise NumericsError(
            f"non-finite values after phase '{phase}'{ctx}: "
            f"{name} has {bad.size}/{a.size} bad entries "
            f"(first at flat index {int(bad[0])})")


@dataclass
class WriteRecord:
    """One writer's declared write region on a shared array."""

    phase: str      #: accumulation phase ("forces.scatter", "comm.reverse")
    writer: str     #: thread/rank attribution ("rank3")
    indices: np.ndarray  #: sorted unique row indices written
    serialized: bool     #: fixed-order accumulation; exempt from overlap

    @property
    def interval(self) -> tuple[int, int]:
        if self.indices.size == 0:
            return (0, -1)
        return (int(self.indices[0]), int(self.indices[-1]))


@dataclass(frozen=True)
class Overlap:
    """A detected write overlap between two concurrent writers."""

    phase: str
    writer_a: str
    writer_b: str
    count: int
    sample: tuple[int, ...]

    def __str__(self) -> str:
        return (f"phase '{self.phase}': {self.writer_a} and {self.writer_b} "
                f"both write {self.count} row(s), e.g. {list(self.sample)}")


class RaceDetector:
    """Collects per-thread write regions and reports overlaps.

    Writers call :meth:`record` *during* concurrent execution (the
    detector serializes its own bookkeeping); the driver calls
    :meth:`check` at the epoch barrier.  ``serialized=True`` records are
    exempt from pairwise overlap checks - they declare writes that are
    applied in fixed order on one thread (the reverse ghost-force pass),
    where overlap is legitimate and deterministic.
    """

    def __init__(self, raise_on_overlap: bool = True) -> None:
        self.raise_on_overlap = raise_on_overlap
        self.records: list[WriteRecord] = []  # guarded-by: _lock
        self.reports: list[Overlap] = []      # guarded-by: _lock
        self.epochs = 0                       # guarded-by: _lock
        self._lock = threading.Lock()

    def begin_epoch(self) -> None:
        """Start a new accumulation epoch (one force evaluation)."""
        with self._lock:
            self.records.clear()
            self.epochs += 1

    def record(self, phase: str, writer: str, indices: np.ndarray,
               serialized: bool = False) -> None:
        """Declare that ``writer`` writes rows ``indices`` in ``phase``."""
        idx = np.unique(np.asarray(indices, dtype=np.intp).ravel())
        rec = WriteRecord(phase=phase, writer=writer, indices=idx,
                          serialized=serialized)
        with self._lock:
            self.records.append(rec)

    # ------------------------------------------------------------------
    def overlaps(self) -> list[Overlap]:
        """Pairwise overlap scan of the current epoch's records."""
        with self._lock:
            records = list(self.records)
        by_phase: dict[str, list[WriteRecord]] = {}
        for r in records:
            if not r.serialized and r.indices.size:
                by_phase.setdefault(r.phase, []).append(r)
        found: list[Overlap] = []
        for phase, recs in by_phase.items():
            # interval quick-reject, exact index intersection on suspects
            recs = sorted(recs, key=lambda r: r.interval)
            for i, a in enumerate(recs):
                a_lo, a_hi = a.interval
                for b in recs[i + 1:]:
                    b_lo, b_hi = b.interval
                    if b_lo > a_hi:
                        break  # sorted by lower bound: no later overlap
                    shared = np.intersect1d(a.indices, b.indices,
                                            assume_unique=True)
                    if shared.size:
                        found.append(Overlap(
                            phase=phase, writer_a=a.writer, writer_b=b.writer,
                            count=int(shared.size),
                            sample=tuple(int(s) for s in shared[:4])))
        return found

    def check(self) -> list[Overlap]:
        """Scan the epoch; raise :class:`RaceError` when configured to."""
        found = self.overlaps()
        with self._lock:
            self.reports.extend(found)
        if found and self.raise_on_overlap:
            raise RaceError(found)
        return found
