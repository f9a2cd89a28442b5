"""The splicing engine: assemble one long trajectory from segments.

Maintains the official trajectory end state and a per-state store of
not-yet-used segments ("parallelize over the past": work done for
states that are revisited later is never thrown away).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass


from .segments import Segment

__all__ = ["SpliceEngine"]


@dataclass
class SpliceEngine:
    """End-to-end trajectory splicing with a segment store."""

    initial_state: int

    def __post_init__(self) -> None:
        self.current_state = self.initial_state
        self.trajectory_time = 0.0
        self.n_spliced = 0
        self.n_transitions = 0
        self.visits: dict[int, int] = defaultdict(int)
        self.state_time: dict[int, float] = defaultdict(float)
        self.transition_counts: dict[tuple[int, int], int] = defaultdict(int)
        self._store: dict[int, deque[Segment]] = defaultdict(deque)

    # ------------------------------------------------------------------
    def deposit(self, segment: Segment) -> None:
        """Add a freshly generated segment to the store and splice."""
        self._store[segment.start_state].append(segment)
        self._drain()

    def _drain(self) -> None:
        """Splice as far as the store allows."""
        q = self._store[self.current_state]
        while q:
            seg = q.popleft()
            self.trajectory_time += seg.duration
            self.state_time[seg.start_state] += seg.duration
            self.n_spliced += 1
            if seg.is_transition:
                self.n_transitions += 1
                self.transition_counts[(seg.start_state, seg.end_state)] += 1
                self.visits[seg.end_state] += 1
            self.current_state = seg.end_state
            q = self._store[self.current_state]

    # ------------------------------------------------------------------
    @property
    def stored_segments(self) -> int:
        return sum(len(q) for q in self._store.values())

    def spliced_fraction(self, n_generated: int) -> float:
        """Fraction of generated segments already spliced in."""
        if n_generated == 0:
            return 0.0
        return self.n_spliced / n_generated

    def empirical_state_fractions(self) -> dict[int, float]:
        """Time fraction spent per state along the official trajectory."""
        t = self.trajectory_time
        if t <= 0:
            return {}
        return {s: v / t for s, v in self.state_time.items()}
