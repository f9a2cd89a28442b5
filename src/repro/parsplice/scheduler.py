"""The ParSplice campaign loop: generator + oracle + splicer.

One scheduling quantum = every virtual worker produces one segment; the
oracle decides in which states the segments start; the splicer extends
the official trajectory as far as the store allows.  The achieved
*speedup* over plain MD is ``trajectory_time / (quanta * t_segment)`` -
it approaches the worker count when events are rare (segments almost
always start where the trajectory ends up) and collapses toward 1 when
new, unpredictable states appear constantly, exactly the easy/hard-case
phenomenology of the lecture's benchmark tables.

The loop is generator-agnostic: a generator exposes ``nstates``,
``t_segment`` and ``generate_batch(starts)``, called once per quantum
with one start state per worker.  A
:class:`~repro.parsplice.SegmentGenerator` evolves a
:class:`~repro.parsplice.MarkovStateModel` exactly; a
:class:`~repro.parsplice.SegmentScheduler` runs real MD, fanning each
quantum out over its pool of engine-session workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .oracle import TransitionOracle
from .splicer import SpliceEngine

__all__ = ["ParSpliceRun", "run_parsplice"]


@dataclass
class ParSpliceRun:
    """Summary of a ParSplice simulation campaign."""

    nworkers: int
    quanta: int
    trajectory_time: float
    generated_time: float
    n_spliced: int
    n_generated: int
    n_transitions: int
    n_states_visited: int
    speedup: float            # vs one MD worker over the same wall time
    spliced_fraction: float
    state_time: dict
    final_state: int          # where the spliced trajectory ends
    wall_s: float             # the campaign loop's own wall clock

    @property
    def spliced_ns_per_s(self) -> float:
        """Official spliced trajectory nanoseconds per wall-clock second
        (the service figure of merit)."""
        if self.wall_s <= 0:
            return float("inf")
        return self.trajectory_time / 1000.0 / self.wall_s

    def summary(self) -> str:
        return (f"{self.nworkers} workers x {self.quanta} quanta: "
                f"trajectory {self.trajectory_time:.1f} ps from "
                f"{self.generated_time:.1f} ps generated "
                f"({self.spliced_fraction * 100:.0f}% spliced), "
                f"{self.n_transitions} transitions, "
                f"speedup {self.speedup:.1f}x")


def run_parsplice(generator, *, nworkers: int = 1, quanta: int = 1,
                  initial_state: int = 0, horizon: int = 4,
                  speculate: bool = True) -> ParSpliceRun:
    """Run a ParSplice campaign over a segment generator.

    Parameters
    ----------
    generator:
        Segment source exposing ``nstates``, ``t_segment`` and
        ``generate_batch(starts)`` (one segment per start state, in
        order).
    nworkers:
        Virtual workers producing one segment each per quantum.
    quanta:
        Number of scheduling quanta (total wall time in units of one
        segment's generation cost).
    horizon:
        Segments ahead the oracle's speculation looks (at least 1).
    speculate:
        With ``False`` the oracle is bypassed and every worker starts in
        the current trajectory state (the no-speculation ablation; still
        benefits from revisit caching via the segment store).

    The run reports only what this call generated and how long its own
    loop took, however often the generator was used before.
    """
    if nworkers < 1 or quanta < 1:
        raise ValueError("nworkers and quanta must be positive")
    oracle = TransitionOracle(generator.nstates)
    splicer = SpliceEngine(initial_state=initial_state)
    n_generated = 0
    generated_time = 0.0

    t0 = time.perf_counter()
    for _ in range(quanta):
        if speculate:
            alloc = oracle.allocate(splicer.current_state, nworkers,
                                    horizon=horizon)
        else:
            alloc = np.zeros(generator.nstates, dtype=int)
            alloc[splicer.current_state] = nworkers
        # one start state per worker, in the historical generation order
        starts = np.repeat(np.arange(len(alloc)), alloc)
        segments = generator.generate_batch(starts)
        for seg in segments:
            oracle.observe(seg.start_state, seg.end_state)
        for seg in segments:
            splicer.deposit(seg)
            n_generated += 1
            generated_time += seg.duration
    wall = time.perf_counter() - t0

    visited = {s for s, t in splicer.state_time.items() if t > 0}
    return ParSpliceRun(
        nworkers=nworkers, quanta=quanta,
        trajectory_time=splicer.trajectory_time,
        generated_time=generated_time,
        n_spliced=splicer.n_spliced,
        n_generated=n_generated,
        n_transitions=splicer.n_transitions,
        n_states_visited=len(visited),
        speedup=splicer.trajectory_time / (quanta * generator.t_segment),
        spliced_fraction=splicer.spliced_fraction(n_generated),
        state_time=dict(splicer.state_time),
        final_state=splicer.current_state,
        wall_s=wall,
    )
