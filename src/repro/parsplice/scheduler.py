"""The ParSplice driver: workers + oracle + splicer.

One scheduling quantum = every virtual worker produces one segment; the
oracle decides in which states the segments start; the splicer extends
the official trajectory as far as the store allows.  The achieved
*speedup* over plain MD is ``trajectory_time / (quanta * t_segment)`` -
it approaches the worker count when events are rare (segments almost
always start where the trajectory ends up) and collapses toward 1 when
new, unpredictable states appear constantly, exactly the easy/hard-case
phenomenology of the lecture's benchmark tables.

The driver is generator-agnostic: by default it evolves a
:class:`~repro.parsplice.MarkovStateModel` exactly
(:class:`~repro.parsplice.SegmentGenerator`), but any object with
``generate(state)`` / ``nstates`` / ``t_segment`` plugs in - a
:class:`~repro.parsplice.segments.MDSegmentGenerator` runs real MD over
one engine session, and a
:class:`~repro.parsplice.service.ServiceSegmentGenerator` fans each
scheduling quantum out over a whole session pool (generators exposing
``generate_batch`` receive the quantum as one batch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MarkovStateModel
from .oracle import TransitionOracle
from .segments import SegmentGenerator
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

    def summary(self) -> str:
        return (f"{self.nworkers} workers x {self.quanta} quanta: "
                f"trajectory {self.trajectory_time:.1f} ps from "
                f"{self.generated_time:.1f} ps generated "
                f"({self.spliced_fraction * 100:.0f}% spliced), "
                f"{self.n_transitions} transitions, "
                f"speedup {self.speedup:.1f}x")


def run_parsplice(msm: MarkovStateModel | None = None, nworkers: int = 1,
                  quanta: int = 1, t_segment: float = 1.0,
                  initial_state: int = 0, horizon: int = 4, seed: int = 0,
                  speculate: bool = True, generator=None) -> ParSpliceRun:
    """Run a ParSplice campaign on a state model or a segment generator.

    Parameters
    ----------
    msm:
        State model for the default exact-CTMC generator; optional when
        ``generator`` is given.
    nworkers:
        Virtual workers producing one segment each per quantum.
    quanta:
        Number of scheduling quanta (total wall time in units of one
        segment's generation cost).
    speculate:
        With ``False`` the oracle is bypassed and every worker starts in
        the current trajectory state (the no-speculation ablation; still
        benefits from revisit caching via the segment store).
    generator:
        Segment source implementing ``generate(state)`` and ``nstates``;
        ``t_segment`` is taken from it when exposed, and a
        ``generate_batch(states)`` method (the service adapter) receives
        each quantum's allocation as one batch.
    """
    if nworkers < 1 or quanta < 1:
        raise ValueError("nworkers and quanta must be positive")
    if generator is None:
        if msm is None:
            raise ValueError("either msm or generator is required")
        generator = SegmentGenerator(msm, t_segment=t_segment, seed=seed)
    nstates = int(generator.nstates if hasattr(generator, "nstates")
                  else msm.nstates)
    t_segment = float(getattr(generator, "t_segment", t_segment))
    # a reused generator counts its lifetime: report this campaign's share
    base_count = generator.n_generated
    base_time = generator.generated_time
    oracle = TransitionOracle(nstates)
    splicer = SpliceEngine(initial_state=initial_state)

    for _ in range(quanta):
        if speculate:
            alloc = oracle.allocate(splicer.current_state, nworkers,
                                    horizon=horizon)
        else:
            alloc = np.zeros(nstates, dtype=int)
            alloc[splicer.current_state] = nworkers
        # one start state per worker, in the historical generation order
        starts = np.repeat(np.arange(len(alloc)), alloc)
        if hasattr(generator, "generate_batch"):
            segments = generator.generate_batch(starts)
        else:
            segments = [generator.generate(int(s)) for s in starts]
        for seg in segments:
            oracle.observe(seg.start_state, seg.end_state)
        for seg in segments:
            splicer.deposit(seg)

    visited = {s for s, t in splicer.state_time.items() if t > 0}
    n_generated = generator.n_generated - base_count
    return ParSpliceRun(
        nworkers=nworkers, quanta=quanta,
        trajectory_time=splicer.trajectory_time,
        generated_time=generator.generated_time - base_time,
        n_spliced=splicer.n_spliced,
        n_generated=n_generated,
        n_transitions=splicer.n_transitions,
        n_states_visited=len(visited),
        speedup=splicer.trajectory_time / (quanta * t_segment),
        spliced_fraction=splicer.spliced_fraction(n_generated),
        state_time=dict(splicer.state_time),
    )
