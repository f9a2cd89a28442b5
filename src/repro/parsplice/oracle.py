"""Statistical oracle for speculative segment scheduling.

ParSplice "parallelizes over the future" by predicting where the
trajectory will be and pre-generating segments there.  The oracle is a
Dirichlet-smoothed empirical transition model learned online from the
segments seen so far; model quality affects *efficiency only*, never
accuracy (mispredicted segments simply wait in the store).
"""

from __future__ import annotations


import numpy as np

__all__ = ["TransitionOracle", "measured_md_rate"]


def measured_md_rate(system, potential=None, dt: float = 1.0e-3,
                     nsteps: int = 10, *, engine=None,
                     **engine_kwargs) -> float:
    """Measure the MD engine speed [simulated ps per wall-second].

    Runs a short burst of real MD through the shared
    :class:`repro.md.MDLoop` and converts the measured
    ``atom_steps_per_s`` into the segment speed that
    :func:`repro.exaalt.calibrated_config` prices an EXAALT task with -
    grounding the virtual segment cost in an actual engine measurement
    instead of a guess.

    By default a fresh engine is built (``engine_kwargs`` select the
    backend: ``backend``, ``nprocs``, ...) and torn down.  Passing a
    live :class:`repro.md.EngineSession` via ``engine`` measures one
    :meth:`~repro.md.EngineSession.run` on it instead - the session is
    rebound to ``system``, counts the run, and is left open (caller
    keeps ownership), so calibration runs at the session fleet's true
    marginal cost.
    """
    from ..md.engine import MDLoop, build_engine

    if nsteps < 1:
        raise ValueError("nsteps must be positive")
    if engine is not None:
        summary = engine.run(system, nsteps, dt=dt)
    else:
        if potential is None:
            raise ValueError("potential is required without an engine")
        with build_engine(system, potential, **engine_kwargs) as eng:
            summary = MDLoop(eng, dt=dt).run(nsteps)
    steps_per_s = summary.atom_steps_per_s / summary.natoms
    return steps_per_s * dt


class TransitionOracle:
    """Online empirical model of segment outcomes.

    ``predict(state, horizon)`` returns the probability distribution of
    the trajectory's state after ``horizon`` further segments, from
    which the scheduler draws speculation targets.
    """

    def __init__(self, nstates: int, alpha: float = 0.5) -> None:
        if nstates < 1:
            raise ValueError("nstates must be positive")
        self.nstates = nstates
        self.alpha = alpha
        self._counts = np.zeros((nstates, nstates))

    def observe(self, start: int, end: int) -> None:
        """Record one segment outcome."""
        self._counts[start, end] += 1.0

    def transition_matrix(self) -> np.ndarray:
        """Row-stochastic segment-outcome matrix with Dirichlet smoothing.

        Unvisited states default to the identity (stay put), so early
        speculation concentrates where the trajectory is.
        """
        m = self._counts + self.alpha * np.eye(self.nstates)
        return m / m.sum(axis=1, keepdims=True)

    def predict(self, state: int, horizon: int = 1) -> np.ndarray:
        """Distribution of the end state after ``horizon`` segments."""
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        p = np.zeros(self.nstates)
        p[state] = 1.0
        if horizon == 0:
            return p
        m = self.transition_matrix()
        return p @ np.linalg.matrix_power(m, horizon)

    def allocate(self, state: int, nworkers: int,
                 horizon: int = 4) -> np.ndarray:
        """Worker counts per state for the next scheduling quantum.

        Mixes the predicted occupation over 1..horizon segments ahead and
        apportions workers proportionally (largest remainders).
        """
        if nworkers < 1:
            raise ValueError("nworkers must be positive")
        if horizon < 1:
            raise ValueError("horizon must be positive")
        weights = np.zeros(self.nstates)
        for h in range(1, horizon + 1):
            weights += self.predict(state, h)
        weights /= weights.sum()
        raw = weights * nworkers
        alloc = np.floor(raw).astype(int)
        rem = nworkers - alloc.sum()
        if rem > 0:
            order = np.argsort(-(raw - alloc))
            alloc[order[:rem]] += 1
        return alloc
