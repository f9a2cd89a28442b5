"""Trajectory segments and their generation - virtual and real MD.

A *segment* is a trajectory piece that spent at least the decorrelation
time ``t_corr`` in its first and last state, so that independently
generated segments can be spliced end-to-end into a statistically
correct state-to-state trajectory.

:class:`SegmentGenerator`
    Exact CTMC evolution on a :class:`~repro.parsplice.MarkovStateModel`
    (the validity of splicing for Markovian state-to-state dynamics is
    what the QSD theory establishes).
:func:`run_md_segment`
    Real MD: a state indexes a stored configuration, one segment is
    ``nsteps`` of Langevin dynamics from it over a reusable
    :class:`~repro.md.engine.EngineSession`.  Velocity draw and
    thermostat stream derive from a keyed
    :class:`~repro.core.rng.SeedStream`, so the same ``(state, seed)``
    replays the bitwise-identical segment on any session, any backend,
    any number of resubmissions - the idempotency the batched segment
    service (:mod:`repro.parsplice.service`) is built on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..core.rng import SeedStream
from ..md.engine import EngineSession
from ..md.integrators import LangevinThermostat
from ..md.system import ParticleSystem
from .model import MarkovStateModel

__all__ = ["Segment", "SegmentGenerator", "MDSegment", "run_md_segment"]


@dataclass(frozen=True)
class Segment:
    """One spliceable trajectory piece."""

    start_state: int
    end_state: int
    duration: float        # physical time [ps]
    n_transitions: int

    @property
    def is_transition(self) -> bool:
        return self.start_state != self.end_state


class SegmentGenerator:
    """Produces segments by exact dynamics on a state model.

    Parameters
    ----------
    msm:
        The underlying state-to-state dynamics.
    t_segment:
        Physical duration of one segment [ps].
    seed:
        Root entropy, or a :class:`~repro.core.rng.SeedStream` position;
        an ``int`` realizes the same stream as the historical
        ``default_rng(seed)``, so existing campaigns replay unchanged.
    """

    def __init__(self, msm: MarkovStateModel, t_segment: float = 1.0,
                 seed: int | SeedStream = 0) -> None:
        if t_segment <= 0:
            raise ValueError("t_segment must be positive")
        self.msm = msm
        self.t_segment = t_segment
        stream = seed if isinstance(seed, SeedStream) else SeedStream(seed)
        self._rng = stream.generator()

    @property
    def nstates(self) -> int:
        return self.msm.nstates

    def generate(self, state: int) -> Segment:
        """Produce one segment starting (QSD-equilibrated) in ``state``."""
        end, ntrans = self.msm.evolve(state, self.t_segment, self._rng)
        return Segment(start_state=state, end_state=end,
                       duration=self.t_segment, n_transitions=ntrans)

    def generate_batch(self, starts) -> list[Segment]:
        """One scheduling quantum: a segment per start state, in order."""
        return [self.generate(int(s)) for s in starts]


# ======================================================================
# real-MD segments
# ======================================================================
@dataclass(frozen=True)
class MDSegment(Segment):
    """One real-MD segment: the spliceable piece plus its final state.

    A :class:`Segment`, so it deposits straight into
    :class:`~repro.parsplice.SpliceEngine`; ``state`` is the key's
    state, its ``start_state``.  The ``fingerprint`` hashes the final
    phase-space point; two segments are bitwise-identical iff their
    fingerprints match, which is how the service asserts idempotent
    resubmission.
    """

    seed: int
    positions: np.ndarray = field(repr=False)
    velocities: np.ndarray = field(repr=False)
    energy: float
    wall_s: float
    fingerprint: str

    @property
    def state(self) -> int:
        return self.start_state


def _phase_fingerprint(positions: np.ndarray, velocities: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(positions).tobytes())
    digest.update(np.ascontiguousarray(velocities).tobytes())
    return digest.hexdigest()[:16]


def run_md_segment(session: EngineSession, template: ParticleSystem, *,
                   state: int, seed: int, stream: SeedStream,
                   nsteps: int = 100, dt: float = 1.0e-3,
                   temperature: float = 300.0, damp: float = 0.1,
                   classifier=None) -> MDSegment:
    """One deterministic Langevin segment over a live engine session.

    All randomness - the Maxwell-Boltzmann velocity draw and the
    Langevin noise stream - derives from the keyed child stream
    ``stream.child("segment", state, seed)``, and the session's bind
    contract rebuilds the neighbor topology at the template coordinates,
    so the produced segment is a pure function of
    ``(template, state, seed, stream)``: bitwise-identical on every
    resubmission, on any session of the pool, on any backend.

    ``classifier(system, start_state) -> end_state`` maps the final
    configuration back onto the state library; the default keeps the
    segment in its start state (metastable-basin assumption - segments
    are shorter than the escape time).
    """
    child = stream.child("segment", int(state), int(seed))
    system = template.copy()
    system.seed_velocities(temperature,
                           rng=child.child("velocities").generator())
    thermostat = LangevinThermostat(
        temp=temperature, damp=damp, seed=child.child("thermostat").integer())
    summary = session.run(system, nsteps, dt=dt, thermostat=thermostat)
    end_state = int(state) if classifier is None \
        else int(classifier(system, int(state)))
    return MDSegment(start_state=int(state), end_state=end_state,
                     duration=nsteps * dt,
                     n_transitions=int(end_state != int(state)),
                     seed=int(seed), positions=system.positions.copy(),
                     velocities=system.velocities.copy(),
                     energy=float(summary.energy),
                     wall_s=float(summary.wall_s),
                     fingerprint=_phase_fingerprint(system.positions,
                                                    system.velocities))
