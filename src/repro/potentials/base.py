"""Common interatomic-potential interface.

A potential is per-atom energies plus one gradient per neighbor pair
(:meth:`Potential.pair_gradients`); the one force assembly,
:func:`repro.core.snap.update_forces`, turns that into energy, forces
and the virial tensor for every potential on every engine.  This
mirrors LAMMPS' pair-style contract (``compute_deidrj`` then
``update_forces``) and lets the MD driver, the decomposed drivers, and
the trainer treat SNAP and the classical baselines uniformly.
"""

from __future__ import annotations

import abc

import numpy as np

from ..core.snap import EnergyForces, NeighborBatch, update_forces

__all__ = ["Potential"]


class Potential(abc.ABC):
    """Abstract interatomic potential."""

    #: interaction cutoff [A]; the neighbor list must use at least this.
    cutoff: float

    #: engine-facing kernel-stage timing contract: a potential may
    #: expose per-stage seconds of its latest ``pair_gradients`` call
    #: here (e.g. SNAP's ``compute_ui``/``compute_yi``); the force
    #: engines fold them into the shared PhaseTimers as
    #: ``force.<stage>`` sub-phases.  The keys are there from
    #: construction on (the process backend reads the names from its
    #: own copy and the seconds from its workers).  ``None`` (the
    #: default) means no stage split.
    last_timings: dict[str, float] | None = None

    @abc.abstractmethod
    def pair_gradients(self, nbr: NeighborBatch, rows: tuple[int, int]
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Per-atom energies and per-pair gradients on an atom window.

        ``nbr`` is a *full* (both-directions) pair list sorted by
        central atom that holds every pair whose central atom lies in
        ``rows = (lo, hi)`` and no other.  Returns ``(peratom, dedr)``:
        ``peratom[i - lo]`` is the energy ``E_i`` of atom ``i`` and
        ``dedr[k] = dE_i/dr_k`` the gradient of pair ``k``'s central-atom
        energy with respect to its neighbor's position, shape
        ``(npairs, 3)``.

        Every operation must be per pair or per central-atom row, so
        that the windows of a row partition concatenate **bitwise** to
        the full-list result: that is the whole of what the process
        backend needs from a potential.
        """

    def compute(self, natoms: int, nbr: NeighborBatch) -> EnergyForces:
        """Evaluate energy/forces/virial for the given neighborhood."""
        return update_forces(natoms, nbr,
                             *self.pair_gradients(nbr, (0, natoms)))

    @property
    def name(self) -> str:
        return type(self).__name__
