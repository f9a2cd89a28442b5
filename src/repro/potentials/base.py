"""Common interatomic-potential interface.

A potential is per-atom energies plus one gradient per neighbor pair
(:meth:`Potential.pair_gradients`); the one force assembly,
:func:`repro.core.snap.update_forces`, turns that into energy, forces
and the virial tensor for every potential on every engine.  This
mirrors LAMMPS' pair-style contract (``compute_deidrj`` then
``update_forces``) and lets the MD driver, the decomposed drivers, and
the trainer treat SNAP and the classical baselines uniformly.

A pair potential (:attr:`Potential.pairwise`) is a radial function
evaluated on either list form (:func:`radial_gradients`): the engines
hand it a half list, each bond once, and keep full lists for the
many-body potentials - the split LAMMPS-KOKKOS makes between pair
styles with Newton's third law and SNAP.
"""

from __future__ import annotations

import abc

import numpy as np

from ..core.snap import EnergyForces, NeighborBatch, scatter_add, update_forces

__all__ = ["Potential"]


def radial_gradients(nbr: NeighborBatch, rows: tuple[int, int],
                     phi: np.ndarray, dphi_r: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """``pair_gradients`` of a pair potential from its radial terms.

    ``phi`` and ``dphi_r`` are ``phi(r)`` and ``phi'(r) / r`` on
    ``nbr.r``.  A half list gets the bond energies ``phi`` and the bond
    gradients ``phi'(r) * rhat``; :func:`~repro.core.snap.update_forces`
    credits half of each bond's energy to each end.  A full list visits
    every bond twice, so it gets the per-atom energies ``sum_j phi / 2``
    and half of each gradient.  The half list's gradients land in the
    list's scratch (:meth:`~repro.core.snap.NeighborBatch.buffer`).
    """
    if nbr.half:
        # into the refresh's geometry, dead once the list is filtered
        return phi, np.multiply(dphi_r[:, None], nbr.rij,
                                out=nbr.buffer("refresh.rij", 3))
    lo, hi = rows
    return (scatter_add(nbr.i_idx - lo, 0.5 * phi, hi - lo),
            (0.5 * dphi_r)[:, None] * nbr.rij)


class Potential(abc.ABC):
    """Abstract interatomic potential."""

    #: interaction cutoff [A]; the neighbor list must use at least this.
    cutoff: float

    #: the energy is a sum over unordered pairs, ``E = sum_{i<j}
    #: phi(r_ij)``: the engines then hand ``pair_gradients`` a half list
    #: (each bond once).  A property of the class, not an option.
    pairwise: bool = False

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

        ``nbr`` is a pair list sorted by central atom that holds every
        pair whose central atom lies in ``rows = (lo, hi)`` and no other.
        On a *full* (both-directions) list it returns ``(peratom,
        dedr)``: ``peratom[i - lo]`` is the energy ``E_i`` of atom ``i``
        and ``dedr[k] = dE_i/dr_k`` the gradient of pair ``k``'s
        central-atom energy with respect to its neighbor's position,
        shape ``(npairs, 3)``.  A :attr:`pairwise` potential also takes a
        half list (``nbr.half``) and returns per-bond energies and their
        gradients instead (:func:`radial_gradients`).

        Every operation must be per pair or per central-atom row, so
        that the windows of a row partition concatenate **bitwise** to
        the full-list result: that is the whole of what the process
        backend needs from a potential.

        The returned arrays may live in the list's scratch
        (:meth:`~repro.core.snap.NeighborBatch.buffer`): they are valid
        until the list's next ``get``, and the force assembly returns
        none of them.
        """

    def compute(self, natoms: int, nbr: NeighborBatch) -> EnergyForces:
        """Evaluate energy/forces/virial for the given neighborhood."""
        return update_forces(natoms, nbr,
                             *self.pair_gradients(nbr, (0, natoms)))

    @property
    def name(self) -> str:
        return type(self).__name__
