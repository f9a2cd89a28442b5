"""Common interatomic-potential interface.

Every potential consumes a *full* (both-directions) neighbor pair list
and returns energy, per-atom energies, forces and the virial tensor.
This mirrors LAMMPS' pair-style contract and lets the MD driver, the
domain-decomposed driver, and the trainer treat SNAP and the classical
baselines uniformly.
"""

from __future__ import annotations

import abc

import numpy as np

from ..core.snap import EnergyForces, NeighborBatch

__all__ = ["Potential", "pair_result", "scatter_add", "scatter_pair_forces"]


class Potential(abc.ABC):
    """Abstract interatomic potential."""

    #: interaction cutoff [A]; the neighbor list must use at least this.
    cutoff: float

    #: engine-facing kernel-stage timing contract: a potential may
    #: expose per-stage seconds of its latest ``compute`` call here
    #: (e.g. SNAP's ``compute_ui``/``compute_yi``); the force engines
    #: fold them into the shared PhaseTimers as ``force.<stage>``
    #: sub-phases.  ``None`` (the default) means no stage split.
    last_timings: dict[str, float] | None = None

    @abc.abstractmethod
    def compute(self, natoms: int, nbr: NeighborBatch) -> EnergyForces:
        """Evaluate energy/forces/virial for the given neighborhood."""

    # Optional protocol for radial pair potentials:
    #
    #   pair_terms(nbr) -> (phi, dphidr)
    #
    # per-pair bond energies and radial derivatives, every operation
    # elementwise per pair (rows of any contiguous pair-list slice are
    # bitwise identical to the full-list rows).  Potentials exposing it
    # (e.g. LennardJones) are eligible for the multiprocess row-slice
    # backend; ``compute`` should delegate through
    # ``pair_result(natoms, nbr, *self.pair_terms(nbr))`` so both paths
    # share one implementation.

    @property
    def name(self) -> str:
        return type(self).__name__


def scatter_add(index: np.ndarray, weights: np.ndarray,
                size: int) -> np.ndarray:
    """``out = zeros(size); np.add.at(out, index, weights)``, faster.

    ``np.bincount`` accumulates strictly in input order from zero, like
    the ``add.at`` chain it replaces, so the sums are bitwise equal to
    it - which is what lets every force backend share this one helper
    and stay bitwise equal to the serial pass.
    """
    if index.size == 0:  # bincount of nothing is int64, not float64
        return np.zeros(size)
    return np.bincount(index, weights=weights, minlength=size)


def scatter_pair_forces(size: int, plus_idx: np.ndarray, plus: np.ndarray,
                        minus_idx: np.ndarray,
                        minus: np.ndarray) -> np.ndarray:
    """Per-atom forces from per-pair vectors, in ``add.at`` order.

    Bitwise equal to ``f = zeros((size, 3)); np.add.at(f, plus_idx,
    plus); np.add.at(f, minus_idx, -minus)``: each atom first receives
    its ``plus`` rows in pair order, then its negated ``minus`` rows.
    Runs one :func:`scatter_add` per Cartesian component over a reused
    weight buffer, so no ``(2 * npairs, 3)`` array is formed.
    """
    index = np.concatenate((plus_idx, minus_idx))
    weights = np.empty(index.size)
    nplus = plus_idx.size
    forces = np.empty((size, 3))
    for c in range(3):
        weights[:nplus] = plus[:, c]
        np.negative(minus[:, c], out=weights[nplus:])
        forces[:, c] = scatter_add(index, weights, size)
    return forces


def pair_result(natoms: int, nbr: NeighborBatch,
                phi: np.ndarray, dphidr: np.ndarray) -> EnergyForces:
    """Assemble an :class:`EnergyForces` for a radial pair potential.

    Parameters
    ----------
    phi:
        ``(npairs,)`` bond energy per ordered pair.  Because the full
        list visits each physical bond twice, atom ``i`` receives
        ``phi/2`` from each of its ordered pairs and the total energy
        counts each bond once.
    dphidr:
        ``(npairs,)`` radial derivative ``d(phi)/dr``.
    """
    peratom = scatter_add(nbr.i_idx, 0.5 * phi, natoms)
    # Ordered pair (i -> j) contributes -0.5*dphidr*rhat to the force on j.
    fvec = (-0.5 * dphidr / nbr.r)[:, None] * nbr.rij
    forces = scatter_pair_forces(natoms, nbr.j_idx, fvec, nbr.i_idx, fvec)
    virial = nbr.rij.T @ fvec
    return EnergyForces(energy=float(peratom.sum()), peratom=peratom,
                        forces=forces, virial=virial)
