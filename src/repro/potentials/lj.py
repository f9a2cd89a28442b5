"""Lennard-Jones 12-6 potential.

The "cheap potential" of the source lecture's cost contrast with SNAP
(EAM/LJ-class potentials need ~10M atoms to saturate a modern GPU,
SNAP only ~10K).  Also the standard correctness workhorse for the MD
substrate (energy conservation, virial pressure, ...).
"""

from __future__ import annotations

import numpy as np

from ..core.snap import NeighborBatch
from .base import Potential, radial_gradients

__all__ = ["LennardJones"]


class LennardJones(Potential):
    """LJ 12-6 with optional energy shift at the cutoff.

    ``phi(r) = 4 eps [ (sigma/r)^12 - (sigma/r)^6 ] - shift``.
    """

    pairwise = True

    def __init__(self, epsilon: float = 1.0, sigma: float = 1.0,
                 cutoff: float | None = None, shift: bool = True) -> None:
        if epsilon <= 0 or sigma <= 0:
            raise ValueError("epsilon and sigma must be positive")
        self.epsilon = float(epsilon)
        self.sigma = float(sigma)
        self.cutoff = float(cutoff) if cutoff is not None else 2.5 * sigma
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if shift:
            sr6 = (self.sigma / self.cutoff) ** 6
            self._shift = 4.0 * self.epsilon * (sr6 * sr6 - sr6)
        else:
            self._shift = 0.0

    def pair_gradients(self, nbr: NeighborBatch, rows: tuple[int, int]
                       ) -> tuple[np.ndarray, np.ndarray]:
        """``phi(r)`` and ``phi'(r) / r`` per pair, on either list form
        (:func:`~repro.potentials.base.radial_gradients`); every
        operation is elementwise per pair."""
        r = nbr.r
        inside = r < self.cutoff
        sr6 = (self.sigma / r) ** 6
        sr12 = sr6 * sr6
        phi = np.where(inside, 4.0 * self.epsilon * (sr12 - sr6) - self._shift, 0.0)
        dphidr = np.where(inside,
                          4.0 * self.epsilon * (-12.0 * sr12 + 6.0 * sr6) / r,
                          0.0)
        return radial_gradients(nbr, rows, phi, dphidr / r)
