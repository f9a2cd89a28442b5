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
        operation is elementwise per pair, written into the list's
        scratch in the order ``(sigma / r) ** 6``, ``np.where`` and
        ``/ r`` would take, so the bits are theirs."""
        r = nbr.r
        # a list filtered below the cutoff holds no pair outside it (nor
        # a NaN distance, which fails the filter's r < cutoff)
        clip = nbr.kept_below is None or nbr.kept_below > self.cutoff
        if clip:
            outside = np.less(r, self.cutoff,
                              out=nbr.buffer("lj.outside", dtype=bool))
            np.logical_not(outside, out=outside)  # NaN r lands here too
            clip = outside.any()
        sr6 = np.divide(self.sigma, r, out=nbr.buffer("lj.sr6"))
        np.power(sr6, 6, out=sr6)
        sr12 = np.multiply(sr6, sr6, out=nbr.buffer("lj.sr12"))
        scale = 4.0 * self.epsilon
        # bond energies into the refresh's distances (dead once filtered)
        phi = np.subtract(sr12, sr6, out=nbr.buffer("refresh.r"))
        phi *= scale
        phi -= self._shift
        if clip:
            phi[outside] = 0.0
        # 4 eps (-12 sr12 + 6 sr6) / r, over the sr12 and sr6 buffers
        dphi = np.multiply(sr12, -12.0, out=sr12)
        dphi += np.multiply(sr6, 6.0, out=sr6)
        dphi *= scale
        dphi /= r
        if clip:
            dphi[outside] = 0.0
        dphi /= r
        return radial_gradients(nbr, rows, phi, dphi)
