"""Finnis-Sinclair embedded-atom potential.

The classical many-body "cheap potential" class the lecture contrasts
with SNAP (an EAM step is ~1000x cheaper per atom, which is why cheap
potentials cannot saturate modern GPUs below ~10M atoms).

.. math::

    E = \\sum_i \\Big[ \\tfrac12 \\sum_j \\phi(r_{ij})
        - A \\sqrt{\\rho_i} \\Big],
    \\qquad \\rho_i = \\sum_j \\psi(r_{ij})

with the classic polynomial forms ``phi(r) = (r-c)^2 (c0 + c1 r)`` for
``r < c`` and ``psi(r) = (r-d)^2`` for ``r < d``.
"""

from __future__ import annotations

import numpy as np

from ..core.snap import EnergyForces, NeighborBatch
from .base import (Potential, pair_result, scatter_add,
                   scatter_pair_forces)

__all__ = ["FinnisSinclair"]


class FinnisSinclair(Potential):
    """Finnis-Sinclair EAM with polynomial pair/density functions."""

    def __init__(self, a: float = 1.9, c: float = 3.25, c0: float = 47.0,
                 c1: float = -14.0, d: float = 3.6) -> None:
        if c <= 0 or d <= 0:
            raise ValueError("cutoffs c and d must be positive")
        self.a = float(a)
        self.c = float(c)
        self.c0 = float(c0)
        self.c1 = float(c1)
        self.d = float(d)
        self.cutoff = max(self.c, self.d)

    def _phi(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        inside = r < self.c
        dr = np.where(inside, r - self.c, 0.0)
        poly = self.c0 + self.c1 * r
        phi = dr * dr * poly
        dphi = 2.0 * dr * poly + dr * dr * self.c1
        return np.where(inside, phi, 0.0), np.where(inside, dphi, 0.0)

    def _psi(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        inside = r < self.d
        dr = np.where(inside, r - self.d, 0.0)
        return dr * dr, 2.0 * dr

    def compute(self, natoms: int, nbr: NeighborBatch) -> EnergyForces:
        phi, dphi = self._phi(nbr.r)
        out = pair_result(natoms, nbr, phi, dphi)

        psi, dpsi = self._psi(nbr.r)
        rho = scatter_add(nbr.i_idx, psi, natoms)
        sqrt_rho = np.sqrt(np.maximum(rho, 1e-300))
        emb = -self.a * sqrt_rho
        # F'(rho) = -A / (2 sqrt(rho)); zero for isolated atoms.
        fprime = np.where(rho > 0, -self.a / (2.0 * sqrt_rho), 0.0)

        out.peratom += emb
        # rho_i depends on r_j: dE/dr_j = F'(rho_i) psi'(r) rhat per pair.
        g = fprime[nbr.i_idx] * dpsi / np.where(nbr.r > 0, nbr.r, 1.0)
        fvec = -g[:, None] * nbr.rij  # force contribution on neighbor j
        forces = out.forces + scatter_pair_forces(
            natoms, nbr.j_idx, fvec, nbr.i_idx, fvec)
        virial = out.virial + nbr.rij.T @ fvec
        return EnergyForces(energy=float(out.peratom.sum()), peratom=out.peratom,
                            forces=forces, virial=virial)
