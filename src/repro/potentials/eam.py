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

from ..core.snap import NeighborBatch, scatter_add
from .base import Potential

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

    def pair_gradients(self, nbr: NeighborBatch, rows: tuple[int, int]
                       ) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = rows
        i_loc = nbr.i_idx - lo
        phi, dphi = self._phi(nbr.r)
        psi, dpsi = self._psi(nbr.r)
        rho = scatter_add(i_loc, psi, hi - lo)
        sqrt_rho = np.sqrt(np.maximum(rho, 1e-300))
        # F'(rho) = -A / (2 sqrt(rho)); zero for isolated atoms.
        fprime = np.where(rho > 0, -self.a / (2.0 * sqrt_rho), 0.0)
        peratom = scatter_add(i_loc, 0.5 * phi, hi - lo) - self.a * sqrt_rho
        # rho_i depends on r_j: dE_i/dr_j = (phi'/2 + F'(rho_i) psi') rhat
        g = (0.5 * dphi + fprime[i_loc] * dpsi) / np.where(nbr.r > 0, nbr.r, 1.0)
        return peratom, g[:, None] * nbr.rij
