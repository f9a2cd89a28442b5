"""Tabulated pair potential (cubic-spline, LAMMPS ``pair_style table``).

Lets any radial potential - including ones defined only by data - plug
into the MD/parallel drivers.  Forces come from the spline's analytic
derivative, so energy conservation holds to spline accuracy.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline

from ..core.snap import NeighborBatch
from .base import Potential, radial_gradients

__all__ = ["TablePotential"]


class TablePotential(Potential):
    """Pair potential interpolated from ``(r, phi(r))`` samples.

    The table must extend to the cutoff; ``phi`` is shifted so the
    energy is continuous (zero) at the cutoff.  Below the first sample
    the spline is extrapolated (keep tables dense at short range).
    """

    pairwise = True

    def __init__(self, r: np.ndarray, phi: np.ndarray,
                 cutoff: float | None = None) -> None:
        r = np.asarray(r, dtype=float)
        phi = np.asarray(phi, dtype=float)
        if r.ndim != 1 or r.shape != phi.shape or r.size < 4:
            raise ValueError("need matching 1D r/phi arrays with >= 4 points")
        if np.any(np.diff(r) <= 0):
            raise ValueError("r samples must be strictly increasing")
        self.cutoff = float(cutoff) if cutoff is not None else float(r[-1])
        if self.cutoff > r[-1] + 1e-12:
            raise ValueError("table does not reach the cutoff")
        self._spline = CubicSpline(r, phi)
        self._shift = float(self._spline(self.cutoff))
        self._deriv = self._spline.derivative()

    @classmethod
    def from_potential(cls, phi_callable, rmin: float, cutoff: float,
                       npoints: int = 500) -> "TablePotential":
        """Tabulate an analytic ``phi(r)`` on a uniform grid."""
        r = np.linspace(rmin, cutoff, npoints)
        return cls(r, np.asarray(phi_callable(r), dtype=float), cutoff=cutoff)

    def pair_gradients(self, nbr: NeighborBatch, rows: tuple[int, int]
                       ) -> tuple[np.ndarray, np.ndarray]:
        """The spline's ``phi(r)`` and ``phi'(r) / r`` per pair, on
        either list form (:func:`~repro.potentials.base.radial_gradients`)."""
        inside = nbr.r < self.cutoff
        rr = np.where(inside, nbr.r, self.cutoff)
        phi = np.where(inside, self._spline(rr) - self._shift, 0.0)
        dphi = np.where(inside, self._deriv(rr), 0.0)
        return radial_gradients(nbr, rows, phi, dphi / nbr.r)
