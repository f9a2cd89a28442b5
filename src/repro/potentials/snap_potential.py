"""Adapter exposing :class:`repro.core.SNAP` through the potential API."""

from __future__ import annotations

import numpy as np

from ..core.snap import SNAP, NeighborBatch, SNAPParams
from .base import Potential

__all__ = ["SNAPPotential"]


class SNAPPotential(Potential):
    """SNAP as a drop-in MD potential.

    Parameters mirror :class:`repro.core.SNAP`.  Multi-species systems
    pass per-type element weights ``wj`` and radii ``radii`` together
    with ``rcutfac`` (LAMMPS convention: the density weight is the
    *neighbor's* ``wj`` and the pair cutoff is
    ``(R_i + R_j) * rcutfac``); call :meth:`set_types` with the system's
    type array before computing, or rely on all-zero types.
    """

    def __init__(self, params: SNAPParams, beta: np.ndarray | None = None,
                 bzero: bool = False, quadratic: np.ndarray | None = None,
                 wj: np.ndarray | None = None, radii: np.ndarray | None = None,
                 rcutfac: float | None = None) -> None:
        self.snap = SNAP(params, beta=beta, bzero=bzero, quadratic=quadratic)
        if (wj is None) != (radii is None):
            raise ValueError("wj and radii must be given together")
        self.wj = np.asarray(wj, dtype=float) if wj is not None else None
        self.radii = np.asarray(radii, dtype=float) if radii is not None else None
        self.rcutfac = float(rcutfac) if rcutfac is not None else None
        if self.radii is not None:
            if self.rcutfac is None:
                raise ValueError("rcutfac is required with per-type radii")
            self.cutoff = float(2.0 * self.radii.max() * self.rcutfac)
        else:
            self.cutoff = params.rcut
        self._types: np.ndarray | None = None

    @property
    def params(self) -> SNAPParams:
        return self.snap.params

    @property
    def last_timings(self) -> dict[str, float]:
        return self.snap.last_timings

    def set_types(self, types: np.ndarray) -> None:
        """Bind the per-atom type array used for multi-species runs."""
        self._types = np.asarray(types, dtype=np.intp)

    def _with_pair_params(self, nbr: NeighborBatch) -> NeighborBatch:
        if self.wj is None:
            return nbr
        if self._types is None:
            raise ValueError("per-type SNAP needs set_types() before compute")
        if nbr.j_idx is None:
            raise ValueError("per-type SNAP needs j_idx on the neighbor list")
        ti = self._types[nbr.i_idx]
        tj = self._types[nbr.j_idx]
        return NeighborBatch(
            i_idx=nbr.i_idx, rij=nbr.rij, r=nbr.r, j_idx=nbr.j_idx,
            pair_weight=self.wj[tj],
            pair_rcut=(self.radii[ti] + self.radii[tj]) * self.rcutfac)

    def pair_gradients(self, nbr: NeighborBatch, rows: tuple[int, int]
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Stages 1-3 of the kernel (:meth:`repro.core.SNAP.pair_gradients`);
        the per-type pair parameters are looked up by global atom id."""
        return self.snap.pair_gradients(self._with_pair_params(nbr), rows)

    def descriptors(self, natoms: int, nbr: NeighborBatch) -> np.ndarray:
        return self.snap.compute_descriptors(natoms, self._with_pair_params(nbr))
