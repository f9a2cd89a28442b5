"""Equations of state: cold curves and Birch-Murnaghan fits.

The paper's scientific context is "high pressure-temperature equations
of state ... of key geological materials"; this module provides the
standard machinery: sample E(V) along an isotropic compression path and
fit the third-order Birch-Murnaghan form to extract the equilibrium
volume, cohesive energy, and bulk modulus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import EVA3_TO_BAR
from ..md.neighbor import build_pairs
from ..potentials.base import Potential
from ..structures.lattice import lattice_system

__all__ = ["cold_curve", "birch_murnaghan_energy", "fit_birch_murnaghan",
           "BirchMurnaghanFit"]


def cold_curve(potential: Potential, kind: str, a0: float,
               scales: np.ndarray, reps: tuple[int, int, int] = (2, 2, 2)
               ) -> tuple[np.ndarray, np.ndarray]:
    """Static energy per atom vs volume per atom along compression.

    Returns ``(v_per_atom, e_per_atom)`` arrays sorted by volume.
    """
    vols, es = [], []
    for s in np.asarray(scales, dtype=float):
        system = lattice_system(kind, a=a0 * s, reps=reps)
        nbr = build_pairs(system.positions, system.box, potential.cutoff)
        res = potential.compute(system.natoms, nbr)
        vols.append(system.box.volume / system.natoms)
        es.append(res.energy / system.natoms)
    order = np.argsort(vols)
    return np.asarray(vols)[order], np.asarray(es)[order]


def birch_murnaghan_energy(v: np.ndarray, e0: float, v0: float,
                           b0: float, b0p: float) -> np.ndarray:
    """Third-order Birch-Murnaghan E(V) [eV], with ``b0`` in eV/A^3."""
    v = np.asarray(v, dtype=float)
    eta = (v0 / v) ** (2.0 / 3.0)
    return e0 + 9.0 * v0 * b0 / 16.0 * (
        (eta - 1.0) ** 3 * b0p + (eta - 1.0) ** 2 * (6.0 - 4.0 * eta))


@dataclass
class BirchMurnaghanFit:
    """Fitted EOS parameters."""

    e0: float          # cohesive energy per atom [eV]
    v0: float          # equilibrium volume per atom [A^3]
    b0: float          # bulk modulus [eV/A^3]
    b0_prime: float
    residual_rms: float

    @property
    def b0_gpa(self) -> float:
        """Bulk modulus in GPa (1 eV/A^3 = 160.2 GPa)."""
        return self.b0 * EVA3_TO_BAR / 1.0e4

    def energy(self, v: np.ndarray) -> np.ndarray:
        return birch_murnaghan_energy(v, self.e0, self.v0, self.b0, self.b0_prime)

    def pressure(self, v: np.ndarray) -> np.ndarray:
        """P(V) = -dE/dV [eV/A^3] via the analytic BM form."""
        v = np.asarray(v, dtype=float)
        eta = (self.v0 / v) ** (1.0 / 3.0)
        return 1.5 * self.b0 * (eta ** 7 - eta ** 5) * (
            1.0 + 0.75 * (self.b0_prime - 4.0) * (eta ** 2 - 1.0))


def fit_birch_murnaghan(v: np.ndarray, e: np.ndarray) -> BirchMurnaghanFit:
    """Least-squares third-order Birch-Murnaghan fit of E(V) samples."""
    v = np.asarray(v, dtype=float)
    e = np.asarray(e, dtype=float)
    if v.size < 5:
        raise ValueError("need at least 5 (V, E) samples")
    i0 = int(np.argmin(e))
    p0 = (e[i0], v[i0], 1.0, 4.0)
    # imported here: ``import repro`` should not pay for it
    from scipy.optimize import curve_fit

    popt, _ = curve_fit(birch_murnaghan_energy, v, e, p0=p0, maxfev=20000)
    resid = birch_murnaghan_energy(v, *popt) - e
    return BirchMurnaghanFit(e0=float(popt[0]), v0=float(popt[1]),
                             b0=float(popt[2]), b0_prime=float(popt[3]),
                             residual_rms=float(np.sqrt(np.mean(resid ** 2))))
