"""Structure relaxation: FIRE minimizer and isotropic cell relaxation.

FIRE (fast inertial relaxation engine) is the standard MD-adjacent
minimizer: velocity-Verlet dynamics with an adaptive mixing of velocity
toward the force direction, velocity reset on uphill moves.  Used by the
equation-of-state tooling and the science example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import MVV2E
from ..core.snap import EnergyForces
from ..potentials.base import Potential
from .neighbor import NeighborList
from .system import ParticleSystem

__all__ = ["fire_minimize", "FireResult", "relax_volume"]


@dataclass
class FireResult:
    """Outcome of a FIRE minimization."""

    energy: float
    max_force: float
    steps: int
    converged: bool


def fire_minimize(system: ParticleSystem, potential: Potential,
                  fmax: float = 1e-3, max_steps: int = 1000,
                  dt: float = 1.0e-3, dt_max: float = 1.0e-2,
                  n_min: int = 5, f_inc: float = 1.1, f_dec: float = 0.5,
                  alpha0: float = 0.1, f_alpha: float = 0.99) -> FireResult:
    """Relax atomic positions in place until ``max|F| < fmax`` [eV/A]."""
    if fmax <= 0:
        raise ValueError("fmax must be positive")
    nl = NeighborList.for_potential(potential, system.box)
    v = np.zeros_like(system.positions)
    inv_m = 1.0 / (system.masses * MVV2E)[:, None]
    alpha = alpha0
    n_pos = 0
    result: EnergyForces | None = None

    def forces() -> EnergyForces:
        return potential.compute(system.natoms, nl.get(system.positions))

    result = forces()
    for step in range(1, max_steps + 1):
        f = result.forces
        fnorm = np.linalg.norm(f)
        if np.max(np.abs(f)) < fmax:
            return FireResult(energy=result.energy,
                              max_force=float(np.max(np.abs(f))),
                              steps=step - 1, converged=True)
        power = np.vdot(f, v)
        if power > 0:
            n_pos += 1
            vnorm = np.linalg.norm(v)
            if fnorm > 0:
                v = (1.0 - alpha) * v + alpha * vnorm * f / fnorm
            if n_pos > n_min:
                dt = min(dt * f_inc, dt_max)
                alpha *= f_alpha
        else:
            n_pos = 0
            v[:] = 0.0
            dt *= f_dec
            alpha = alpha0
        # velocity-Verlet step
        v = v + 0.5 * dt * f * inv_m
        system.positions = system.positions + dt * v
        result = forces()
        v = v + 0.5 * dt * result.forces * inv_m
    return FireResult(energy=result.energy,
                      max_force=float(np.max(np.abs(result.forces))),
                      steps=max_steps, converged=False)


def relax_volume(system: ParticleSystem, potential: Potential,
                 bounds: tuple[float, float] = (0.8, 1.25)) -> tuple[float, float]:
    """Isotropic cell relaxation: find the scale minimizing the energy.

    Scales positions and box together (fractional coordinates fixed) and
    returns ``(best_scale, energy_at_minimum)``.  The system is updated
    in place to the optimal volume.
    """
    # imported here: ``import repro`` should not pay for it
    from scipy.optimize import minimize_scalar

    base_pos = system.positions.copy()
    base_box = system.box

    def energy(scale: float) -> float:
        from .neighbor import build_pairs

        box = base_box.scaled(scale)
        pos = base_pos * scale
        return potential.compute(system.natoms,
                                 build_pairs(pos, box, potential.cutoff)).energy

    res = minimize_scalar(energy, bounds=bounds, method="bounded",
                          options={"xatol": 1e-5})
    system.positions = base_pos * res.x
    system.box = base_box.scaled(res.x)
    return float(res.x), float(res.fun)
