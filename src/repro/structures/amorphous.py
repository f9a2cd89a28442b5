"""Amorphous-carbon sample generation.

The paper's benchmark samples are amorphous carbon (a-C) at extreme
density.  Two generators are provided:

* :func:`random_packed` - random sequential addition with a hard minimum
  distance (fast; good enough for performance benchmarks, which only
  care about realistic neighbor counts), and
* :func:`melt_quench` - a short high-temperature MD run followed by a
  quench with any potential (the physically meaningful route used by the
  science example).
"""

from __future__ import annotations

import numpy as np

from ..md.box import Box
from ..md.engine import MDLoop, build_engine
from ..md.system import ParticleSystem
from ..md.integrators import LangevinThermostat
from ..potentials.base import Potential

__all__ = ["random_packed", "melt_quench", "AC_DENSITY_EXTREME"]

#: Number density [atoms/A^3] of the paper's compressed a-C samples.
#: 1,024,192,512 atoms correspond to a ~2 um cube at several-fold
#: compression; we use the diamond-at-12-Mbar-like value.
AC_DENSITY_EXTREME = 0.23


def random_packed(natoms: int, density: float = AC_DENSITY_EXTREME,
                  min_dist: float | None = None, seed: int = 0,
                  max_tries: int = 2000) -> ParticleSystem:
    """Random sample at the requested number density with a core radius.

    Uses cell-binned random sequential addition; ``min_dist`` defaults
    to 80% of the ideal first-neighbor distance at this density.
    """
    if natoms < 1:
        raise ValueError("natoms must be positive")
    if density <= 0:
        raise ValueError("density must be positive")
    l = (natoms / density) ** (1.0 / 3.0)
    box = Box.cubic(l)
    if min_dist is None:
        min_dist = 0.8 * (1.0 / density) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)
    positions = np.empty((natoms, 3))
    n_placed = 0
    for i in range(natoms):
        for _ in range(max_tries):
            cand = rng.uniform(0, l, size=3)
            if n_placed == 0:
                break
            dr = box.minimum_image(positions[:n_placed] - cand)
            if np.min(np.sum(dr * dr, axis=1)) >= min_dist * min_dist:
                break
        else:
            raise RuntimeError(
                f"could not place atom {i} with min_dist={min_dist:.3f}; "
                "lower the density or min_dist")
        positions[n_placed] = cand
        n_placed += 1
    return ParticleSystem(positions=positions, box=box)


def melt_quench(potential: Potential, natoms: int,
                density: float = AC_DENSITY_EXTREME,
                melt_temp: float = 8000.0, quench_temp: float = 300.0,
                melt_steps: int = 200, quench_steps: int = 200,
                dt: float = 5.0e-4, seed: int = 0,
                nranks: int = 1) -> ParticleSystem:
    """Generate a-C by melting a random sample and quenching it.

    ``nranks > 1`` runs the MD on the domain-decomposed engine (see
    :func:`repro.md.build_engine`); serial by default.
    """
    system = random_packed(natoms, density=density, seed=seed)
    system.seed_velocities(melt_temp, rng=np.random.default_rng(seed + 1))
    with build_engine(system, potential, nranks=nranks) as engine:
        loop = MDLoop(engine, dt=dt,
                      thermostat=LangevinThermostat(temp=melt_temp,
                                                    seed=seed + 2))
        loop.run(melt_steps)
        loop.thermostat = LangevinThermostat(temp=quench_temp, seed=seed + 3)
        loop.run(quench_steps)
    system.wrap()
    return system
