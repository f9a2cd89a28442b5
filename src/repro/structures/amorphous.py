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
    to 80% of the ideal first-neighbor distance at this density.  A
    candidate is tested against the placed atoms of its own and the 26
    adjacent cells only (cells are at least ``min_dist`` wide, so no
    other atom can be closer), which leaves every accept / reject
    decision - and with it the draw sequence and the positions - the
    one the all-pairs test makes.
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
    # a hair wider than min_dist, so a rounded cell index cannot hide a
    # too-close atom two cells away; under three cells the adjacent
    # cells wrap onto each other: test every placed atom instead
    ncell = int(l / (min_dist * (1.0 + 1e-9)))
    binned = ncell >= 3
    if binned:
        grid = np.indices((3, 3, 3)).reshape(3, -1).T - 1
        strides = np.array([ncell * ncell, ncell, 1])
        members: list[list[int]] = [[] for _ in range(ncell ** 3)]
    for i in range(natoms):
        for _ in range(max_tries):
            cand = rng.uniform(0, l, size=3)
            if binned:
                home = np.minimum((cand / l * ncell).astype(int), ncell - 1)
                near = positions[[j for c in ((home + grid) % ncell) @ strides
                                  for j in members[c]]]
            else:
                near = positions[:i]
            if near.shape[0] == 0:
                break
            dr = box.minimum_image(near - cand)
            if np.min(np.sum(dr * dr, axis=1)) >= min_dist * min_dist:
                break
        else:
            raise RuntimeError(
                f"could not place atom {i} with min_dist={min_dist:.3f}; "
                "lower the density or min_dist")
        positions[i] = cand
        if binned:
            members[home @ strides].append(i)
    return ParticleSystem(positions=positions, box=box)


def melt_quench(potential: Potential, natoms: int,
                density: float = AC_DENSITY_EXTREME,
                melt_temp: float = 8000.0, quench_temp: float = 300.0,
                melt_steps: int = 200, quench_steps: int = 200,
                dt: float = 5.0e-4, seed: int = 0) -> ParticleSystem:
    """Generate a-C by melting a random sample and quenching it."""
    system = random_packed(natoms, density=density, seed=seed)
    system.seed_velocities(melt_temp, rng=np.random.default_rng(seed + 1))
    with build_engine(system, potential) as engine:
        loop = MDLoop(engine, dt=dt,
                      thermostat=LangevinThermostat(temp=melt_temp,
                                                    seed=seed + 2))
        loop.run(melt_steps)
        loop.thermostat = LangevinThermostat(temp=quench_temp, seed=seed + 3)
        loop.run(quench_steps)
    system.wrap()
    return system
