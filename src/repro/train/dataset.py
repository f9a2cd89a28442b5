"""Training-set generation for SNAP fits.

Substitution note (DESIGN.md #2): the paper labels its training set with
DFT; offline we label with a reference classical potential instead.
The sampling strategy mirrors the paper's physics: perturbed diamond and
BC8 cells over a range of compressions (the 12 Mbar regime is reached by
shrinking the volume) plus hot/amorphous snapshots.
"""

from __future__ import annotations

import numpy as np

from ..core.snap import SNAPParams
from ..md.neighbor import build_pairs
from ..md.system import ParticleSystem
from ..potentials.base import Potential
from ..structures.lattice import lattice_system
from .fit import FitResult, LinearSNAPTrainer

__all__ = ["perturbed_lattice_set", "train_to_reference", "make_carbon_snap"]


def perturbed_lattice_set(kinds: list[str], a0: dict[str, float],
                          scales=(0.95, 1.0, 1.05), reps=(2, 2, 2),
                          nrattle: int = 2, amplitude: float = 0.08,
                          seed: int = 0) -> list[ParticleSystem]:
    """Rattled supercells of the given lattices over a volume sweep."""
    rng = np.random.default_rng(seed)
    configs = []
    for kind in kinds:
        for s in scales:
            base = lattice_system(kind, a=a0[kind] * s, reps=reps)
            for _ in range(nrattle):
                sys_i = base.copy()
                sys_i.positions = sys_i.positions + rng.normal(
                    scale=amplitude, size=sys_i.positions.shape)
                configs.append(sys_i)
    return configs


def train_to_reference(params: SNAPParams, reference: Potential,
                       configs: list[ParticleSystem],
                       energy_weight: float = 100.0,
                       force_weight: float = 1.0,
                       ridge: float = 1e-8) -> FitResult:
    """Label ``configs`` with ``reference`` and fit a linear SNAP."""
    trainer = LinearSNAPTrainer(params, energy_weight=energy_weight,
                                force_weight=force_weight)
    for system in configs:
        nbr = build_pairs(system.positions, system.box, reference.cutoff)
        res = reference.compute(system.natoms, nbr)
        trainer.add_configuration(system, res.energy, res.forces)
    return trainer.fit(ridge=ridge)


def make_carbon_snap(twojmax: int = 6, rcut: float = 2.4,
                     reference: Potential | None = None,
                     seed: int = 0) -> tuple["FitResult", SNAPParams]:
    """Fit a carbon SNAP against the Stillinger-Weber reference.

    Returns ``(fit_result, params)``; ``fit_result.make_snap(params)``
    yields the usable potential.  Small by design (runs in seconds) -
    the examples use it as "our carbon SNAP".
    """
    from ..potentials.sw import StillingerWeber

    reference = reference or StillingerWeber()
    params = SNAPParams(twojmax=twojmax, rcut=rcut)
    configs = perturbed_lattice_set(
        ["diamond", "bc8"], a0={"diamond": 3.57, "bc8": 4.44},
        scales=(0.92, 1.0, 1.08), reps=(1, 1, 1), nrattle=3,
        amplitude=0.06, seed=seed)
    return train_to_reference(params, reference, configs), params
