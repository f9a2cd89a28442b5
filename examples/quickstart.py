"""Quickstart: train a carbon SNAP, run MD, report paper-style metrics.

This walks the full pipeline in miniature (a few minutes on one core):

1. fit a linear SNAP to a Stillinger-Weber carbon reference
   (the offline stand-in for the paper's DFT training data),
2. run NVT molecular dynamics on a diamond supercell with the fitted
   SNAP through the same driver the benchmarks use,
3. print the figure of merit the paper reports everywhere:
   **atom-steps per second**.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.analysis import ThermoObserver
from repro.constants import FS
from repro.md import LangevinThermostat, MDLoop, build_engine
from repro.potentials import SNAPPotential, StillingerWeber
from repro.structures import lattice_system
from repro.train import make_carbon_snap


def main() -> None:
    print("=== 1. Train a carbon SNAP against the SW reference ===")
    fit, params = make_carbon_snap(twojmax=4, rcut=2.4)
    print(f"  twojmax={params.twojmax} -> "
          f"{len(fit.beta) - 1} bispectrum components")
    print(f"  energy RMSE: {fit.energy_rmse * 1e3:.1f} meV/atom, "
          f"force RMSE: {fit.force_rmse:.3f} eV/A")

    print("\n=== 2. NVT MD of a diamond supercell with the fitted SNAP ===")
    system = lattice_system("diamond", a=3.57, reps=(2, 2, 2))
    system.seed_velocities(300.0, rng=np.random.default_rng(0))
    potential = SNAPPotential(params, beta=fit.beta)
    thermo = ThermoObserver(every=10)
    with build_engine(system, potential) as engine:
        loop = MDLoop(engine, dt=0.5 * FS,
                      thermostat=LangevinThermostat(temp=300.0, damp=0.1),
                      observers=[thermo])
        summary = loop.run(50)
    for row in thermo.rows:
        print(f"  step {row['step']:4d}  T = {row['temperature']:7.1f} K  "
              f"E_pot = {row['potential_energy']:10.3f} eV")

    print("\n=== 3. Performance, in the paper's units ===")
    rate = summary.atom_steps_per_s
    print(f"  {rate / 1e3:.2f} Katom-steps/s on one CPU core "
          "(paper Table I: 17.7 on a 2012 CPU node; 6.21 M/node-s on Summit)")
    fr = summary.phase_fractions
    print("  phase split: " +
          ", ".join(f"{k} {v * 100:.0f}%" for k, v in sorted(fr.items())))


if __name__ == "__main__":
    main()
