"""Domain-decomposed MD on simulated ranks.

Demonstrates the paper's parallelization substrate at desk scale: the
same system is advanced by the serial engine and by the distributed
engine on a 2x2x2 grid of virtual MPI ranks; trajectories agree to
machine precision while the distributed run reports the halo-exchange
traffic that the performance model scales up to 27,900 GPUs.

Run:  python examples/distributed_md.py
"""

import numpy as np

from repro.md import MDLoop, build_engine
from repro.parallel import best_grid
from repro.potentials import LennardJones
from repro.structures import lattice_system


def main() -> None:
    print("the paper's rank grid: 27,900 MPI ranks ->", best_grid(27900),
          "(minimizing halo surface)")

    system = lattice_system("fcc", a=2.5, reps=(6, 6, 6))
    system.seed_velocities(60.0, rng=np.random.default_rng(0))
    pot = LennardJones(epsilon=0.2, sigma=2.2, cutoff=3.0)
    serial = system.copy()
    distributed = system.copy()

    print(f"\nsystem: {system.natoms} atoms, LJ, 20 steps")
    with build_engine(serial, pot, skin=0.0) as engine:
        MDLoop(engine, dt=1e-3).run(20)
    with build_engine(distributed, pot, nranks=8) as engine:
        out = MDLoop(engine, dt=1e-3).run(20)
        ledger = engine.ledger

    err = np.abs(serial.box.wrap(serial.positions)
                 - distributed.box.wrap(distributed.positions)).max()
    print(f"grid {out.grid}: max |serial - distributed| = {err:.2e} A")
    print(f"halo traffic: {out.ghost_bytes_per_step:.0f} bytes/step "
          f"({ledger.ghost_atoms // ledger.steps} ghosts/step)")
    print("phase fractions:", {k: f"{v * 100:.0f}%"
                               for k, v in out.phase_fractions.items()})
    print("\nthe correctness test suite asserts this equality for LJ, "
          "Stillinger-Weber and SNAP (tests/test_parallel.py)")


if __name__ == "__main__":
    main()
