"""The halo bytes of a domain decomposition, counted without ranks.

Demonstrates the paper's parallelization substrate at desk scale: the
rank grid it picks for 27,900 GPUs, the ghost shell a 3D decomposition
builds on a paper-shaped sample against the communication model's
estimate (EXPERIMENTS E4b), and the halo bytes per step a serial MD
run would move on a 2x2x2 rank grid, priced from its neighbour
rebuild count: a full ghost record on a rebuild, a position refresh
in between, the ghost forces back on every step.

Run:  python examples/distributed_md.py
"""

import numpy as np

from repro.md import MDLoop, build_engine
from repro.parallel import best_grid, forward_bytes, halo_census
from repro.perfmodel import ghost_atoms_per_domain
from repro.potentials import LennardJones
from repro.structures import lattice_system, random_packed


def main() -> None:
    print("the paper's rank grid: 27,900 MPI ranks ->", best_grid(27900),
          "(minimizing halo surface)")

    natoms, density, skin = 4000, 0.1, 0.3
    sample = random_packed(natoms, density=density, seed=1)
    cutoff = (26 / (4 / 3 * np.pi * density)) ** (1 / 3) + skin
    print(f"\nghost shell of {natoms} atoms, cutoff + skin {cutoff:.2f} A")
    print("ranks  grid        census ghosts/rank  model  residual")
    for nranks in (2, 4, 8):
        ghosts = halo_census(sample.positions, sample.box, nranks,
                             cutoff).ghost_atoms / nranks
        model = ghost_atoms_per_domain(natoms / nranks, density, cutoff)
        grid = best_grid(nranks, sample.box.lengths)
        print(f"{nranks:5d}  {str(grid):10s}  {ghosts:18.0f}  {model:5.0f}"
              f"  {ghosts / model - 1:+8.1%}")

    system = lattice_system("fcc", a=3.5, reps=(6, 6, 6))
    system.seed_velocities(1500.0, rng=np.random.default_rng(5))
    pot = LennardJones(epsilon=0.2, sigma=2.2, cutoff=5.0)
    build = halo_census(system.positions, system.box, 8, pot.cutoff + skin)
    with build_engine(system, pot, skin=skin) as engine:
        out = MDLoop(engine, dt=1e-3).run(50)
    evaluations, rebuilds = out.steps + 1, out.neighbor_builds
    forward = (rebuilds * forward_bytes(build.ghost_atoms, rebuilt=True)
               + (evaluations - rebuilds)
               * forward_bytes(build.ghost_atoms, rebuilt=False))
    print(f"\nserial MD: {system.natoms} atoms, {out.steps} steps, "
          f"{rebuilds} neighbour rebuilds")
    print(f"on a {best_grid(8)} grid: {build.ghost_atoms} ghosts, "
          f"{forward / evaluations:.0f} forward + "
          f"{build.reverse_bytes:.0f} reverse bytes/step")


if __name__ == "__main__":
    main()
