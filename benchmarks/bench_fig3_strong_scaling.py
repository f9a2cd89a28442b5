"""E4 - Paper Fig. 3: strong scaling on Summit (time/step + performance).

Regenerates both panels for the paper's six amorphous-carbon sample
sizes (1.26M -> 19.68B atoms) over node counts up to the full machine,
and checks the paper's quoted parallel efficiencies (97% / 82% / 41%).
A small *measured* strong-scaling run on simulated ranks accompanies
the model: the in-process driver cannot speed up on one core, so the
measured quantity is the communication volume, whose surface-to-volume
trend drives the model.
"""

import numpy as np
import pytest

from repro.parallel import BYTES_PER_GHOST, DistributedEngine
from repro.perfmodel import PAPER, parallel_efficiency, strong_scaling
from repro.potentials import LennardJones
from repro.structures import lattice_system

SIZES = PAPER["strong_scaling_sizes"]
NODE_SWEEP = [64, 128, 256, 512, 972, 2048, 4650]


def test_strong_scaling_curves(benchmark, report):
    benchmark.pedantic(strong_scaling, args=("summit", SIZES[3], NODE_SWEEP),
                       rounds=1, iterations=1)
    report("Paper Fig. 3: strong scaling on Summit (model)")
    report(f"{'atoms':>15s} | " + " ".join(f"{n:>9d}" for n in NODE_SWEEP))
    report("-" * 100)
    for natoms in SIZES:
        nodes = [n for n in NODE_SWEEP if natoms / n <= 20e6 * 6]  # memory
        sweep = strong_scaling("summit", natoms, nodes)
        row = {n: p for n, p in zip(sweep["nodes"], sweep["matom_steps_node_s"])}
        cells = [f"{row[n]:9.2f}" if n in row else " " * 9 for n in NODE_SWEEP]
        report(f"{natoms:15,d} | " + " ".join(cells) + "  Matom-steps/node-s")
    report("")
    report("time-to-solution (s/step):")
    for natoms in (SIZES[0], SIZES[3], SIZES[5]):
        sweep = strong_scaling("summit", natoms, NODE_SWEEP)
        report(f"{natoms:15,d} | " + " ".join(
            f"{t:9.3g}" for t in sweep["s_per_step"]))

    # paper-quoted efficiencies
    effs = {
        "20B, 4650 vs 972": (parallel_efficiency("summit", SIZES[5], 4650, 972), 0.97),
        "1B, 4650 vs 64": (parallel_efficiency("summit", SIZES[3], 4650, 64), 0.82),
        "10M, 512 vs 1": (parallel_efficiency("summit", SIZES[1], 512, 1), 0.41),
    }
    report("")
    report(f"{'parallel efficiency':24s} {'model':>8s} {'paper':>8s}")
    for k, (got, want) in effs.items():
        report(f"{k:24s} {got:8.2f} {want:8.2f}")
    assert effs["20B, 4650 vs 972"][0] == pytest.approx(0.97, abs=0.03)
    assert effs["1B, 4650 vs 64"][0] == pytest.approx(0.82, abs=0.07)
    assert 0.3 < effs["10M, 512 vs 1"][0] < 0.65

    # time-to-solution decreases monotonically with node count
    for natoms in SIZES:
        sweep = strong_scaling("summit", natoms, NODE_SWEEP)
        assert np.all(np.diff(sweep["s_per_step"]) < 0)


def test_measured_halo_surface_to_volume(benchmark, report, rng):
    """In-process measurement: ghost fraction grows as ranks increase."""
    s = lattice_system("fcc", a=2.5, reps=(8, 8, 8))
    s.positions = s.positions + rng.normal(scale=0.05, size=s.positions.shape)
    pot = LennardJones(epsilon=0.2, sigma=2.2, cutoff=2.5)
    benchmark.pedantic(lambda: DistributedEngine(s.copy(), pot, 8).evaluate(),
                       rounds=1, iterations=1)
    report("")
    report("measured halo traffic (2048-atom LJ sample, simulated ranks):")
    report(f"{'ranks':>6s} {'grid':>10s} {'ghosts/step':>12s} {'bytes/step':>12s}")
    ghost_series = []
    for nranks in (1, 2, 4, 8):
        engine = DistributedEngine(s.copy(), pot, nranks)
        engine.evaluate()
        ghosts = engine.ledger.ghost_atoms
        ghost_series.append(ghosts)
        report(f"{nranks:6d} {str(engine.grid.dims):>10s} {ghosts:12d} "
               f"{ghosts * BYTES_PER_GHOST:12d}")
    assert ghost_series == sorted(ghost_series)


def test_model_benchmark(benchmark):
    benchmark(strong_scaling, "summit", SIZES[3], NODE_SWEEP)
