"""Parallel Trajectory Splicing demo (extension; lecture part 2).

Shows the three parallelization axes of ParSplice on a superbasin
landscape: over the *present* (many replicas of the current state),
the *past* (cached segments pay off on revisits) and the *future*
(the statistical oracle schedules speculative segments).

Run:  python examples/parsplice_demo.py
"""

import numpy as np

from repro.parsplice import (SegmentGenerator, arrhenius_msm,
                             nanoparticle_landscape, run_parsplice)


def main() -> None:
    energies, barriers = nanoparticle_landscape(
        n_basins=40, states_per_basin=8, seed=2)
    print(f"landscape: {energies.size} states in 40 superbasins "
          "(low intra-basin, high inter-basin barriers)")

    print("\n=== temperature sweep (32 workers x 30 quanta) ===")
    print(f"{'T (K)':>7s} {'trajectory (ps)':>16s} {'transitions':>12s} "
          f"{'states':>7s} {'spliced':>8s} {'speedup':>8s}")
    for temp in (300, 700, 1500, 3000, 6000):
        msm = arrhenius_msm(energies, barriers, temperature=float(temp))
        run = run_parsplice(SegmentGenerator(msm, t_segment=0.2, seed=temp),
                            nworkers=32, quanta=30)
        print(f"{temp:7d} {run.trajectory_time:16.1f} "
              f"{run.n_transitions:12d} {run.n_states_visited:7d} "
              f"{run.spliced_fraction * 100:7.0f}% {run.speedup:7.1f}x")
    print("rare events -> near-linear scaling over workers; fast, novel "
          "events -> collapse toward plain MD (the lecture's easy/hard "
          "case tables)")

    print("\n=== worker scaling at 300 K ===")
    msm = arrhenius_msm(energies, barriers, temperature=300.0)
    for nworkers in (4, 16, 64, 256):
        run = run_parsplice(SegmentGenerator(msm, t_segment=0.2, seed=1),
                            nworkers=nworkers, quanta=15)
        print(f"  {nworkers:4d} workers -> speedup {run.speedup:6.1f}x")
    print("this is parallelization over *time*: the same wall-clock buys "
          "a proportionally longer trajectory")


if __name__ == "__main__":
    main()
