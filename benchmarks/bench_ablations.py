"""Ablation benches for the design choices DESIGN.md calls out.

1. **Pair chunking (kernel fusion).** The production kernel recomputes
   ``U`` per pair chunk instead of storing it; the sweep shows the
   memory/speed trade and that results are identical (the paper's
   "breaking things down too fine can hurt" sweet-spot observation).
2. **Verlet skin.** A zero skin rebuilds the neighbor list every step;
   a huge skin inflates pair counts.  The sweep shows both regimes.
3. **ParSplice speculation.** With the oracle off (all workers on the
   current state), caching revisits still helps, but prediction buys
   additional trajectory in multi-state regimes.
"""

import numpy as np

from repro.core import SNAP, SNAPParams
from repro.md import MDLoop, build_engine, build_pairs
from repro.parsplice import arrhenius_msm, nanoparticle_landscape, run_parsplice
from repro.potentials import LennardJones
from repro.structures import lattice_system, random_packed


def test_chunk_size_sweep(benchmark, report):
    density = 0.1
    natoms = 96
    s = random_packed(natoms, density=density, seed=1)
    rcut = (26 / (4 / 3 * np.pi * density)) ** (1 / 3)
    beta = np.random.default_rng(0).normal(
        size=SNAP(SNAPParams(twojmax=6, rcut=rcut)).index.ncoeff)
    import time

    report("ablation: pair-chunk size (2J=6, 96 atoms; identical forces)")
    report(f"{'chunk':>8s} {'time [ms]':>10s} {'peak dU [MB]':>13s}")
    ref = None
    times = {}
    nbr = build_pairs(s.positions, s.box, rcut)
    for chunk in (64, 512, 4096, 100000):
        snap = SNAP(SNAPParams(twojmax=6, rcut=rcut, chunk=chunk), beta=beta)
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            res = snap.compute(natoms, nbr)
            best = min(best, time.perf_counter() - t0)
        times[chunk] = best
        du_mb = min(chunk, nbr.npairs) * 3 * snap.index.nu * 16 / 1e6
        report(f"{chunk:8d} {best * 1e3:10.1f} {du_mb:13.1f}")
        if ref is None:
            ref = res
        else:
            assert np.allclose(res.forces, ref.forces, atol=1e-12)
    benchmark.pedantic(snap.compute, args=(natoms, nbr), rounds=1, iterations=1)
    # tiny chunks pay per-call overhead: the smallest chunk must not be
    # the uniquely fastest configuration (the sweet-spot observation)
    assert times[64] >= 0.95 * min(times[512], times[4096], times[100000])


def test_verlet_skin_sweep(benchmark, report, rng):
    s = lattice_system("fcc", a=1.7, reps=(4, 4, 4), mass=39.95)
    s.seed_velocities(60.0, rng=rng)
    pot = LennardJones(epsilon=0.0104, sigma=1.0, cutoff=2.5)
    report("")
    report("ablation: Verlet skin (256-atom LJ, 100 steps)")
    report(f"{'skin':>6s} {'rebuilds':>9s} {'pairs/step':>11s}")
    rebuilds = {}
    for skin in (0.0, 0.3, 1.0):
        engine = build_engine(s.copy(), pot, skin=skin)
        out = MDLoop(engine, dt=2e-3).run(100)
        nbr = engine.neighbors.get(engine.system.positions)
        rebuilds[skin] = out.neighbor_builds
        report(f"{skin:6.1f} {out.neighbor_builds:9d} {nbr.npairs:11d}")
    benchmark.pedantic(
        lambda: MDLoop(build_engine(s.copy(), pot, skin=0.3),
                       dt=2e-3).run(10),
        rounds=1, iterations=1)
    assert rebuilds[0.0] > rebuilds[0.3] >= rebuilds[1.0]


def test_parsplice_speculation_ablation(benchmark, report):
    e, b = nanoparticle_landscape(n_basins=40, states_per_basin=8, seed=2)
    msm = arrhenius_msm(e, b, temperature=3000.0)
    with_oracle = run_parsplice(msm, nworkers=32, quanta=25, t_segment=0.2,
                                seed=4, speculate=True)
    without = run_parsplice(msm, nworkers=32, quanta=25, t_segment=0.2,
                            seed=4, speculate=False)
    benchmark.pedantic(run_parsplice, args=(msm,),
                       kwargs=dict(nworkers=8, quanta=5, t_segment=0.2, seed=5),
                       rounds=1, iterations=1)
    report("")
    report("ablation: ParSplice statistical oracle (3000 K, 32 workers)")
    report(f"  with speculation:    {with_oracle.speedup:5.1f}x "
           f"({with_oracle.spliced_fraction * 100:.0f}% spliced)")
    report(f"  without speculation: {without.speedup:5.1f}x "
           f"({without.spliced_fraction * 100:.0f}% spliced)")
    # the lecture: "model quality affects efficiency, but not accuracy";
    # speculation should not hurt, and both stay valid trajectories
    assert with_oracle.speedup >= 0.8 * without.speedup
    assert with_oracle.trajectory_time <= with_oracle.generated_time
    assert without.trajectory_time <= without.generated_time
