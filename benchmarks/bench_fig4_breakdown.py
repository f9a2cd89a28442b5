"""E5 - Paper Fig. 4: time breakdown (SNAP / MPI Comm / Other).

The paper's pies at full machine: 95/4/1 (20B atoms), 86/12/2 (1B),
60/35/5 (100M).  The model must reproduce the trend - communication
share grows as the per-GPU atom count shrinks - and land within a few
points of each pie.  A measured in-process breakdown from the
instrumented drivers accompanies it.
"""

import pytest

from repro.md import MDLoop, build_engine
from repro.perfmodel import PAPER, breakdown
from repro.potentials import SNAPPotential
from repro.core import SNAPParams
from repro.structures import lattice_system

CASES = [19_683_000_000, 1_024_192_512, 102_503_232]


def test_breakdown_model(benchmark, report):
    benchmark.pedantic(breakdown, args=("summit", CASES[0], 4650),
                       rounds=1, iterations=1)
    report("Paper Fig. 4: full-machine time breakdown (4650 nodes)")
    report(f"{'atoms':>15s} {'SNAP':>12s} {'MPI Comm':>12s} {'Other':>12s}")
    for natoms in CASES:
        got = breakdown("summit", natoms, 4650)
        want = PAPER["breakdown"][natoms]
        report(f"{natoms:15,d} "
               f"{got['SNAP']*100:5.0f}% ({want['SNAP']*100:3.0f}%) "
               f"{got['MPI Comm']*100:5.0f}% ({want['MPI Comm']*100:3.0f}%) "
               f"{got['Other']*100:5.0f}% ({want['Other']*100:3.0f}%)")
        assert got["SNAP"] == pytest.approx(want["SNAP"], abs=0.07)
        assert got["MPI Comm"] == pytest.approx(want["MPI Comm"], abs=0.07)
    report("(model vs paper in parentheses)")

    # the trend the figure exists to show
    fracs = [breakdown("summit", n, 4650)["MPI Comm"] for n in CASES]
    assert fracs[0] < fracs[1] < fracs[2]


def test_breakdown_measured_inprocess(benchmark, report, rng):
    """Measured comm/neigh/force split from the instrumented
    distributed engine (SNAP force time dominates at MD-realistic atom
    counts even in the interpreted kernel)."""
    import numpy as np

    params = SNAPParams(twojmax=4, rcut=2.4, chunk=8192)
    pot = SNAPPotential(params, beta=rng.normal(
        size=SNAPPotential(params).snap.index.ncoeff))
    s = lattice_system("diamond", a=3.57, reps=(3, 3, 3))
    s.seed_velocities(300.0, rng=np.random.default_rng(7))
    loop = MDLoop(build_engine(s, pot, nranks=2, skin=0.1), dt=5e-4)
    out = benchmark.pedantic(loop.run, args=(2,), rounds=1, iterations=1)
    report("")
    report("measured in-process breakdown (216-atom SNAP 2J=4, 2 ranks):")
    bd = out.phase_breakdown
    for k in sorted(bd):
        subs = " ".join(f"{n}={t*1e3:.1f}ms"
                        for n, t in sorted(bd[k].get("sub", {}).items()))
        report(f"    {k:8s} {bd[k].get('fraction', 0.0)*100:6.1f}%"
               + (f"  [{subs}]" if subs else ""))
    # force-dominated, like the paper's big runs
    assert out.phase_fractions["force"] > 0.5
    assert "halo_build" in bd["comm"]["sub"]
    assert "reverse" in bd["comm"]["sub"]
    assert "compute_yi" in bd["force"]["sub"]


def test_sanitizer_overhead_measured(report, rng):
    """Overhead of the opt-in repro.lint sanitizers on the fig4 system:
    NaN/Inf guards on every kernel-stage exit (``check_finite``) plus the
    scatter-add race detector (``race_check``).  Both are debug
    instruments; this records what turning them on costs so EXPERIMENTS
    can quote a measured number."""
    import numpy as np

    beta = rng.normal(
        size=SNAPPotential(SNAPParams(twojmax=4, rcut=2.4)).snap.index.ncoeff)
    walls = {}
    for label, sane in (("off", False), ("on", True)):
        params = SNAPParams(twojmax=4, rcut=2.4, chunk=8192,
                            check_finite=sane)
        pot = SNAPPotential(params, beta=beta)
        s = lattice_system("diamond", a=3.57, reps=(3, 3, 3))
        s.seed_velocities(300.0, rng=np.random.default_rng(7))
        engine = build_engine(s, pot, nranks=2, skin=0.1,
                              check_finite=sane, race_check=sane)
        walls[label] = MDLoop(engine, dt=5e-4).run(3).wall_s
        if sane:
            assert engine.race_detector.reports == []
    ratio = walls["on"] / walls["off"]
    report("")
    report("sanitizer overhead (216-atom SNAP 2J=4, 2 ranks):")
    report(f"  sanitizers off: {walls['off']*1e3:8.1f} ms")
    report(f"  sanitizers on:  {walls['on']*1e3:8.1f} ms  ({ratio:.2f}x)")
    # debug instruments, but they must stay usable on real runs
    assert ratio < 2.0


def test_breakdown_benchmark(benchmark):
    benchmark(breakdown, "summit", CASES[1], 4650)
