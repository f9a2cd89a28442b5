"""Distributed-engine benchmark: the in-process MPI model vs serial.

Runs one SNAP system through the serial engine and the domain-decomposed
:class:`repro.parallel.DistributedEngine` at fixed natoms/nranks and
writes the measurement to ``BENCH_distributed.json`` at the repo root
via :mod:`repro.core.benchrecord` (atom-steps/s plus ghost/reverse bytes
per step and the comm share the Fig. 4 split is built from).
"""

import time
from pathlib import Path

import numpy as np

from repro.core import SNAPParams
from repro.core.benchrecord import make_record, write_record
from repro.md import MDLoop, build_engine
from repro.potentials import SNAPPotential
from repro.structures import lattice_system

NRANKS = 2
STEPS = 4


def _system(rng, reps=(3, 3, 3)):
    params = SNAPParams(twojmax=4, rcut=2.4)
    pot = SNAPPotential(params, beta=rng.normal(
        size=SNAPPotential(params).snap.index.ncoeff))
    s = lattice_system("diamond", a=3.57, reps=reps)
    s.positions = s.positions + rng.normal(scale=0.01, size=s.positions.shape)
    return s, pot


def test_distributed_record(benchmark, report, rng):
    """Serial vs 2-rank distributed; record to BENCH_distributed.json."""
    s0, pot = _system(rng)
    variants = {
        "serial": dict(skin=0.1),
        "distributed_2r": dict(nranks=NRANKS, skin=0.1),
    }
    seconds = {}
    extras = {}
    forces = {}
    for name, kw in variants.items():
        sm = s0.copy()
        sm.seed_velocities(50.0, rng=np.random.default_rng(13))
        with build_engine(sm, pot, **kw) as engine:
            t0 = time.perf_counter()
            out = MDLoop(engine, dt=5e-4).run(STEPS)
            seconds[name] = time.perf_counter() - t0
            forces[name] = engine.evaluate().forces
        extras[name] = {
            "atom_steps_per_s": out.atom_steps_per_s,
            "neighbor_builds": out.neighbor_builds,
            "phase_fractions": out.phase_fractions,
        }
        if out.ghost_bytes_per_step is not None:
            extras[name].update(
                ghost_bytes_per_step=out.ghost_bytes_per_step,
                reverse_bytes_per_step=out.reverse_bytes_per_step)
    assert np.allclose(forces["serial"], forces["distributed_2r"],
                       atol=1e-10)

    record = make_record(
        "distributed_md",
        problem={"natoms": s0.natoms, "nranks": NRANKS, "steps": STEPS,
                 "twojmax": 4, "potential": "SNAP"},
        seconds=seconds, natoms=s0.natoms * STEPS, reference="serial",
        extras=extras)
    out_path = write_record(Path(__file__).resolve().parent.parent
                            / "BENCH_distributed.json", record)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    report(f"distributed engine ({s0.natoms} atoms, {NRANKS} ranks, "
           f"{STEPS} steps):")
    report(f"{'variant':>18s} {'s':>8s} {'atom-steps/s':>14s} "
           f"{'ghost B/step':>14s} {'reverse B/step':>15s}")
    for name in variants:
        e = extras[name]
        report(f"{name:>18s} {seconds[name]:8.2f} "
               f"{e['atom_steps_per_s']:14.0f} "
               f"{e.get('ghost_bytes_per_step', 0):14.0f} "
               f"{e.get('reverse_bytes_per_step', 0):15.0f}")
    report(f"record written to {out_path}")
