"""Engine-layer benchmark: one MD loop, every execution backend.

Runs the identical LJ system through :func:`repro.md.build_engine` on
the serial, domain-decomposed and shared-memory multiprocess
backends — the same :class:`repro.md.MDLoop` drives all three — and
records the per-backend throughput to ``BENCH_engine.json``
at the repo root via :mod:`repro.core.benchrecord`.  Doubles as an
end-to-end check that the backends agree on the physics at the engine
boundary: the process backend must be *bitwise* identical to serial.

The record's host metadata includes the usable CPU count
(``sched_getaffinity``, not the machine count); on a 1-CPU container
the process backend's speedup_vs_serial is necessarily < 1 — workers
time-slice one core and pay the synchronization tax — so read that
field against ``host.cpu_count``.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.core.benchrecord import make_record, write_record
from repro.md import (AsyncTrajectoryWriter, MDLoop, TrajectoryFile,
                      build_engine)
from repro.potentials import LennardJones
from repro.structures import lattice_system

STEPS = 5
#: trajectory-IO benchmark: longer run at the production frame cadence
IO_STEPS = 120
IO_EVERY = 10
IO_TRIALS = 5

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _write_engine_record(record: dict) -> Path:
    """Write one section of ``BENCH_engine.json``, keeping the other.

    Both engine benchmarks share the file: the backend sweep is the
    top-level record, the trajectory-IO sweep lives under its
    ``trajectory_io`` key.  Each test carries the other's section over
    so the file's content is independent of test order.
    """
    if RECORD_PATH.exists():
        old = json.loads(RECORD_PATH.read_text())
        if record.get("benchmark") == "trajectory_io_overhead":
            if old.get("benchmark") == "engine_backends":
                old["trajectory_io"] = record
                record = old
            else:
                record = {"trajectory_io": record}
        elif "trajectory_io" in old:
            record["trajectory_io"] = old["trajectory_io"]
    elif record.get("benchmark") == "trajectory_io_overhead":
        record = {"trajectory_io": record}
    return write_record(RECORD_PATH, record)


def _system(rng):
    s = lattice_system("fcc", a=2.5, reps=(5, 5, 5))
    s.positions = s.positions + rng.normal(scale=0.01, size=s.positions.shape)
    return s, LennardJones(epsilon=0.2, sigma=2.2, cutoff=3.0)


def test_engine_backends_record(benchmark, report, rng):
    """Serial vs distributed vs multiprocess through one MDLoop."""
    s0, pot = _system(rng)
    variants = {
        "serial": dict(),
        "distributed_8r": dict(nranks=8),
        "process_2p": dict(backend="process", nprocs=2),
        "process_4p": dict(backend="process", nprocs=4),
    }
    seconds = {}
    extras = {}
    forces = {}
    for name, kw in variants.items():
        sm = s0.copy()
        sm.seed_velocities(50.0, rng=np.random.default_rng(13))
        with build_engine(sm, pot, **kw) as engine:
            loop = MDLoop(engine, dt=1e-3)
            t0 = time.perf_counter()
            out = loop.run(STEPS)
            seconds[name] = time.perf_counter() - t0
            forces[name] = engine.evaluate().forces
        extras[name] = {
            "backend": type(engine).__name__,
            "atom_steps_per_s": out.atom_steps_per_s,
            "neighbor_builds": out.neighbor_builds,
            "phase_fractions": out.phase_fractions,
        }
        if out.nprocs is not None:
            extras[name]["nprocs"] = out.nprocs
        if out.ghost_bytes_per_step is not None:
            extras[name]["ghost_bytes_per_step"] = out.ghost_bytes_per_step
    # every backend must agree on the physics; the multiprocess backend
    # carries the strongest contract (bitwise equality with serial)
    assert np.allclose(forces["serial"], forces["distributed_8r"], atol=1e-10)
    assert np.array_equal(forces["serial"], forces["process_2p"])
    assert np.array_equal(forces["serial"], forces["process_4p"])

    record = make_record(
        "engine_backends",
        problem={"natoms": s0.natoms, "steps": STEPS, "potential": "LJ"},
        seconds=seconds, natoms=s0.natoms * STEPS, reference="serial",
        extras=extras)
    out_path = _write_engine_record(record)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    report(f"engine backends ({s0.natoms} atoms, {STEPS} steps, LJ):")
    report(f"{'variant':>18s} {'backend':>18s} {'s':>8s} "
           f"{'atom-steps/s':>14s}")
    for name in variants:
        report(f"{name:>18s} {extras[name]['backend']:>18s} "
               f"{seconds[name]:8.3f} "
               f"{extras[name]['atom_steps_per_s']:14.0f}")
    report(f"recorded -> {out_path.name}")


def test_trajectory_io_overhead_record(benchmark, report, rng, tmp_path):
    """Streaming-writer tax on the MD step: async vs sync vs no IO.

    The async writer encodes on the caller thread and drains to disk on
    a background thread, so at the production frame cadence its step
    overhead versus a no-IO run should be in the noise (<5%); the
    synchronous :class:`TrajectoryFile` pays the full write on the MD
    thread and bounds what the double-buffering saves.  Best-of-N per
    variant to keep container timing jitter out of the ratio (the
    per-frame cost is tens of microseconds against a multi-millisecond
    step, so one noisy trial would dominate the signal).
    """
    s0, pot = _system(rng)

    def timed(writer_factory):
        best = None
        for trial in range(IO_TRIALS):
            sm = s0.copy()
            sm.seed_velocities(50.0, rng=np.random.default_rng(13))
            writer = writer_factory(trial)
            try:
                with build_engine(sm, pot) as engine:
                    loop = MDLoop(engine, dt=1e-3, trajectory=writer,
                                  trajectory_every=IO_EVERY)
                    t0 = time.perf_counter()
                    out = loop.run(IO_STEPS)
                    dt = time.perf_counter() - t0
            finally:
                if writer is not None:
                    writer.close()
            if best is None or dt < best[0]:
                best = (dt, out)
        return best

    variants = {
        "no_io": lambda trial: None,
        "async_traj": lambda trial: AsyncTrajectoryWriter(
            tmp_path / f"async{trial}.trj", natoms=s0.natoms),
        "sync_traj": lambda trial: TrajectoryFile(
            tmp_path / f"sync{trial}.trj", natoms=s0.natoms),
    }
    seconds, extras = {}, {}
    for name, factory in variants.items():
        dt, out = timed(factory)
        seconds[name] = dt
        extras[name] = {"atom_steps_per_s": out.atom_steps_per_s}
        if out.io_bytes is not None:
            extras[name].update(io_frames=out.io_frames,
                                io_bytes=out.io_bytes,
                                io_bytes_per_s=out.io_bytes_per_s)
    for name in ("async_traj", "sync_traj"):
        extras[name]["overhead_vs_no_io"] = \
            seconds[name] / seconds["no_io"] - 1.0

    record = make_record(
        "trajectory_io_overhead",
        problem={"natoms": s0.natoms, "steps": IO_STEPS,
                 "frame_every": IO_EVERY, "potential": "LJ"},
        seconds=seconds, natoms=s0.natoms * IO_STEPS, reference="no_io",
        extras=extras)
    out_path = _write_engine_record(record)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    report(f"trajectory IO ({s0.natoms} atoms, {IO_STEPS} steps, "
           f"frame every {IO_EVERY}):")
    report(f"{'variant':>12s} {'s':>8s} {'overhead':>9s} {'MB/s':>8s}")
    for name in variants:
        over = extras[name].get("overhead_vs_no_io")
        rate = extras[name].get("io_bytes_per_s")
        report(f"{name:>12s} {seconds[name]:8.3f} "
               f"{over * 100 if over is not None else 0:8.1f}% "
               f"{(rate or 0) / 1e6:8.1f}")
    report(f"recorded -> {out_path.name}")
