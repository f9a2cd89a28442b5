"""Layer replay: time each layer's public entry from the outside.

Every function takes a warmed-up state, calls one layer's public
functions directly inside spans (``measure.timed_calls``: five calls, or
three when a call takes over half a second) and returns that layer's
metrics under the names listed in ``BENCHMARK.json``.  Which state each
layer gets - the workload's own, or a small probe when the layer is off
the workload's run path - is decided in ``workloads.replay``.
"""

from __future__ import annotations

import os
import resource
import time

import numpy as np

import adapters as repo
from measure import median, median_ms, rss_mb, timed_calls

#: Verlet skin of every engine in the suite (the ``build_engine`` default)
SKIN = 0.3
#: frames written by the trajectory replay
TRAJ_FRAMES = 32


def fresh_neighbors(system, cutoff):
    """A new skinned list and its first (rebuild-path) batch."""
    nlist = repo.NeighborList(box=system.box, cutoff=cutoff, skin=SKIN)
    return nlist, nlist.get(system.positions)


def snap_kernel(pot, system, gemm_gflops, spans, parent) -> dict:
    """``core.snap.*``: the force kernel on a fixed pair list.

    Stage times come from the public ``last_timings`` (program-reported);
    the FLOP count is ``core.flops``' model, not a hardware counter.
    """
    _, nbr = fresh_neighbors(system, pot.cutoff)
    natoms = system.natoms
    stages = {"compute_ui": [], "compute_yi": [], "compute_dui_deidrj": []}

    def call():
        pot.compute(natoms, nbr)
        for key, seen in stages.items():
            seen.append(pot.last_timings[key])

    secs = median(timed_calls(call, spans, "core.snap.compute", parent))
    twojmax = pot.params.twojmax
    flops = repo.flops_per_atom_step(twojmax, nbr.npairs / natoms) * natoms
    stored = bool(pot.snap.last_store_u)
    return {
        "core.snap.compute_ms": 1e3 * secs,
        "core.snap.us_per_pair": 1e6 * secs / nbr.npairs,
        "core.snap.ui_ms": 1e3 * median(stages["compute_ui"]),
        "core.snap.yi_ms": 1e3 * median(stages["compute_yi"]),
        "core.snap.dui_deidrj_ms":
            1e3 * median(stages["compute_dui_deidrj"]),
        "core.snap.gflops": flops / secs / 1e9,
        "core.snap.frac_of_gemm_peak": flops / secs / 1e9 / gemm_gflops,
        "core.snap.store_u": float(stored),
        # computed: one complex128 per U element per pair while cached
        "core.snap.u_bytes_per_pair":
            16.0 * repo.SNAPIndex(twojmax).nu if stored else 0.0,
    }


def lj_kernel(pot, system, spans, parent) -> dict:
    _, nbr = fresh_neighbors(system, pot.cutoff)
    ms = median_ms(lambda: pot.compute(system.natoms, nbr), spans,
                   "potentials.lj.compute", parent)
    return {"potentials.lj.compute_ms": ms,
            "potentials.lj.ns_per_pair": 1e6 * ms / nbr.npairs}


def neighbor(system, cutoff, cell_system, small_system, spans, parent) -> dict:
    """``md.neighbor.*``.

    ``rebuild_ms`` is a whole rebuild-path ``NeighborList.get`` (cell
    build at cutoff+skin plus the skin filter) on ``cell_system``,
    ``refresh_ms`` a ``get`` that keeps the topology on ``system`` (the
    workload's own), ``small_box_rebuild_ms`` the image-sweep rebuild
    of the 64-atom box.
    """
    def rebuild(target):
        return lambda: fresh_neighbors(target, cutoff)

    nlist, nbr = fresh_neighbors(system, cutoff)
    # a displacement well inside skin/2: refresh path, real arithmetic
    nudged = system.positions + 0.01 * SKIN
    return {
        "md.neighbor.rebuild_ms": median_ms(
            rebuild(cell_system), spans, "md.neighbor.rebuild", parent),
        "md.neighbor.refresh_ms": median_ms(
            lambda: nlist.get(nudged), spans, "md.neighbor.refresh", parent),
        "md.neighbor.small_box_rebuild_ms": median_ms(
            rebuild(small_system), spans, "md.neighbor.small_box_rebuild",
            parent),
        "md.neighbor.pairs_per_atom": nbr.npairs / system.natoms,
    }


def serial_engine(system, pot, spans, parent) -> dict:
    """``SerialEngine`` build and steady-state evaluate on ``system``."""
    t0 = time.perf_counter()
    with spans.span("md.engine.build", parent):
        engine = repo.build_engine(system.copy(), pot, backend="serial")
    build_s = time.perf_counter() - t0
    with engine:
        engine.evaluate()
        ms = median_ms(engine.evaluate, spans, "md.engine.evaluate", parent)
    return {"md.engine.build_s": build_s, "md.engine.evaluate_ms": ms}


def session_bind(small_system, pot, spans, parent) -> dict:
    """What a segment pays up front: ``bind`` plus the first evaluation
    (the forced topology rebuild) on a live session."""
    with repo.EngineSession.build(small_system.copy(), pot,
                                  backend="serial") as session:
        def call():
            session.bind(small_system.copy())
            session.engine.evaluate()

        call()
        return {"md.engine.bind_ms": median_ms(call, spans, "md.engine.bind",
                                               parent)}


def checkpointing(loop, workdir, spans, parent) -> dict:
    path = workdir / "replay-checkpoint"
    return {
        "md.engine.checkpoint_ms": median_ms(
            lambda: loop.write_checkpoint(path), spans,
            "md.engine.checkpoint", parent),
        "md.engine.restore_ms": median_ms(
            lambda: loop.restore(path), spans, "md.engine.restore", parent),
    }


def integrators(system, forces, dt, seed, spans, parent) -> dict:
    verlet = repo.VelocityVerlet(dt=dt)
    thermostat = repo.LangevinThermostat(temp=300.0, damp=0.1, seed=seed)
    scratch = system.copy()
    kicks = np.array(forces)

    def step():
        verlet.first_half(scratch, kicks)
        verlet.second_half(scratch, kicks)

    return {
        "md.integrators.verlet_ms": median_ms(
            step, spans, "md.integrators.verlet", parent, reps=9),
        "md.integrators.langevin_ms": median_ms(
            lambda: thermostat.add_forces(scratch, kicks, dt), spans,
            "md.integrators.langevin", parent, reps=9),
    }


def trajectory(system, result, workdir, spans, parent) -> dict:
    """``md.trajectory.*``: async write side, then scan and read back."""
    path = workdir / "replay.traj"
    frame = repo.Frame.from_state(0, system, result, positions=True,
                                  velocities=True)
    submits = []
    with spans.span("md.trajectory.write", parent) as group:
        t0 = time.perf_counter()
        with repo.AsyncTrajectoryWriter(path, natoms=system.natoms) as writer:
            for _ in range(TRAJ_FRAMES):
                with spans.span("md.trajectory.submit", group) as idx:
                    nbytes = writer.write_frame(frame)
                row = spans.rows[idx]
                submits.append(row["end"] - row["start"])
            with spans.span("md.trajectory.flush", group) as idx:
                writer.flush()
            flush = spans.rows[idx]
            written_s = flush["end"] - t0
    size_mb = os.path.getsize(path) / 1e6

    def read_all():
        with repo.TrajectoryReader(path) as reader:
            for index in range(len(reader)):
                reader.read(index)

    scan_ms = median_ms(lambda: repo.scan_trajectory(path), spans,
                        "md.trajectory.scan", parent)
    read_ms = median_ms(read_all, spans, "md.trajectory.read", parent)
    return {
        "md.trajectory.submit_ms": 1e3 * median(submits),
        "md.trajectory.flush_ms": 1e3 * (flush["end"] - flush["start"]),
        "md.trajectory.write_mb_per_s": size_mb / written_s,
        "md.trajectory.bytes_per_frame": float(nbytes),
        "md.trajectory.scan_mb_per_s": 1e3 * size_mb / scan_ms,
        # read_all scans once on open, then decodes every frame
        "md.trajectory.read_mb_per_s": 1e3 * size_mb / read_ms,
    }


def analysis(system, result, rmax, spans, parent) -> dict:
    rdf = repo.RDFObserver(rmax=rmax)
    thermo = repo.ThermoObserver()
    return {
        "analysis.rdf_ms": median_ms(
            lambda: rdf.observe(0, system, result), spans, "analysis.rdf",
            parent),
        "analysis.thermo_ms": median_ms(
            lambda: thermo.observe(0, system, result), spans,
            "analysis.thermo", parent, reps=9),
    }


def leaked_blocks(names) -> int:
    """Shared-memory blocks of a closed engine still present on the host."""
    return sum(os.path.exists(os.path.join("/dev/shm", n)) for n in names)


def process_engine(system, pot, serial_ms, nprocs, spans, parent,
                   engine=None, build_s=None) -> dict:
    """``parallel.process.*`` against a same-state ``SerialEngine`` base.

    With ``engine`` given (the ``snap2j8_proc2`` row) the workload's own
    engine is measured and closed here; otherwise one is built on
    ``system``.  ``comm_frac`` is the engine's own phase ledger
    (program-reported, summed over ranks); the byte count is exact.
    """
    if engine is None:
        t0 = time.perf_counter()
        with spans.span("parallel.process.build", parent):
            engine = repo.build_engine(system.copy(), pot, backend="process",
                                       nprocs=nprocs)
        build_s = time.perf_counter() - t0
        engine.evaluate()
    try:
        engine.timers.reset()
        ms = median_ms(engine.evaluate, spans, "parallel.process.evaluate",
                       parent)
        fractions = engine.timers.fractions()
        ghost_bytes = engine.summary_extras()["ghost_bytes_per_step"]
        names = engine.block_names
    finally:
        t0 = time.perf_counter()
        with spans.span("parallel.process.close", parent):
            engine.close()
        close_s = time.perf_counter() - t0
    speedup = serial_ms / ms
    return {
        "parallel.process.build_s": build_s,
        "parallel.process.close_s": close_s,
        "parallel.process.evaluate_ms": ms,
        "parallel.process.speedup_vs_serial": speedup,
        "parallel.process.efficiency": speedup / nprocs,
        "parallel.process.comm_frac": fractions.get("comm", 0.0),
        "parallel.process.force_frac": fractions.get("force", 0.0),
        "parallel.process.ghost_bytes_per_step": float(ghost_bytes),
        "parallel.process.worker_rss_mb": rss_mb(resource.RUSAGE_CHILDREN),
        "parallel.shm.leaked_blocks": float(leaked_blocks(names)),
    }
