"""Backend feature parity through the shared engine layer.

Every backend drives the same :class:`repro.md.MDLoop`: thermo rows (a
:class:`repro.analysis.ThermoObserver`), checkpoint IO and a changed
cell behave identically on each, and ``run()`` emits the same
:class:`repro.md.RunSummary` shape.
"""

import numpy as np
import pytest

import inspect

from repro.analysis import (PhaseFractionObserver, RDFObserver,
                            ThermoObserver, pressure)
from repro.md import (EngineSession, LangevinThermostat, MDLoop, RunSummary,
                      SerialEngine, build_engine, build_pairs)
from repro.potentials import LennardJones
from repro.structures import lattice_system

#: "matching rows" tolerance: the backends differ only by fixed-order
#: float accumulation, so rows agree to ~1e-12 relative; 1e-10 is the
#: contract
TOL = dict(rtol=1e-10, atol=1e-10)


def lj_setup(temp=40.0, seed=5):
    s = lattice_system("fcc", a=2.5, reps=(5, 5, 5))
    s.seed_velocities(temp, rng=np.random.default_rng(seed))
    pot = LennardJones(epsilon=0.2, sigma=2.2, cutoff=3.0)
    return s, pot


# ======================================================================
# factory
# ======================================================================
class TestBuildEngine:
    def test_selects_serial_backend(self):
        s, pot = lj_setup()
        engine = build_engine(s, pot)
        assert isinstance(engine, SerialEngine)

    def test_every_backend_runs_the_same_loop(self):
        s, pot = lj_setup()
        with build_engine(s, pot, nprocs=2) as engine:
            summary = MDLoop(engine, dt=1e-3).run(2)
        assert isinstance(summary, RunSummary)

    def test_knob_census(self):
        """The factory's options are reviewed, not accreted: exactly
        these four keywords, nothing positional beyond the problem; the
        process backend takes nothing the factory does not pass.  No
        thread runs in the package: frames are written by the one
        synchronous ``TrajectoryFile``."""
        import re
        from pathlib import Path

        import repro
        from repro import md
        from repro.core import SeedStream
        from repro.md import trajectory
        from repro.parsplice import SegmentGenerator

        params = inspect.signature(build_engine).parameters
        assert list(params) == ["system", "potential", "backend", "nprocs",
                                "skin", "check_finite"]
        assert all(p.kind is p.KEYWORD_ONLY
                   for name, p in params.items()
                   if name not in ("system", "potential"))
        assert list(inspect.signature(ProcessEngine.__init__).parameters) \
            == ["self", "system", "potential", "nprocs", "skin",
                "check_finite"]
        assert not inspect.signature(worker_context).parameters
        # both process pools start, wait on and reap workers through the
        # worker kit only: one ``.Process(`` call site, no semaphore, no
        # timed ``acquire`` poll, one ``worker_context``
        root = Path(repro.__file__).parent
        texts = {path.relative_to(root).as_posix(): path.read_text()
                 for path in root.rglob("*.py")}
        assert {name: text.count(".Process(") for name, text in texts.items()
                if ".Process(" in text} == {"parallel/workers.py": 1}
        assert not [name for name, text in texts.items()
                    if "Semaphore" in text]
        assert not [name for name, text in texts.items()
                    if name.startswith("parallel/")
                    and "acquire(timeout=" in text]
        assert [name for name, text in texts.items()
                if "def worker_context" in text] == ["parallel/workers.py"]
        imports_a_thread = re.compile(
            r"^\s*(?:import|from)\s+(?:threading|queue)\b", re.M)
        assert not [name for name, text in texts.items()
                    if imports_a_thread.search(text)]
        assert list(inspect.signature(trajectory.TrajectoryFile.__init__)
                    .parameters) == ["self", "path", "natoms", "mode"]
        # one MD-loop surface: thermo rows come from ThermoObserver, a
        # checkpoint restores from its file, frames always carry positions
        assert list(inspect.signature(MDLoop.__init__).parameters) == [
            "self", "engine", "dt", "thermostat", "checkpoint_every",
            "checkpoint_path", "trajectory", "trajectory_every",
            "trajectory_velocities", "observers"]
        assert list(inspect.signature(MDLoop.run).parameters) \
            == ["self", "nsteps"]
        assert list(inspect.signature(EngineSession.run).parameters) == [
            "self", "system", "nsteps", "dt", "thermostat", "observers"]
        # no NPT path: the paper's engine is Verlet + Langevin NVE / NVT
        assert not hasattr(md, "BerendsenBarostat")
        assert "BerendsenBarostat" not in md.__all__
        assert not hasattr(MDLoop, "instantaneous_pressure")
        # one seed derivation (keyed children), no wall-cost model
        assert SeedStream.__slots__ == ("entropy", "path")
        assert list(inspect.signature(SegmentGenerator.__init__)
                    .parameters) == ["self", "msm", "t_segment", "seed"]
        for name in ("ThermoEntry", "LoopSnapshot"):
            assert not hasattr(md, name) and name not in md.__all__
        # the alias the benchmark suite still imports, and only that
        assert md.AsyncTrajectoryWriter is trajectory.TrajectoryFile
        assert "AsyncTrajectoryWriter" not in md.__all__
        assert "AsyncTrajectoryWriter" not in trajectory.__all__

    def test_list_form_census(self):
        """Half or full list is a property of the potential's class, not
        an option: the pair potentials and the list take no keyword for
        it, and no environment variable is read."""
        from pathlib import Path

        import repro
        from repro.md import NeighborList
        from repro.potentials import Potential, TablePotential

        def names(fn):
            return list(inspect.signature(fn).parameters)

        assert names(LennardJones) == ["epsilon", "sigma", "cutoff", "shift"]
        assert names(TablePotential) == ["r", "phi", "cutoff"]
        assert names(NeighborList) == ["box", "cutoff", "skin", "rows"]
        assert names(NeighborList.for_potential) == ["potential", "box",
                                                     "skin", "rows"]
        pot = LennardJones()
        assert LennardJones.pairwise and TablePotential.pairwise
        assert not Potential.pairwise and "pairwise" not in vars(pot)
        for path in Path(repro.__file__).parent.rglob("*.py"):
            text = path.read_text()
            assert "os.environ" not in text and "getenv" not in text, path

    def test_force_contract_census(self):
        """One force contract, one assembly: every bundled potential
        defines ``pair_gradients`` and inherits ``compute``; nothing
        under ``potentials/`` scatters on its own; the process backend
        does not know what SNAP is; nobody keeps a j-permutation."""
        import dataclasses
        from pathlib import Path

        import repro
        from repro import potentials
        from repro.core import NeighborBatch

        classes = [getattr(potentials, n) for n in potentials.__all__]
        assert len(classes) == 6
        for cls in classes:
            assert "pair_gradients" in vars(cls), cls
            assert ("compute" in vars(cls)) == (cls is potentials.Potential)
        root = Path(repro.__file__).parent
        for path in (root / "potentials").glob("*.py"):
            assert "np.add.at" not in path.read_text(), path
        for path in (root / "parallel").glob("*.py"):
            text = path.read_text()
            for name in ("SNAPPotential", "_peratom_and_y", "_chunk_dedr",
                         "_with_pair_params"):
                assert name not in text, (path, name)
        assert "_j_perm" not in {f.name
                                 for f in dataclasses.fields(NeighborBatch)}
        assert not hasattr(NeighborBatch, "j_sorted_perm")

    def test_foreign_size_argument_rejected(self):
        s, pot = lj_setup()
        with pytest.raises(ValueError, match="nprocs"):
            build_engine(s, pot, backend="serial", nprocs=4)

    def test_rank_engine_is_gone(self):
        """Rank decompositions are counted (``halo_census``), not run."""
        s, pot = lj_setup()
        with pytest.raises(ValueError, match="unknown backend"):
            build_engine(s, pot, backend="distributed")
        with pytest.raises(TypeError):
            build_engine(s, pot, nranks=2)


# ======================================================================
# feature parity: thermo, checkpoints, summary shape
# ======================================================================
class TestFeatureParity:
    def test_thermo_log_rows_match(self):
        rows = {}
        for backend, nprocs in (("serial", None), ("process", 2)):
            s, pot = lj_setup()
            thermostat = LangevinThermostat(temp=40.0, damp=0.5, seed=11)
            thermo = ThermoObserver(every=1)
            with build_engine(s, pot, nprocs=nprocs) as engine:
                MDLoop(engine, dt=1e-3, thermostat=thermostat,
                       observers=[thermo]).run(5)
            rows[backend] = thermo.rows
        assert len(rows["serial"]) == len(rows["process"]) == 6
        for a, b in zip(rows["serial"], rows["process"]):
            assert a["step"] == b["step"]
            for key in ("temperature", "potential_energy", "kinetic_energy",
                        "total_energy", "pressure"):
                assert np.isclose(a[key], b[key], **TOL), key

    def test_checkpoint_files_identical(self, tmp_path):
        paths = {}
        for backend, nprocs in (("serial", None), ("process", 2)):
            s, pot = lj_setup()
            path = tmp_path / f"{backend}.npz"
            with build_engine(s, pot, nprocs=nprocs) as engine:
                MDLoop(engine, dt=1e-3, checkpoint_every=2,
                       checkpoint_path=path).run(4)
            paths[backend] = path
        with np.load(paths["serial"]) as ser, \
                np.load(paths["process"]) as proc:
            assert sorted(ser.files) == sorted(proc.files)
            assert int(ser["step"]) == int(proc["step"]) == 4
            for key in ser.files:
                assert np.allclose(ser[key], proc[key], **TOL), key

    def test_summary_fields_equal_shaped(self):
        s1, pot = lj_setup()
        serial = MDLoop(build_engine(s1, pot), dt=1e-3).run(2)
        s2, _ = lj_setup()
        with build_engine(s2, pot, nprocs=2) as engine:
            proc = MDLoop(engine, dt=1e-3).run(2)
        for summary in (serial, proc):
            assert summary.wall_s > 0 and summary.atom_steps_per_s > 0
            assert summary.phase_fractions and summary.phase_breakdown
            assert summary.neighbor_builds >= 1
        assert (serial.steps, serial.natoms) == (proc.steps, proc.natoms)
        assert np.isclose(serial.energy, proc.energy, **TOL)
        # the comm block stays process-only: the serial summary must
        # not fill backend fields it never had
        comm_only = ("nprocs", "skin", "rebuilds", "ghost_bytes_per_step",
                     "reverse_bytes_per_step")
        assert all(getattr(proc, key) is not None for key in comm_only)
        assert all(getattr(serial, key) is None for key in comm_only)

    def test_pressure_parity(self):
        s1, pot = lj_setup()
        serial = MDLoop(build_engine(s1, pot), dt=1e-3)
        s2, _ = lj_setup()
        with build_engine(s2, pot, nprocs=2) as engine:
            proc = MDLoop(engine, dt=1e-3)
            assert proc.last_result.virial is not None
            assert np.isclose(pressure(s1, serial.last_result),
                              pressure(s2, proc.last_result), **TOL)


# ======================================================================
# satellite fixes shared via RunSummary / the engines
# ======================================================================
class TestSatelliteFixes:
    def test_neighbor_builds_survive_cell_change(self):
        # a new cell every step resets the neighbor list; the build
        # counter must carry across resets (it used to reset, reporting
        # 1 regardless of nsteps)
        class Rescale:
            def observe(self, step, system, result):
                system.box = system.box.scaled(1.001)
                system.positions = system.positions * 1.001

        s, pot = lj_setup()
        loop = MDLoop(build_engine(s, pot), dt=1e-3, observers=[Rescale()])
        assert loop.run(5).neighbor_builds >= 5

    def test_negative_cadences_are_rejected(self, tmp_path):
        # 6 % -3 == 0: a negative checkpoint cadence used to write, a
        # negative frame cadence wrote nothing and an observer's
        # every <= 0 meant every step; 0 stays "off" for the loop's own
        class EveryZero:
            every = 0

            def observe(self, step, system, result):
                pass

        s, pot = lj_setup()
        engine = build_engine(s, pot)
        MDLoop(engine, checkpoint_every=0, trajectory_every=0)
        for kwargs in ({"checkpoint_every": -3}, {"trajectory_every": -3},
                       {"observers": [EveryZero()]}):
            with pytest.raises(ValueError, match="every"):
                MDLoop(engine, checkpoint_path=tmp_path / "ck.npz", **kwargs)
        for make in (ThermoObserver, PhaseFractionObserver,
                     lambda every: RDFObserver(rmax=3.0, every=every)):
            with pytest.raises(ValueError, match="every"):
                make(every=0)

    def test_zero_wall_rate_is_guarded(self):
        s, pot = lj_setup()
        engine = SerialEngine(s, pot)
        summary = RunSummary.from_run(engine, 0, 0.0, 0.0)
        assert summary.atom_steps_per_s == float("inf")

    def test_serial_engine_splits_neigh_into_rebuild_and_refresh(self):
        s, pot = lj_setup()
        with build_engine(s, pot, skin=1.0) as engine:
            summary = MDLoop(engine, dt=1e-3).run(6)
        assert summary.neighbor_builds == 1
        neigh = summary.phase_breakdown["neigh"]
        assert set(neigh["sub"]) == {"rebuild", "refresh"}
        assert sum(neigh["sub"].values()) == pytest.approx(neigh["seconds"])
        # one build is one rebuild entry; every later call is a refresh
        s2, _ = lj_setup()
        with build_engine(s2, pot, skin=1.0) as engine:
            engine.evaluate()
            assert set(engine.timers.subtotals) == {"neigh.rebuild"}
            engine.evaluate()
            assert set(engine.timers.subtotals) == {"neigh.rebuild",
                                                    "neigh.refresh"}


# ======================================================================
# ProcessEngine: shared-memory multiprocess rank backend
# ======================================================================
import errno
import gc
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from multiprocessing import shared_memory
from pathlib import Path

from conftest import snap_setup
from repro.md import MDLoop
from repro.parallel import ProcessEngine, row_partition
from repro.parallel.halo import BYTES_PER_GHOST, BYTES_PER_POSITION
from repro.parallel.shm import SharedBlock
from repro.parallel.workers import worker_context

SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(__file__).resolve().parents[1] / "src")]
    + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def assert_no_leaked_blocks(names):
    """Every named block must be unlinked (re-attach must fail)."""
    leaked = []
    for name in names:
        try:
            block = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        block.close()
        leaked.append(name)
    assert not leaked, f"leaked shared-memory blocks: {leaked}"


class _ExplodingLJ(LennardJones):
    """Raises inside the worker's force stage (error-protocol fixture)."""

    def pair_gradients(self, nbr, rows):
        raise ValueError("injected kernel failure")


class TestProcessBackendFactory:
    def test_backend_process_selected(self):
        s, pot = lj_setup()
        with build_engine(s, pot, backend="process", nprocs=2) as engine:
            assert isinstance(engine, ProcessEngine)
            assert engine.nprocs == 2

    def test_nprocs_alone_implies_process(self):
        s, pot = lj_setup()
        with build_engine(s, pot, nprocs=2) as engine:
            assert isinstance(engine, ProcessEngine)

    def test_unknown_backend_rejected(self):
        s, pot = lj_setup()
        with pytest.raises(ValueError, match="backend"):
            build_engine(s, pot, backend="gpu")


class TestProcessParity:
    def test_lj_forces_bitwise_vs_serial(self):
        s1, pot1 = lj_setup()
        serial = SerialEngine(s1, pot1)
        s2, pot2 = lj_setup()
        with ProcessEngine(s2, pot2, nprocs=3) as engine:
            rng = np.random.default_rng(2)
            for scale in (0.0, 0.01, 0.3):  # build, refresh, rebuild
                step = rng.normal(scale=scale, size=s1.positions.shape)
                s1.positions += step
                s2.positions += step
                a = serial.evaluate()
                b = engine.evaluate()
                assert np.array_equal(a.forces, b.forces)
                assert np.array_equal(a.peratom, b.peratom)
                assert a.energy == b.energy
                assert np.allclose(a.virial, b.virial, **TOL)

    @pytest.mark.parametrize("nprocs", [1, 2, 3])
    @pytest.mark.parametrize("model", ["linear", "quadratic", "multispecies"])
    def test_snap_forces_bitwise_vs_serial(self, model, nprocs):
        # 96 atoms in 40-atom blocks of the Z contraction: the serial
        # pass splits 40 + 40 + 16, the 48- and 32-row worker slices
        # split 40 + 8 and not at all (workers fork after this line)
        s1, pot = snap_setup(reps=(3, 2, 2), model=model)
        pot.snap._plan["block"] = 40
        serial = SerialEngine(s1, pot)
        s2, _ = snap_setup(reps=(3, 2, 2))
        s2.positions = s1.positions.copy()
        with ProcessEngine(s2, pot, nprocs=nprocs) as engine:
            rng = np.random.default_rng(4)
            for scale in (0.0, 0.01):  # build + refresh
                step = rng.normal(scale=scale, size=s1.positions.shape)
                s1.positions += step
                s2.positions += step
                a = serial.evaluate()
                b = engine.evaluate()
                assert np.array_equal(a.forces, b.forces)
                assert np.array_equal(a.peratom, b.peratom)
                assert a.energy == b.energy

    @pytest.mark.parametrize("chunks", [(64, 7), (1, 4096)])
    def test_snap_bitwise_when_the_two_sides_chunk_differently(self, chunks):
        # the density pass never splits an atom's row, so neither the
        # chunk length nor where a rank's slice starts reaches the bits
        s1, pot1 = snap_setup(chunk=chunks[0])
        s2, pot2 = snap_setup(chunk=chunks[1])
        serial = SerialEngine(s1, pot1)
        with ProcessEngine(s2, pot2, nprocs=3) as engine:
            rng = np.random.default_rng(8)
            for scale in (0.0, 0.01, 0.3):  # build, refresh, rebuild
                step = rng.normal(scale=scale, size=s1.positions.shape)
                s1.positions += step
                s2.positions += step
                a = serial.evaluate()
                b = engine.evaluate()
                assert np.array_equal(a.forces, b.forces)
                assert np.array_equal(a.peratom, b.peratom)
                assert a.energy == b.energy

    def test_snap_one_atom_windows_bitwise_vs_serial(self):
        # three atoms on three ranks: each worker runs stage 2 on a
        # one-atom block, which at 2J=2 (one product column per chunk)
        # rounded differently from the serial three-atom block, by
        # 1.8e-15 in forces, until such a block ran as two copies
        from repro.core import SNAPParams
        from repro.md import ParticleSystem
        from repro.md.box import Box
        from repro.potentials import SNAPPotential

        params = SNAPParams(twojmax=2, rcut=3.5)
        pot = SNAPPotential(params, beta=np.random.default_rng(0).normal(
            size=SNAPPotential(params).snap.index.ncoeff))
        pos = np.array([[5.0, 5.0, 5.0], [6.4, 5.3, 5.1], [5.6, 6.5, 4.4]])
        a = SerialEngine(ParticleSystem(positions=pos, box=Box.cubic(20.0)),
                         pot).evaluate()
        with ProcessEngine(ParticleSystem(positions=pos.copy(),
                                          box=Box.cubic(20.0)),
                           pot, nprocs=3) as engine:
            b = engine.evaluate()
        assert np.all(a.forces != 0.0)
        assert np.array_equal(a.forces, b.forces)
        assert np.array_equal(a.peratom, b.peratom)

    def test_grow_protocol_keeps_bitwise_forces(self, monkeypatch):
        s1, pot1 = lj_setup()
        serial = SerialEngine(s1, pot1)
        s2, pot2 = lj_setup()
        monkeypatch.setattr(ProcessEngine, "_estimate_capacity",
                            lambda self: 64)  # far too small: must regrow
        engine = ProcessEngine(s2, pot2, nprocs=2)
        names = set(engine.block_names)
        with engine:
            assert np.array_equal(serial.evaluate().forces,
                                  engine.evaluate().forces)
            # one regrow, one generation
            assert engine._gen == 1
            names |= set(engine.block_names)
            # the retried step published its topology: a refresh step
            # on the regrown blocks still gathers the right slots
            step = np.random.default_rng(1).normal(
                scale=0.01, size=s1.positions.shape)
            s1.positions += step
            s2.positions += step
            assert np.array_equal(serial.evaluate().forces,
                                  engine.evaluate().forces)
            assert engine.neighbor_builds == serial.neighbor_builds == 1
        assert len(names) == 4 + 2 * 3  # both generations of pair blocks
        assert_no_leaked_blocks(names)

    def test_bind_to_a_denser_state_grows_in_its_first_step(self):
        """``bind()`` to a compressed copy sizes the pair blocks for the
        new state before its first step (the blocks sized for the old
        state would overflow and re-run that step): the first step
        hands the ranks the new cell on the grown generation and equals
        a fresh serial engine on the new state, and so does the refresh
        step after it."""
        s, pot = lj_setup()
        with ProcessEngine(s, pot, nprocs=3) as engine:
            engine.evaluate()
            dense = s.copy()
            dense.box = dense.box.scaled(0.8)
            dense.positions = dense.positions * 0.8
            engine.bind(dense.copy())
            assert engine._gen == 1  # grown at bind, not by an overflow
            serial = SerialEngine(dense, pot)
            for scale in (0.0, 0.01):  # the grown build, then a refresh
                step = np.random.default_rng(3).normal(
                    scale=scale, size=dense.positions.shape)
                dense.positions += step
                engine.system.positions += step
                a, b = serial.evaluate(), engine.evaluate()
                assert np.array_equal(a.forces, b.forces)
                assert np.array_equal(a.peratom, b.peratom)
                assert engine._gen == 1
            assert serial.neighbor_builds == 1
            assert engine.neighbor_builds == 2

    def test_thermo_log_rows_match_serial(self):
        """Thermo rows on a sparse stride from three ranks match serial."""
        rows = {}
        for backend, nprocs in (("serial", None), ("process", 3)):
            s, pot = lj_setup()
            thermostat = LangevinThermostat(temp=40.0, damp=0.5, seed=11)
            thermo = ThermoObserver(every=2)
            with build_engine(s, pot, nprocs=nprocs) as engine:
                MDLoop(engine, dt=1e-3, thermostat=thermostat,
                       observers=[thermo]).run(6)
            rows[backend] = thermo.rows
        assert [r["step"] for r in rows["serial"]] == [0, 2, 4, 6]
        assert [r["step"] for r in rows["process"]] == [0, 2, 4, 6]
        for a, b in zip(rows["serial"], rows["process"]):
            for key in ("temperature", "potential_energy", "kinetic_energy",
                        "total_energy", "pressure"):
                assert np.isclose(a[key], b[key], **TOL), key

    def test_checkpoint_files_identical(self, tmp_path):
        """A Langevin run's checkpoint from three ranks holds serial's
        state to the bit - positions, velocities, the list's reference
        positions, the thermostat's RNG state and the last force result -
        and only the virial-derived fields to ``TOL``."""
        paths = {}
        for backend, nprocs in (("serial", None), ("process", 3)):
            s, pot = lj_setup()
            path = tmp_path / f"{backend}.npz"
            thermostat = LangevinThermostat(temp=40.0, damp=0.5, seed=11)
            with build_engine(s, pot, nprocs=nprocs) as engine:
                MDLoop(engine, dt=1e-3, thermostat=thermostat,
                       checkpoint_every=3, checkpoint_path=path).run(6)
            paths[backend] = path
        with np.load(paths["serial"]) as ser, \
                np.load(paths["process"]) as proc:
            assert sorted(ser.files) == sorted(proc.files)
            assert int(ser["step"]) == int(proc["step"]) == 6
            for key in ("positions", "velocities", "topology_ref",
                        "thermostat_rng"):
                assert key in ser.files
            for key in ser.files:
                if "virial" in key:
                    assert np.allclose(ser[key], proc[key], **TOL), key
                else:
                    assert np.array_equal(ser[key], proc[key]), key

    def test_summary_fields(self):
        s, pot = lj_setup()
        with ProcessEngine(s, pot, nprocs=2) as engine:
            summary = MDLoop(engine, dt=1e-3).run(2)
        for key in ("nprocs", "skin", "rebuilds", "ghost_bytes_per_step",
                    "reverse_bytes_per_step"):
            assert getattr(summary, key) is not None
        assert summary.nprocs == 2
        assert {"neigh", "force", "comm"} <= set(summary.phase_fractions)
        # serial summaries must not fill the process-only field
        s2, pot2 = lj_setup()
        serial = MDLoop(build_engine(s2, pot2), dt=1e-3).run(2)
        assert serial.nprocs is None


class TestProcessRobustness:
    def test_no_leaked_blocks_after_close(self):
        s, pot = lj_setup()
        engine = ProcessEngine(s, pot, nprocs=2)
        engine.evaluate()
        names = engine.block_names
        assert names
        engine.close()
        engine.close()  # idempotent
        assert_no_leaked_blocks(names)

    def test_clean_lifecycle_leaves_no_tracker_noise_or_shm(self):
        """Build, evaluate, close in a fresh interpreter: the resource
        tracker must have nothing to complain about at exit and no
        block may outlive the process in /dev/shm."""
        script = textwrap.dedent("""
            import numpy as np
            from repro.md import build_engine
            from repro.potentials import LennardJones
            from repro.structures import lattice_system

            s = lattice_system("fcc", a=2.5, reps=(3, 3, 3))
            pot = LennardJones(epsilon=0.2, sigma=2.2, cutoff=3.0)
            engine = build_engine(s, pot, backend="process", nprocs=2)
            assert np.isfinite(engine.evaluate().energy)
            names = engine.block_names
            engine.close()
            print("\\n".join(names))
        """)
        proc = subprocess.run([sys.executable, "-c", script], env=SRC_ENV,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        names = proc.stdout.split()
        assert names
        leaked = [n for n in names
                  if (Path("/dev/shm") / n.lstrip("/")).exists()]
        assert not leaked

    def test_worker_exception_surfaces_and_cleans_up(self):
        s, _ = lj_setup()
        engine = ProcessEngine(s, _ExplodingLJ(epsilon=0.2, sigma=2.2,
                                               cutoff=3.0), nprocs=2)
        names = engine.block_names
        with pytest.raises(RuntimeError, match="worker rank"):
            engine.evaluate()
        assert_no_leaked_blocks(names)
        with pytest.raises(RuntimeError, match="closed"):
            engine.evaluate()

    def test_worker_exception_carries_its_traceback(self):
        """A rank's exception is re-raised in the parent: the engine's
        error names the rank, its cause is the worker's own exception,
        and the traceback chained under that names the worker frames."""
        s, _ = lj_setup()
        engine = ProcessEngine(s, _ExplodingLJ(epsilon=0.2, sigma=2.2,
                                               cutoff=3.0), nprocs=2)
        with pytest.raises(RuntimeError, match="worker rank") as info:
            engine.evaluate()
        cause = info.value.__cause__
        assert isinstance(cause, ValueError)
        assert str(cause) == "injected kernel failure"
        remote = str(cause.__cause__)
        assert "in _step" in remote and "in pair_gradients" in remote
        assert "test_engine.py" in remote

    def test_worker_death_raises_named_rank_without_hang(self):
        s, pot = lj_setup()
        engine = ProcessEngine(s, pot, nprocs=3)
        engine.evaluate()
        names = engine.block_names
        os.kill(engine._workers[1].proc.pid, signal.SIGTERM)
        engine._workers[1].proc.join(timeout=5.0)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="rank 1"):
            engine.evaluate()
        assert time.monotonic() - t0 < 30.0  # detected, not hung
        assert_no_leaked_blocks(names)

    def test_failed_create_strands_no_block(self, monkeypatch):
        """The ``kept`` pair block fails to create while the engine is
        being built: the error propagates, and once the half-built
        engine is collected no block of this process is left in
        /dev/shm (``val``, created just before, included)."""
        create = SharedBlock.create.__func__

        def create_or_fail(cls, name, shape, dtype):
            if "-kept-" in name:
                raise OSError(errno.ENOSPC, "injected: /dev/shm is full")
            return create(cls, name, shape, dtype)

        def blocks():
            return {p.name for p in
                    Path("/dev/shm").glob(f"repro-pe-{os.getpid()}-*")}

        before = blocks()
        monkeypatch.setattr(SharedBlock, "create",
                            classmethod(create_or_fail))
        s, pot = lj_setup()
        with pytest.raises(OSError, match="injected"):
            ProcessEngine(s, pot, nprocs=2)
        gc.collect()
        assert blocks() <= before


class _StagedLJ(LennardJones):
    """LJ that reports fixed seconds per named stage, so the parent's
    ``force.<stage>`` totals are known exactly."""

    SECONDS = {"alpha": 1.0, "beta": 2.0, "gamma": 4.0, "delta": 8.0}
    last_timings = dict.fromkeys(SECONDS, 0.0)

    def pair_gradients(self, nbr, rows):
        self.last_timings = dict(self.SECONDS)
        return super().pair_gradients(nbr, rows)


class _FullListLJ(LennardJones):
    """LJ on the full list, the form a many-body potential is given."""

    pairwise = False


class TestProcessLedger:
    """The process engine's timers and comm ledger report what the
    workers did."""

    @pytest.mark.parametrize("hash_seed", ["1", "2"])
    def test_stage_timers_keep_their_labels(self, hash_seed):
        """Each worker fills one timer slot per stage name; the parent
        must label slot k with the k-th name under any string hash
        seed (both seeds here put the names in a set out of order)."""
        script = textwrap.dedent("""
            import json
            import sys
            sys.path.insert(0, sys.argv[1])
            from test_engine import _StagedLJ, lj_setup
            from repro.parallel import ProcessEngine

            s, _ = lj_setup()
            pot = _StagedLJ(epsilon=0.2, sigma=2.2, cutoff=3.0)
            with ProcessEngine(s, pot, nprocs=2) as engine:
                for _ in range(3):
                    engine.evaluate()
            print(json.dumps({"set_order": list(set(pot.SECONDS)),
                              "sub": engine.timers.subtotals}))
        """)
        env = dict(SRC_ENV, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(Path(__file__).parent)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["set_order"] != list(_StagedLJ.SECONDS)
        for stage, seconds in _StagedLJ.SECONDS.items():
            # two ranks, three steps
            assert out["sub"][f"force.{stage}"] == 2 * 3 * seconds, stage

    def test_ghost_bytes_count_every_rank(self):
        """On a cell whose two row windows are translates of each other
        both ranks see the same number of ghosts; the ledger must book
        the sum of the two counts, not one of them."""
        s = lattice_system("fcc", a=2.5, reps=(4, 3, 3))
        pot = _FullListLJ(epsilon=0.2, sigma=2.2, cutoff=3.0)
        skin = 0.3
        ref = build_pairs(s.positions, s.box, pot.cutoff + skin)
        bounds = row_partition(s.natoms, 2)
        counts = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            j = ref.j_idx[(ref.i_idx >= lo) & (ref.i_idx < hi)]
            counts.append(np.unique(j[(j < lo) | (j >= hi)]).size)
        assert counts[0] == counts[1] > 0
        with ProcessEngine(s, pot, nprocs=2, skin=skin) as engine:
            engine.evaluate()  # build
            engine.evaluate()  # refresh
            assert engine.ledger.ghost_bytes == sum(counts) * (
                BYTES_PER_GHOST + BYTES_PER_POSITION)

    def test_run_summary_has_breakdown(self):
        """E5's measured phase split: ``comm`` splits into halo build,
        forward and reverse, ``neigh`` into rebuild and refresh, and
        ``force`` into the SNAP kernel stages."""
        s, pot = snap_setup()
        s.seed_velocities(50.0, rng=np.random.default_rng(2))
        with ProcessEngine(s, pot, nprocs=2) as engine:
            out = MDLoop(engine, dt=5e-4).run(2)
        assert out.ghost_bytes_per_step > 0
        assert out.reverse_bytes_per_step > 0
        bd = out.phase_breakdown
        assert {"comm", "neigh", "force"} <= set(bd)
        assert {"halo_build", "forward", "reverse"} <= set(bd["comm"]["sub"])
        assert {"rebuild", "refresh"} <= set(bd["neigh"]["sub"])
        assert "compute_yi" in bd["force"]["sub"]


class _CountingBarrier:
    """A worker barrier that counts every ``wait()`` across processes."""

    def __init__(self, ctx, parties, waits):
        self.inner = ctx.Barrier(parties)
        self.waits = waits

    def wait(self):
        with self.waits.get_lock():
            self.waits.value += 1
        self.inner.wait()


class _LaggingBarrier:
    """A worker barrier that holds the first rank it releases for a
    while: what that rank writes after a barrier lands late."""

    LAG_S = 0.05

    def __init__(self, ctx, parties):
        self.inner = ctx.Barrier(parties)

    def wait(self):
        if self.inner.wait() == 0:
            time.sleep(self.LAG_S)


class TestStepProtocol:
    def test_one_barrier_per_step_two_on_a_rebuild(self, monkeypatch):
        import repro.parallel.workers as kit

        ctx = kit.worker_context()
        waits = ctx.Value("i", 0)

        class Context:
            Process, Pipe = ctx.Process, ctx.Pipe

            @staticmethod
            def Barrier(parties):
                return _CountingBarrier(ctx, parties, waits)

        monkeypatch.setattr(kit, "worker_context", Context)
        s, pot = snap_setup()
        nprocs = 2
        seen = []
        with ProcessEngine(s, pot, nprocs=nprocs) as engine:
            rng = np.random.default_rng(6)
            for scale in (0.0, 0.01, 0.01, 0.3, 0.0):
                s.positions += rng.normal(scale=scale, size=s.positions.shape)
                before, builds = waits.value, engine.neighbor_builds
                engine.evaluate()
                seen.append((engine.neighbor_builds - builds,
                             (waits.value - before) // nprocs))
        assert seen == [(1, 2), (0, 1), (0, 1), (1, 2), (0, 1)]

    def test_a_late_rank_keeps_bitwise_forces(self, monkeypatch):
        """A rank that leaves the pair-count barrier late publishes its
        neighbor ids late: the others must not read them before the
        values barrier, on the first build or on a rebuild."""
        import repro.parallel.workers as kit

        ctx = kit.worker_context()

        class Context:
            Process, Pipe = ctx.Process, ctx.Pipe

            @staticmethod
            def Barrier(parties):
                return _LaggingBarrier(ctx, parties)

        monkeypatch.setattr(kit, "worker_context", Context)
        s1, pot = lj_setup()
        s2 = s1.copy()
        serial = SerialEngine(s1, pot)
        with ProcessEngine(s2, pot, nprocs=3) as engine:
            rng = np.random.default_rng(4)
            for scale in (0.0, 0.3, 0.01):  # build, rebuild, refresh
                step = rng.normal(scale=scale, size=s1.positions.shape)
                s1.positions += step
                s2.positions += step
                assert np.array_equal(serial.evaluate().forces,
                                      engine.evaluate().forces)
            assert engine.neighbor_builds == 2


class TestProcessMatrix:
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 5])
    def test_lj_bitwise_across_nprocs(self, nprocs):
        s1, pot1 = lj_setup()
        serial = SerialEngine(s1, pot1)
        s2, pot2 = lj_setup()
        with ProcessEngine(s2, pot2, nprocs=nprocs) as engine:
            rng = np.random.default_rng(nprocs)
            for scale in (0.0, 0.01, 0.05, 0.3):
                step = rng.normal(scale=scale, size=s1.positions.shape)
                s1.positions += step
                s2.positions += step
                assert np.array_equal(serial.evaluate().forces,
                                      engine.evaluate().forces)

    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 5])
    def test_rescale_and_bind_bitwise_across_nprocs(self, nprocs):
        s1, pot = snap_setup()
        s2 = s1.copy()
        serial = SerialEngine(s1, pot)
        with ProcessEngine(s2, pot, nprocs=nprocs) as engine:
            def same():
                a, b = serial.evaluate(), engine.evaluate()
                return (np.array_equal(a.forces, b.forces)
                        and np.array_equal(a.peratom, b.peratom))

            assert same()
            for s in (s1, s2):  # what the barostat does: a new Box
                s.box = s.box.scaled(1.02)
                s.positions = s.positions * 1.02
            assert same()
            fresh = snap_setup(seed=9)[0]
            serial.bind(fresh.copy())
            engine.bind(fresh.copy())
            assert same()
            assert engine.neighbor_builds == serial.neighbor_builds == 3

    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 5])
    def test_snap_bitwise_across_nprocs(self, nprocs):
        s1, pot = snap_setup()
        serial = SerialEngine(s1, pot)
        s2, _ = snap_setup()
        s2.positions = s1.positions.copy()
        with ProcessEngine(s2, pot, nprocs=nprocs) as engine:
            rng = np.random.default_rng(10 + nprocs)
            for scale in (0.0, 0.01, 0.3):
                step = rng.normal(scale=scale, size=s1.positions.shape)
                s1.positions += step
                s2.positions += step
                assert np.array_equal(serial.evaluate().forces,
                                      engine.evaluate().forces)


# ======================================================================
# potential x engine: one force contract, every bundled potential
# ======================================================================
class TestPotentialEngineMatrix:
    """Rows come from ``conftest.POTENTIAL_CASES``; every cell holds for
    a potential because it honours ``Potential.pair_gradients``, not
    because an engine knows it."""

    def test_forces_are_minus_the_energy_gradient(self, potential_case):
        _, s, pot = potential_case
        n = s.natoms

        def energy(pos):
            nbr = build_pairs(pos, s.box, pot.cutoff)
            return pot.pair_gradients(nbr, (0, n))[0].sum()

        res = pot.compute(n, build_pairs(s.positions, s.box, pot.cutoff))
        assert res.energy == energy(s.positions)
        scale = max(1.0, np.abs(res.forces).max())
        assert np.abs(res.forces.sum(axis=0)).max() <= 1e-12 * n * scale
        h = 1e-6
        for i, c in ((0, 0), (n // 2, 1), (n - 1, 2)):
            pos = s.positions.copy()
            pos[i, c] += h
            ep = energy(pos)
            pos[i, c] -= 2 * h
            fd = -(ep - energy(pos)) / (2 * h)
            assert abs(res.forces[i, c] - fd) <= 5e-5 * scale

    def test_row_windows_concatenate_bitwise(self, potential_case):
        _, s, pot = potential_case
        n = s.natoms
        full = build_pairs(s.positions, s.box, pot.cutoff)
        peratom, dedr = pot.pair_gradients(full, (0, n))
        assert peratom.shape == (n,) and dedr.shape == (full.npairs, 3)
        parts = [pot.pair_gradients(
            build_pairs(s.positions, s.box, pot.cutoff, rows=(lo, hi)),
            (lo, hi)) for lo, hi in ((0, 1), (1, n // 3), (n // 3, n))]
        assert np.concatenate([pa for pa, _ in parts]).tobytes() \
            == peratom.tobytes()
        assert np.concatenate([g for _, g in parts]).tobytes() \
            == dedr.tobytes()

    @pytest.mark.parametrize("nprocs", [1, 2, 3])
    def test_process_bitwise_vs_serial(self, potential_case, nprocs):
        _, s1, pot = potential_case
        s2 = s1.copy()
        serial = SerialEngine(s1, pot)
        with ProcessEngine(s2, pot, nprocs=nprocs) as engine:
            rng = np.random.default_rng(nprocs)
            for scale in (0.0, 0.01, 0.3):  # build, refresh, rebuild
                step = rng.normal(scale=scale, size=s1.positions.shape)
                s1.positions += step
                s2.positions += step
                a = serial.evaluate()
                b = engine.evaluate()
                assert np.array_equal(a.forces, b.forces)
                assert np.array_equal(a.peratom, b.peratom)
                assert a.energy == b.energy
                assert np.allclose(a.virial, b.virial, **TOL)
            assert engine.neighbor_builds == serial.neighbor_builds == 2

    @pytest.mark.parametrize("nprocs", [2, 3])
    def test_process_bitwise_on_self_image_bonds(self, nprocs):
        """A cell shorter than the cutoff: an atom bonds to its own
        images, once each in the half list, on the rank owning it."""
        s1 = lattice_system("fcc", a=2.5, reps=(2, 1, 1))
        s1.positions += np.random.default_rng(4).normal(
            scale=0.05, size=s1.positions.shape)
        s2 = s1.copy()
        pot = LennardJones(epsilon=0.2, sigma=2.2, cutoff=3.0)
        serial = SerialEngine(s1, pot)
        with ProcessEngine(s2, pot, nprocs=nprocs) as engine:
            for _ in range(2):
                a, b = serial.evaluate(), engine.evaluate()
                assert np.array_equal(a.forces, b.forces)
                assert np.array_equal(a.peratom, b.peratom)
                assert a.energy == b.energy
                s1.positions[0] += 0.2  # a rebuild
                s2.positions[0] += 0.2
