"""Checkpoint/restart correctness: atomic writes and bitwise resume.

The central contract: interrupting a run at a checkpoint and resuming
from it yields *bitwise* the same positions, velocities, thermo rows and
trajectory bytes as the run that never stopped - on every execution
backend.  Everything the forward path is sensitive to (step counter,
Langevin RNG stream position, the checkpointed step's force result,
neighbor-topology reference, trajectory offsets) must round-trip
through the ``.npz``.
"""

import errno
import io
import os

import numpy as np
import pytest

from repro.analysis import ThermoObserver
from repro.md import (LangevinThermostat, MDLoop, TrajectoryFile,
                      TrajectoryReader, build_engine, load_checkpoint,
                      write_checkpoint)
from repro.md.dump import checkpoint_path
from repro.potentials import LennardJones
from repro.structures import lattice_system

BACKENDS = {
    "serial": {},
    "process": {"backend": "process", "nprocs": 2},
}


def _setup(vel_seed=5):
    s = lattice_system("fcc", a=2.5, reps=(3, 3, 3))
    s.seed_velocities(40.0, rng=np.random.default_rng(vel_seed))
    return s, LennardJones(epsilon=0.2, sigma=2.2, cutoff=3.0)


def _loop(engine, thermo_seed=7, **kw):
    return MDLoop(engine, dt=1e-3,
                  thermostat=LangevinThermostat(40.0, damp=0.5,
                                                seed=thermo_seed), **kw)


def _thermo_rows(thermo):
    return [(r["step"], r["temperature"], r["potential_energy"],
             r["kinetic_energy"], r["total_energy"]) for r in thermo.rows]


class _DiskFillsOnWrite:
    """A file handle whose ``nth`` write (0-based) puts half its bytes
    on disk and raises ENOSPC, as a disk that fills mid-write does."""

    def __init__(self, fh, nth):
        self._fh, self._left = fh, nth

    def write(self, buf):
        if self._left == 0:
            self._fh.write(buf[:len(buf) // 2])
            self._fh.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self._left -= 1
        return self._fh.write(buf)

    def __getattr__(self, name):
        return getattr(self._fh, name)


# ======================================================================
# atomic checkpoint files (satellites)
# ======================================================================
class TestCheckpointFiles:
    def test_suffix_normalized_on_write_and_read(self, tmp_path):
        s, _pot = _setup()
        out = write_checkpoint(tmp_path / "state", s, step=3)
        assert out == tmp_path / "state.npz"
        ck = load_checkpoint(tmp_path / "state")  # reader normalizes too
        assert ck.step == 3
        assert np.array_equal(ck.system.positions, s.positions)

    def test_write_is_atomic_no_temp_left_behind(self, tmp_path):
        s, _pot = _setup()
        write_checkpoint(tmp_path / "ck.npz", s, step=1)
        write_checkpoint(tmp_path / "ck.npz", s, step=2)  # overwrite path
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]
        assert load_checkpoint(tmp_path / "ck.npz").step == 2

    def test_extra_key_collision_rejected(self, tmp_path):
        s, _pot = _setup()
        with pytest.raises(ValueError):
            write_checkpoint(tmp_path / "ck", s,
                             extra={"positions": np.zeros(3)})

    def test_extras_round_trip(self, tmp_path):
        s, _pot = _setup()
        write_checkpoint(tmp_path / "ck", s, step=9,
                         extra={"my_state": np.arange(4)})
        ck = load_checkpoint(tmp_path / "ck")
        assert np.array_equal(ck.extras["my_state"], np.arange(4))
        assert "positions" not in ck.extras

    def test_non_finite_box_length_rejected_on_load(self, tmp_path):
        s, _pot = _setup()
        path = write_checkpoint(tmp_path / "ck", s, step=1)
        with np.load(path) as data:
            arrays = {k: np.array(data[k]) for k in data.files}
        arrays["box_lengths"][1] = np.nan
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="finite"):
            load_checkpoint(path)

    def test_checkpoint_path_helper(self):
        assert checkpoint_path("a/b").name == "b.npz"
        assert checkpoint_path("a/b.npz").name == "b.npz"

    def test_disk_full_mid_checkpoint_keeps_the_previous_one(
            self, tmp_path, monkeypatch):
        """ENOSPC halfway through the archive of an MDLoop checkpoint:
        the run fails, and the checkpoint before it still loads with its
        step (a torn archive in its place would be ``BadZipFile``)."""
        s, pot = _setup()
        path = tmp_path / "ck.npz"
        loop = _loop(build_engine(s, pot), checkpoint_every=2,
                     checkpoint_path=path)
        loop.run(2)
        assert load_checkpoint(path).step == 2
        savez = np.savez  # the writer repro.md.dump uses

        def disk_fills_halfway(file, *args, **kwds):
            whole = io.BytesIO()
            savez(whole, *args, **kwds)
            file.write(whole.getvalue()[:whole.tell() // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(np, "savez", disk_fills_halfway)
        with pytest.raises(OSError, match="No space left"):
            loop.run(2)
        monkeypatch.undo()
        assert load_checkpoint(path).step == 2
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]

    def test_disk_full_mid_frame_stops_the_run(self, tmp_path):
        """ENOSPC halfway through the frame of step K: the error leaves
        ``run`` at step K, the writer counts only the K frames complete
        on disk, and reopening for append drops the torn tail and keeps
        every earlier frame bitwise."""
        K = 3
        ref, trj = tmp_path / "ref.trj", tmp_path / "t.trj"
        s, pot = _setup()
        with build_engine(s, pot) as engine, \
                TrajectoryFile(ref, natoms=s.natoms) as w:
            _loop(engine, trajectory=w, trajectory_every=1).run(K - 1)
        assert w.ledger.frames == K  # steps 0 .. K-1

        s2, pot2 = _setup()
        with build_engine(s2, pot2) as engine2, \
                TrajectoryFile(trj, natoms=s2.natoms) as w2:
            w2._fh = _DiskFillsOnWrite(w2._fh, nth=K)
            loop2 = _loop(engine2, trajectory=w2, trajectory_every=1)
            with pytest.raises(OSError, match="No space left"):
                loop2.run(2 * K)
            assert loop2.step == K
            assert w2.nframes == w2.ledger.frames == K
            assert w2.ledger.nbytes == w.ledger.nbytes
        assert trj.stat().st_size > ref.stat().st_size  # the torn half
        with TrajectoryFile(trj, mode="a") as w3:
            assert w3.recovered_truncation
            assert w3.nframes == K
        assert trj.read_bytes() == ref.read_bytes()


# ======================================================================
# bitwise resume, every backend
# ======================================================================
class TestBitwiseRestart:
    N, K = 8, 4

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_resumed_equals_uninterrupted(self, backend, tmp_path):
        kw = BACKENDS[backend]
        ck = tmp_path / "ck"
        ref_trj, res_trj = tmp_path / "ref.trj", tmp_path / "res.trj"

        # the run that never stops
        s, pot = _setup()
        with build_engine(s, pot, **kw) as engine, \
                TrajectoryFile(ref_trj, natoms=s.natoms) as w:
            thermo = ThermoObserver(every=1)
            loop = _loop(engine, trajectory=w, trajectory_every=2,
                         trajectory_velocities=True, observers=[thermo])
            loop.run(self.N)
        ref_pos, ref_vel = s.positions.copy(), s.velocities.copy()
        ref_thermo = _thermo_rows(thermo)

        # the run that dies one step past its checkpoint
        s2, pot2 = _setup()
        with build_engine(s2, pot2, **kw) as engine2, \
                TrajectoryFile(res_trj, natoms=s2.natoms) as w2:
            loop2 = _loop(engine2, trajectory=w2, trajectory_every=2,
                          trajectory_velocities=True,
                          checkpoint_every=self.K, checkpoint_path=ck,
                          observers=[ThermoObserver(every=1)])
            loop2.run(self.K + 1)

        # resume into a fresh, differently-seeded world: every bit of
        # forward-path state must come from the checkpoint, not luck
        s3, pot3 = _setup(vel_seed=42)
        with build_engine(s3, pot3, **kw) as engine3, \
                TrajectoryFile(res_trj, natoms=s3.natoms, mode="a") as w3:
            thermo3 = ThermoObserver(every=1)
            loop3 = _loop(engine3, thermo_seed=99, trajectory=w3,
                          trajectory_every=2, trajectory_velocities=True,
                          observers=[thermo3])
            assert loop3.restore(ck) == self.K
            loop3.run(self.N - self.K)

        assert np.array_equal(s3.positions, ref_pos)
        assert np.array_equal(s3.velocities, ref_vel)
        assert _thermo_rows(thermo3) == ref_thermo[self.K + 1:]
        assert ref_trj.read_bytes() == res_trj.read_bytes()

    def test_step_counter_and_cadences_resume(self, tmp_path):
        s, pot = _setup()
        with build_engine(s, pot) as engine:
            loop = _loop(engine, checkpoint_every=3,
                         checkpoint_path=tmp_path / "ck")
            loop.run(3)
            assert loop.step == 3
        s2, pot2 = _setup(vel_seed=11)
        with build_engine(s2, pot2) as engine2:
            thermo = ThermoObserver(every=1)
            loop2 = _loop(engine2, observers=[thermo])
            assert loop2.restore(tmp_path / "ck") == 3
            loop2.run(2)
            assert loop2.step == 5
            assert [r["step"] for r in thermo.rows] == [4, 5]

    def test_trajectory_rolled_back_to_checkpoint(self, tmp_path):
        trj = tmp_path / "t.trj"
        s, pot = _setup()
        with build_engine(s, pot) as engine, \
                TrajectoryFile(trj, natoms=s.natoms) as w:
            loop = _loop(engine, trajectory=w, trajectory_every=1,
                         checkpoint_every=2, checkpoint_path=tmp_path / "ck")
            loop.run(4)  # frames at steps 0..4, checkpoints at 2 and 4
        # overwrite the checkpoint with the step-2 one: rerun to get it
        s1, pot1 = _setup()
        with build_engine(s1, pot1) as engine1, \
                TrajectoryFile(tmp_path / "x.trj", natoms=s1.natoms) as w1:
            _loop(engine1, trajectory=w1, trajectory_every=1,
                  checkpoint_every=2,
                  checkpoint_path=tmp_path / "ck2").run(2)
        s2, pot2 = _setup(vel_seed=11)
        with build_engine(s2, pot2) as engine2, \
                TrajectoryFile(trj, natoms=s2.natoms, mode="a") as w2:
            loop2 = _loop(engine2, trajectory=w2, trajectory_every=1)
            loop2.restore(tmp_path / "ck2")
            # frames past step 2 (lost work) were truncated on restore
            assert w2.checkpoint_state()[1] == 3
        with TrajectoryReader(trj) as r:
            assert np.array_equal(r.steps(), [0, 1, 2])

    def test_legacy_checkpoint_without_extras_still_restores(self, tmp_path):
        s, pot = _setup()
        with build_engine(s, pot) as engine:
            loop = _loop(engine)
            loop.run(2)
            write_checkpoint(tmp_path / "bare", loop.system, step=loop.step)
        s2, pot2 = _setup(vel_seed=12)
        with build_engine(s2, pot2) as engine2:
            loop2 = _loop(engine2)
            assert loop2.restore(tmp_path / "bare") == 2
            assert np.array_equal(loop2.system.positions, s.positions)
            loop2.run(1)  # no stored force result: re-evaluates, still runs
            assert loop2.step == 3


# ======================================================================
# checkpoint extras carry the full forward-path state
# ======================================================================
class TestCheckpointExtras:
    def test_extras_hold_rng_topology_forces_and_offsets(self, tmp_path):
        s, pot = _setup()
        with build_engine(s, pot) as engine, \
                TrajectoryFile(tmp_path / "t.trj", natoms=s.natoms) as w:
            loop = _loop(engine, trajectory=w, trajectory_every=1)
            loop.run(2)
            loop.write_checkpoint(tmp_path / "ck")
        ck = load_checkpoint(tmp_path / "ck")
        for key in ("thermostat_rng", "topology_ref", "traj_offset",
                    "last_energy", "last_forces"):
            assert key in ck.extras, key
        assert ck.extras["last_forces"].shape == (s.natoms, 3)
        assert ck.extras["traj_offset"][1] == 3  # frames at steps 0, 1, 2

    def test_restore_rejects_wrong_natoms(self, tmp_path):
        s, pot = _setup()
        write_checkpoint(tmp_path / "ck", s, step=1)
        small = lattice_system("fcc", a=2.5, reps=(2, 2, 2))
        small.seed_velocities(40.0, rng=np.random.default_rng(1))
        with build_engine(small, LennardJones(epsilon=0.2, sigma=2.2,
                                              cutoff=3.0)) as engine:
            with pytest.raises(ValueError):
                _loop(engine).restore(tmp_path / "ck")
