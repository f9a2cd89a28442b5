"""Tests for the MD loop on the serial engine, timers, and checkpoint I/O."""

import numpy as np
import pytest

from repro.md import (LangevinThermostat, MDLoop, PhaseTimers, build_engine,
                      read_checkpoint, write_checkpoint)
from repro.potentials import LennardJones
from repro.structures import lattice_system


@pytest.fixture
def lj_sim(rng):
    s = lattice_system("fcc", a=1.7, reps=(2, 2, 2), mass=39.95)
    s.seed_velocities(30.0, rng=rng)
    pot = LennardJones(epsilon=0.0104, sigma=1.0, cutoff=2.5)
    return MDLoop(build_engine(s, pot), dt=2e-3)


class TestPhaseTimers:
    def test_accumulate(self):
        t = PhaseTimers()
        with t.phase("force"):
            pass
        t.add("force", 1.0)
        t.add("neigh", 3.0)
        assert t.totals["force"] >= 1.0
        assert t.total == pytest.approx(t.totals["force"] + 3.0)

    def test_fractions_sum_to_one(self):
        t = PhaseTimers()
        t.add("comm", 1.0)
        t.add("io", 3.0)
        f = t.fractions()
        assert sum(f.values()) == pytest.approx(1.0)
        assert f["io"] == pytest.approx(0.75)

    def test_empty_fractions(self):
        assert PhaseTimers().fractions() == {}

    def test_reset(self):
        t = PhaseTimers()
        t.add("other", 1.0)
        t.reset()
        assert t.total == 0.0

    def test_unregistered_phase_is_rejected(self):
        # the registry is enforced at run time: a typo fails the first
        # call that times it, registered and dynamic names pass
        t = PhaseTimers()
        with pytest.raises(ValueError, match="'warp' is not registered"):
            t.add("warp", 1.0)
        with pytest.raises(ValueError, match="warp.rate"):
            with t.phase("warp.rate"):
                pass
        t.add("neigh.rebuild", 1.0)
        t.add("force.compute_yi", 2.0)
        assert t.totals == {}
        assert t.subtotals == {"neigh.rebuild": 1.0, "force.compute_yi": 2.0}


class TestSimulation:
    def test_run_summary(self, lj_sim):
        out = lj_sim.run(20)
        assert out.steps == 20
        assert out.natoms == 32
        assert out.atom_steps_per_s > 0
        assert set(out.phase_fractions) >= {"force", "neigh", "other"}

    def test_thermo_log(self, lj_sim):
        lj_sim.run(20, thermo_every=5)
        steps = [e.step for e in lj_sim.thermo_log]
        assert steps == [0, 5, 10, 15, 20]
        for e in lj_sim.thermo_log:
            assert e.total_energy == pytest.approx(
                e.potential_energy + e.kinetic_energy)

    def test_negative_steps_rejected(self, lj_sim):
        with pytest.raises(ValueError):
            lj_sim.run(-1)

    def test_langevin_heats_cold_start(self, rng):
        s = lattice_system("fcc", a=1.7, reps=(2, 2, 2), mass=39.95)
        pot = LennardJones(epsilon=0.0104, sigma=1.0, cutoff=2.5)
        MDLoop(build_engine(s, pot), dt=2e-3,
               thermostat=LangevinThermostat(temp=80.0, damp=0.02,
                                             seed=2)).run(200)
        assert s.temperature() > 20.0

    def test_checkpointing(self, lj_sim, tmp_path):
        path = tmp_path / "ck.npz"
        lj_sim.checkpoint_every = 10
        lj_sim.checkpoint_path = path
        lj_sim.run(20)
        assert path.exists()
        assert "io" in lj_sim.timers.totals
        system, step = read_checkpoint(path)
        assert step == 20
        assert np.allclose(system.positions, lj_sim.system.positions)


class TestCheckpointIO:
    def test_roundtrip(self, rng, tmp_path):
        s = lattice_system("diamond", a=3.57, reps=(1, 1, 1))
        s.seed_velocities(100.0, rng=rng)
        path = tmp_path / "state.npz"
        write_checkpoint(path, s, step=42)
        loaded, step = read_checkpoint(path)
        assert step == 42
        assert np.allclose(loaded.positions, s.positions)
        assert np.allclose(loaded.velocities, s.velocities)
        assert np.allclose(loaded.box.lengths, s.box.lengths)
        assert loaded.box.periodic == s.box.periodic
