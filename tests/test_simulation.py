"""Tests for the MD loop on the serial engine, timers, and checkpoint I/O."""

import numpy as np
import pytest

from repro.analysis import ThermoObserver
from repro.md import (LangevinThermostat, MDLoop, PhaseTimers, build_engine,
                      load_checkpoint, write_checkpoint)
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

    @pytest.fixture
    def ticks(self, monkeypatch):
        """A clock reading 0, 1, 2, ... seconds, one tick per read."""
        from itertools import count

        from repro.md import timers

        clock = count()
        monkeypatch.setattr(timers, "perf_counter",
                            lambda: float(next(clock)))

    def test_phase_books_its_span_when_the_body_raises(self, ticks):
        # the span is booked on the way out of a failing body, and the
        # body's exception is the one the caller sees
        t = PhaseTimers()
        with pytest.raises(KeyError, match="boom"):
            with t.phase("io"):
                raise KeyError("boom")
        assert t.totals == {"io": 1.0}

    def test_nested_spans_of_one_phase_are_both_booked(self, ticks):
        t = PhaseTimers()
        with t.phase("other"):      # reads 0 ... 3
            with t.phase("other"):  # reads 1 ... 2
                pass
        assert t.totals == {"other": 4.0}

    def test_unregistered_phase_raises_on_first_use(self, ticks):
        t = PhaseTimers()
        with pytest.raises(ValueError, match="'warp' is not registered"):
            with t.phase("warp"):
                pass
        # a failing body does not hide the registry error; the body's
        # exception rides along as its context
        with pytest.raises(ValueError, match="'warp' is not registered"
                           ) as info:
            with t.phase("warp"):
                raise KeyError("boom")
        assert isinstance(info.value.__context__, KeyError)
        assert t.totals == {} and t.subtotals == {}


class TestSimulation:
    def test_run_summary(self, lj_sim):
        out = lj_sim.run(20)
        assert out.steps == 20
        assert out.natoms == 32
        assert out.atom_steps_per_s > 0
        assert set(out.phase_fractions) >= {"force", "neigh", "other"}

    def test_thermo_log(self, lj_sim):
        thermo = ThermoObserver(every=5)
        lj_sim.observers.append(thermo)
        lj_sim.run(20)
        steps = [r["step"] for r in thermo.rows]
        assert steps == [0, 5, 10, 15, 20]
        for r in thermo.rows:
            assert r["total_energy"] == pytest.approx(
                r["potential_energy"] + r["kinetic_energy"])

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
        ck = load_checkpoint(path)
        assert ck.step == 20
        assert np.allclose(ck.system.positions, lj_sim.system.positions)


class TestCheckpointIO:
    def test_roundtrip(self, rng, tmp_path):
        s = lattice_system("diamond", a=3.57, reps=(1, 1, 1))
        s.seed_velocities(100.0, rng=rng)
        path = tmp_path / "state.npz"
        write_checkpoint(path, s, step=42)
        ck = load_checkpoint(path)
        loaded = ck.system
        assert ck.step == 42
        assert np.allclose(loaded.positions, s.positions)
        assert np.allclose(loaded.velocities, s.velocities)
        assert np.allclose(loaded.box.lengths, s.box.lengths)
        assert loaded.box.periodic == s.box.periodic
