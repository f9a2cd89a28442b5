"""Tests for ParticleSystem and the integrators/thermostats."""

import numpy as np
import pytest

from repro.constants import MVV2E
from repro.md import (BerendsenThermostat, Box, LangevinThermostat,
                      MDLoop, ParticleSystem, VelocityVerlet, build_engine)
from repro.potentials import LennardJones
from repro.structures import lattice_system


class TestParticleSystem:
    def test_defaults(self):
        s = ParticleSystem(positions=np.zeros((3, 3)), box=Box.cubic(5.0))
        assert s.natoms == 3
        assert np.all(s.velocities == 0)
        assert np.allclose(s.masses, 12.011)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ParticleSystem(positions=np.zeros((3, 2)), box=Box.cubic(5.0))
        with pytest.raises(ValueError):
            ParticleSystem(positions=np.zeros((3, 3)), box=Box.cubic(5.0),
                           masses=np.ones(2))
        with pytest.raises(ValueError):
            ParticleSystem(positions=np.zeros((3, 3)), box=Box.cubic(5.0),
                           velocities=np.zeros((2, 3)))

    def test_kinetic_energy_formula(self):
        s = ParticleSystem(positions=np.zeros((1, 3)), box=Box.cubic(5.0),
                           masses=10.0, velocities=np.array([[2.0, 0.0, 0.0]]))
        assert s.kinetic_energy() == pytest.approx(0.5 * 10.0 * 4.0 * MVV2E)

    def test_seed_velocities_temperature(self, rng):
        s = ParticleSystem(positions=rng.uniform(0, 10, (500, 3)),
                           box=Box.cubic(10.0))
        s.seed_velocities(300.0, rng=rng)
        assert s.temperature() == pytest.approx(300.0, rel=1e-9)

    def test_seed_velocities_zero_momentum(self, rng):
        s = ParticleSystem(positions=rng.uniform(0, 10, (100, 3)),
                           box=Box.cubic(10.0))
        s.seed_velocities(500.0, rng=rng)
        p = (s.masses[:, None] * s.velocities).sum(axis=0)
        assert np.allclose(p, 0.0, atol=1e-9)

    def test_copy_independent(self, rng):
        s = ParticleSystem(positions=rng.uniform(0, 10, (10, 3)),
                           box=Box.cubic(10.0))
        c = s.copy()
        c.positions[0] += 1.0
        assert not np.allclose(s.positions[0], c.positions[0])

    def test_density(self):
        s = lattice_system("fcc", a=2.0, reps=(3, 3, 3))
        assert s.density() == pytest.approx(4 / 8.0)


class TestVelocityVerlet:
    def test_dt_validation(self):
        with pytest.raises(ValueError):
            VelocityVerlet(dt=0.0)

    def test_free_particle_drift(self):
        s = ParticleSystem(positions=np.zeros((1, 3)), box=Box.cubic(100.0),
                           masses=1.0, velocities=np.array([[1.0, 0.0, 0.0]]))
        vv = VelocityVerlet(dt=0.1)
        f = np.zeros((1, 3))
        for _ in range(10):
            vv.first_half(s, f)
            vv.second_half(s, f)
        assert s.positions[0, 0] == pytest.approx(1.0)

    def test_energy_conservation_lj(self, rng):
        s = lattice_system("fcc", a=1.64, reps=(3, 3, 3), mass=39.95)
        s.seed_velocities(20.0, rng=rng)
        pot = LennardJones(epsilon=0.0104, sigma=1.0, cutoff=2.5)
        sim = MDLoop(build_engine(s, pot), dt=2e-3)
        e0 = sim.last_result.energy + s.kinetic_energy()
        sim.run(150)
        e1 = sim.last_result.energy + s.kinetic_energy()
        assert abs(e1 - e0) / max(abs(e0), 1e-10) < 1e-4

    def test_time_reversibility(self, rng):
        s = lattice_system("fcc", a=1.7, reps=(2, 2, 2), mass=39.95)
        s.seed_velocities(10.0, rng=rng)
        pot = LennardJones(epsilon=0.0104, sigma=1.0, cutoff=2.5)
        start = s.positions.copy()
        sim = MDLoop(build_engine(s, pot, skin=1.0), dt=1e-3)
        sim.run(50)
        s.velocities *= -1.0
        sim.run(50)
        assert np.allclose(s.positions, start, atol=1e-7)


    def test_a_new_masses_array_or_dt_takes_effect(self, rng):
        # the per-atom factor is kept between kicks, keyed on the masses
        # array object and dt: a restore installs a new array, a caller
        # may change dt; either must reach the next kick, to the bit of
        # a fresh integrator's
        s = lattice_system("fcc", a=1.7, reps=(2, 2, 2), mass=39.95)
        forces = rng.normal(size=s.positions.shape)
        vv = VelocityVerlet(dt=1e-3)
        vv.second_half(s, forces)
        for change in ("masses", "dt"):
            if change == "masses":
                s.masses = np.full(s.natoms, 12.011)
            else:
                vv.dt = 2e-3
            v0 = s.velocities.copy()
            vv.second_half(s, forces)
            got, s.velocities = s.velocities, v0
            VelocityVerlet(dt=vv.dt).second_half(s, forces)
            assert got.tobytes() == s.velocities.tobytes()


class TestLangevin:
    def test_a_new_masses_array_or_setting_takes_effect(self, rng):
        # as for VelocityVerlet: the drag and noise factors follow a new
        # masses array, dt, temperature and damping, to the bit of a
        # fresh thermostat at the same point of its stream
        s = lattice_system("fcc", a=1.7, reps=(2, 2, 2), mass=39.95)
        s.seed_velocities(40.0, rng=rng)
        th = LangevinThermostat(temp=50.0, damp=0.1, seed=4)
        th.add_forces(s, np.zeros_like(s.positions), dt=1e-3)
        dt = 1e-3
        for change in ("masses", "dt", "temp", "damp"):
            if change == "masses":
                s.masses = np.full(s.natoms, 12.011)
            elif change == "dt":
                dt = 2e-3
            else:
                setattr(th, change, 2.0 * getattr(th, change))
            fresh = LangevinThermostat(temp=th.temp, damp=th.damp)
            fresh.set_rng_state(th.rng_state())
            got, want = np.zeros_like(s.positions), np.zeros_like(s.positions)
            th.add_forces(s, got, dt=dt)
            fresh.add_forces(s, want, dt=dt)
            assert got.tobytes() == want.tobytes(), change

    def test_equilibrates_to_target(self, rng):
        s = lattice_system("fcc", a=1.7, reps=(3, 3, 3), mass=39.95)
        pot = LennardJones(epsilon=0.0104, sigma=1.0, cutoff=2.5)
        thermo = LangevinThermostat(temp=50.0, damp=0.05, seed=4)
        sim = MDLoop(build_engine(s, pot), dt=2e-3, thermostat=thermo)
        sim.run(300)
        temps = []
        for _ in range(10):
            sim.run(20)
            temps.append(s.temperature())
        assert np.mean(temps) == pytest.approx(50.0, rel=0.35)

    def test_validation(self):
        with pytest.raises(ValueError):
            LangevinThermostat(temp=-1.0)
        with pytest.raises(ValueError):
            LangevinThermostat(temp=100.0, damp=0.0)

    def test_zero_temperature_damps(self):
        s = ParticleSystem(positions=np.zeros((1, 3)), box=Box.cubic(100.0),
                           masses=1.0, velocities=np.array([[5.0, 0.0, 0.0]]))
        th = LangevinThermostat(temp=0.0, damp=0.01, seed=1)
        f = np.zeros((1, 3))
        th.add_forces(s, f, dt=1e-3)
        # pure drag, anti-parallel to velocity
        assert f[0, 0] < 0 and f[0, 1] == 0


class TestBerendsen:
    def test_rescales_toward_target(self, rng):
        s = ParticleSystem(positions=rng.uniform(0, 10, (200, 3)),
                           box=Box.cubic(10.0))
        s.seed_velocities(100.0, rng=rng)
        th = BerendsenThermostat(temp=400.0, tau=0.01)
        t0 = s.temperature()
        th.apply(s, dt=0.005)
        t1 = s.temperature()
        assert t0 < t1 < 400.0

    def test_noop_at_zero_temperature(self):
        s = ParticleSystem(positions=np.zeros((2, 3)), box=Box.cubic(5.0))
        BerendsenThermostat(temp=300.0).apply(s, dt=1e-3)
        assert np.all(s.velocities == 0)
