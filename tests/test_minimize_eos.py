"""Tests for the FIRE minimizer, cell relaxation and EOS fits."""

import numpy as np
import pytest

from repro.analysis import cold_curve, fit_birch_murnaghan
from repro.analysis.eos import birch_murnaghan_energy
from repro.md import build_pairs, fire_minimize, relax_volume
from repro.potentials import LennardJones, StillingerWeber
from repro.structures import lattice_system


class TestFire:
    def test_rattled_crystal_relaxes(self, rng):
        pot = StillingerWeber()
        s = lattice_system("diamond", a=3.567, reps=(2, 2, 2))
        e_ideal = pot.compute(
            s.natoms, build_pairs(s.positions, s.box, pot.cutoff)).energy
        s.positions = s.positions + rng.normal(scale=0.08, size=s.positions.shape)
        out = fire_minimize(s, pot, fmax=1e-3, max_steps=600)
        assert out.converged
        assert out.max_force < 1e-3
        assert out.energy == pytest.approx(e_ideal, abs=1e-3)

    def test_dimer_relaxes_to_minimum(self):
        pot = LennardJones(epsilon=1.0, sigma=1.0, cutoff=4.0, shift=False)
        from repro.md import Box, ParticleSystem

        s = ParticleSystem(positions=np.array([[0.0, 0.0, 0.0],
                                               [1.35, 0.0, 0.0]]),
                           box=Box(lengths=[60.0] * 3, periodic=(False,) * 3),
                           masses=1.0)
        out = fire_minimize(s, pot, fmax=1e-6, max_steps=2000)
        assert out.converged
        d = np.linalg.norm(s.positions[1] - s.positions[0])
        assert d == pytest.approx(2 ** (1 / 6), abs=1e-4)

    def test_nonconvergence_reported(self, rng):
        pot = StillingerWeber()
        s = lattice_system("diamond", a=3.567, reps=(2, 2, 2))
        s.positions = s.positions + rng.normal(scale=0.1, size=s.positions.shape)
        out = fire_minimize(s, pot, fmax=1e-10, max_steps=3)
        assert not out.converged
        assert out.steps == 3

    def test_validation(self):
        s = lattice_system("sc", a=2.0)
        with pytest.raises(ValueError):
            fire_minimize(s, LennardJones(), fmax=-1.0)


class TestRelaxVolume:
    def test_sw_diamond_equilibrium(self):
        pot = StillingerWeber()
        s = lattice_system("diamond", a=3.567, reps=(2, 2, 2))
        scale, e = relax_volume(s, pot)
        # relaxed energy is the bottom of the cold curve
        v, ec = cold_curve(pot, "diamond", 3.567, np.linspace(0.9, 1.1, 11))
        assert e / s.natoms <= ec.min() + 1e-6
        assert 0.9 < scale < 1.1

    def test_system_updated_in_place(self):
        pot = LennardJones(epsilon=0.1, sigma=2.0, cutoff=5.0)
        s = lattice_system("fcc", a=3.3, reps=(2, 2, 2))
        l0 = s.box.lengths[0]
        scale, _ = relax_volume(s, pot, bounds=(0.8, 1.2))
        assert s.box.lengths[0] == pytest.approx(l0 * scale)


class TestBirchMurnaghan:
    def test_roundtrip_exact(self):
        v = np.linspace(4.0, 7.0, 12)
        e = birch_murnaghan_energy(v, -7.0, 5.5, 2.7, 4.2)
        fit = fit_birch_murnaghan(v, e)
        assert fit.e0 == pytest.approx(-7.0, abs=1e-8)
        assert fit.v0 == pytest.approx(5.5, abs=1e-8)
        assert fit.b0 == pytest.approx(2.7, abs=1e-8)
        assert fit.b0_prime == pytest.approx(4.2, abs=1e-6)
        assert fit.residual_rms < 1e-10

    def test_sw_diamond_bulk_modulus(self):
        pot = StillingerWeber()
        v, e = cold_curve(pot, "diamond", 3.567, np.linspace(0.94, 1.06, 9))
        fit = fit_birch_murnaghan(v, e)
        # stiff tetrahedral solid: hundreds of GPa
        assert 200 < fit.b0_gpa < 1200
        assert fit.residual_rms < 5e-3

    def test_pressure_zero_at_v0(self):
        v = np.linspace(4.0, 7.0, 12)
        e = birch_murnaghan_energy(v, -7.0, 5.5, 2.7, 4.2)
        fit = fit_birch_murnaghan(v, e)
        assert fit.pressure(np.array([fit.v0]))[0] == pytest.approx(0.0, abs=1e-10)
        assert fit.pressure(np.array([0.8 * fit.v0]))[0] > 0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_birch_murnaghan(np.ones(3), np.ones(3))
