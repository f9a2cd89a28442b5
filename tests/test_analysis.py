"""Tests for analysis: RDF, order parameters, phase ID, thermo."""

import numpy as np
import pytest

from repro.analysis import (PhaseClassifier, RDFObserver,
                            coordination_numbers, msd, pressure,
                            pressure_bar, rdf, steinhardt_q)
from repro.constants import EVA3_TO_BAR, KB
from repro.core.snap import EnergyForces
from repro.md import Box, ParticleSystem, build_pairs
from repro.structures import lattice_system, random_packed


class TestRDF:
    def test_ideal_gas_near_one(self, rng):
        s = ParticleSystem(positions=rng.uniform(0, 20, (2000, 3)),
                           box=Box.cubic(20.0))
        r, g = rdf(s.positions, s.box, rmax=5.0, nbins=25)
        assert np.mean(g[5:]) == pytest.approx(1.0, abs=0.1)

    def test_crystal_peak_positions(self):
        s = lattice_system("fcc", a=4.0, reps=(4, 4, 4))
        r, g = rdf(s.positions, s.box, rmax=5.0, nbins=200)
        nn = 4.0 / np.sqrt(2)
        peak_r = r[np.argmax(g * (np.abs(r - nn) < 0.2))]
        assert peak_r == pytest.approx(nn, abs=0.05)

    def test_needs_two_atoms(self):
        with pytest.raises(ValueError):
            rdf(np.zeros((1, 3)), Box.cubic(5.0), rmax=2.0)

    def test_coordination_fcc(self):
        s = lattice_system("fcc", a=4.0, reps=(3, 3, 3))
        nn = coordination_numbers(s.positions, s.box, 3.2)
        assert np.all(nn == 12)

    def test_half_list_counts_equal_the_full_list(self, rng):
        """Each bond counted once, then doubled: ``g(r)``, the observer's
        histogram and the coordination numbers are the full list's to
        the bit (on the tree path a bond and its mirror share ``r``)."""
        n, rmax, nbins = 300, 4.5, 30
        box = Box(lengths=[16.0, 14.0, 15.0])
        pos = rng.uniform(0, 1, size=(n, 3)) * box.lengths
        full = build_pairs(pos, box, rmax)
        hist, edges = np.histogram(full.r, bins=nbins, range=(0.0, rmax))
        rc = 0.5 * (edges[1:] + edges[:-1])
        shell = 4.0 * np.pi * rc**2 * np.diff(edges)
        _, g = rdf(pos, box, rmax, nbins)
        assert g.tobytes() == (hist / (n * shell * (n / box.volume))).tobytes()
        observer = RDFObserver(rmax=rmax, nbins=nbins)
        observer.observe(0, ParticleSystem(positions=pos, box=box), None)
        assert np.array_equal(observer.hist, hist)
        assert np.array_equal(coordination_numbers(pos, box, rmax),
                              np.bincount(full.i_idx, minlength=n))


class TestSteinhardt:
    def test_fcc_q6_textbook_value(self):
        s = lattice_system("fcc", a=4.0, reps=(3, 3, 3))
        q6 = steinhardt_q(s.positions, s.box, 3.2, l=6)
        assert np.allclose(q6, 0.5745, atol=1e-3)

    def test_bcc_q6(self):
        s = lattice_system("bcc", a=3.0, reps=(3, 3, 3))
        q6 = steinhardt_q(s.positions, s.box, 2.7, l=6, nnn=8)
        assert np.allclose(q6, 0.6285, atol=1e-3)

    def test_diamond_q3(self):
        s = lattice_system("diamond", a=3.567, reps=(2, 2, 2))
        q3 = steinhardt_q(s.positions, s.box, 1.8, l=3, nnn=4)
        assert np.allclose(q3, 0.7454, atol=1e-3)

    def test_isolated_atom_zero(self):
        box = Box.cubic(50.0)
        q = steinhardt_q(np.array([[25.0, 25.0, 25.0], [1.0, 1.0, 1.0]]),
                         box, 2.0, l=6)
        assert np.allclose(q, 0.0)

    def test_rotation_invariance(self, rng):
        from scipy.spatial.transform import Rotation

        s = lattice_system("diamond", a=3.567, reps=(2, 2, 2))
        rot = Rotation.random(random_state=5).as_matrix()
        box = Box(lengths=[80.0] * 3, periodic=(False,) * 3)
        pos = s.positions + 20.0
        q1 = steinhardt_q(pos, box, 1.8, l=6, nnn=4)
        q2 = steinhardt_q((pos - 30) @ rot.T + 40, box, 1.8, l=6, nnn=4)
        assert np.allclose(np.sort(q1), np.sort(q2), atol=1e-9)


class TestPhaseClassifier:
    @pytest.fixture(scope="class")
    def pc(self):
        return PhaseClassifier()

    def test_diamond_detected(self, pc):
        s = lattice_system("diamond", a=3.57, reps=(3, 3, 3))
        f = pc.fractions(s.positions, s.box)
        assert f["diamond"] > 0.99

    def test_bc8_detected(self, pc):
        s = lattice_system("bc8", a=1.55 / 0.615, reps=(3, 3, 3))
        f = pc.fractions(s.positions, s.box)
        assert f["bc8"] > 0.99

    def test_random_amorphous(self, pc):
        s = random_packed(200, density=0.16, seed=9)
        f = pc.fractions(s.positions, s.box)
        assert f["amorphous"] > 0.9

    def test_phases_distinct(self, pc):
        # diamond and BC8 fingerprints are close (both tetrahedral) but
        # separated well enough for nearest-reference assignment
        refs = pc.references
        assert np.linalg.norm(refs[1] - refs[2]) > 0.05

    def test_mixed_sample(self, pc):
        dia = lattice_system("diamond", a=3.57, reps=(3, 3, 3))
        # displace half the box into randomness
        pos = dia.positions.copy()
        rng = np.random.default_rng(3)
        upper = pos[:, 2] > dia.box.lengths[2] / 2
        pos[upper] += rng.uniform(-0.7, 0.7, size=(upper.sum(), 3))
        f = pc.fractions(pos, dia.box)
        assert 0.2 < f["diamond"] < 0.8
        assert f["amorphous"] > 0.1


class TestThermo:
    def test_ideal_gas_pressure(self, rng):
        s = ParticleSystem(positions=rng.uniform(0, 10, (300, 3)),
                           box=Box.cubic(10.0))
        s.seed_velocities(300.0, rng=rng)
        res = EnergyForces(energy=0.0, peratom=np.zeros(300),
                           forces=np.zeros((300, 3)), virial=np.zeros((3, 3)))
        p = pressure(s, res)
        assert p == pytest.approx(300 * KB * 300.0 / 1000.0, rel=1e-9)

    def test_pressure_bar_conversion(self, rng):
        s = ParticleSystem(positions=rng.uniform(0, 10, (10, 3)),
                           box=Box.cubic(10.0))
        res = EnergyForces(energy=0.0, peratom=np.zeros(10),
                           forces=np.zeros((10, 3)),
                           virial=np.eye(3) * 100.0)
        assert pressure_bar(s, res) == pytest.approx(
            pressure(s, res) * EVA3_TO_BAR)

    def test_msd_linear_motion(self):
        frames = np.zeros((5, 2, 3))
        for t in range(5):
            frames[t, :, 0] = t * 0.5
        out = msd(frames)
        assert np.allclose(out, (np.arange(5) * 0.5) ** 2)

    def test_msd_validation(self):
        with pytest.raises(ValueError):
            msd(np.zeros((3, 4)))


class TestObservers:
    """In-situ observers: cadence, accumulation, agreement with post-hoc."""

    def _run(self, observers, nsteps=4):
        from repro.md import MDLoop, build_engine
        from repro.potentials import LennardJones
        s = lattice_system("fcc", a=2.5, reps=(2, 2, 2))
        s.seed_velocities(60.0, rng=np.random.default_rng(4))
        pot = LennardJones(epsilon=0.2, sigma=2.2, cutoff=3.0)
        with build_engine(s, pot) as engine:
            MDLoop(engine, dt=1e-3, observers=observers).run(nsteps)
        return s

    def test_thermo_observer_every_step(self):
        from repro.analysis import ThermoObserver
        obs = ThermoObserver()
        self._run([obs], nsteps=3)
        table = obs.table()
        assert list(table["step"]) == [0, 1, 2, 3]
        assert np.allclose(table["total_energy"],
                           table["potential_energy"]
                           + table["kinetic_energy"])
        assert "pressure" in table  # LJ serial provides an exact virial

    def test_observer_cadence(self):
        from repro.analysis import ThermoObserver
        obs = ThermoObserver(every=2)
        self._run([obs], nsteps=4)
        assert [r["step"] for r in obs.rows] == [0, 2, 4]

    def test_rdf_observer_matches_posthoc_rdf(self):
        from repro.analysis import RDFObserver
        obs = RDFObserver(rmax=3.0, nbins=40, every=10)
        s = self._run([obs], nsteps=0)  # single sample at step 0
        rc, g = obs.result()
        rc_ref, g_ref = rdf(s.positions, s.box, rmax=3.0, nbins=40)
        assert np.allclose(rc, rc_ref)
        assert np.allclose(g, g_ref)

    def test_rdf_observer_empty_raises(self):
        from repro.analysis import RDFObserver
        with pytest.raises(RuntimeError):
            RDFObserver(rmax=3.0).result()
        with pytest.raises(ValueError):
            RDFObserver(rmax=-1.0)

    def test_phase_fraction_observer_series(self):
        from repro.analysis import PhaseFractionObserver
        obs = PhaseFractionObserver(every=2)
        self._run([obs], nsteps=2)
        series = obs.series()
        assert list(series["steps"]) == [0, 2]
        fractions = [v for k, v in series.items() if k != "steps"]
        assert np.allclose(np.sum(fractions, axis=0), 1.0)
