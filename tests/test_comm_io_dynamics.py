"""Tests for SNAP file I/O and dynamics analysis."""

import numpy as np
import pytest

from repro.analysis import diffusion_coefficient, vacf, vibrational_dos
from repro.core import SNAP, SNAPParams, read_snap_files, write_snap_files


class TestSnapFileIO:
    def test_roundtrip(self, tmp_path, rng):
        params = SNAPParams(twojmax=4, rcut=3.1, rfac0=0.99, rmin0=0.1,
                            switch=True)
        beta = rng.normal(size=SNAP(params).index.ncoeff)
        prefix = tmp_path / "carbon"
        c, p = write_snap_files(prefix, params, beta, element="C")
        assert c.exists() and p.exists()
        params2, beta2, meta = read_snap_files(prefix)
        assert params2.twojmax == params.twojmax
        assert params2.rcut == pytest.approx(params.rcut)
        assert params2.rfac0 == pytest.approx(params.rfac0)
        assert params2.rmin0 == pytest.approx(params.rmin0)
        assert np.allclose(beta2, beta)
        assert meta["element"] == "C"

    def test_roundtrip_preserves_energies(self, tmp_path, rng):
        from conftest import free_cluster_pairs, random_cluster

        params = SNAPParams(twojmax=2, rcut=3.0)
        beta = rng.normal(size=6)
        prefix = tmp_path / "model"
        write_snap_files(prefix, params, beta)
        params2, beta2, _ = read_snap_files(prefix)
        pos = random_cluster(rng, natoms=5)
        nbr = free_cluster_pairs(pos, 3.0)
        e1 = SNAP(params, beta=beta).compute(5, nbr).energy
        e2 = SNAP(params2, beta=beta2).compute(5, nbr).energy
        assert e1 == pytest.approx(e2, rel=1e-12)

    def test_bad_beta_size(self, tmp_path):
        with pytest.raises(ValueError):
            write_snap_files(tmp_path / "x", SNAPParams(twojmax=2, rcut=3.0),
                             np.zeros(3))


class TestDynamics:
    def test_vacf_of_constant_velocity(self):
        v = np.ones((50, 4, 3))
        c = vacf(v)
        assert np.allclose(c, 1.0)

    def test_vacf_oscillator_frequency(self):
        # a pure oscillation at f0 gives a cosine VACF and a DOS peak at f0
        dt = 0.01
        f0 = 5.0  # THz
        t = np.arange(2048) * dt
        v = np.zeros((t.size, 2, 3))
        v[:, 0, 0] = np.cos(2 * np.pi * f0 * t)
        v[:, 1, 1] = np.sin(2 * np.pi * f0 * t)
        c = vacf(v, nlags=512)
        assert c[0] == pytest.approx(1.0)
        freq, dos = vibrational_dos(v, dt, nlags=512)
        assert freq[np.argmax(dos)] == pytest.approx(f0, abs=0.3)

    def test_vacf_validation(self):
        with pytest.raises(ValueError):
            vacf(np.zeros((10, 3)))
        with pytest.raises(ValueError):
            vacf(np.zeros((10, 2, 3)))

    def test_diffusion_of_ballistic_motion(self):
        # x = v t gives MSD = v^2 t^2; not diffusive, but slope fit works
        dt = 0.1
        nframes = 100
        rng = np.random.default_rng(0)
        # random walk: true D = step_var / (2 dt) per dimension
        steps = rng.normal(scale=0.1, size=(nframes, 20, 3))
        frames = np.cumsum(steps, axis=0)
        d = diffusion_coefficient(frames, dt)
        d_true = 0.1 ** 2 / (2 * dt)
        assert d == pytest.approx(d_true, rel=0.5)

    def test_diffusion_zero_for_frozen(self):
        frames = np.zeros((50, 5, 3))
        assert diffusion_coefficient(frames, 0.1) == pytest.approx(0.0)
