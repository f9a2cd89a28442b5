"""Tests for quadratic SNAP (per-atom effective coefficients)."""

import numpy as np
import pytest

from conftest import fd_forces, free_cluster_pairs, random_cluster
from repro.core import SNAP, SNAPParams
from repro.core.baseline import (reference_descriptors,
                                 reference_energy_forces)
from repro.md import SerialEngine
from repro.parallel import DistributedEngine
from repro.potentials import SNAPPotential
from repro.structures import lattice_system

PARAMS = SNAPParams(twojmax=2, rcut=3.0)
NB = SNAP(PARAMS).index.nb


@pytest.fixture
def quad_snap(rng):
    beta = rng.normal(size=NB + 1)
    q = 0.1 * rng.normal(size=(NB, NB))
    return SNAP(PARAMS, beta=beta, quadratic=q)


class TestQuadraticSNAP:
    def test_zero_matrix_equals_linear(self, rng):
        beta = rng.normal(size=NB + 1)
        lin = SNAP(PARAMS, beta=beta)
        quad = SNAP(PARAMS, beta=beta, quadratic=np.zeros((NB, NB)))
        pos = random_cluster(rng, natoms=5)
        nbr = free_cluster_pairs(pos, 3.0)
        r1, r2 = lin.compute(5, nbr), quad.compute(5, nbr)
        assert r1.energy == pytest.approx(r2.energy)
        assert np.allclose(r1.forces, r2.forces, atol=1e-12)

    def test_energy_formula(self, rng, quad_snap):
        pos = random_cluster(rng, natoms=4)
        nbr = free_cluster_pairs(pos, 3.0)
        res = quad_snap.compute(4, nbr)
        b = quad_snap.compute_descriptors(4, nbr)
        expect = (quad_snap.beta[0] + b @ quad_snap.beta[1:]
                  + 0.5 * np.einsum("al,lm,am->a", b, quad_snap.quadratic, b))
        assert np.allclose(res.peratom, expect, atol=1e-10)

    @pytest.mark.parametrize("twojmax", [2, 6])
    def test_matches_reference(self, rng, twojmax):
        # Listing-1 oracle: dense einsums over stored Z and dB, with the
        # per-atom coefficients beta + Q B applied to dB directly
        params = SNAPParams(twojmax=twojmax, rcut=3.0, chunk=16)
        nb = SNAP(params).index.nb
        snap = SNAP(params, beta=rng.normal(size=nb + 1),
                    quadratic=0.1 * rng.normal(size=(nb, nb)))
        pos = random_cluster(rng, natoms=5)
        nbr = free_cluster_pairs(pos, 3.0)
        out = snap.compute(5, nbr)
        ref = reference_energy_forces(snap, 5, nbr)
        tol = dict(atol=1e-12, rtol=1e-12)
        assert out.energy == pytest.approx(ref.energy, rel=1e-12, abs=1e-12)
        assert np.allclose(out.peratom, ref.peratom, **tol)
        assert np.allclose(out.forces, ref.forces, **tol)
        assert np.allclose(out.virial, ref.virial, atol=1e-11, rtol=1e-11)
        assert np.allclose(snap.compute_descriptors(5, nbr),
                           reference_descriptors(snap, 5, nbr), **tol)

    def test_distributed_matches_serial(self, rng):
        # the comm-model engine's own contract (<= 1e-10; it is not
        # bitwise for linear SNAP either).  ProcessEngine is bitwise:
        # tests/test_engine.py::test_snap_forces_bitwise_vs_serial
        params = SNAPParams(twojmax=2, rcut=2.4)
        pot = SNAPPotential(params, beta=rng.normal(size=NB + 1),
                            quadratic=0.1 * rng.normal(size=(NB, NB)))
        s = lattice_system("diamond", a=3.57, reps=(3, 3, 3))
        s.positions = s.positions + rng.normal(scale=0.03,
                                               size=s.positions.shape)
        ref = SerialEngine(s.copy(), pot).evaluate()
        res = DistributedEngine(s.copy(), pot, 4).evaluate()
        assert res.energy == pytest.approx(ref.energy, abs=1e-10)
        assert np.abs(res.forces - ref.forces).max() <= 1e-10

    def test_forces_fd(self, rng, quad_snap):
        pos = random_cluster(rng, natoms=5)

        def energy(p):
            return quad_snap.compute(p.shape[0], free_cluster_pairs(p, 3.0)).energy

        res = quad_snap.compute(pos.shape[0], free_cluster_pairs(pos, 3.0))
        fd = fd_forces(energy, pos)
        assert np.allclose(res.forces, fd, atol=1e-5)

    def test_newton(self, rng, quad_snap):
        pos = random_cluster(rng, natoms=6)
        res = quad_snap.compute(6, free_cluster_pairs(pos, 3.0))
        assert np.allclose(res.forces.sum(axis=0), 0.0, atol=1e-9)

    def test_asymmetric_input_symmetrized(self, rng):
        q = rng.normal(size=(NB, NB))
        snap = SNAP(PARAMS, quadratic=q)
        assert np.allclose(snap.quadratic, snap.quadratic.T)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="quadratic"):
            SNAP(PARAMS, quadratic=np.zeros((2, 2)))

    def test_quadratic_changes_energy(self, rng, quad_snap):
        pos = random_cluster(rng, natoms=4)
        nbr = free_cluster_pairs(pos, 3.0)
        lin = SNAP(PARAMS, beta=quad_snap.beta)
        assert quad_snap.compute(4, nbr).energy != pytest.approx(
            lin.compute(4, nbr).energy)

    def test_column_chunked_gather_changes_nothing(self, rng, monkeypatch):
        # B, Q B and quadratic Y come off one column-chunked product
        # gather: one column per chunk, the shipped bound and one chunk
        # for everything agree bitwise, and with the oracle
        pos = random_cluster(rng, natoms=7)
        nbr = free_cluster_pairs(pos, 3.0)
        params = SNAPParams(twojmax=4, rcut=3.0, chunk=16)
        nb = SNAP(params).index.nb
        beta, q = rng.normal(size=nb + 1), 0.1 * rng.normal(size=(nb, nb))
        results = []
        for scratch in (1, SNAP._GATHER_SCRATCH_BYTES, 1 << 40):
            monkeypatch.setattr(SNAP, "_GATHER_SCRATCH_BYTES", scratch)
            snap = SNAP(params, beta=beta, quadratic=q, bzero=True)
            out = snap.compute(7, nbr)
            results.append((len(snap._plan["z_op"]), out.peratom, out.forces,
                            out.virial, snap.compute_descriptors(7, nbr)))
        assert results[0][0] == snap._plan["nuniq"] and results[2][0] == 1
        for other in results[1:]:
            for a, b in zip(results[0][1:], other[1:]):
                assert np.array_equal(a, b)
        ref = reference_energy_forces(snap, 7, nbr)
        assert np.allclose(out.forces, ref.forces, atol=1e-12, rtol=1e-12)
        assert np.allclose(results[0][4], reference_descriptors(snap, 7, nbr),
                           atol=1e-12, rtol=1e-12)
