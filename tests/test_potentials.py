"""Tests for the classical potentials and the SNAP adapter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SNAPParams
from repro.core.snap import scatter_add, scatter_pair_forces
from repro.md import Box, build_pairs
from repro.potentials import (FinnisSinclair, LennardJones, SNAPPotential,
                              StillingerWeber, TablePotential)
from repro.potentials.sw import triplet_indices
from repro.structures import lattice_system


def _fd_check(pot, system, atol, h=1e-6, natoms_checked=4):
    nbr = build_pairs(system.positions, system.box, pot.cutoff)
    res = pot.compute(system.natoms, nbr)

    def energy(p):
        return pot.compute(system.natoms, build_pairs(p, system.box, pot.cutoff)).energy

    # finite-difference forces on the first rows, computed directly
    f = np.zeros((natoms_checked, 3))
    for i in range(natoms_checked):
        for c in range(3):
            p = system.positions.copy()
            p[i, c] += h
            ep = energy(p)
            p[i, c] -= 2 * h
            em = energy(p)
            f[i, c] = -(ep - em) / (2 * h)
    assert np.allclose(res.forces[:natoms_checked], f, atol=atol)
    return res


@settings(deadline=None, max_examples=60)
@given(natoms=st.integers(1, 40), nplus=st.integers(0, 300),
       nminus=st.integers(0, 300), decades=st.integers(0, 12),
       seed=st.integers(0, 2**16))
def test_scatter_helpers_equal_the_add_at_chain(natoms, nplus, nminus,
                                                decades, seed):
    """``scatter_add`` / ``scatter_pair_forces`` against the literal
    ``np.add.at`` chains they replaced: bitwise, float64 - the empty
    pair list included (``np.bincount`` of nothing is int64)."""
    rng = np.random.default_rng(seed)
    plus_idx = rng.integers(0, natoms, size=nplus)
    minus_idx = rng.integers(0, natoms, size=nminus)
    # magnitudes spread over decades so summation order shows in the bits
    plus = rng.normal(size=(nplus, 3)) * 10.0 ** rng.uniform(
        0, decades, size=(nplus, 1))
    minus = rng.normal(size=(nminus, 3)) * 10.0 ** rng.uniform(
        0, decades, size=(nminus, 1))

    forces = np.zeros((natoms, 3))
    np.add.at(forces, minus_idx, -minus)
    np.add.at(forces, plus_idx, plus)
    got = scatter_pair_forces(natoms, plus_idx, plus, minus_idx, minus)
    assert got.dtype == np.float64 and got.tobytes() == forces.tobytes()

    peratom = np.zeros(natoms)
    np.add.at(peratom, plus_idx, plus[:, 0])
    got = scatter_add(plus_idx, plus[:, 0], natoms)
    assert got.dtype == np.float64 and got.shape == (natoms,)
    assert got.tobytes() == peratom.tobytes()


@pytest.mark.parametrize("kind", ["lj", "table"])
def test_pair_potential_forces_equal_the_literal_add_at_chain(kind, rng):
    """The radial pair potentials through the one assembly against the
    chain written out: the force on the neighbor of ordered pair
    ``(i -> j)`` is ``-phi'(r) / 2 * rhat``, every atom takes its
    neighbor-side rows first, then its own, in pair order.  Bitwise."""
    s = lattice_system("fcc", a=1.6, reps=(3, 3, 3))
    s.positions = s.positions + rng.normal(scale=0.04, size=s.positions.shape)
    if kind == "lj":
        pot = LennardJones(epsilon=0.7, sigma=1.1, cutoff=2.5)
    else:
        pot = TablePotential.from_potential(
            lambda r: np.exp(-r) * np.cos(2 * r), rmin=0.5, cutoff=2.5)
    nbr = build_pairs(s.positions, s.box, pot.cutoff)
    r = nbr.r
    if kind == "lj":
        sr6 = (pot.sigma / r) ** 6
        dphidr = 4.0 * pot.epsilon * (-12.0 * (sr6 * sr6) + 6.0 * sr6) / r
    else:
        dphidr = pot._deriv(r)
    fvec = (-0.5 * dphidr / r)[:, None] * nbr.rij
    forces = np.zeros((s.natoms, 3))
    np.add.at(forces, nbr.j_idx, fvec)
    np.add.at(forces, nbr.i_idx, -fvec)
    res = pot.compute(s.natoms, nbr)
    assert res.forces.tobytes() == forces.tobytes()
    assert np.array_equal(res.virial, nbr.rij.T @ fvec)


@pytest.fixture
def perturbed_fcc(rng):
    s = lattice_system("fcc", a=1.6, reps=(3, 3, 3))
    s.positions = s.positions + rng.normal(scale=0.04, size=s.positions.shape)
    return s


@pytest.fixture
def perturbed_diamond(rng):
    s = lattice_system("diamond", a=3.57, reps=(2, 2, 2))
    s.positions = s.positions + rng.normal(scale=0.04, size=s.positions.shape)
    return s


class TestLennardJones:
    def test_dimer_minimum(self):
        pot = LennardJones(epsilon=1.0, sigma=1.0, cutoff=5.0, shift=False)
        box = Box.cubic(50.0)

        def e(d):
            pos = np.array([[0.0, 0.0, 0.0], [d, 0.0, 0.0]])
            return pot.compute(2, build_pairs(pos, box, pot.cutoff)).energy

        dmin = 2.0 ** (1.0 / 6.0)
        assert e(dmin) == pytest.approx(-1.0, rel=1e-6)
        assert e(dmin) < e(dmin * 0.95) and e(dmin) < e(dmin * 1.05)

    def test_forces_fd(self, perturbed_fcc):
        _fd_check(LennardJones(epsilon=1.0, sigma=1.0, cutoff=2.5), perturbed_fcc, 1e-5)

    def test_shift_removes_cutoff_jump(self):
        box = Box.cubic(50.0)
        pot = LennardJones(epsilon=1.0, sigma=1.0, cutoff=2.5, shift=True)
        pos = np.array([[0.0, 0.0, 0.0], [2.499999, 0.0, 0.0]])
        e = pot.compute(2, build_pairs(pos, box, pot.cutoff)).energy
        assert abs(e) < 1e-4

    def test_newton(self, perturbed_fcc):
        pot = LennardJones(cutoff=2.5)
        nbr = build_pairs(perturbed_fcc.positions, perturbed_fcc.box, pot.cutoff)
        res = pot.compute(perturbed_fcc.natoms, nbr)
        assert np.allclose(res.forces.sum(axis=0), 0.0, atol=1e-10)

    def test_peratom_sums_to_total(self, perturbed_fcc):
        pot = LennardJones(cutoff=2.5)
        nbr = build_pairs(perturbed_fcc.positions, perturbed_fcc.box, pot.cutoff)
        res = pot.compute(perturbed_fcc.natoms, nbr)
        assert res.peratom.sum() == pytest.approx(res.energy)

    def test_virial_matches_volume_derivative(self):
        # tr(W)/3V = -dE/dV at zero temperature
        pot = LennardJones(epsilon=1.0, sigma=1.0, cutoff=2.5)
        s = lattice_system("fcc", a=1.55, reps=(3, 3, 3))
        nbr = build_pairs(s.positions, s.box, pot.cutoff)
        res = pot.compute(s.natoms, nbr)
        p_virial = np.trace(res.virial) / 3.0 / s.box.volume

        eps = 1e-5
        es = []
        for f in (1 + eps, 1 - eps):
            pos = s.positions * f
            box = s.box.scaled(f)
            es.append(pot.compute(s.natoms, build_pairs(pos, box, pot.cutoff)).energy)
        dv = s.box.volume * ((1 + eps) ** 3 - (1 - eps) ** 3)
        p_fd = -(es[0] - es[1]) / dv
        assert p_virial == pytest.approx(p_fd, rel=1e-4, abs=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            LennardJones(epsilon=-1.0)


class TestFinnisSinclair:
    def test_forces_fd(self, rng):
        s = lattice_system("bcc", a=3.2, reps=(3, 3, 3))
        s.positions = s.positions + rng.normal(scale=0.05, size=s.positions.shape)
        _fd_check(FinnisSinclair(), s, 1e-5)

    def test_embedding_lowers_energy(self):
        s = lattice_system("bcc", a=3.2, reps=(3, 3, 3))
        nbr = build_pairs(s.positions, s.box, FinnisSinclair().cutoff)
        with_emb = FinnisSinclair(a=1.9).compute(s.natoms, nbr).energy
        without = FinnisSinclair(a=0.0).compute(s.natoms, nbr).energy
        assert with_emb < without

    def test_isolated_atom(self):
        pot = FinnisSinclair()
        box = Box.cubic(50.0)
        pos = np.array([[25.0, 25.0, 25.0]])
        res = pot.compute(1, build_pairs(pos, box, pot.cutoff))
        assert res.energy == pytest.approx(0.0)
        assert np.allclose(res.forces, 0.0)


class TestStillingerWeber:
    def test_forces_fd(self, perturbed_diamond):
        _fd_check(StillingerWeber(), perturbed_diamond, 5e-5)

    def test_diamond_prefered_over_fcc(self):
        # the three-body term must stabilize fourfold coordination
        pot = StillingerWeber()
        e = {}
        for kind, a in [("diamond", 3.57), ("fcc", 2.70)]:
            best = np.inf
            for scale in np.linspace(0.85, 1.2, 15):
                s = lattice_system(kind, a=a * scale, reps=(2, 2, 2))
                nbr = build_pairs(s.positions, s.box, pot.cutoff)
                best = min(best, pot.compute(s.natoms, nbr).energy / s.natoms)
            e[kind] = best
        assert e["diamond"] < e["fcc"]

    def test_cohesive_energy_negative(self):
        pot = StillingerWeber()
        s = lattice_system("diamond", a=3.57, reps=(2, 2, 2))
        nbr = build_pairs(s.positions, s.box, pot.cutoff)
        assert pot.compute(s.natoms, nbr).energy < 0

    def test_triplet_indices(self):
        i_idx = np.array([0, 0, 0, 1, 1, 2])
        p, q = triplet_indices(i_idx, 3)
        trips = sorted(zip(p.tolist(), q.tolist()))
        assert trips == [(0, 1), (0, 2), (1, 2), (3, 4)]

    def test_triplet_indices_empty(self):
        p, q = triplet_indices(np.array([0, 1, 2]), 3)
        assert p.size == 0

    def test_angular_term_zero_for_ideal_angle(self):
        # three atoms at the tetrahedral angle: v3 contribution vanishes
        pot = StillingerWeber()
        d = 1.55
        cos_t = -1.0 / 3.0
        pos = np.array([
            [0.0, 0.0, 0.0],
            [d, 0.0, 0.0],
            [d * cos_t, d * np.sqrt(1 - cos_t ** 2), 0.0],
        ])
        box = Box(lengths=[50.0] * 3, periodic=(False,) * 3)
        nbr = build_pairs(pos, box, pot.cutoff)
        res = pot.compute(3, nbr)
        # compare against pure two-body: zero three-body energy
        e2 = StillingerWeber(lam=0.0).compute(3, nbr)
        assert res.energy == pytest.approx(e2.energy, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            StillingerWeber(a=0.9)


class TestSNAPPotential:
    def test_adapter(self, rng):
        params = SNAPParams(twojmax=2, rcut=2.2)
        pot = SNAPPotential(params, beta=rng.normal(size=6))
        s = lattice_system("fcc", a=2.0, reps=(2, 2, 2))
        nbr = build_pairs(s.positions, s.box, pot.cutoff)
        res = pot.compute(s.natoms, nbr)
        assert res.forces.shape == (s.natoms, 3)
        assert pot.params.twojmax == 2
        assert set(pot.last_timings)

    def test_forces_fd(self, rng):
        params = SNAPParams(twojmax=2, rcut=2.2)
        pot = SNAPPotential(params, beta=rng.normal(size=6))
        s = lattice_system("fcc", a=2.0, reps=(2, 2, 2))
        s.positions = s.positions + rng.normal(scale=0.03, size=s.positions.shape)
        _fd_check(pot, s, 1e-4, natoms_checked=2)


class TestTablePotential:
    def test_reproduces_lj(self, perturbed_fcc):
        lj = LennardJones(epsilon=1.0, sigma=1.0, cutoff=2.5, shift=True)
        def phi(r):
            sr6 = (1.0 / r) ** 6
            return 4.0 * (sr6 * sr6 - sr6)

        tab = TablePotential.from_potential(phi, rmin=0.75, cutoff=2.5,
                                            npoints=2000)
        nbr = build_pairs(perturbed_fcc.positions, perturbed_fcc.box, 2.5)
        a = lj.compute(perturbed_fcc.natoms, nbr)
        b = tab.compute(perturbed_fcc.natoms, nbr)
        assert abs(a.energy - b.energy) / abs(a.energy) < 1e-5
        assert np.allclose(a.forces, b.forces, atol=2e-3)

    def test_forces_fd(self, perturbed_fcc):
        tab = TablePotential.from_potential(
            lambda r: np.exp(-r) * np.cos(2 * r), rmin=0.5, cutoff=2.5)
        _fd_check(tab, perturbed_fcc, 1e-4)

    def test_energy_zero_at_cutoff(self):
        from repro.md import Box

        tab = TablePotential.from_potential(lambda r: 1.0 / r, rmin=0.5,
                                            cutoff=3.0)
        pos = np.array([[0.0, 0.0, 0.0], [2.999999, 0.0, 0.0]])
        box = Box(lengths=[50.0] * 3, periodic=(False,) * 3)
        res = tab.compute(2, build_pairs(pos, box, 3.0))
        assert abs(res.energy) < 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            TablePotential(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            TablePotential(np.array([1.0, 0.9, 1.1, 1.2]), np.zeros(4))
        with pytest.raises(ValueError):
            TablePotential(np.linspace(1, 2, 10), np.zeros(10), cutoff=5.0)
