"""Tests for structure builders."""

import numpy as np
import pytest

from repro.analysis import coordination_numbers
from repro.md import build_pairs
from repro.structures import (bc8_cell, diamond_cell, lattice_system,
                              melt_quench, random_packed, replicate)


class TestLattices:
    @pytest.mark.parametrize("kind,per_cell", [("sc", 1), ("bcc", 2),
                                               ("fcc", 4), ("diamond", 8),
                                               ("bc8", 16)])
    def test_atom_counts(self, kind, per_cell):
        s = lattice_system(kind, a=3.0, reps=(2, 3, 1))
        assert s.natoms == per_cell * 6

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown lattice"):
            lattice_system("hcp", a=3.0)

    def test_bad_reps(self):
        with pytest.raises(ValueError):
            lattice_system("sc", a=3.0, reps=(0, 1, 1))

    def test_diamond_first_neighbor(self):
        a = 3.567
        s = lattice_system("diamond", a=a, reps=(2, 2, 2))
        nbr = build_pairs(s.positions, s.box, 1.7)
        assert np.allclose(nbr.r, a * np.sqrt(3) / 4)

    def test_diamond_coordination(self):
        s = lattice_system("diamond", a=3.567, reps=(2, 2, 2))
        assert np.all(coordination_numbers(s.positions, s.box, 1.7) == 4)

    def test_bc8_coordination_fourfold(self):
        # BC8 is fourfold coordinated like diamond (distorted tetrahedra)
        a = 2.52  # any scale: the shell cut scales with a (carbon BC8: 4.44)
        s = lattice_system("bc8", a=a, reps=(2, 2, 2))
        nn = coordination_numbers(s.positions, s.box, 0.45 * a)
        assert np.all(nn == 4)

    def test_bc8_cell_in_unit_cube(self):
        f = bc8_cell()
        assert np.all(f >= 0) and np.all(f < 1)
        assert f.shape == (16, 3)

    def test_diamond_cell_unique(self):
        f = diamond_cell()
        assert len(np.unique(np.round(f, 9), axis=0)) == 8

    def test_all_atoms_distinct(self):
        for kind in ("sc", "bcc", "fcc", "diamond", "bc8"):
            s = lattice_system(kind, a=3.0, reps=(2, 2, 2))
            nbr = build_pairs(s.positions, s.box, 0.5)
            assert nbr.npairs == 0, kind  # no overlapping atoms


class TestReplicate:
    def test_counts_and_box(self):
        s = lattice_system("fcc", a=2.0, reps=(1, 1, 1))
        r = replicate(s, 2, 3, 4)
        assert r.natoms == s.natoms * 24
        assert np.allclose(r.box.lengths, s.box.lengths * [2, 3, 4])

    def test_density_preserved(self):
        s = lattice_system("diamond", a=3.567, reps=(1, 1, 1))
        r = replicate(s, 3, 3, 3)
        assert r.density() == pytest.approx(s.density())

    def test_velocities_copied(self, rng):
        s = lattice_system("sc", a=2.0, reps=(2, 2, 2))
        s.seed_velocities(100.0, rng=rng)
        r = replicate(s, 2, 1, 1)
        assert np.allclose(r.velocities[:s.natoms], s.velocities)
        assert np.allclose(r.velocities[s.natoms:], s.velocities)

    def test_bad_reps(self):
        s = lattice_system("sc", a=2.0)
        with pytest.raises(ValueError):
            replicate(s, 0, 1, 1)


def _all_pairs_random_packed(natoms, density, min_dist, seed, max_tries=2000):
    """The all-pairs sequential addition ``random_packed`` ran before it
    binned the placed atoms: kept as the oracle of its decisions."""
    from repro.md import Box

    l = (natoms / density) ** (1.0 / 3.0)
    box = Box.cubic(l)
    if min_dist is None:
        min_dist = 0.8 * (1.0 / density) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)
    positions = np.empty((natoms, 3))
    for i in range(natoms):
        for _ in range(max_tries):
            cand = rng.uniform(0, l, size=3)
            if i == 0:
                break
            dr = box.minimum_image(positions[:i] - cand)
            if np.min(np.sum(dr * dr, axis=1)) >= min_dist * min_dist:
                break
        else:
            raise RuntimeError(f"could not place atom {i}")
        positions[i] = cand
    return positions


class TestRandomPacked:
    @pytest.mark.parametrize("natoms", [1, 2, 64, 500])
    @pytest.mark.parametrize("density", [0.02, 0.1, 0.23])
    def test_binned_equals_all_pairs_bitwise(self, natoms, density):
        # same draws, same accept / reject decisions: the same bits.
        # None is the default core (0.8 of the ideal spacing, ~13 draws
        # per atom); 0.84 is close enough to jamming for ~100 rejected
        # draws per late atom (small N only: it is slow); 0.3 gives
        # more than three cells even at N = 64
        spacing = (1.0 / density) ** (1.0 / 3.0)
        for seed, min_dist in ((0, None), (1, 0.84 * spacing),
                               (2, 0.3 * spacing)):
            if natoms > 64 and seed == 1:
                continue
            got = random_packed(natoms, density=density, min_dist=min_dist,
                                seed=seed, max_tries=20000)
            ref = _all_pairs_random_packed(natoms, density, min_dist, seed,
                                           max_tries=20000)
            assert got.positions.tobytes() == ref.tobytes()

    def test_impossible_packing_fails_on_the_same_atom(self):
        for natoms in (20, 200):  # all-atoms branch and binned branch
            kw = dict(density=1.0, min_dist=1.05, seed=4, max_tries=50)
            with pytest.raises(RuntimeError, match="could not place atom") \
                    as binned:
                random_packed(natoms, **kw)
            with pytest.raises(RuntimeError) as ref:
                _all_pairs_random_packed(natoms, kw["density"],
                                         kw["min_dist"], 4, max_tries=50)
            assert str(ref.value) in str(binned.value)

    def test_density(self):
        s = random_packed(100, density=0.1, seed=1)
        assert s.density() == pytest.approx(0.1)

    def test_min_distance_respected(self):
        s = random_packed(150, density=0.1, min_dist=1.2, seed=2)
        nbr = build_pairs(s.positions, s.box, 1.2)
        assert nbr.npairs == 0

    def test_reproducible(self):
        a = random_packed(50, density=0.05, seed=3)
        b = random_packed(50, density=0.05, seed=3)
        assert np.allclose(a.positions, b.positions)

    def test_impossible_density_raises(self):
        with pytest.raises(RuntimeError):
            random_packed(64, density=2.0, min_dist=2.0, max_tries=10)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_packed(0)
        with pytest.raises(ValueError):
            random_packed(5, density=-1.0)


class TestMeltQuench:
    def test_produces_disordered_sample(self):
        from repro.potentials import LennardJones

        pot = LennardJones(epsilon=0.1, sigma=1.2, cutoff=3.0)
        s = melt_quench(pot, natoms=64, density=0.2, melt_steps=30,
                        quench_steps=30, dt=1e-3, seed=4)
        assert s.natoms == 64
        # positions moved off the initial random packing but stay in box
        assert np.all(s.positions >= 0) and np.all(s.positions <= s.box.lengths)
