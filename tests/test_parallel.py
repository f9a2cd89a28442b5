"""Tests for domain decomposition, halo exchange, distributed MD."""

import numpy as np
import pytest

from repro.core import SNAPParams
from repro.md import Box, MDLoop, ParticleSystem, build_engine, build_pairs
from repro.parallel import (DistributedEngine, DomainGrid, SharedBlock,
                            best_grid, build_halos, row_partition)
from repro.potentials import LennardJones, SNAPPotential, StillingerWeber
from repro.structures import lattice_system


class TestBestGrid:
    def test_paper_grid(self):
        # the paper: 27,900 ranks -> 30 x 30 x 31
        assert best_grid(27900) == (30, 30, 31)

    def test_cubes(self):
        assert best_grid(8) == (2, 2, 2)
        assert best_grid(27) == (3, 3, 3)

    def test_prime(self):
        assert sorted(best_grid(7)) == [1, 1, 7]

    def test_product_preserved(self):
        for n in (1, 6, 12, 30, 100, 4650):
            g = best_grid(n)
            assert g[0] * g[1] * g[2] == n

    def test_elongated_box_alignment(self):
        # more ranks along the long axis
        g = best_grid(4, box_lengths=np.array([40.0, 10.0, 10.0]))
        assert g[0] == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            best_grid(0)


class TestDomainGrid:
    def test_assign_atoms_in_bounds(self, rng):
        box = Box.cubic(12.0)
        grid = DomainGrid(box=box, dims=(2, 3, 2))
        owner = grid.assign_atoms(rng.uniform(-5, 20, size=(100, 3)))
        assert owner.min() >= 0 and owner.max() < 12

    def test_rank_coords_roundtrip(self):
        grid = DomainGrid(box=Box.cubic(10.0), dims=(2, 3, 4))
        for r in range(grid.nranks):
            c = grid.coords_of_rank(r)
            assert grid.rank_of_coords(np.array(c)) == r

    def test_neighbor_ranks_count(self):
        grid = DomainGrid(box=Box.cubic(10.0), dims=(3, 3, 3))
        nbrs = grid.neighbor_ranks(0)
        assert len(nbrs) == 26

    def test_neighbor_ranks_small_grid(self):
        grid = DomainGrid(box=Box.cubic(10.0), dims=(2, 2, 2))
        assert len(grid.neighbor_ranks(0)) == 7


class TestHalos:
    def test_coverage_property(self, rng):
        """Every atom within the cutoff of a foreign subdomain must be in
        that subdomain's halo (with the right image position)."""
        box = Box.cubic(16.0)
        pos = rng.uniform(0, 16, size=(120, 3))
        grid = DomainGrid(box=box, dims=(2, 2, 2))
        owner = grid.assign_atoms(pos)
        cutoff = 2.5
        halos = build_halos(grid, pos, owner, cutoff)
        nbr = build_pairs(pos, box, cutoff)
        for p in range(nbr.npairs):
            i, j = nbr.i_idx[p], nbr.j_idx[p]
            ri, rj = owner[i], owner[j]
            if ri == rj:
                continue
            # j must appear in rank ri's halo at the minimum-image position
            h = halos[ri]
            cand = np.nonzero(h.indices == j)[0]
            assert cand.size > 0, f"atom {j} missing from halo of rank {ri}"
            target = pos[i] + nbr.rij[p]
            ok = np.any(np.linalg.norm(h.positions[cand] - target, axis=1) < 1e-9)
            assert ok

    def test_bytes_accounting(self, rng):
        box = Box.cubic(16.0)
        pos = rng.uniform(0, 16, size=(50, 3))
        grid = DomainGrid(box=box, dims=(2, 1, 1))
        owner = grid.assign_atoms(pos)
        halos = build_halos(grid, pos, owner, 2.0)
        for h in halos:
            assert h.bytes == h.count * 32

    def test_cutoff_too_large(self, rng):
        box = Box.cubic(8.0)
        grid = DomainGrid(box=box, dims=(4, 1, 1))
        pos = rng.uniform(0, 8, size=(20, 3))
        with pytest.raises(ValueError):
            build_halos(grid, pos, grid.assign_atoms(pos), 3.0)


class TestDistributed:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 8])
    def test_lj_matches_serial(self, rng, nranks):
        s = lattice_system("fcc", a=2.5, reps=(5, 5, 5))
        s.positions = s.positions + rng.normal(scale=0.05, size=s.positions.shape)
        pot = LennardJones(epsilon=0.2, sigma=2.2, cutoff=3.0)
        nbr = build_pairs(s.positions, s.box, pot.cutoff)
        ref = pot.compute(s.natoms, nbr)
        res = DistributedEngine(s.copy(), pot, nranks).evaluate()
        assert res.energy == pytest.approx(ref.energy, abs=1e-9)
        assert np.allclose(res.forces, ref.forces, atol=1e-10)

    def test_sw_matches_serial(self, rng):
        s = lattice_system("diamond", a=3.57, reps=(4, 4, 4))
        s.positions = s.positions + rng.normal(scale=0.04, size=s.positions.shape)
        pot = StillingerWeber()
        nbr = build_pairs(s.positions, s.box, pot.cutoff)
        ref = pot.compute(s.natoms, nbr)
        res = DistributedEngine(s.copy(), pot, 8).evaluate()
        assert res.energy == pytest.approx(ref.energy, abs=1e-8)
        assert np.allclose(res.forces, ref.forces, atol=1e-9)

    def test_snap_matches_serial(self, rng):
        params = SNAPParams(twojmax=2, rcut=2.2)
        pot = SNAPPotential(params, beta=rng.normal(size=6))
        s = lattice_system("fcc", a=2.4, reps=(4, 4, 4))
        s.positions = s.positions + rng.normal(scale=0.03, size=s.positions.shape)
        nbr = build_pairs(s.positions, s.box, pot.cutoff)
        ref = pot.compute(s.natoms, nbr)
        res = DistributedEngine(s.copy(), pot, 4).evaluate()
        assert res.energy == pytest.approx(ref.energy, abs=1e-8)
        assert np.allclose(res.forces, ref.forces, atol=1e-9)

    def test_run_reports_traffic(self, rng):
        s = lattice_system("fcc", a=2.5, reps=(5, 5, 5))
        s.seed_velocities(50.0, rng=rng)
        pot = LennardJones(epsilon=0.2, sigma=2.2, cutoff=3.0)
        out = MDLoop(build_engine(s, pot, nranks=4), dt=1e-3).run(3)
        assert out.nranks == 4
        assert out.ghost_bytes_per_step > 0
        assert set(out.phase_fractions) >= {"comm", "force", "neigh"}

    def test_distributed_md_matches_serial_md(self, rng):
        s1 = lattice_system("fcc", a=2.5, reps=(5, 5, 5))
        s1.seed_velocities(40.0, rng=np.random.default_rng(5))
        s2 = s1.copy()
        pot = LennardJones(epsilon=0.2, sigma=2.2, cutoff=3.0)
        MDLoop(build_engine(s1, pot, skin=0.0), dt=1e-3).run(5)
        MDLoop(build_engine(s2, pot, nranks=8), dt=1e-3).run(5)
        # wrap both before comparing (distributed wraps internally)
        assert np.allclose(s1.box.wrap(s1.positions), s2.box.wrap(s2.positions),
                           atol=1e-8)

    def test_empty_rank_minimum_survives_later_rebuilds(self, rng):
        """An empty rank is a minimum of 0, not "unset": a later rebuild
        where every rank owns atoms must not overwrite it."""
        box = Box.cubic(24.0)
        pot = LennardJones(epsilon=0.2, sigma=2.2, cutoff=3.0)
        octant = ParticleSystem(positions=rng.uniform(1.0, 9.0, size=(12, 3)),
                                box=box)
        spread = ParticleSystem(positions=rng.uniform(0.0, 24.0, size=(64, 3)),
                                box=box)
        engine = DistributedEngine(octant, pot, 2)
        engine.evaluate()
        assert (engine.ledger.min_rank_atoms, engine.ledger.max_rank_atoms) \
            == (0, 12)
        engine.bind(spread)
        engine.evaluate()
        counts = np.bincount(engine.grid.assign_atoms(spread.positions),
                             minlength=2)
        assert counts.min() > 0 and engine.ledger.rebuilds == 2
        assert engine.ledger.min_rank_atoms == 0
        assert engine.ledger.max_rank_atoms == counts.max()


class TestRowPartition:
    def test_covers_all_atoms_contiguously(self):
        bounds = row_partition(103, 4)
        assert bounds[0] == 0 and bounds[-1] == 103
        sizes = np.diff(bounds)
        assert sizes.sum() == 103
        assert sizes.max() - sizes.min() <= 1

    def test_single_proc_owns_everything(self):
        assert list(row_partition(7, 1)) == [0, 7]

    def test_more_procs_than_atoms(self):
        bounds = row_partition(2, 5)
        assert bounds[-1] == 2
        assert (np.diff(bounds) >= 0).all()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            row_partition(-1, 2)
        with pytest.raises(ValueError):
            row_partition(10, 0)


class TestSharedBlock:
    def test_create_attach_roundtrip(self):
        owner = SharedBlock.create(None, (4, 3), np.float64)
        try:
            owner.array[...] = np.arange(12.0).reshape(4, 3)
            view = SharedBlock.attach(owner.name, (4, 3), np.float64)
            try:
                assert np.array_equal(view.array,
                                      np.arange(12.0).reshape(4, 3))
                view.array[2, 1] = -5.0
                assert owner.array[2, 1] == -5.0
            finally:
                view.close()
        finally:
            owner.close()

    def test_close_is_idempotent_and_unlinks(self):
        from multiprocessing import shared_memory

        block = SharedBlock.create(None, (8,), np.int64)
        name = block.name
        block.close()
        block.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
