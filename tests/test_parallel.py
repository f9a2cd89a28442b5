"""Tests for the rank grid, halo construction, row partition and shared blocks."""

import numpy as np
import pytest

from repro.md import Box, build_pairs
from repro.parallel import (DomainGrid, SharedBlock, best_grid, build_halos,
                            row_partition)


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

    def test_rank_ids_are_c_order_grid_coordinates(self):
        grid = DomainGrid(box=Box.cubic(10.0), dims=(2, 3, 4))
        coords = np.array(np.unravel_index(np.arange(24), grid.dims)).T
        assert np.array_equal(grid.rank_of_coords(coords), np.arange(24))


class TestHalos:
    def test_coverage_property(self, rng):
        """Every atom within the cutoff of a foreign subdomain must be in
        that subdomain's halo (with the right image position)."""
        box = Box.cubic(16.0)
        pos = rng.uniform(0, 16, size=(120, 3))
        grid = DomainGrid(box=box, dims=(2, 2, 2))
        owner = grid.assign_atoms(pos)
        cutoff = 2.5
        halos = build_halos(grid, pos, cutoff)
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
        halos = build_halos(grid, pos, 2.0)
        for h in halos:
            assert h.bytes == h.count * 32

    def test_cutoff_too_large(self, rng):
        box = Box.cubic(8.0)
        grid = DomainGrid(box=box, dims=(4, 1, 1))
        pos = rng.uniform(0, 8, size=(20, 3))
        with pytest.raises(ValueError):
            build_halos(grid, pos, 3.0)


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
