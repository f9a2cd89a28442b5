"""Tests for the SNAP FLOP model."""

import pytest

from repro.core.flops import (PAPER_FLOPS_PER_ATOM_STEP, flops_per_atom_step,
                              kernel_flops_per_atom)
from repro.core.indexing import SNAPIndex, enumerate_z_triples


class TestCalibration:
    def test_paper_anchor(self):
        # 50.0 PFLOPS / (6.21 Matom-steps/node-s * 4650 nodes)
        assert flops_per_atom_step(8, 26) == pytest.approx(
            PAPER_FLOPS_PER_ATOM_STEP, rel=1e-12)

    def test_paper_value_magnitude(self):
        assert PAPER_FLOPS_PER_ATOM_STEP == pytest.approx(1.73e6, rel=0.01)


class TestScaling:
    def test_grows_with_twojmax(self):
        assert flops_per_atom_step(14, 26) > flops_per_atom_step(8, 26) \
            > flops_per_atom_step(4, 26)

    def test_linear_in_neighbors_for_pair_kernels(self):
        k1 = kernel_flops_per_atom(8, 10)
        k2 = kernel_flops_per_atom(8, 20)
        for name in ("ui", "dui", "deidrj"):
            assert k2[name] == pytest.approx(2 * k1[name])
        # yi is neighbor independent (the adjoint refactorization's win)
        assert k2["yi"] == pytest.approx(k1["yi"])

    def test_yi_dominates_at_large_j_small_nbr(self):
        k = kernel_flops_per_atom(14, 4)
        assert k["yi"] > k["ui"]

    def test_kernel_partition(self):
        k = kernel_flops_per_atom(8, 26)
        assert sum(k.values()) == pytest.approx(flops_per_atom_step(8, 26))

    def test_superlinear_j_scaling_of_yi(self):
        # compute_yi is O(J^7): doubling J should grow it far more than 8x
        r = kernel_flops_per_atom(14, 26)["yi"] / kernel_flops_per_atom(7, 26)["yi"]
        assert r > 20.0

    def test_adjoint_storage_breaks_the_2j14_memory_wall(self):
        """TestSNAP Fig. 3: per atom the pre-adjoint algorithm stores the
        O(J^5) ``Z`` products plus ``dB`` per neighbour, the adjoint one
        only the O(J^3) ``Y`` (complex128 = 16 B, float64 = 8 B)."""
        def stored_bytes(twojmax, nnbor=26):
            idx = SNAPIndex(twojmax)
            zlist = 16 * sum((j + 1) ** 2
                             for _, _, j in enumerate_z_triples(twojmax))
            dblist = 8 * nnbor * 3 * idx.nb
            return zlist, dblist, 16 * idx.nu

        z14, db14, y14 = stored_bytes(14)
        assert (z14 + db14) / y14 > 30
        assert z14 > 10 * y14
        z8, db8, y8 = stored_bytes(8)
        assert (z14 + db14) / y14 > 1.5 * (z8 + db8) / y8
