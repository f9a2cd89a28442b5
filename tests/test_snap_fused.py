"""Fused SNAP hot path: one kernel, any schedule.

The evaluator builds each pair's layers once per evaluation and runs
density, ``Y`` and the adjoint sweep chunk by chunk against them (there
is no stored-U cache and no separate force pass); its only policy is the
chunk target.  The contract is exact: forces match the Listing-1
reference to 1e-10, the fused pass equals the staged one bit for bit,
and every chunk length, atom block and product-column chunk is bitwise
identical to every other (same arithmetic, different schedule).
"""

import ast
import dataclasses
import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (fd_forces_fixed_topology, free_cluster_pairs,
                      random_cluster, staged_dedr)
from repro.core import SNAP, NeighborBatch, SNAPParams
from repro.core.baseline import (reference_descriptors,
                                 reference_energy_forces)
from repro.core.indexing import SNAPIndex


def _snap(rng, twojmax, **kw):
    params = SNAPParams(twojmax=twojmax, rcut=3.0, chunk=kw.pop("chunk", 32), **kw)
    return SNAP(params, beta=rng.normal(size=SNAPIndex(twojmax).ncoeff))


@pytest.fixture
def cluster(rng):
    pos = random_cluster(rng, natoms=6, span=4.0)
    return pos, free_cluster_pairs(pos, 3.0)


# (ids kept: the suite's floor names these tests) the axis that carried
# the deleted store/recompute mode is the chunk target now - whole list
# in one chunk, one atom row per chunk, the fixtures' old 32
_CHUNK_AXIS = [pytest.param(4096, id="always"), pytest.param(1, id="never"),
               pytest.param(32, id="auto")]


class TestStoreUParity:
    """(class name kept) schedule parity of the one recomputing kernel."""

    @pytest.mark.parametrize("twojmax", [4, 6, 8])
    @pytest.mark.parametrize("chunk", _CHUNK_AXIS[:2])
    def test_matches_reference(self, rng, cluster, twojmax, chunk):
        pos, nbr = cluster
        snap = _snap(rng, twojmax, chunk=chunk)
        out = snap.compute(pos.shape[0], nbr)
        ref = reference_energy_forces(snap, pos.shape[0], nbr)
        assert out.energy == pytest.approx(ref.energy, abs=1e-10)
        assert np.allclose(out.forces, ref.forces, atol=1e-10)
        assert np.allclose(out.virial, ref.virial, atol=1e-10)

    def test_invalid_mode_rejected(self):
        # the store/recompute knob is gone, not merely ignored
        for gone in ({"store_u": "never"}, {"store_u_budget_mb": 1.0}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                SNAPParams(twojmax=4, rcut=3.0, **gone)
        with pytest.raises(ValueError, match="y_mode"):
            SNAPParams(twojmax=4, rcut=3.0, y_mode="csr")
        with pytest.raises(ValueError, match="'dense' or 'sparse'"):
            SNAPParams(twojmax=4, rcut=3.0, y_mode="auto")
        for chunk in ("big", "auto", True, 0, 4096.0):
            with pytest.raises(ValueError, match="chunk must be a positive "
                                                 "integer"):
                SNAPParams(twojmax=4, rcut=3.0, chunk=chunk)
        params = SNAPParams(twojmax=4, rcut=3.0, chunk=np.int64(4096))
        assert params.chunk == 4096 and type(params.chunk) is int

    def test_dedr_independent_of_chunk_grid(self, rng, monkeypatch):
        # (name kept) chunks hold whole atom rows, so every stage output
        # - not only the per-pair dedr - is bitwise independent of the
        # chunk length, and stage 2 of where the product-column edges
        # fall.  11 crowded atoms (rows of up to 10 pairs, longer than
        # chunk 1 and 7) plus one with no neighbours at all
        pos = np.vstack([random_cluster(rng, natoms=11, span=3.0),
                         [[40.0, 40.0, 40.0]]])
        n = pos.shape[0]
        nbr = free_cluster_pairs(pos, 3.0)
        rows = np.bincount(nbr.i_idx, minlength=n)
        assert rows.max() > 7 and rows[-1] == 0
        results, nchunks = [], []
        for chunk, scratch in ((1, None), (7, None), (64, None),
                               (4096, None), (7, 1 << 12), (64, 1 << 30)):
            if scratch is not None:
                monkeypatch.setattr(SNAP, "_GATHER_SCRATCH_BYTES", scratch)
            snap = _snap(np.random.default_rng(1), 5, chunk=chunk)
            sizes = [sl.stop - sl.start
                     for _, _, sl, _, _ in snap._density_chunks(n, nbr)]
            assert sum(sizes) == nbr.npairs
            if chunk == 1:  # one atom per chunk, the pair-less one too
                assert sizes == rows.tolist()
            utot = snap.compute_utot(n, nbr)
            _, y = snap._peratom_and_y(utot)
            out = snap.compute(n, nbr)
            results.append((utot, y, *snap.pair_gradients(nbr, (0, n)),
                            np.array(out.energy), out.forces))
            nchunks.append(len(snap._plan["y_op"]))
        # the two patched byte bounds cut the products one column per
        # chunk and all columns in one; the shipped bound lies between
        assert nchunks[4] > nchunks[3] > nchunks[5] == 1
        for got in results[1:]:
            for a, b in zip(got, results[0]):
                assert np.array_equal(a, b)
        none = NeighborBatch(i_idx=np.zeros(0, dtype=np.intp),
                             rij=np.zeros((0, 3)), r=np.zeros(0))
        assert list(snap._density_chunks(0, none)) == []
        # a row slice of the list yields the rows the full list yields
        lo = int(np.searchsorted(nbr.i_idx, 4))
        tail = NeighborBatch(i_idx=nbr.i_idx[lo:] - 4, rij=nbr.rij[lo:],
                             r=nbr.r[lo:], j_idx=nbr.j_idx[lo:])
        snap = _snap(np.random.default_rng(1), 5, chunk=7)
        assert np.array_equal(snap.compute_utot(n - 4, tail),
                              results[0][0][4:])

    def test_unsorted_list_is_sorted_on_entry(self, rng, cluster):
        # stable-sorted by central atom once on entry, dedr handed back
        # in the caller's pair order: the same physics as the sorted list
        # and the oracle (which only takes sorted lists), up to the order
        # of each atom's neighbour sum
        pos, nbr = cluster
        n = pos.shape[0]
        perm = rng.permutation(nbr.npairs)
        mixed = NeighborBatch(i_idx=nbr.i_idx[perm], rij=nbr.rij[perm],
                              r=nbr.r[perm], j_idx=nbr.j_idx[perm],
                              pair_weight=rng.uniform(0.5, 1.5, nbr.npairs),
                              pair_rcut=rng.uniform(2.5, 2.9, nbr.npairs))
        assert np.any(np.diff(mixed.i_idx) < 0)
        back = np.argsort(perm)
        tidy = NeighborBatch(i_idx=nbr.i_idx, rij=nbr.rij, r=nbr.r,
                             j_idx=nbr.j_idx,
                             pair_weight=mixed.pair_weight[back],
                             pair_rcut=mixed.pair_rcut[back])
        snap = _snap(np.random.default_rng(1), 5, chunk=7)
        pa, dedr = snap.pair_gradients(mixed, (0, n))
        pa_sorted, dedr_sorted = snap.pair_gradients(tidy, (0, n))
        assert np.allclose(pa, pa_sorted, rtol=0, atol=1e-12)
        assert np.allclose(dedr, dedr_sorted[perm], rtol=0, atol=1e-12)
        got = snap.compute(n, mixed)
        ref = _assert_matches_oracle(snap, n, tidy)
        assert np.allclose(got.forces, ref.forces, rtol=0, atol=1e-12)
        assert np.allclose(got.peratom, ref.peratom, rtol=0, atol=1e-12)
        assert np.allclose(got.virial, ref.virial, rtol=0, atol=1e-11)
        assert np.allclose(snap.compute_utot(n, mixed),
                           snap.compute_utot(n, tidy), rtol=0, atol=1e-13)


def _assert_matches_oracle(snap, n, nbr, tol=1e-12):
    """Energy, per-atom, forces, virial and descriptors of ``snap``
    against the Listing-1 oracle (dense einsums over stored Z and dB,
    no code shared with the sparse contraction)."""
    out = snap.compute(n, nbr)
    ref = reference_energy_forces(snap, n, nbr)
    assert out.energy == pytest.approx(ref.energy, rel=tol, abs=tol)
    assert np.allclose(out.peratom, ref.peratom, atol=tol, rtol=tol)
    assert np.allclose(out.forces, ref.forces, atol=tol, rtol=tol)
    assert np.allclose(out.virial, ref.virial, atol=10 * tol, rtol=10 * tol)
    assert np.allclose(snap.compute_descriptors(n, nbr),
                       reference_descriptors(snap, n, nbr),
                       atol=tol, rtol=tol)
    return out


class TestSparseY:
    """The one sparse-CG Z contraction against the Listing-1 oracle.

    ``y_mode`` no longer selects anything (both values run this
    contraction), so the independent check is
    :mod:`repro.core.baseline`, not the other mode.
    """

    @pytest.mark.parametrize("twojmax", [4, 6, 8])
    @pytest.mark.parametrize("chunk", _CHUNK_AXIS)
    def test_matches_fused(self, rng, cluster, twojmax, chunk):
        pos, nbr = cluster
        n = pos.shape[0]
        beta = rng.normal(size=SNAPIndex(twojmax).ncoeff)
        out = {}
        for y_mode in ("dense", "sparse"):
            snap = SNAP(SNAPParams(twojmax=twojmax, rcut=3.0, chunk=chunk,
                                   y_mode=y_mode), beta=beta)
            out[y_mode] = _assert_matches_oracle(snap, n, nbr)
        assert np.array_equal(out["dense"].forces, out["sparse"].forces)
        assert out["dense"].energy == out["sparse"].energy

    def test_variant_rung_registered(self):
        # rungs replace one another: the production kernel is one entry,
        # the last, whatever it superseded (sparse_y, fused, stored_u)
        from repro.core.variants import VARIANTS

        names = list(VARIANTS)
        assert names[-1] == "current"
        assert not {"sparse_y", "fused", "stored_u"} & set(names)

    def test_sparse_descriptors_and_quadratic(self, rng, cluster):
        # quadratic SNAP: B from the canonical Z rows, then Y from all
        # rows weighted by the per-atom beta + Q B, off one gather
        pos, nbr = cluster
        nb = SNAPIndex(4).nb
        snap = SNAP(SNAPParams(twojmax=4, rcut=3.0, chunk=32),
                    beta=rng.normal(size=nb + 1),
                    quadratic=0.1 * rng.normal(size=(nb, nb)))
        _assert_matches_oracle(snap, pos.shape[0], nbr)

    def test_bzero_shift_and_model(self, rng, cluster):
        pos, nbr = cluster
        n = pos.shape[0]
        nb = SNAPIndex(4).nb
        beta = rng.normal(size=nb + 1)
        params = SNAPParams(twojmax=4, rcut=3.0, chunk=32)
        empty = NeighborBatch(i_idx=np.zeros(0, dtype=np.intp),
                              rij=np.zeros((0, 3)), r=np.zeros(0),
                              j_idx=np.zeros(0, dtype=np.intp))
        lone = reference_descriptors(SNAP(params, beta=beta), 1, empty)[0]
        for quad in (None, 0.1 * rng.normal(size=(nb, nb))):
            snap = SNAP(params, beta=beta, bzero=True, quadratic=quad)
            assert np.allclose(snap.bzero_shift, lone, atol=1e-12, rtol=1e-12)
            assert snap.compute(1, empty).energy == pytest.approx(beta[0])
            _assert_matches_oracle(snap, n, nbr)

    def test_pair_overrides_match_oracle(self, rng, cluster):
        pos, nbr = cluster
        nb = SNAPIndex(4).nb
        nbr2 = NeighborBatch(
            i_idx=nbr.i_idx, rij=nbr.rij, r=nbr.r, j_idx=nbr.j_idx,
            pair_weight=rng.uniform(0.5, 1.5, nbr.npairs),
            pair_rcut=rng.uniform(2.0, 2.9, nbr.npairs))
        for quad in (None, 0.1 * rng.normal(size=(nb, nb))):
            snap = SNAP(SNAPParams(twojmax=4, rcut=3.0, chunk=32),
                        beta=rng.normal(size=nb + 1), quadratic=quad)
            _assert_matches_oracle(snap, pos.shape[0], nbr2)

    def test_zero_coefficients(self, rng, cluster):
        # a zero beta drops its triples from the folded operator (they
        # stay in the unfolded one); all-zero beta leaves it empty
        pos, nbr = cluster
        n = pos.shape[0]
        nb = SNAPIndex(6).nb
        params = SNAPParams(twojmax=6, rcut=3.0, chunk=32)
        beta = rng.normal(size=nb + 1)
        beta[1 + rng.choice(nb, size=nb // 2, replace=False)] = 0.0
        full = SNAP(params)
        some = SNAP(params, beta=beta)
        def nnz(snap, op):
            return sum(part.nnz for part in snap._plan[op])
        assert 0 < nnz(some, "y_op") < nnz(full, "y_op")
        assert nnz(some, "z_op") == nnz(full, "z_op")
        _assert_matches_oracle(some, n, nbr)
        beta0 = np.zeros(nb + 1)
        beta0[0] = 0.7
        none = SNAP(params, beta=beta0)
        assert nnz(none, "y_op") == 0
        out = _assert_matches_oracle(none, n, nbr)
        assert np.all(out.forces == 0.0) and np.all(out.peratom == 0.7)

    def test_sparse_empty_neighbor_list(self, rng):
        snap = _snap(rng, 4)
        empty = NeighborBatch(i_idx=np.zeros(0, dtype=np.intp),
                              rij=np.zeros((0, 3)), r=np.zeros(0),
                              j_idx=np.zeros(0, dtype=np.intp))
        out = snap.compute(3, empty)
        assert np.all(out.forces == 0.0)
        assert np.isfinite(out.energy)

    @pytest.mark.parametrize("quadratic", [False, True])
    def test_block_size_changes_nothing(self, rng, quadratic):
        # every stage-2 quantity is per atom column: Y, B and forces are
        # bitwise equal for any block, natoms a multiple of it or not.
        # At 2J=2 the product columns come one per chunk, where a
        # one-atom block rounded its products differently (by up to
        # 1.8e-15) until it ran as two copies of its column
        pos = random_cluster(rng, natoms=11, span=5.0)
        nbr = free_cluster_pairs(pos, 3.0)
        for twojmax in (4, 2):
            nb = SNAPIndex(twojmax).nb
            snap = SNAP(SNAPParams(twojmax=twojmax, rcut=3.0, chunk=32),
                        beta=rng.normal(size=nb + 1),
                        quadratic=0.1 * rng.normal(size=(nb, nb))
                        if quadratic else None)
            assert (int(np.diff(snap._plan["edges"]).max()) == 1) \
                == (twojmax == 2)
            utot = snap.compute_utot(11, nbr)
            results = []
            for block in (11, 1, 2, 4, 64):
                snap._plan["block"] = block
                pa, y = snap._peratom_and_y(utot)
                results.append((pa, y, snap.compute_descriptors(11, nbr),
                                snap.compute(11, nbr).forces))
            for other in results[1:]:
                for a, b in zip(results[0], other):
                    assert np.array_equal(a, b)

    def test_gather_scratch_is_bounded_in_bytes(self):
        # the products are walked in column chunks, so the two gather
        # arrays stay under one byte constant at any 2J (64 atoms at
        # 2J=14 was 606 MB whole, 28 MB per atom block before the column
        # chunks); the atom block still comes from nuniq
        for twojmax in (2, 8, 14):
            plan = SNAP(SNAPParams(twojmax=twojmax, rcut=3.0))._plan
            edges, block = plan["edges"], plan["block"]
            assert block >= 1 and edges[0] == 0 and edges[-1] == plan["nuniq"]
            assert 2 * 16 * plan["nuniq"] * block <= SNAP._PRODUCT_SET_BYTES
            cols = int(np.diff(edges).max())
            assert 2 * 16 * cols * block <= SNAP._GATHER_SCRATCH_BYTES
            if len(edges) > 2:  # as wide as the bound allows
                assert 2 * 16 * (cols + 1) * block > SNAP._GATHER_SCRATCH_BYTES
            for op in ("y_op", "zb_op", "z_op"):
                assert [p.shape[1] for p in plan[op]] == np.diff(edges).tolist()
                # the sum order of a row is its column order
                assert all(p.has_sorted_indices for p in plan[op])
        assert plan["nuniq"] == 296163 and plan["block"] == 3

    def test_stage2_scratch_stays_under_its_bound_at_2j14(self):
        # measured, not derived: Y of 128 atoms at 2J=14 allocates its
        # output, one block's accumulator and the two gather arrays -
        # nothing that grows with the 296 163 products
        snap = SNAP(SNAPParams(twojmax=14, rcut=3.0))
        rng = np.random.default_rng(2)
        utot = (rng.normal(size=(128, snap.index.nu))
                + 1j * rng.normal(size=(128, snap.index.nu)))
        y_bytes = 16 * snap._nu_half * 128
        tracemalloc.start()
        try:
            snap._linear_y_half(utot)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < y_bytes + SNAP._GATHER_SCRATCH_BYTES + (1 << 20)

    def test_sparse_cg_structure(self):
        # entries enumerate exactly the nonzero CG products of the
        # half-plane tensor, sorted by output with segment boundaries
        from repro.core.cg import cg_sparse, cg_tensor

        for (j1, j2, j) in ((2, 2, 4), (4, 2, 2), (6, 4, 8)):
            sp = cg_sparse(j1, j2, j)
            h = cg_tensor(j1, j2, j)
            ncol = j // 2 + 1
            nnz_expected = np.count_nonzero(h) * \
                np.count_nonzero(h[:, :, :ncol])
            assert sp.nnz == nnz_expected
            assert sp.dense_size == (j1 + 1) * (j2 + 1) * (j + 1) * ncol
            assert sp.shape == (j + 1, ncol)
            # reconstruct one output element by brute force
            out_full = np.repeat(sp.out_index,
                                 np.diff(np.r_[sp.seg_starts, sp.nnz]))
            target = sp.out_index[0]
            ma, mb = divmod(int(target), ncol)
            acc = 0.0
            for k in np.nonzero(out_full == target)[0]:
                ma1, mb1 = divmod(int(sp.idx1[k]), j1 + 1)
                ma2, mb2 = divmod(int(sp.idx2[k]), j2 + 1)
                assert sp.value[k] == pytest.approx(
                    h[ma1, ma2, ma] * h[mb1, mb2, mb])
                acc += sp.value[k]
            assert np.isfinite(acc)
            # sorted by output index, deterministic reduction order
            assert np.all(np.diff(sp.out_index) > 0)
            assert not sp.value.flags.writeable

    def test_yi_flop_model(self):
        from repro.core.flops import yi_contraction_model

        m = yi_contraction_model(8)
        assert 0.0 < m["cg_density"] < 1.0
        assert m["sparse_flops"] < m["dense_flops"]
        assert m["theoretical_speedup"] == pytest.approx(
            1.0 / m["cg_density"])
        # selection rules bite harder as J grows
        assert yi_contraction_model(8)["cg_density"] < \
            yi_contraction_model(2)["cg_density"]


def test_one_contraction_census():
    """Neither the second Z implementation nor the buffered gather
    comes back unnoticed."""
    import repro
    from repro.core import snap as snap_module

    source = inspect.getsource(snap_module)
    for gemm in ("np.tensordot", "np.matmul", "hm_left", "hm_right_half",
                 "_B_Y_BLOCK", "_compute_b_y"):
        assert gemm not in source
    # the triple cache holds scalars and the shared cg_sparse lists: no
    # per-triple reshaped CG copies for a GEMM to consume
    for t in SNAP(SNAPParams(twojmax=4, rcut=3.0))._triple_cache:
        assert sorted(t) == ["b_index", "j", "j1", "j2", "sparse",
                             "y_b_index", "y_factor"]
        assert not any(isinstance(v, np.ndarray) for v in t.values())
    # np.take(..., out=) without mode= buffers the whole output ("raise")
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "attr", None) == "take":
                names = {kw.arg for kw in node.keywords}
                assert "out" not in names or "mode" in names, \
                    f"{path}:{node.lineno}: np.take(out=) without mode="


class TestPairOverrides:
    def test_pair_weight_and_rcut(self, rng, cluster):
        pos, nbr = cluster
        snap = _snap(rng, 4)
        wrng = np.random.default_rng(7)
        nbr2 = NeighborBatch(
            i_idx=nbr.i_idx, rij=nbr.rij, r=nbr.r, j_idx=nbr.j_idx,
            pair_weight=wrng.uniform(0.5, 1.5, nbr.npairs),
            pair_rcut=wrng.uniform(2.0, 2.9, nbr.npairs))
        out = snap.compute(pos.shape[0], nbr2)
        fd = fd_forces_fixed_topology(snap, pos, nbr2)
        assert np.allclose(out.forces, fd, atol=1e-5)
        # any chunking agrees bitwise with overrides too
        out2 = SNAP(dataclasses.replace(snap.params, chunk=1),
                    beta=snap.beta).compute(pos.shape[0], nbr2)
        assert np.array_equal(out.forces, out2.forces)

    def test_pair_at_exact_cutoff(self, rng):
        # regression: r == pair_rcut must give a finite, exactly-zero
        # contribution (the Cayley-Klein map diverges at rcut; the clamp
        # plus fc(rcut) = 0 must keep the pair inert)
        rij = np.array([[1.2, 0.3, 0.8], [0.0, 0.0, 2.5]])
        r = np.linalg.norm(rij, axis=1)
        pr = np.array([3.0, r[1]])  # second pair sits exactly at its rcut
        nbr = NeighborBatch(i_idx=np.zeros(2, dtype=np.intp), rij=rij, r=r,
                            j_idx=np.array([1, 2]), pair_rcut=pr)
        only = NeighborBatch(i_idx=np.zeros(1, dtype=np.intp), rij=rij[:1],
                             r=r[:1], j_idx=np.array([1]),
                             pair_rcut=np.array([3.0]))
        snap = _snap(np.random.default_rng(3), 4)
        out = snap.compute(3, nbr)
        ref = snap.compute(3, only)
        assert np.all(np.isfinite(out.forces))
        assert np.allclose(out.forces[:2], ref.forces[:2], atol=1e-12)
        assert np.allclose(out.forces[2], 0.0, atol=1e-12)


class TestEmptyAndEdgeCases:
    def test_empty_neighbor_list(self, rng):
        snap = _snap(rng, 4)
        empty = NeighborBatch(i_idx=np.zeros(0, dtype=np.intp),
                              rij=np.zeros((0, 3)), r=np.zeros(0),
                              j_idx=np.zeros(0, dtype=np.intp))
        out = snap.compute(3, empty)
        assert np.all(out.forces == 0.0)
        assert np.all(out.virial == 0.0)
        assert np.isfinite(out.energy)

    def test_j_idx_shape_validated(self):
        with pytest.raises(ValueError, match="j_idx"):
            NeighborBatch(i_idx=np.zeros(3, dtype=np.intp),
                          rij=np.zeros((3, 3)), r=np.ones(3),
                          j_idx=np.zeros(2, dtype=np.intp))



class TestSeededRecursionEdgeCases:
    """What seeding the recursion with ``sfac`` must not break."""

    def test_pair_beyond_its_own_cutoff_is_exactly_inert(self, rng, cluster):
        # sfac = dsfac = 0 seeds all-zero layers: the pair adds exact
        # zeros to U_tot, dedr and the virial (nothing divides by sfac),
        # and the sanitizer sees nothing non-finite on the way
        pos, nbr = cluster
        n = pos.shape[0]
        far = nbr.r > np.median(nbr.r)
        assert far.any() and not far.all()
        pair_rcut = np.where(far, 0.9 * nbr.r, 3.0)
        weight = rng.uniform(0.5, 1.5, nbr.npairs)
        with_far = NeighborBatch(i_idx=nbr.i_idx, rij=nbr.rij, r=nbr.r,
                                 j_idx=nbr.j_idx, pair_weight=weight,
                                 pair_rcut=pair_rcut)
        near = NeighborBatch(i_idx=nbr.i_idx[~far], rij=nbr.rij[~far],
                             r=nbr.r[~far], j_idx=nbr.j_idx[~far],
                             pair_weight=weight[~far],
                             pair_rcut=pair_rcut[~far])
        snap = _snap(rng, 6, check_finite=True)
        _, layers, dsfac = snap._pair_terms(with_far, slice(None))
        for v in layers:  # what the pair adds to U_tot
            assert np.all(v[:, :, far] == 0.0)
            assert np.all(np.isfinite(v))
        assert np.all(dsfac[far] == 0.0)
        utot = snap.compute_utot(n, with_far)
        _, y = snap._peratom_and_y(utot)
        _, dedr = snap.pair_gradients(with_far, (0, n))
        assert np.all(dedr[far] == 0.0)  # and with it rij (x) dedr
        assert np.array_equal(dedr[~far], staged_dedr(snap, near, y))
        # against the list without those pairs: equal up to where the
        # exact zeros sit in each atom's segment sum (reduceat adds the
        # first element to the sum of the rest)
        got, ref = snap.compute(n, with_far), snap.compute(n, near)
        assert np.allclose(utot, snap.compute_utot(n, near),
                           rtol=0, atol=1e-14)
        assert np.allclose(got.forces, ref.forces, rtol=0, atol=1e-12)
        assert np.allclose(got.virial, ref.virial, rtol=0, atol=1e-12)
        assert got.energy == pytest.approx(ref.energy, abs=1e-12)

    @pytest.mark.parametrize("kw", [dict(switch=False), dict(wself=0.7),
                                    dict(rmin0=0.25)],
                             ids=["noswitch", "wself", "rmin0"])
    @pytest.mark.parametrize("quadratic", [False, True],
                             ids=["linear", "quadratic"])
    def test_physics_fields_against_the_oracle(self, rng, cluster, kw,
                                               quadratic):
        pos, nbr = cluster
        nb = SNAPIndex(5).nb
        for bzero in (False, True):
            snap = SNAP(SNAPParams(twojmax=5, rcut=3.0, chunk=7, **kw),
                        beta=rng.normal(size=nb + 1), bzero=bzero,
                        quadratic=0.1 * rng.normal(size=(nb, nb))
                        if quadratic else None)
            _assert_matches_oracle(snap, pos.shape[0], nbr)

    def test_atom_without_neighbours(self, rng, cluster):
        # its row of U_tot is the self term, its energy the lone-atom
        # energy, its force zero; the others do not notice it
        pos, nbr = cluster
        n = pos.shape[0]
        snap = _snap(rng, 4)
        out = snap.compute(n + 1, nbr)
        assert np.array_equal(out.forces[:n], snap.compute(n, nbr).forces)
        assert np.all(out.forces[n] == 0.0)
        lone = np.zeros(snap.index.nu, dtype=complex)
        lone[snap.index.diagonal_indices()] = snap.params.wself
        assert np.array_equal(snap.compute_utot(n + 1, nbr)[n], lone)
        empty = NeighborBatch(i_idx=np.zeros(0, dtype=np.intp),
                              rij=np.zeros((0, 3)), r=np.zeros(0),
                              j_idx=np.zeros(0, dtype=np.intp))
        assert out.peratom[n] == snap.compute(1, empty).peratom[0]

    def test_nothing_of_size_npairs_x_nu_half_is_alive(self):
        # the guard that replaces the store budget: the same 500 atoms
        # with 4x the pairs (cutoff x 4^(1/3)) at a fixed chunk.  The
        # traced peak of a whole evaluation grows only by its O(npairs)
        # outputs and index arrays (dedr, the j permutation and scatter
        # temporaries: measured 48 B a pair); one stored half plane of
        # layers would add 16 * nu_half = 2480 B a pair
        from repro.md import NeighborList
        from repro.structures import random_packed

        system = random_packed(500, density=0.1, seed=5, min_dist=1.2)

        def peak(rcut):
            snap = SNAP(SNAPParams(twojmax=8, rcut=rcut, chunk=1024))
            nbr = NeighborList(box=system.box, cutoff=rcut, skin=0.0).get(
                system.positions)
            snap.compute(500, nbr)  # warm: the list's j permutation
            tracemalloc.start()
            try:
                snap.compute(500, nbr)
                return tracemalloc.get_traced_memory()[1], nbr.npairs
            finally:
                tracemalloc.stop()
        small, npairs = peak(3.9)
        large, npairs4 = peak(3.9 * 4 ** (1 / 3))
        assert 11_000 < npairs < 14_000 and npairs4 > 3.8 * npairs
        assert large - small < 128 * (npairs4 - npairs)


_MODELS = ("linear", "quadratic", "multispecies")


def _fused_problem(case):
    """A free cluster with pair-less atoms at ``case["lone"]`` and the
    SNAP of ``case["model"]``; multispecies rides per-pair weights and
    cutoffs ``(R_i + R_j) * 2.4`` of two elements."""
    rng = np.random.default_rng(case["seed"])
    n = case["natoms"]
    pos = random_cluster(rng, natoms=n, span=3.5)
    for k, a in enumerate(sorted(case["lone"])):
        pos[a] = [50.0 + 10.0 * k, 50.0, 50.0]
    nbr = free_cluster_pairs(pos, 3.0)
    tj = case["twojmax"]
    nb = SNAPIndex(tj).nb
    quad = (0.1 * rng.normal(size=(nb, nb))
            if case["model"] == "quadratic" else None)
    if case["model"] == "multispecies":
        types = rng.integers(0, 2, n)
        radius = np.array([0.5, 0.6])[types]
        nbr = NeighborBatch(
            i_idx=nbr.i_idx, rij=nbr.rij, r=nbr.r, j_idx=nbr.j_idx,
            pair_weight=np.array([1.0, 0.6])[types[nbr.j_idx]],
            pair_rcut=2.4 * (radius[nbr.i_idx] + radius[nbr.j_idx]))
    snap = SNAP(SNAPParams(twojmax=tj, rcut=3.0, chunk=case["chunk"]),
                beta=rng.normal(size=nb + 1), quadratic=quad)
    return snap, nbr


def _window(nbr, lo, hi):
    keep = (nbr.i_idx >= lo) & (nbr.i_idx < hi)
    return keep, NeighborBatch(
        i_idx=nbr.i_idx[keep], rij=nbr.rij[keep], r=nbr.r[keep],
        j_idx=nbr.j_idx[keep],
        **{name: None if getattr(nbr, name) is None
           else getattr(nbr, name)[keep]
           for name in ("pair_weight", "pair_rcut")})


@st.composite
def _fused_cases(draw):
    natoms = draw(st.integers(2, 12))
    lo = draw(st.integers(0, natoms - 1))
    return dict(
        twojmax=draw(st.sampled_from([2, 3, 4, 6])),
        chunk=draw(st.one_of(st.integers(1, 64), st.just(4096))),
        model=draw(st.sampled_from(_MODELS)),
        seed=draw(st.integers(0, 2 ** 32 - 1)), natoms=natoms,
        lone=draw(st.sets(st.integers(0, natoms - 1),
                          max_size=natoms // 2)),
        rows=(lo, draw(st.integers(lo + 1, natoms))))


class TestFusedPass:
    """``pair_gradients`` is the staged pipeline, chunk by chunk."""

    @settings(deadline=None, max_examples=40)
    @given(case=_fused_cases())
    # pair-less atoms starting a chunk, inside one and ending the last
    @example(case=dict(twojmax=2, chunk=3, model="linear", seed=1,
                       natoms=10, lone={0, 4, 9}, rows=(0, 10)))
    @example(case=dict(twojmax=4, chunk=5, model="quadratic", seed=2,
                       natoms=9, lone={2, 7, 8}, rows=(2, 9)))
    @example(case=dict(twojmax=3, chunk=1, model="multispecies", seed=3,
                       natoms=7, lone={3, 6}, rows=(1, 7)))
    def test_fused_equals_staged_bitwise(self, case):
        # compute_utot -> _peratom_and_y -> a separate sweep over a fixed
        # pair grid (conftest.staged_dedr) is what the fused pass
        # replaced; on a row window too, whose rows are the full list's
        snap, nbr = _fused_problem(case)
        lo, hi = case["rows"]
        keep, win = _window(nbr, lo, hi)
        pa, dedr = snap.pair_gradients(win, (lo, hi))
        local = dataclasses.replace(win, i_idx=win.i_idx - lo)
        pa_staged, y = snap._peratom_and_y(snap.compute_utot(hi - lo, local))
        assert np.array_equal(pa, pa_staged)
        assert np.array_equal(dedr, staged_dedr(snap, local, y))
        pa_full, dedr_full = snap.pair_gradients(nbr, (0, case["natoms"]))
        assert np.array_equal(pa, pa_full[lo:hi])
        assert np.array_equal(dedr, dedr_full[keep])

    def test_layers_built_once_per_chunk(self, monkeypatch):
        # the census of the fusion: one forward recursion per chunk with
        # pairs per evaluation, each pair in exactly one of them
        from repro.core import snap as snap_module

        calls = []
        real = snap_module.compute_u_layers_half_lm

        def counted(ck, twojmax, seed=1.0):
            calls.append(ck.a.shape[0])
            return real(ck, twojmax, seed)

        monkeypatch.setattr(snap_module, "compute_u_layers_half_lm", counted)
        case = dict(twojmax=4, chunk=9, model="linear", seed=5, natoms=12,
                    lone={0, 5, 11}, rows=(0, 12))
        snap, nbr = _fused_problem(case)
        chunks = [sl.stop - sl.start
                  for _, _, sl, _, _ in snap._density_chunks(12, nbr)]
        assert len(chunks) > 2
        for _ in range(2):
            calls.clear()
            snap.compute(12, nbr)
            assert calls == [k for k in chunks if k]
        assert sum(calls) == nbr.npairs


def test_kernel_policy_census():
    """The store/recompute knob, the coefficient arrays and the fold do
    not come back unnoticed."""
    import repro
    from repro.core import snap as snap_module
    from repro.core import wigner as wigner_module

    assert [f.name for f in dataclasses.fields(SNAPParams)] == [
        "twojmax", "rcut", "rfac0", "rmin0", "wself", "switch",  # physics
        "chunk", "check_finite", "y_mode"]
    assert SNAP.last_store_u is False
    assert "last_store_u" not in vars(SNAP(SNAPParams(twojmax=2, rcut=3.0)))
    assert list(inspect.signature(SNAP.compute_utot).parameters) \
        == ["self", "natoms", "nbr"]
    assert list(inspect.signature(SNAP.pair_gradients).parameters) \
        == ["self", "nbr", "rows"]
    root = Path(repro.__file__).parent
    for path in root.rglob("*.py"):
        text = path.read_text()
        assert "store_u" not in text.replace("last_store_u", ""), path
    for path in (root / "core").glob("*.py"):
        text = path.read_text()
        for gone in ("_recursion_coeffs", "_fold_y", "cache="):
            assert gone not in text, (path, gone)
    # one forward recursion, one sweep; the full-plane pair stays the oracle
    assert [n for n in vars(wigner_module)
            if n.startswith(("compute_", "adjoint_"))] == [
        "compute_u_layers", "compute_du_layers", "compute_u_layers_half_lm",
        "adjoint_sweep_half_lm"]
    assert "_product_blocks" in inspect.getsource(snap_module.SNAP._bispectrum)
