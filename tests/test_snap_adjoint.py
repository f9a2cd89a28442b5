"""The adjoint pair-gradient sweep and the half-plane density pass.

The force pass carries the adjoint of the Wigner recursion downwards
(two complex scalars per pair) instead of three Cartesian tangents
upwards; the density pass builds only the columns ``mb <= j/2``.  Both
are checked against the pair-major forward-mode code kept in
``repro.core.variants`` / ``repro.core.wigner`` for that purpose.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import (fd_forces_fixed_topology, free_cluster_pairs,
                      random_cluster, staged_dedr)
from repro.core import SNAP, NeighborBatch, SNAPParams
from repro.core.indexing import SNAPIndex
from repro.core.snap import update_forces
from repro.core.switching import sfac_dsfac
from repro.core.variants import _legacy_forces_from_y
from repro.core.wigner import cayley_klein, compute_u_layers, flatten_layers

RCUT = 3.0


def _problem(twojmax, overrides, **params):
    rng = np.random.default_rng(100 + twojmax)
    pos = random_cluster(rng, natoms=5, span=3.5)
    nbr = free_cluster_pairs(pos, RCUT)
    if overrides:
        nbr = NeighborBatch(
            i_idx=nbr.i_idx, rij=nbr.rij, r=nbr.r, j_idx=nbr.j_idx,
            pair_weight=rng.uniform(0.5, 1.5, nbr.npairs),
            pair_rcut=rng.uniform(2.0, 2.9, nbr.npairs))
    beta = rng.normal(size=SNAPIndex(twojmax).ncoeff)

    snap = SNAP(SNAPParams(twojmax=twojmax, rcut=RCUT, chunk=8, **params),
                beta=beta)
    return pos, nbr, snap


@pytest.mark.parametrize("overrides", [False, True],
                         ids=["single", "overrides"])
@pytest.mark.parametrize("rmin0", [0.0, 0.3])
@pytest.mark.parametrize("switch", [True, False])
@pytest.mark.parametrize("twojmax", [0, 1, 2, 3, 4, 5, 8])
def test_sweep_matches_forward_mode_and_fd(twojmax, switch, rmin0, overrides):
    # odd and even top layers exercise both spill-column cases
    pos, nbr, snap = _problem(twojmax, overrides, switch=switch, rmin0=rmin0)
    natoms = pos.shape[0]
    utot = snap.compute_utot(natoms, nbr)
    peratom, y_half = snap._peratom_and_y(utot)
    res = update_forces(natoms, nbr, peratom, staged_dedr(snap, nbr, y_half))
    forces, virial = res.forces, res.virial
    ref_f, ref_v = _legacy_forces_from_y(snap, natoms, nbr,
                                         snap._expand_y_half(y_half.T))
    scale = max(np.abs(ref_f).max(), 1e-300)
    assert np.abs(forces - ref_f).max() <= 1e-12 * scale
    assert np.abs(virial - ref_v).max() <= 1e-12 * max(np.abs(ref_v).max(),
                                                       1e-300)
    fd = fd_forces_fixed_topology(snap, pos, nbr)
    assert np.allclose(forces, fd, atol=5e-6 * max(1.0, scale))


# (ids kept: the suite's floor names them) the axis that was the deleted
# store/recompute mode is the chunk target: whole list / one row per chunk
@pytest.mark.parametrize("chunk", [pytest.param(4096, id="always"),
                                   pytest.param(1, id="never")])
def test_no_pairs_and_pair_at_cutoff_give_zeros(chunk):
    snap = SNAP(SNAPParams(twojmax=4, rcut=RCUT, chunk=chunk),
                beta=np.random.default_rng(3).normal(
                    size=SNAPIndex(4).ncoeff))
    z = np.zeros(0, dtype=np.intp)
    empty = NeighborBatch(i_idx=z, rij=np.zeros((0, 3)), r=np.zeros(0),
                          j_idx=z)
    assert snap.pair_gradients(empty, (0, 2))[1].shape == (0, 3)
    rij = np.array([[1.2, 0.3, 0.8], [0.0, 0.0, 2.5]])
    r = np.linalg.norm(rij, axis=1)
    nbr = NeighborBatch(i_idx=np.zeros(2, dtype=np.intp), rij=rij, r=r,
                        j_idx=np.array([1, 2]),
                        pair_rcut=np.array([RCUT, r[1]]))
    _, dedr = snap.pair_gradients(nbr, (0, 3))
    assert np.all(dedr[1] == 0.0)
    assert np.any(dedr[0] != 0.0)


@pytest.mark.parametrize("overrides", [False, True],
                         ids=["single", "overrides"])
@pytest.mark.parametrize("twojmax", [0, 1, 2, 3, 4, 5, 8])
def test_half_plane_utot_matches_full_plane_reference(twojmax, overrides):
    pos, nbr, snap = _problem(twojmax, overrides, rmin0=0.3)
    p = snap.params
    natoms = pos.shape[0]
    rcut, wj, r_eff = snap._pair_params(nbr, slice(None))
    ck = cayley_klein(nbr.rij, r_eff, rcut, p.rfac0, p.rmin0)
    sfac, _ = sfac_dsfac(nbr.r, rcut, p.rmin0, wj=wj)
    ref = np.zeros((natoms, snap.index.nu), dtype=np.complex128)
    ref[:, snap.index.diagonal_indices()] = p.wself
    np.add.at(ref, nbr.i_idx,
              sfac[:, None] * flatten_layers(compute_u_layers(ck, twojmax)))
    utot = snap.compute_utot(natoms, nbr)
    assert np.abs(utot - ref).max() <= 1e-13 * np.abs(ref).max()
    for j in range(twojmax + 1):
        uj = utot[:, snap.index.layer_slice(j)].reshape(natoms, j + 1, j + 1)
        m = np.arange(j + 1)
        phase = (-1.0) ** (m[:, None] + m[None, :])
        mirror = phase * np.conj(uj[:, ::-1, ::-1])
        right = slice(j // 2 + 1, j + 1)
        assert np.array_equal(uj[:, :, right], mirror[:, :, right])


def test_force_pass_allocation_guard():
    # One fused pass over a 4096-pair chunk at 2J=8 - the chunk's layers,
    # its atoms' U_tot and Y and the sweep's adjoints included - must
    # stay below 3.5 half-plane pair buffers (measured 3.0; the separate
    # force pass it replaced measured 2.9 by itself); re-materialising a
    # per-direction gradient tensor costs 3 more and trips this.
    rng = np.random.default_rng(5)
    npairs, natoms = 4096, 160
    rij = rng.normal(size=(npairs, 3))
    rij *= (rng.uniform(1.0, 2.9, npairs)
            / np.linalg.norm(rij, axis=1))[:, None]
    nbr = NeighborBatch(i_idx=np.sort(rng.integers(0, natoms, npairs)),
                        rij=rij, r=np.linalg.norm(rij, axis=1),
                        j_idx=rng.integers(0, natoms, npairs))
    snap = SNAP(SNAPParams(twojmax=8, rcut=RCUT, chunk=4096))
    tracemalloc.start()
    try:
        snap.pair_gradients(nbr, (0, natoms))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * snap._nu_half * npairs * 16


def _old_fold_y(snap, y):
    """The per-atom fold the force pass ran before the packed hand-off
    (deleted from ``SNAP``; kept here as the comparison's other side):
    ``Yf[ma, mb] = conj(Y[ma, mb]) + (-1)^(ma+mb) Y[j-ma, j-mb]``, middle
    column of even layers halved."""
    n = y.shape[0]
    out = np.empty((n, snap._nu_half), dtype=np.complex128)
    for j in range(snap.params.twojmax + 1):
        ncol = j // 2 + 1
        yj = y[:, snap.index.layer_slice(j)].reshape(n, j + 1, j + 1)
        ma = np.arange(j + 1)
        phase = (-1.0) ** (ma[:, None] + ma[None, :ncol])
        o = out[:, snap._half_slices[j]].reshape(n, j + 1, ncol)
        np.conjugate(yj[:, :, :ncol], out=o)
        o += phase * yj[:, ::-1, ::-1][:, :, :ncol]
        if j % 2 == 0:
            o[:, :, -1] *= 0.5
    return out


@pytest.mark.parametrize("twojmax", [0, 1, 2, 5, 8])
def test_mirror_weights_are_the_old_expand_then_fold(twojmax):
    # fold(expand(Y_half)) = w * conj(Y_half), w = 2 or 1 on the
    # self-mirrored middle column of even j: bitwise, given a middle
    # column that carries the layer symmetry exactly (the old fold
    # averaged it with its mirror image)
    snap = SNAP(SNAPParams(twojmax=twojmax, rcut=RCUT))
    rng = np.random.default_rng(twojmax)
    n = 7
    y_half = (rng.normal(size=(n, snap._nu_half))
              + 1j * rng.normal(size=(n, snap._nu_half)))
    for j in range(0, twojmax + 1, 2):
        mid = y_half[:, snap._half_slices[j]].reshape(n, j + 1, -1)[:, :, -1]
        ma = np.arange(j + 1)
        mid[:] = 0.5 * (mid + (-1.0) ** (ma + j // 2) * np.conj(mid[:, ::-1]))
    new = snap._w_half * np.conj(y_half)
    old = _old_fold_y(snap, snap._expand_y_half(y_half))
    assert np.array_equal(new, old)
    # the half plane the kernel itself produces has that symmetry to
    # rounding: the weights it hands the sweep moved by an ulp, not more
    pos, nbr, ksnap = _problem(twojmax, False)
    _, y = ksnap._peratom_and_y(ksnap.compute_utot(pos.shape[0], nbr))
    new = ksnap._w_half * np.conj(y.T)
    old = _old_fold_y(ksnap, ksnap._expand_y_half(y.T))
    assert np.abs(new - old).max() <= 4e-16 * max(np.abs(old).max(), 1e-300)


def test_fd_forces_at_2j14():
    # the largest scale constant in use (D up to 59): 16 atoms
    rng = np.random.default_rng(14)
    pos = random_cluster(rng, natoms=16, span=4.5)
    nbr = free_cluster_pairs(pos, RCUT)
    snap = SNAP(SNAPParams(twojmax=14, rcut=RCUT),
                beta=0.01 * rng.normal(size=SNAPIndex(14).ncoeff))
    out = snap.compute(16, nbr)
    fd = fd_forces_fixed_topology(snap, pos, nbr)
    scale = np.abs(out.forces).max()
    assert scale > 1e-3
    assert np.abs(out.forces - fd).max() <= 2e-6 * max(1.0, scale)


@pytest.mark.parametrize("twojmax", [2, 5, 8])
def test_listing1_oracle_to_1e12(twojmax):
    from repro.core.baseline import reference_energy_forces

    pos, nbr, snap = _problem(twojmax, True, rmin0=0.3)
    n = pos.shape[0]
    out = snap.compute(n, nbr)
    ref = reference_energy_forces(snap, n, nbr)
    for got, want in ((out.peratom, ref.peratom), (out.forces, ref.forces),
                      (out.virial, ref.virial)):
        assert np.abs(got - want).max() <= 1e-12 * max(1.0,
                                                       np.abs(want).max())
