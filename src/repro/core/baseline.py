"""Reference SNAP implementation (the paper's Listing 1).

This mirrors the *pre-refactor* algorithm: per atom, the Clebsch-Gordan
products ``Z`` are computed and **stored**, then per (atom, neighbor)
pair the descriptor gradients ``dB`` are computed and **stored**, and
forces are assembled last.  Storage is O(J^5) per atom for ``Z`` plus
O(J^3) per pair for ``dB`` - exactly the memory wall the paper's adjoint
refactorization removes.

It is deliberately direct: every derivative is an explicit contraction
of the defining expression

.. math::

    B_{j_1 j_2 j} = \\sum H H \\; U_{j_1} U_{j_2} U_j^*,

so it serves as an independent ground truth for the optimized adjoint
kernel (including the subtle role-permutation beta factors), and as the
"baseline" bar of the TestSNAP progress figures (E2/E3).
"""

from __future__ import annotations

import numpy as np

from .cg import cg_tensor
from .switching import sfac_dsfac
from .wigner import cayley_klein, compute_du_layers

__all__ = ["reference_energy_forces", "reference_descriptors", "descriptor_gradients"]


def _atom_ranges(i_idx: np.ndarray, natoms: int) -> np.ndarray:
    """CSR row pointer for pairs sorted by central atom."""
    if i_idx.size and np.any(np.diff(i_idx) < 0):
        raise ValueError("neighbor pairs must be sorted by central atom")
    return np.searchsorted(i_idx, np.arange(natoms + 1))


def _atom_u_du(snap, nbr, sl):
    """Per-neighbor U layers, total U layers and total dU layers for one atom.

    ``sl`` is the atom's pair slice of ``nbr`` (per-pair weights and
    cutoffs honored).  Returns ``(utot_layers, dutot_layers)`` where
    ``utot_layers[j]`` is ``(j+1, j+1)`` and ``dutot_layers[j]`` is
    ``(nn, 3, j+1, j+1)``: the derivative of the *accumulated* density
    w.r.t. each neighbor position (switching-function product rule
    included).
    """
    p = snap.params
    rij, r = nbr.rij[sl], nbr.r[sl]
    rcut, wj, r_eff = snap._pair_params(nbr, sl)
    ck = cayley_klein(rij, r_eff, rcut, p.rfac0, p.rmin0)
    u_layers, du_layers = compute_du_layers(ck, p.twojmax)
    sfac, dsfac = sfac_dsfac(r, rcut, p.rmin0, wj=wj, switch=p.switch)
    uhat = rij / r[:, None]
    utot_layers = []
    dutot_layers = []
    for j, (u, du) in enumerate(zip(u_layers, du_layers)):
        w = sfac[:, None, None]
        ut = (u * w).sum(axis=0)
        ut[np.diag_indices(j + 1)] += p.wself
        dut = du * sfac[:, None, None, None] + \
            u[:, None, :, :] * (dsfac[:, None] * uhat)[:, :, None, None]
        utot_layers.append(ut)
        dutot_layers.append(dut)
    return utot_layers, dutot_layers


def _atom_b_db(snap, utot_layers, dutot_layers):
    """Bispectrum vector and per-neighbor gradients for one atom.

    The gradients are the stored ``dBlist`` of Listing 1; the three terms
    differentiate each ``U`` factor of the triple product directly.
    """
    idx = snap.index
    nn = dutot_layers[0].shape[0]
    b = np.zeros(idx.nb)
    db = np.zeros((nn, 3, idx.nb))
    for (j1, j2, j) in idx.b_triples:
        h = cg_tensor(j1, j2, j)
        u1, u2 = utot_layers[j1], utot_layers[j2]
        u3c = np.conj(utot_layers[j])
        l = idx.b_index[(j1, j2, j)]
        # Z is formed and *stored* conceptually; here it is used twice.
        z = np.einsum("pqi,rsj,pr,qs->ij", h, h, u1, u2, optimize=True)
        b[l] = np.einsum("ij,ij->", z, u3c).real
        du1, du2, du3 = dutot_layers[j1], dutot_layers[j2], dutot_layers[j]
        t1 = np.einsum("pqi,rsj,kcpr,qs,ij->kc", h, h, du1, u2, u3c, optimize=True)
        t2 = np.einsum("pqi,rsj,pr,kcqs,ij->kc", h, h, u1, du2, u3c, optimize=True)
        t3 = np.einsum("ij,kcij->kc", z, np.conj(du3), optimize=True)
        db[:, :, l] = (t1 + t2 + t3).real
    return b, db


def reference_descriptors(snap, natoms: int, nbr) -> np.ndarray:
    """Per-atom bispectrum via the reference path (no gradients)."""
    ptr = _atom_ranges(nbr.i_idx, natoms)
    out = np.zeros((natoms, snap.index.nb))
    for i in range(natoms):
        sl = slice(ptr[i], ptr[i + 1])
        utot, dutot = _atom_u_du(snap, nbr, sl)
        out[i], _ = _atom_b_db(snap, utot, dutot)
    return out - snap.bzero_shift


def descriptor_gradients(snap, natoms: int, nbr) -> np.ndarray:
    """``dB_l(i)/dr_k`` for every pair, shape ``(npairs, 3, nb)``."""
    ptr = _atom_ranges(nbr.i_idx, natoms)
    out = np.zeros((nbr.npairs, 3, snap.index.nb))
    for i in range(natoms):
        sl = slice(ptr[i], ptr[i + 1])
        if sl.start == sl.stop:
            continue
        utot, dutot = _atom_u_du(snap, nbr, sl)
        _, db = _atom_b_db(snap, utot, dutot)
        out[sl] = db
    return out


def reference_energy_forces(snap, natoms: int, nbr):
    """Listing-1 evaluation: store Z and dB, then update forces.

    Ground truth for :meth:`repro.core.snap.SNAP.compute`; intended for
    small systems (cost and memory scale as the paper's Table of
    per-kernel complexities, dominated by the O(J^5 N_nbor) dB storage).
    """
    from .snap import EnergyForces

    if nbr.j_idx is None:
        raise ValueError("NeighborBatch.j_idx is required for forces")
    ptr = _atom_ranges(nbr.i_idx, natoms)
    beta = snap.beta
    peratom = np.zeros(natoms)
    forces = np.zeros((natoms, 3))
    virial = np.zeros((3, 3))
    for i in range(natoms):
        sl = slice(ptr[i], ptr[i + 1])
        utot, dutot = _atom_u_du(snap, nbr, sl)
        b, db = _atom_b_db(snap, utot, dutot)
        bc = b - snap.bzero_shift
        qb = 0.0 if snap.quadratic is None else snap.quadratic @ bc
        peratom[i] = beta[0] + bc @ (beta[1:] + 0.5 * qb)
        # dE_i/dr_k per neighbor
        dedr = np.einsum("kcl,l->kc", db, beta[1:] + qb)
        forces[i] += dedr.sum(axis=0)
        np.add.at(forces, nbr.j_idx[sl], -dedr)
        virial -= nbr.rij[sl].T @ dedr
    return EnergyForces(energy=float(peratom.sum()), peratom=peratom,
                        forces=forces, virial=virial)
