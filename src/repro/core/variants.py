"""The TestSNAP optimization ladder (source Figs. 2-3, "no silver bullet").

The kernel paper documents a sequence of restructurings from the 2012
baseline to the production kernel.  We reproduce the ladder's *shape*
in NumPy - each rung is a complete, correct implementation, and
:func:`grind_times` reports grind time relative to the baseline:

``listing1_baseline``
    The original algorithm (Listing 1): per-atom loop; Clebsch-Gordan
    products ``Z`` and descriptor gradients ``dB`` computed and stored
    (O(J^5) + O(J^3 N_nbor) memory per atom).
``listing2_staged``
    Listing 2: the computation broken into per-stage sweeps that store
    intermediates for all atoms (the refactor that enabled per-kernel
    tuning on GPUs, at the cost of natoms x memory).
``listing5_adjoint``
    The adjoint refactorization (Listing 5) still with the per-atom
    outer loop (the "V1 atom-loop" stage): ``Y`` replaces ``Z``/``dB``,
    cutting memory and the force complexity from O(J^5 N_nbor) to
    O(J^3 N_nbor) per atom.
``vectorized``
    The first vectorized kernel: all loops pushed into array operations
    (the NumPy analog of mapping loops onto GPU thread hierarchies);
    per-layer einsum contractions and ``np.add.at`` force scatters.
``vectorized_chunked``
    The vectorized kernel with pair chunking: bounds intermediate memory
    by recomputing ``U`` per chunk (the kernel-fusion/recompute trade).
``current``
    The production hot path (``SNAP.compute``): layer-major half-plane
    Wigner recursion without coefficient arrays, density, ``Y`` and one
    adjoint sweep fused per atom-range chunk, so each pair's layers are
    built once and swept while hot (no stored ``dU``, no recompute),
    segment-reduced (``np.add.reduceat``) accumulation.  As in TestSNAP,
    a rung replaces the one before: the kernels this one superseded are
    history (EXPERIMENTS), not entries.

All rungs produce identical energies and forces; the agreement test is
part of the suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .baseline import reference_energy_forces
from .snap import SNAP, EnergyForces, NeighborBatch

__all__ = ["VARIANTS", "run_variant", "grind_times", "VariantTiming"]


def _listing1(snap: SNAP, natoms: int, nbr: NeighborBatch) -> EnergyForces:
    return reference_energy_forces(snap, natoms, nbr)


def _listing2_staged(snap: SNAP, natoms: int, nbr: NeighborBatch) -> EnergyForces:
    """Listing 2: the same math split into per-stage sweeps over atoms.

    Every stage stores its outputs for *all* atoms before the next stage
    starts (the paper: "every data structure now has an additional
    dimension to reference individual atoms ... increases memory
    requirements by a factor of the number of atoms").  On a CPU this
    buys little speed - the point of the rung is the memory/structure
    change that later enabled the GPU kernels.
    """
    from .baseline import _atom_b_db, _atom_u_du

    if nbr.j_idx is None:
        raise ValueError("NeighborBatch.j_idx is required for forces")
    ptr = np.searchsorted(nbr.i_idx, np.arange(natoms + 1))
    # stage 1: U and dU for all atoms, stored
    u_store, du_store = [], []
    for i in range(natoms):
        sl = slice(ptr[i], ptr[i + 1])
        utot, dutot = _atom_u_du(snap, nbr, sl)
        u_store.append(utot)
        du_store.append(dutot)
    # stage 2: B and dB for all atoms, stored
    b_store, db_store = [], []
    for i in range(natoms):
        b, db = _atom_b_db(snap, u_store[i], du_store[i])
        b_store.append(b)
        db_store.append(db)
    # stage 3: update forces
    beta = snap.beta
    peratom = np.zeros(natoms)
    forces = np.zeros((natoms, 3))
    virial = np.zeros((3, 3))
    for i in range(natoms):
        sl = slice(ptr[i], ptr[i + 1])
        peratom[i] = beta[0] + (b_store[i] - snap.bzero_shift) @ beta[1:]
        dedr = np.einsum("kcl,l->kc", db_store[i], beta[1:])
        forces[i] += dedr.sum(axis=0)
        np.add.at(forces, nbr.j_idx[sl], -dedr)
        virial -= nbr.rij[sl].T @ dedr
    return EnergyForces(energy=float(peratom.sum()), peratom=peratom,
                        forces=forces, virial=virial)


def _listing5_adjoint_impl(snap: SNAP, natoms: int, nbr: NeighborBatch) -> EnergyForces:
    """Adjoint math with the per-atom outer loop (Listing 5 / V1)."""
    from .switching import sfac_dsfac
    from .wigner import cayley_klein, compute_du_layers, flatten_dlayers, flatten_layers

    ptr = np.searchsorted(nbr.i_idx, np.arange(natoms + 1))
    p = snap.params
    peratom = np.zeros(natoms)
    forces = np.zeros((natoms, 3))
    virial = np.zeros((3, 3))
    for i in range(natoms):
        sl = slice(ptr[i], ptr[i + 1])
        nn = sl.stop - sl.start
        sub = NeighborBatch(i_idx=np.zeros(nn, dtype=np.intp),
                            rij=nbr.rij[sl], r=nbr.r[sl])
        utot = snap.compute_utot(1, sub)
        pa, y_half = snap._peratom_and_y(utot)
        y = snap._expand_y_half(y_half.T)
        peratom[i] = pa[0]
        if nn == 0:
            continue
        ck = cayley_klein(nbr.rij[sl], nbr.r[sl], p.rcut, p.rfac0, p.rmin0)
        u_layers, du_layers = compute_du_layers(ck, p.twojmax)
        u = flatten_layers(u_layers)
        du = flatten_dlayers(du_layers)
        sfac, dsfac = sfac_dsfac(nbr.r[sl], p.rcut, p.rmin0, switch=p.switch)
        uhat = nbr.rij[sl] / nbr.r[sl][:, None]
        dutot = du * sfac[:, None, None] + \
            u[:, None, :] * (dsfac[:, None] * uhat)[:, :, None]
        dedr = np.einsum("u,pcu->pc", y[0].real, dutot.real) + \
            np.einsum("u,pcu->pc", y[0].imag, dutot.imag)
        forces[i] += dedr.sum(axis=0)
        np.add.at(forces, nbr.j_idx[sl], -dedr)
        virial -= nbr.rij[sl].T @ dedr
    return EnergyForces(energy=float(peratom.sum()), peratom=peratom,
                        forces=forces, virial=virial)


def _legacy_forces_from_y(snap: SNAP, natoms: int, nbr: NeighborBatch,
                          y: np.ndarray, chunk: int | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """The pre-fusion force pass, preserved as a ladder rung.

    Takes the full-plane ``Y``.  Pair-major forward-mode Wigner gradient
    recursion (``dU`` stored for all three directions) recomputed per
    chunk (``params.chunk`` unless given), per-layer einsum
    contractions on strided real/imaginary views, and ``np.add.at``
    scatter adds for both force sides - the hot path this repo shipped
    before the fused pipeline replaced it, and the forward-mode
    reference the adjoint sweep is tested against.
    """
    from .switching import sfac_dsfac
    from .wigner import cayley_klein, compute_du_layers

    p = snap.params
    forces = np.zeros((natoms, 3))
    virial = np.zeros((3, 3))
    if nbr.j_idx is None:
        raise ValueError("NeighborBatch.j_idx is required for forces")
    idx = snap.index
    chunk = chunk or p.chunk
    for lo in range(0, nbr.npairs, chunk):
        sl = slice(lo, min(lo + chunk, nbr.npairs))
        rij, r = nbr.rij[sl], nbr.r[sl]
        rcut, wj, r_eff = snap._pair_params(nbr, sl)
        ck = cayley_klein(rij, r_eff, rcut, p.rfac0, p.rmin0)
        u_layers, du_layers = compute_du_layers(ck, p.twojmax)
        sfac, dsfac = sfac_dsfac(r, rcut, p.rmin0, wj=wj, switch=p.switch)
        uhat = rij / r[:, None]
        yp = y[nbr.i_idx[sl]]
        npc = r.shape[0]
        radial = np.zeros(npc)
        dedr = np.zeros((npc, 3))
        for j, (uj, duj) in enumerate(zip(u_layers, du_layers)):
            yj = yp[:, idx.layer_slice(j)].reshape(npc, j + 1, j + 1)
            radial += np.einsum("pab,pab->p", yj.real, uj.real) + \
                np.einsum("pab,pab->p", yj.imag, uj.imag)
            dedr += np.einsum("pab,pcab->pc", yj.real, duj.real) + \
                np.einsum("pab,pcab->pc", yj.imag, duj.imag)
        dedr = dedr * sfac[:, None] + (dsfac * radial)[:, None] * uhat
        np.add.at(forces, nbr.i_idx[sl], dedr)
        np.add.at(forces, nbr.j_idx[sl], -dedr)
        virial -= rij.T @ dedr
    return forces, virial


def _legacy_compute(snap: SNAP, natoms: int, nbr: NeighborBatch,
                    chunk: int | None = None) -> EnergyForces:
    """Full evaluation through the preserved pre-fusion force pass."""
    utot = snap.compute_utot(natoms, nbr)
    peratom, y_half = snap._peratom_and_y(utot)
    forces, virial = _legacy_forces_from_y(
        snap, natoms, nbr, snap._expand_y_half(y_half.T), chunk)
    return EnergyForces(energy=float(peratom.sum()), peratom=peratom,
                        forces=forces, virial=virial)


def _vectorized(snap: SNAP, natoms: int, nbr: NeighborBatch) -> EnergyForces:
    """Pre-fusion force pass with an effectively unbounded chunk."""
    return _legacy_compute(snap, natoms, nbr, chunk=max(nbr.npairs, 1))


def _vectorized_chunked(snap: SNAP, natoms: int, nbr: NeighborBatch) -> EnergyForces:
    return _legacy_compute(snap, natoms, nbr)


#: ordered ladder, baseline first (the paper's Figs. 2-3 x-axis).
VARIANTS = {
    "listing1_baseline": _listing1,
    "listing2_staged": _listing2_staged,
    "listing5_adjoint": _listing5_adjoint_impl,
    "vectorized": _vectorized,
    "vectorized_chunked": _vectorized_chunked,
    "current": SNAP.compute,
}


def run_variant(name: str, snap: SNAP, natoms: int, nbr: NeighborBatch) -> EnergyForces:
    """Evaluate one ladder rung by name."""
    try:
        fn = VARIANTS[name]
    except KeyError:
        raise KeyError(f"unknown variant {name!r}; options: {list(VARIANTS)}") from None
    return fn(snap, natoms, nbr)


@dataclass
class VariantTiming:
    name: str
    seconds: float
    grind_time_per_atom: float
    speedup_vs_baseline: float


def grind_times(snap: SNAP, natoms: int, nbr: NeighborBatch,
                repeats: int = 1) -> list[VariantTiming]:
    """Measure grind time of every rung on the same problem.

    Also asserts all rungs agree with the baseline to 1e-8, so the
    timing cannot silently drift from correctness.
    """
    ref = None
    out = []
    base_time = None
    for name, fn in VARIANTS.items():
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = fn(snap, natoms, nbr)
            best = min(best, time.perf_counter() - t0)
        if ref is None:
            ref = res
            base_time = best
        else:
            if not np.allclose(res.forces, ref.forces, atol=1e-8):
                raise AssertionError(f"variant {name} disagrees with baseline")
        out.append(VariantTiming(name=name, seconds=best,
                                 grind_time_per_atom=best / natoms,
                                 speedup_vs_baseline=base_time / best))
    return out
