"""FLOP model of the SNAP force kernel.

The per-kernel floating-point operation counts follow the paper's
complexity table (per atom):

==============  ==================
compute_ui      O(J^3 N_nbor)
compute_yi      O(J^7)
compute_dui     O(J^3 N_nbor)
compute_deidrj  O(J^3 N_nbor)
==============  ==================

Counts are evaluated from the exact index enumerations (not asymptotics)
and scaled by one calibration constant chosen so that the paper's
measured production workload (2J=8, 26 neighbors) reproduces the FLOP
rate the authors report: 50.0 PFLOPS at 6.21 Matom-steps/node-s on 4650
nodes, i.e. **1.73 MFLOPs per atom-step**.
"""

from __future__ import annotations

from functools import lru_cache

from .indexing import SNAPIndex

__all__ = ["kernel_flops_per_atom", "flops_per_atom_step",
           "yi_contraction_model", "PAPER_FLOPS_PER_ATOM_STEP"]

#: 50.0e15 / (6.21e6 * 4650) - the paper's own accounting.
PAPER_FLOPS_PER_ATOM_STEP = 50.0e15 / (6.21e6 * 4650)

#: complex multiply-add = 8 flops
_CMA = 8.0


@lru_cache(maxsize=None)
def _raw_counts(twojmax: int) -> dict[str, float]:
    """Unscaled per-atom flop counts with N_nbor factored out where linear."""
    idx = SNAPIndex(twojmax)
    # ui: the recursion's 2 complex multiply-adds per full-plane U element
    # per pair (the paper's count; ours builds the half plane only).
    ui = 2.0 * _CMA * idx.nu
    # yi: per z-triple the CG contraction costs ~ d1*d2*dout element updates
    # (LAMMPS' na*nb inner loops summed over (ma, mb)); one CMA each.
    yi = 0.0
    for (j1, j2, j) in idx.z_triples:
        yi += _CMA * (j1 + 1) ** 2 * (j2 + 1) ** 2 * (j + 1) / max(j1 + j2, 1)
    # dui: 3 Cartesian components, ~4 CMAs per element per pair.
    dui = 3.0 * 4.0 * _CMA * idx.nu
    # deidrj: dot product of Y against dU per pair, 3 components.
    deidrj = 3.0 * _CMA * idx.nu
    return {"ui": ui, "yi": yi, "dui": dui, "deidrj": deidrj}


@lru_cache(maxsize=None)
def _calibration() -> float:
    raw = _raw_counts(8)
    per_atom = (raw["ui"] + raw["dui"] + raw["deidrj"]) * 26 + raw["yi"]
    return PAPER_FLOPS_PER_ATOM_STEP / per_atom


def kernel_flops_per_atom(twojmax: int, nnbor: float) -> dict[str, float]:
    """Calibrated per-atom flops for each kernel stage."""
    raw = _raw_counts(twojmax)
    c = _calibration()
    return {
        "ui": c * raw["ui"] * nnbor,
        "yi": c * raw["yi"],
        "dui": c * raw["dui"] * nnbor,
        "deidrj": c * raw["deidrj"] * nnbor,
    }


@lru_cache(maxsize=None)
def yi_contraction_model(twojmax: int) -> dict[str, float]:
    """Dense vs sparse cost of the Y (z-triple) contraction per atom.

    A dense contraction evaluates every half-plane inner product of the
    Clebsch-Gordan blocks (``SparseCGTriple.dense_size`` terms per
    triple); the shipped sparse one touches only the nonzero CG
    products (``nnz``).  ``cg_density`` is the measured nonzero fraction
    and ``theoretical_speedup`` its reciprocal.  The shipped kernel
    beats this number: its plan also deduplicates symmetric
    ``(i1, i2)`` products and its beta-folded rows skip
    zero-coefficient triples, neither of which the per-triple count
    models.
    """
    from .cg import cg_sparse

    idx = SNAPIndex(twojmax)
    nnz = 0
    dense = 0
    for (j1, j2, j) in idx.z_triples:
        sp = cg_sparse(j1, j2, j)
        nnz += sp.nnz
        dense += sp.dense_size
    return {
        "dense_flops": _CMA * dense,
        "sparse_flops": _CMA * nnz,
        "nnz": float(nnz),
        "dense_terms": float(dense),
        "cg_density": nnz / dense,
        "theoretical_speedup": dense / nnz,
    }


def flops_per_atom_step(twojmax: int = 8, nnbor: float = 26.0) -> float:
    """Total SNAP flops per atom per MD step.

    ``flops_per_atom_step(8, 26)`` equals the paper's 1.73 MFLOPs by
    construction; other ``(2J, N_nbor)`` combinations scale by the exact
    kernel enumerations.
    """
    return sum(kernel_flops_per_atom(twojmax, nnbor).values())
