"""Halo (ghost-atom) exchange for the domain-decomposed driver.

Every rank needs, in addition to the atoms it owns, copies of all atoms
within the interaction cutoff of its subdomain boundary ("halo exchange
regions" in the paper).  :func:`build_halos` constructs those ghost
sets - including the periodic image shifts - and returns the traffic
ledger (atoms and bytes moved per rank) that feeds both the Fig. 4
breakdown measurement and the communication performance model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import DomainGrid

__all__ = ["Halo", "build_halos", "BYTES_PER_GHOST", "BYTES_PER_POSITION"]

#: position (3 doubles) + global id; what a halo exchange ships per atom.
BYTES_PER_GHOST = 3 * 8 + 8
#: position (or force) refresh of an already-established ghost: 3 doubles.
BYTES_PER_POSITION = 3 * 8


@dataclass
class Halo:
    """Ghost atoms of one rank."""

    #: global indices of the ghost atoms
    indices: np.ndarray
    #: ghost positions (periodic shifts already applied)
    positions: np.ndarray
    #: rank that owns each ghost (message accounting)
    source_rank: np.ndarray

    @property
    def count(self) -> int:
        return self.indices.shape[0]

    @property
    def bytes(self) -> int:
        return self.count * BYTES_PER_GHOST


def build_halos(grid: DomainGrid, positions: np.ndarray, owner: np.ndarray,
                cutoff: float) -> list[Halo]:
    """Ghost sets for every rank.

    A single pass over the 26 image shifts classifies every atom into
    the ranks whose (cutoff-expanded) subdomain it touches.  Requires
    subdomains at least as large as the cutoff along periodic axes, the
    same constraint real LAMMPS decompositions satisfy at scale.
    """
    box = grid.box
    sub = grid.subdomain_lengths
    for k in range(3):
        if grid.dims[k] > 1 and sub[k] < cutoff:
            raise ValueError(
                f"subdomain length {sub[k]:.3f} along axis {k} is below the "
                f"cutoff {cutoff:.3f}; use fewer ranks or a larger box")
    for k in range(3):
        if box.periodic[k] and sub[k] < cutoff:
            raise ValueError(
                f"periodic subdomain length {sub[k]:.3f} along axis {k} is "
                f"below the cutoff {cutoff:.3f}")
    pos = box.wrap(positions)
    dims = np.array(grid.dims)
    nranks = grid.nranks
    ghost_idx: list[list[np.ndarray]] = [[] for _ in range(nranks)]
    ghost_pos: list[list[np.ndarray]] = [[] for _ in range(nranks)]
    ghost_src: list[list[np.ndarray]] = [[] for _ in range(nranks)]

    lo = (pos / sub).astype(int)
    lo = np.minimum(lo, dims - 1)
    # Which neighboring subdomains does each atom's cutoff ball touch?
    rel = pos - lo * sub
    near_lo = rel < cutoff          # touches cell on the lower side
    near_hi = (sub - rel) < cutoff  # touches cell on the upper side

    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                d = np.array([dx, dy, dz])
                mask = np.ones(pos.shape[0], dtype=bool)
                for k in range(3):
                    if d[k] == -1:
                        mask &= near_lo[:, k]
                    elif d[k] == 1:
                        mask &= near_hi[:, k]
                    if d[k] != 0 and grid.dims[k] == 1 and not box.periodic[k]:
                        mask &= False  # open boundary: no neighbor domain
                atoms = np.nonzero(mask)[0]
                if atoms.size == 0:
                    continue
                target_coords = lo[atoms] + d
                wrap = np.floor_divide(target_coords, dims)
                target = grid.rank_of_coords(target_coords)
                shift = -wrap * box.lengths  # ghost appears shifted into target frame
                shifted = pos[atoms] + shift
                # group by target rank
                order = np.argsort(target, kind="stable")
                t_sorted = target[order]
                bounds = np.searchsorted(t_sorted, np.arange(nranks + 1))
                for rk in np.unique(t_sorted):
                    sl = slice(bounds[rk], bounds[rk + 1])
                    sel = order[sl]
                    ghost_idx[rk].append(atoms[sel])
                    ghost_pos[rk].append(shifted[sel])
                    ghost_src[rk].append(owner[atoms[sel]])

    halos = []
    for rk in range(nranks):
        if ghost_idx[rk]:
            idx = np.concatenate(ghost_idx[rk])
            gpos = np.concatenate(ghost_pos[rk])
            src = np.concatenate(ghost_src[rk])
            # an atom can enter via several shifts only with distinct images;
            # deduplicate exact duplicates (same atom, same image)
            key = np.round(np.column_stack([idx[:, None], gpos]), 9)
            _, uniq = np.unique(key, axis=0, return_index=True)
            uniq.sort()
            halos.append(Halo(indices=idx[uniq], positions=gpos[uniq],
                              source_rank=src[uniq]))
        else:
            halos.append(Halo(indices=np.zeros(0, dtype=np.intp),
                              positions=np.zeros((0, 3)),
                              source_rank=np.zeros(0, dtype=np.intp)))
    return halos
