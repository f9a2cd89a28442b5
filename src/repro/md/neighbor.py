"""Neighbor lists: linked cells with a Verlet skin.

``build_neighborlist`` is the paper's ``build_neighborlist()`` stage.
Two code paths share one contract (a full, both-directions pair list
sorted by central atom, exactly what :class:`repro.core.NeighborBatch`
expects):

* a vectorized **cell list** (O(N)) used whenever the box admits at
  least three cells per periodic axis, and
* a brute-force **image sweep** (O(27 N^2)) that remains correct for
  boxes smaller than twice the cutoff, where a single pair can interact
  through several periodic images (small training cells need this).

A Verlet skin lets the list persist across steps; rebuild is triggered
when any atom moved more than half the skin, the standard MD heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.snap import NeighborBatch
from .box import Box

__all__ = ["NeighborList", "build_pairs", "filter_pairs", "ragged_arange"]


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(c)`` for every count (vectorized)."""
    counts = np.asarray(counts, dtype=np.intp)
    if counts.size == 0 or counts.sum() == 0:
        return np.zeros(0, dtype=np.intp)
    ends = np.cumsum(counts)
    out = np.arange(ends[-1], dtype=np.intp)
    starts = ends - counts
    return out - np.repeat(starts, counts)


#: largest ``(images, N, N)`` distance table the small-box sweep forms in
#: one pass (32 MiB of float64); bigger systems go one x image at a time
_SWEEP_TABLE_ELEMS = 1 << 22


def _brute_force_pairs(positions: np.ndarray, box: Box, cutoff: float):
    """All pairs within cutoff including periodic images (small boxes).

    One pass over all 27 images: per axis a ``(nshift, N, N)`` table of
    ``(x_j + shift) - x_i`` is built once, ``d2`` of every image is
    their broadcast sum and a single ``flatnonzero`` emits the pairs in
    ``(sx, sy, sz, i, j)`` order.

    Callers hand in *unwrapped* coordinates (``MDLoop`` never wraps), so
    each ``x_j - x_i`` is first reduced by its whole-box count
    ``trunc(dx / L)`` and the +-1 sweep runs around that.  The count is
    zero for coordinates within one box length of each other, where the
    shifts are exactly ``s * L``.
    """
    # Enough images? require cutoff < smallest periodic box length so that
    # +-1 image sweeps suffice.
    for k in range(3):
        if box.periodic[k] and cutoff >= box.lengths[k] * 1.5:
            raise ValueError(
                f"cutoff {cutoff} too large for box length {box.lengths[k]}")
    n = positions.shape[0]
    comps, squares = [], []
    for k in range(3):
        x, length = positions[:, k], box.lengths[k]
        if box.periodic[k]:
            images = np.arange(-1.0, 2.0)[:, None, None]
            images = images - np.trunc((x[None, :] - x[:, None]) / length)
        else:
            images = np.zeros((1, 1, 1))
        comp = (x[None, None, :] + images * length) - x[None, :, None]
        comps.append(comp)
        squares.append(comp * comp)
    dx, dy, dz = comps
    dx2, dy2, dz2 = squares
    home = tuple(len(c) // 2 for c in comps)  # the zero-shift image
    nimg = len(dx) * len(dy) * len(dz)
    step = len(dx) if nimg * n * n <= _SWEEP_TABLE_ELEMS else 1
    found = []
    for x0 in range(0, len(dx), step):
        d2 = (dx2[x0:x0 + step, None, None] + dy2[None, :, None]) \
            + dz2[None, None, :]
        mask = d2 < cutoff * cutoff
        if x0 <= home[0] < x0 + step:
            np.fill_diagonal(mask[home[0] - x0, home[1], home[2]], False)
        # flat scan + unravel: the 5-d nonzero walks every index tuple
        sx, sy, sz, ii, jj = np.unravel_index(np.flatnonzero(mask),
                                              mask.shape)
        found.append((ii, jj, np.stack(
            [dx[sx + x0, ii, jj], dy[sy, ii, jj], dz[sz, ii, jj]], axis=1)))
    return tuple(np.concatenate(part) for part in zip(*found))


def _cell_pairs(positions: np.ndarray, box: Box, cutoff: float,
                rows: tuple[int, int] | None = None):
    """Linked-cell pair search; requires >= 3 cells per periodic axis.

    With ``rows=(lo, hi)`` only pairs whose *central* atom falls in that
    index window are emitted.  The cell structure is still built over
    all atoms and the per-offset emission order is unchanged, so the
    restricted lists of a disjoint row partition concatenate to exactly
    the full list (same pairs, same order) - the invariant the
    multiprocess row-slice backend relies on for bitwise parity.
    """
    n = positions.shape[0]
    ncell = np.maximum(np.floor(box.lengths / cutoff).astype(int), 1)
    pos = box.wrap(positions)
    coord = np.minimum((pos / (box.lengths / ncell)).astype(int), ncell - 1)
    ncx, ncy, ncz = ncell
    cid = (coord[:, 0] * ncy + coord[:, 1]) * ncz + coord[:, 2]
    order = np.argsort(cid, kind="stable")
    cid_sorted = cid[order]
    ncells = int(ncx * ncy * ncz)
    cell_ptr = np.searchsorted(cid_sorted, np.arange(ncells + 1))
    counts = np.diff(cell_ptr)

    rowmask = None
    if rows is not None:
        rowmask = np.zeros(n, dtype=bool)
        rowmask[rows[0]:rows[1]] = True
    i_list, j_list, rij_list = [], [], []
    offsets = np.array([(ox, oy, oz)
                        for ox in (-1, 0, 1) for oy in (-1, 0, 1) for oz in (-1, 0, 1)])
    pmask = box.pmask
    for off in offsets:
        nc = coord + off  # neighbor cell raw coords per atom
        wrapcnt = np.floor_divide(nc, ncell)  # image count per axis
        valid = np.ones(n, dtype=bool) if rowmask is None else rowmask.copy()
        for k in range(3):
            if not pmask[k]:
                valid &= (nc[:, k] >= 0) & (nc[:, k] < ncell[k])
        ncw = nc - wrapcnt * ncell
        ncid = (ncw[:, 0] * ncy + ncw[:, 1]) * ncz + ncw[:, 2]
        shift = wrapcnt * box.lengths  # added to neighbor positions
        atoms = np.nonzero(valid)[0]
        if atoms.size == 0:
            continue
        cnt = counts[ncid[atoms]]
        ii = np.repeat(atoms, cnt)
        lane = ragged_arange(cnt)
        jj = order[np.repeat(cell_ptr[ncid[atoms]], cnt) + lane]
        dr = pos[jj] + np.repeat(shift[atoms], cnt, axis=0) - pos[ii]
        d2 = np.sum(dr * dr, axis=1)
        keep = d2 < cutoff * cutoff
        samecell = np.all(off == 0)
        if samecell:
            keep &= ii != jj
        i_list.append(ii[keep])
        j_list.append(jj[keep])
        rij_list.append(dr[keep])
    i_idx = np.concatenate(i_list) if i_list else np.zeros(0, dtype=np.intp)
    j_idx = np.concatenate(j_list) if j_list else np.zeros(0, dtype=np.intp)
    rij = np.concatenate(rij_list) if rij_list else np.zeros((0, 3))
    return i_idx, j_idx, rij


def build_pairs(positions: np.ndarray, box: Box, cutoff: float,
                rows: tuple[int, int] | None = None) -> NeighborBatch:
    """Full neighbor pair list within ``cutoff``, sorted by central atom.

    ``rows=(lo, hi)`` restricts the list to pairs whose central atom
    index lies in ``[lo, hi)``; the restricted lists of a disjoint row
    partition concatenate (in partition order) to exactly the
    unrestricted list.  The backend selection (cell list vs brute-force
    sweep) depends only on the box and the total atom count, never on
    the window, so every slice of one system takes the same code path.
    """
    positions = np.asarray(positions, dtype=float)
    ncell = np.floor(box.lengths / cutoff).astype(int)
    usable = all((not box.periodic[k]) or ncell[k] >= 3 for k in range(3))
    if usable and positions.shape[0] > 32:
        i_idx, j_idx, rij = _cell_pairs(positions, box, cutoff, rows=rows)
    else:
        i_idx, j_idx, rij = _brute_force_pairs(positions, box, cutoff)
        if rows is not None:
            inwin = (i_idx >= rows[0]) & (i_idx < rows[1])
            i_idx, j_idx, rij = i_idx[inwin], j_idx[inwin], rij[inwin]
    order = np.argsort(i_idx, kind="stable")
    i_idx, j_idx, rij = i_idx[order], j_idx[order], rij[order]
    r = np.linalg.norm(rij, axis=1)
    batch = NeighborBatch(i_idx=i_idx, rij=rij, r=r, j_idx=j_idx)
    # sort by j once per topology build; the force accumulator turns the
    # j-side scatter into a segment sum with this permutation, and
    # NeighborList.get derives filtered permutations from it for free
    batch.j_sorted_perm()
    return batch


def filter_pairs(ref: NeighborBatch, rij: np.ndarray, r: np.ndarray,
                 keep: np.ndarray) -> NeighborBatch:
    """Compress a skin-extended reference batch down to the kept pairs.

    ``rij``/``r`` are the refreshed geometry of every reference pair and
    ``keep`` the boolean pair mask.  The j-sorted permutation of the
    filtered batch is derived from the reference's build-time permutation
    in O(npairs) - compressing a stable sort keeps it stable - so no
    per-step re-sort is needed.  Shared by the serial
    :class:`NeighborList` and the distributed per-rank caches.
    """
    batch = NeighborBatch(i_idx=ref.i_idx[keep], rij=rij[keep], r=r[keep],
                          j_idx=ref.j_idx[keep])
    p = ref.j_sorted_perm()
    new_index = np.cumsum(keep) - 1
    pk = p[keep[p]]
    batch._j_perm = new_index[pk]
    return batch


@dataclass
class NeighborList:
    """Verlet-skinned neighbor list manager.

    ``get(positions)`` returns a :class:`NeighborBatch` with *exact*
    distances for the current positions while the underlying pair
    topology is rebuilt only when an atom moved more than ``skin/2``
    since the last build.
    """

    box: Box
    cutoff: float
    skin: float = 0.3

    def __post_init__(self) -> None:
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if self.skin < 0:
            raise ValueError("skin must be non-negative")
        self._ref_positions: np.ndarray | None = None
        self._pairs: NeighborBatch | None = None
        self.nbuilds = 0

    @property
    def ref_positions(self) -> np.ndarray | None:
        """Positions of the last topology build (None before the first).

        Checkpointed by :meth:`repro.md.engine.MDLoop.write_checkpoint`:
        pair *order* depends on the build-time positions, so a bitwise
        restart must rebuild at exactly these coordinates.
        """
        return self._ref_positions

    def needs_rebuild(self, positions: np.ndarray) -> bool:
        if self._pairs is None:
            return True
        disp = self.box.minimum_image(positions - self._ref_positions)
        return bool(np.max(np.sum(disp * disp, axis=1)) > (0.5 * self.skin) ** 2)

    def get(self, positions: np.ndarray) -> NeighborBatch:
        if self.needs_rebuild(positions):
            self._pairs = build_pairs(positions, self.box, self.cutoff + self.skin)
            self._ref_positions = np.array(positions)
            self.nbuilds += 1
            ref = self._pairs
            # fresh build: displacements are zero, rij/r are already
            # exact - skip the refresh and filter the skin shell once
            return self._filtered(ref, ref.rij, ref.r)
        ref = self._pairs
        # refresh distances for current positions
        disp_i = self.box.minimum_image(positions - self._ref_positions)
        rij = ref.rij + disp_i[ref.j_idx] - disp_i[ref.i_idx]
        r = np.linalg.norm(rij, axis=1)
        return self._filtered(ref, rij, r)

    def _filtered(self, ref: NeighborBatch, rij: np.ndarray,
                  r: np.ndarray) -> NeighborBatch:
        """Drop skin-shell pairs beyond the bare cutoff."""
        return filter_pairs(ref, rij, r, r < self.cutoff)
