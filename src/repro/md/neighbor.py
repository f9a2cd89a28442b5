"""Neighbor lists: a tree pair search with a Verlet skin.

``build_neighborlist`` is the paper's ``build_neighborlist()`` stage.
Two code paths share one contract (a full, both-directions pair list
sorted by central atom, exactly what :class:`repro.core.NeighborBatch`
expects):

* a **k-d tree** search (``scipy.spatial.cKDTree``, O(N log N)) in
  canonical ``(i, j)`` order, used whenever every periodic axis is at
  least three cutoffs long, and
* a brute-force **image sweep** (O(27 N^2)) for shorter boxes; it
  remains correct below twice the cutoff, where a single pair can
  interact through several periodic images (small training cells need
  this).

A Verlet skin lets the list persist across steps; rebuild is triggered
when any atom moved more than half the skin, the standard MD heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ..core.snap import NeighborBatch
from .box import Box

__all__ = ["NeighborList", "build_pairs", "filter_pairs", "refresh_pairs"]


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


def _tree_pairs(positions: np.ndarray, box: Box, cutoff: float,
                rows: tuple[int, int] | None = None):
    """k-d tree pair search; periodic axes must be >= 3 cutoffs long.

    The tree (over wrapped coordinates, radius padded by 1e-12) only
    proposes the half list; the geometry and the inclusion test are our
    own arithmetic on it, and the list is mirrored with ``-d``.  With
    ``rows=(lo, hi)`` half pairs that do not touch the window are
    dropped before the geometry; the arithmetic per pair is the same,
    so a restricted list holds the same bits as the full one.
    """
    pos = box.wrap(positions)
    period = np.where(box.pmask, box.lengths, 0.0)
    half = cKDTree(pos, boxsize=period).query_pairs(
        cutoff * (1.0 + 1e-12), output_type="ndarray")
    if rows is not None:
        inwin = (half >= rows[0]) & (half < rows[1])
        half = half[inwin[:, 0] | inwin[:, 1]]
    d = np.take(pos, half[:, 1], axis=0) - np.take(pos, half[:, 0], axis=0)
    d -= period * np.round(d / box.lengths)
    near = np.flatnonzero(np.einsum("ij,ij->i", d, d) < cutoff * cutoff)
    a, b, d = half[near, 0], half[near, 1], np.take(d, near, axis=0)
    return (np.concatenate([a, b]), np.concatenate([b, a]),
            np.concatenate([d, -d]))


def build_pairs(positions: np.ndarray, box: Box, cutoff: float,
                rows: tuple[int, int] | None = None) -> NeighborBatch:
    """Full neighbor pair list within ``cutoff``, sorted by central atom.

    Within an atom the tree path orders pairs by ascending ``j`` - a
    canonical ``(i, j)`` order that is a pure function of the positions
    - and the small-box sweep, where a pair can repeat through several
    images, by image.

    ``rows=(lo, hi)`` restricts the list to pairs whose central atom
    index lies in ``[lo, hi)``; the restricted lists of a disjoint row
    partition concatenate (in partition order) to exactly the
    unrestricted list.  The backend selection (tree vs brute-force
    sweep) depends only on the box and the total atom count, never on
    the window, so every slice of one system takes the same code path.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    ncell = np.floor(box.lengths / cutoff).astype(int)
    usable = all((not box.periodic[k]) or ncell[k] >= 3 for k in range(3))
    tree = usable and n > 32
    if tree:
        i_idx, j_idx, rij = _tree_pairs(positions, box, cutoff, rows=rows)
    else:
        i_idx, j_idx, rij = _brute_force_pairs(positions, box, cutoff)
    if rows is not None:
        inwin = np.flatnonzero((i_idx >= rows[0]) & (i_idx < rows[1]))
        i_idx, j_idx = i_idx[inwin], j_idx[inwin]
        rij = np.take(rij, inwin, axis=0)
    # the tree key is unique, so the order does not depend on the sort
    order = np.argsort(i_idx * n + j_idx) if tree \
        else np.argsort(i_idx, kind="stable")
    rij = np.take(rij, order, axis=0)
    return NeighborBatch(i_idx=i_idx[order], rij=rij, j_idx=j_idx[order],
                         r=np.sqrt(np.einsum("ij,ij->i", rij, rij)))


def refresh_pairs(ref: NeighborBatch,
                  disp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Geometry ``(rij, r)`` of every reference pair after the atoms
    moved by ``disp`` since the build.  The one refresh every engine
    calls, so their pair geometry is equal to the bit."""
    rij = ref.rij + np.take(disp, ref.j_idx, axis=0)
    rij -= np.take(disp, ref.i_idx, axis=0)
    return rij, np.sqrt(np.einsum("ij,ij->i", rij, rij))


def filter_pairs(ref: NeighborBatch, rij: np.ndarray, r: np.ndarray,
                 keep: np.ndarray) -> NeighborBatch:
    """Compress a skin-extended reference batch down to the kept pairs.

    ``rij``/``r`` are the refreshed geometry of every reference pair and
    ``keep`` the boolean pair mask.  The filtered batch remembers
    ``(ref, keep)`` as ``filtered_from``: the process workers publish
    their kept mask from it.
    Shared by :class:`NeighborList` and the distributed per-rank caches.
    """
    kept = np.flatnonzero(keep)
    batch = NeighborBatch(i_idx=np.take(ref.i_idx, kept),
                          rij=np.take(rij, kept, axis=0), r=np.take(r, kept),
                          j_idx=np.take(ref.j_idx, kept))
    batch.filtered_from = (ref, keep)
    return batch


@dataclass
class NeighborList:
    """Verlet-skinned neighbor list manager.

    ``get(positions)`` returns a :class:`NeighborBatch` with *exact*
    distances for the current positions while the underlying pair
    topology is rebuilt only when an atom moved more than ``skin/2``
    since the last build.

    ``rows=(lo, hi)`` keeps only the pairs whose central atom lies in
    that window (see :func:`build_pairs`); the skin test still looks at
    every atom, so the lists of a row partition rebuild on the same
    steps and concatenate, build or refresh, to the unrestricted list.
    """

    box: Box
    cutoff: float
    skin: float = 0.3
    rows: tuple[int, int] | None = None

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
        the skin-extended pair set and the refreshed geometry depend on
        the build-time positions, so a bitwise restart must rebuild at
        exactly these coordinates.
        """
        return self._ref_positions

    def rebound(self, box: Box) -> "NeighborList":
        """A fresh list on ``box``: the next :meth:`get` rebuilds, never
        reusing pair order from the old cell, and the build counter
        carries over so it keeps counting across rebinds."""
        fresh = NeighborList(box=box, cutoff=self.cutoff, skin=self.skin,
                             rows=self.rows)
        fresh.nbuilds = self.nbuilds
        return fresh

    def get(self, positions: np.ndarray) -> NeighborBatch:
        ref = self._pairs
        if ref is not None:
            disp = self.box.minimum_image(positions - self._ref_positions)
            if np.max(np.sum(disp * disp, axis=1)) > (0.5 * self.skin) ** 2:
                ref = None
        if ref is None:
            ref = self._pairs = build_pairs(positions, self.box,
                                            self.cutoff + self.skin,
                                            rows=self.rows)
            self._ref_positions = np.array(positions)
            self.nbuilds += 1
            # fresh build: displacements are zero, rij/r are already
            # exact - skip the refresh and filter the skin shell once
            rij, r = ref.rij, ref.r
        else:
            rij, r = refresh_pairs(ref, disp)
        return filter_pairs(ref, rij, r, r < self.cutoff)
