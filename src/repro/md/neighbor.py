"""Neighbor lists: a tree pair search with a Verlet skin.

``build_neighborlist`` is the paper's ``build_neighborlist()`` stage.
Two code paths share one contract (a pair list sorted by central atom,
exactly what :class:`repro.core.NeighborBatch` expects):

* a **k-d tree** search (``scipy.spatial.cKDTree``, O(N log N)) in
  canonical ``(i, j)`` order, used whenever every periodic axis is at
  least three cutoffs long.  The tree is SciPy's sliding-midpoint one
  with uncompacted nodes, not its default median-split, compacted
  tree: the same pair query is faster on random, replicated, fcc and
  diamond inputs and level on sc and the worst diamond case
  (EXPERIMENTS.md E35).  The tree only proposes candidates, so its
  shape never reaches the list; and
* a brute-force **image sweep** (O(N^2) per image) for shorter boxes,
  in ``(i, image shift, j)`` order.  Each periodic axis longer than
  twice the cutoff contributes only the nearest image of every pair
  (one ``(N, N)`` table); a shorter one sweeps every image that can
  reach the cutoff, so the sweep stays exact where a single pair
  interacts through several periodic images (small training cells
  need this).

Each path yields a list in one of two forms.  The *half* list holds
each bond once - ``i < j``, plus the self-image pairs ``i == j`` whose
image shift is positive - and is what pair potentials evaluate
(``Potential.pairwise``); the *full* list holds both directions, for the
many-body potentials.  The tree search finds the half list and mirrors
it for the full one; the sweep finds the full list and keeps its half.

A Verlet skin lets the list persist across steps; rebuild is triggered
when any atom moved more than half the skin, the standard MD heuristic.
Between builds a :class:`NeighborList` refreshes and filters its pairs
into one :class:`~repro.core.snap.PairScratch` it owns, sized at its
first build and grown only when a build overflows it - across rebinds
too (:meth:`NeighborList.reset`) - so a step allocates no pair-sized
array.

On the tree path the list is two-level, as GROMACS' dual pair list
(Pall et al., J. Chem. Phys. 153, 134110, 2020): a rebuild other than
the first since construction or :meth:`NeighborList.reset` runs no tree
query but prunes an *outer candidate set* - the tree's half pairs
within ``cutoff + skin + margin``, sorted once into canonical order -
with the same per-pair geometry as :func:`build_pairs`, so the list is
the one ``build_pairs`` gives, to the bit.  The outer set is queried
again only when an atom has moved more than ``margin / 2`` since it was
built: no pair can then have closed by more than the margin.  The
margin is :data:`_OUTER_MARGIN` of the list radius (EXPERIMENTS.md E45).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from ..core.snap import NeighborBatch, PairScratch, work_array
from .box import Box

__all__ = ["NeighborList", "build_pairs", "filter_pairs", "refresh_pairs"]


#: largest ``(images, N, N)`` distance table the small-box sweep forms in
#: one pass (32 MiB of float64); bigger systems go one x image at a time
_SWEEP_TABLE_ELEMS = 1 << 22

#: the tree's shape: sliding-midpoint splits over uncompacted nodes
#: (SciPy's defaults are median splits and compacted nodes), no slower
#: a query on any input class of EXPERIMENTS.md E35; ``leafsize`` stays
#: SciPy's 16 (8 lost on fcc and on an 8000-atom diamond there)
_TREE_SHAPE = {"balanced_tree": False, "compact_nodes": False}

#: rows a list's scratch holds beyond its first build's pair count, so
#: that later builds of a list at equilibrium reuse it
_SCRATCH_HEADROOM = 1.05

#: a periodic axis longer than ``2 * cutoff * (1 + _NEAREST_MARGIN)``
#: sweeps only the nearest image: the margin keeps the rounding of
#: ``dx / L`` from ever picking the far image of an in-cutoff pair
_NEAREST_MARGIN = 1e-6

#: the outer candidate set reaches this fraction of the list radius
#: ``cutoff + skin`` beyond it: 1.2 A on the 4000-atom LJ benchmark,
#: where one tree query serves about four rebuilds (EXPERIMENTS.md
#: E45).  Under 0.5, so the outer radius stays below half of any box
#: the tree path takes (every periodic axis >= 3 list radii)
_OUTER_MARGIN = 0.28

#: the outer set serves while no atom moved more than ``(1 -
#: _OUTER_SLACK) * margin / 2`` since its build.  The slack (1e-9 of
#: the margin) covers the rounding of the wrap, the displacements and
#: the separations, each ~1e-16 of a box length, up to boxes of ~1e5 A
_OUTER_SLACK = 1e-9

#: candidate pairs the geometry handles per block: the per-pair
#: temporaries stay cache-sized however long the candidate list is
_PAIR_BLOCK = 1 << 14


def _brute_force_pairs(positions: np.ndarray, box: Box, cutoff: float,
                       half: bool = False):
    """All pairs within cutoff including periodic images (small boxes),
    in ``(i, sx, sy, sz, j)`` order (``s`` the image shift per axis);
    ``half=True`` keeps each bond once, in the same order.

    Per axis a ``(nimg, N, N)`` table of ``(x_j + img * L) - x_i`` is
    built once, ``d2`` of every image combination is their broadcast
    sum and a single ``flatnonzero`` emits the pairs.  The image set is
    chosen per axis from ``L / cutoff``:

    * ``L > 2 cutoff``: a pair is within the cutoff through at most one
      image, the nearest, so ``nimg = 1`` with the shift picked per pair
      in closed form (``-round`` of the fractional separation);
    * otherwise every shift in ``-m..m``, ``m = ceil(cutoff / L)`` -
      exact, since after the whole-box reduction below ``|dx| < L``;
    * open axes: the plain difference.

    Callers hand in *unwrapped* coordinates (``MDLoop`` never wraps), so
    each ``x_j - x_i`` is first reduced by its whole-box count
    ``trunc(dx / L)`` and the shifts run around that.  The count is
    zero for coordinates within one box length of each other, where the
    image offsets are exactly ``s * L``.
    """
    for k in range(3):
        if box.periodic[k] and cutoff >= box.lengths[k] * 1.5:
            raise ValueError(
                f"cutoff {cutoff} too large for box length {box.lengths[k]}")
    n = positions.shape[0]
    comps, squares, shifts, home = [], [], [], []
    for k in range(3):
        x, length = positions[:, k], box.lengths[k]
        if not box.periodic[k]:
            shift, base = np.zeros((1, n, n)), 0.0
            home.append(0)
        else:
            frac = (x[None, :] - x[:, None]) / length
            base = np.trunc(frac)[None]
            if length > 2.0 * cutoff * (1.0 + _NEAREST_MARGIN):
                shift = 0.0 - np.round(frac[None] - base)  # never -0.0
                home.append(0)
            else:
                m = int(np.ceil(cutoff / length))
                shift = np.arange(-m, m + 1.0)[:, None, None] \
                    + np.zeros((n, n))
                home.append(m)
        comp = (x[None, None, :] + (shift - base) * length) \
            - x[None, :, None]
        comps.append(comp)
        squares.append(comp * comp)
        shifts.append(shift)
    dx2, dy2, dz2 = squares
    shape = tuple(len(comp) for comp in comps)
    nn, nimg = n * n, shape[0] * shape[1] * shape[2]
    step = shape[0] if nimg * nn <= _SWEEP_TABLE_ELEMS else 1
    found = []
    for x0 in range(0, shape[0], step):
        d2 = (dx2[x0:x0 + step, None, None] + dy2[None, :, None]) \
            + dz2[None, None, :]
        mask = d2 < cutoff * cutoff
        if x0 <= home[0] < x0 + step:
            # an atom is not its own neighbour through the zero shift
            np.fill_diagonal(mask[home[0] - x0, home[1], home[2]], False)
        found.append(np.flatnonzero(mask) + x0 * shape[1] * shape[2] * nn)
    flat = np.concatenate(found)
    if nimg == 1:  # the flat index is the pair (unravel_index is slow)
        cs, pair = (0, 0, 0), flat
    else:
        image, pair = np.divmod(flat, nn)
        cs = np.unravel_index(image, shape)
    i_idx = pair // n
    j_idx = pair - i_idx * n
    # flat index of every pair in each axis' (nimg, N, N) table; the
    # shifts are integers in -2..2 (the guard), so the key is unique
    sels = [c * nn + pair for c in cs]
    key = i_idx
    for shift, sel in zip(shifts, sels):
        key = key * 5 + np.take(shift, sel)
    if half:
        # ``key - 125 i`` is the shift in balanced base 5: its sign is
        # that of the first nonzero shift, so a bond and its mirror
        # ``(j, i, -s)`` keep exactly one of them
        keep = np.flatnonzero((i_idx < j_idx)
                              | ((i_idx == j_idx) & (key > 125 * i_idx)))
        i_idx, j_idx, key = i_idx[keep], j_idx[keep], key[keep]
        sels = [sel[keep] for sel in sels]
    # stable sort = timsort, fast on these i-major runs (the key is unique)
    order = np.argsort(key * n + j_idx, kind="stable")
    rij = np.stack([np.take(comp, np.take(sel, order))
                    for comp, sel in zip(comps, sels)], axis=1)
    return np.take(i_idx, order), np.take(j_idx, order), rij


def _row_norm2(d: np.ndarray, out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> np.ndarray:
    """Squared length of every vector of ``d``, given as its ``(3, n)``
    component rows (an ``(n, 3)`` array passes its transpose ``.T``),
    summed as ``(x^2 + z^2) + y^2``: the order in which NumPy 2's
    ``np.einsum("ij,ij->i", v, v)`` sums a row of a C-contiguous ``v``,
    so the bits are einsum's (``tests/test_neighbor.py`` pins the two),
    at half its cost on short lists.  ``work`` takes the squares."""
    sq = np.multiply(d, d, out=work)
    out = np.add(sq[0], sq[2], out=out)
    out += sq[1]
    return out


def _finite(positions) -> np.ndarray:
    """``positions`` as a float array; a NaN or inf raises."""
    positions = np.asarray(positions, dtype=float)
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite (NaN or inf found)")
    return positions


def _period(box: Box) -> np.ndarray:
    """The box lengths on periodic axes, 0 on open ones."""
    return np.where(box.pmask, box.lengths, 0.0)


def _separations(pos_t: np.ndarray, box: Box, period: np.ndarray,
                 a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-image vectors from atoms ``a`` to atoms ``b``, as their
    ``(3, m)`` component rows, from the ``(3, N)`` component rows of
    wrapped positions (``period`` is :func:`_period` as a column): the
    tree path's geometry.  Component rows keep every operation a long
    contiguous loop; the arithmetic per element is the same."""
    d = np.take(pos_t, b, axis=1)
    d -= np.take(pos_t, a, axis=1)
    shift = np.divide(d, box.lengths[:, None])
    np.round(shift, out=shift)
    shift *= period
    d -= shift
    return d


def _uses_tree(natoms: int, box: Box, cutoff: float) -> bool:
    """Whether :func:`build_pairs` takes the tree path (else the sweep)."""
    ncell = np.floor(box.lengths / cutoff).astype(int)
    usable = all((not box.periodic[k]) or ncell[k] >= 3 for k in range(3))
    return usable and natoms > 32


def _tree_candidates(pos: np.ndarray, box: Box, radius: float,
                     rows: tuple[int, int] | None, mirror: bool):
    """The k-d tree's half pairs ``(i < j)`` within ``radius`` of the
    wrapped positions ``pos``, in canonical ``(i, j)`` order, as two
    int32 index arrays (intp past 2**31 atoms): the package's one tree.

    The tree proposes them in an order that depends on its shape, and
    its radius is padded by 1e-12 so that its own rounding never loses
    a pair; the caller's geometry decides.  With ``rows=(lo, hi)`` the
    pairs that cannot reach the window are dropped: a half list needs
    those led by the window's atoms, a full one (``mirror``) also those
    whose mirror is.
    """
    half = cKDTree(pos, boxsize=_period(box), **_TREE_SHAPE).query_pairs(
        radius * (1.0 + 1e-12), output_type="ndarray")
    if rows is not None:
        inwin = (half >= rows[0]) & (half < rows[1])
        half = half[inwin[:, 0] | (mirror & inwin[:, 1])]
    n = len(pos)
    key = half[:, 0] * n
    key += half[:, 1]
    del half  # the query's pairs go before the sort's arrays come
    key.sort()
    i_idx = key // n
    key -= i_idx * n
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.intp
    return i_idx.astype(dtype), key.astype(dtype)


def _near(pos: np.ndarray, box: Box, a: np.ndarray, b: np.ndarray,
          cutoff: float):
    """The candidate pairs ``(a, b)`` closer than ``cutoff`` on the
    wrapped positions ``pos``: ``(a, b, d, d2)`` of those kept, in
    candidate order, with ``d`` the ``(k, 3)`` :func:`_separations`
    vectors and ``d2`` their :func:`_row_norm2`.  Each pair's
    arithmetic depends on that pair alone, so any candidate list
    holding a pair gives it the same bits; the list is walked in blocks
    of ``_PAIR_BLOCK``."""
    pos_t, period = np.ascontiguousarray(pos.T), _period(box)[:, None]
    parts = []
    for lo in range(0, a.size, _PAIR_BLOCK) or (0,):
        ab, bb = a[lo:lo + _PAIR_BLOCK], b[lo:lo + _PAIR_BLOCK]
        d = _separations(pos_t, box, period, ab, bb)
        d2 = _row_norm2(d)
        near = np.flatnonzero(d2 < cutoff * cutoff)
        if near.size < d2.size:
            ab, bb, d, d2 = ab[near], bb[near], np.take(d, near, axis=1), \
                d2[near]
        parts.append((ab, bb, d.T, d2))
    if len(parts) == 1:
        ab, bb, d, d2 = parts[0]
        return ab, bb, np.ascontiguousarray(d), d2
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _in_rows(rows: tuple[int, int] | None, i_idx: np.ndarray, *arrays):
    """``(i_idx, *arrays)`` restricted to the pairs whose central atom
    lies in the window ``rows`` (all of them when it is None)."""
    if rows is None:
        return (i_idx, *arrays)
    inwin = np.flatnonzero((i_idx >= rows[0]) & (i_idx < rows[1]))
    return tuple(np.take(x, inwin, axis=0) for x in (i_idx, *arrays))


def _tree_batch(pos: np.ndarray, box: Box, a: np.ndarray, b: np.ndarray,
                cutoff: float, rows: tuple[int, int] | None,
                half: bool) -> NeighborBatch:
    """The tree path's list within ``cutoff`` from canonical candidate
    half pairs ``(a, b)`` (:func:`_tree_candidates`) on wrapped
    positions: the geometry (:func:`_near`) keeps their order, so a
    half list needs no sort; a full one adds the mirror with ``-d``,
    keeps the window and sorts.  ``r`` is the root of the inclusion
    test's ``d2``."""
    a, b, d, d2 = _near(pos, box, a, b, cutoff)
    i_idx, j_idx = a.astype(np.intp), b.astype(np.intp)
    if not half:
        i_idx, j_idx = np.concatenate([i_idx, j_idx]), \
            np.concatenate([j_idx, i_idx])
        d, d2 = np.concatenate([d, -d]), np.concatenate([d2, d2])
        # the candidates of a window kept a half pair for its mirror
        i_idx, j_idx, d, d2 = _in_rows(rows, i_idx, j_idx, d, d2)
        # the key is unique, so the order does not depend on the sort
        order = np.argsort(i_idx * len(pos) + j_idx)
        i_idx, j_idx = i_idx[order], j_idx[order]
        d, d2 = np.take(d, order, axis=0), d2[order]
    return NeighborBatch(i_idx=i_idx, rij=d, j_idx=j_idx, r=np.sqrt(d2),
                         half=half)


def build_pairs(positions: np.ndarray, box: Box, cutoff: float,
                rows: tuple[int, int] | None = None,
                half: bool = False) -> NeighborBatch:
    """Neighbor pair list within ``cutoff``, sorted by central atom:
    the full list, or with ``half=True`` each bond once.

    Within an atom the tree path orders pairs by ascending ``j`` - a
    canonical ``(i, j)`` order that is a pure function of the positions
    - and the small-box sweep, where a pair can repeat through several
    images, by image shift, then ``j``.  The half list is the full list
    without its pairs ``i > j`` and its self-image pairs of negative
    shift, in the same order; mirrored with ``-rij`` it is the full
    pair set (on the sweep path up to a bond within rounding of the
    cutoff, which the full list may hold in one direction only).

    The tree (shape ``_TREE_SHAPE``, E35) only proposes candidates; the
    geometry and the inclusion test are our own arithmetic on them and
    the result is sorted, so the list does not depend on the tree.

    ``rows=(lo, hi)`` restricts the list to pairs whose central atom
    index lies in ``[lo, hi)``; the restricted lists of a disjoint row
    partition concatenate (in partition order) to exactly the
    unrestricted list.  The backend selection (tree vs brute-force
    sweep) depends only on the box and the total atom count, never on
    the window, so every slice of one system takes the same code path.

    Non-finite positions raise ``ValueError`` on both paths.
    """
    positions = _finite(positions)
    if _uses_tree(positions.shape[0], box, cutoff):
        pos = box.wrap(positions)
        return _tree_batch(pos, box, *_tree_candidates(
            pos, box, cutoff, rows, mirror=not half), cutoff, rows, half)
    # already in (i, shift, j) order
    i_idx, j_idx, rij = _in_rows(rows, *_brute_force_pairs(
        positions, box, cutoff, half=half))
    return NeighborBatch(i_idx=i_idx, rij=rij, j_idx=j_idx,
                         r=np.sqrt(_row_norm2(rij.T)), half=half)


def refresh_pairs(ref: NeighborBatch,
                  disp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Geometry ``(rij, r)`` of every reference pair after the atoms
    moved by ``disp`` since the build.  The one refresh every engine
    calls, so their pair geometry is equal to the bit.

    Both land in ``ref``'s scratch; the gather temporary, which also
    takes the squares of ``r``, is the array :func:`filter_pairs` then
    writes the kept ``rij`` into.
    """
    rij = ref.buffer("refresh.rij", 3)
    moved = ref.buffer("rij", 3)
    # mode="clip": without it take(out=) gathers into a temporary first
    disp.take(ref.j_idx, axis=0, out=moved, mode="clip")
    np.add(ref.rij, moved, out=rij)
    disp.take(ref.i_idx, axis=0, out=moved, mode="clip")
    rij -= moved
    r = _row_norm2(rij.T, out=ref.buffer("refresh.r"), work=moved.T)
    return rij, np.sqrt(r, out=r)


def filter_pairs(ref: NeighborBatch, rij: np.ndarray, r: np.ndarray,
                 keep: np.ndarray) -> NeighborBatch:
    """Compress a skin-extended reference batch down to the kept pairs.

    ``rij``/``r`` are the refreshed geometry of every reference pair and
    ``keep`` the boolean pair mask.  The filtered batch remembers
    ``(ref, keep)`` as ``filtered_from``: the process workers publish
    their kept mask from it.  It lives in ``ref``'s scratch and shares
    it, so it is valid until the owning list's next ``get``.
    """
    kept = np.asarray(keep).ravel().nonzero()[0]  # np.flatnonzero
    n, scratch = kept.size, ref.scratch
    # the gathers are what NeighborBatch.__post_init__ would make of
    # them (contiguous, intp / float, shapes (n,), (n, 3)), so the
    # batch is assembled without re-running its checks
    batch = object.__new__(NeighborBatch)
    vars(batch).update(
        i_idx=ref.i_idx.take(kept, out=work_array(scratch, "i_idx", n, 0,
                                                  np.intp), mode="clip"),
        rij=rij.take(kept, axis=0, out=work_array(scratch, "rij", n, 3),
                     mode="clip"),
        r=r.take(kept, out=work_array(scratch, "r", n), mode="clip"),
        j_idx=ref.j_idx.take(kept, out=work_array(scratch, "j_idx", n, 0,
                                                  np.intp), mode="clip"),
        pair_weight=None, pair_rcut=None, half=ref.half,
        filtered_from=(ref, keep), scratch=scratch, kept_below=None)
    return batch


@dataclass
class NeighborList:
    """Verlet-skinned neighbor list manager.

    ``get(positions)`` returns a :class:`NeighborBatch` with *exact*
    distances for the current positions while the underlying pair
    topology is rebuilt only when an atom moved more than ``skin/2``
    since the last build.  The batch is valid until the next ``get``:
    it lives in the list's scratch, which every step reuses.

    ``rows=(lo, hi)`` keeps only the pairs whose central atom lies in
    that window (see :func:`build_pairs`); the skin test still looks at
    every atom, so the lists of a row partition rebuild on the same
    steps and concatenate, build or refresh, to the unrestricted list.

    Every build gives the pairs ``build_pairs(positions, box, cutoff +
    skin, rows=rows, half=half)`` gives, to the bit.  On the tree path
    a build after the first (since construction or :meth:`reset`)
    prunes the outer candidate set (see the module docstring), queried
    again only when an atom has moved more than ``margin / 2`` since
    that set was built; the first build is ``build_pairs`` itself.

    The constructor gives the full list; :meth:`for_potential` gives
    the list a potential evaluates, which is half (``half``) when its
    energy is a sum over unordered pairs.
    """

    box: Box
    cutoff: float
    skin: float = 0.3
    rows: tuple[int, int] | None = None
    #: each bond once (set by :meth:`for_potential`, never by the caller)
    half: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if self.skin < 0:
            raise ValueError("skin must be non-negative")
        self._ref_positions: np.ndarray | None = None
        self._pairs: NeighborBatch | None = None
        #: the outer candidate set ``(i, j)`` and where it was built
        self._outer: tuple[np.ndarray, np.ndarray] | None = None
        self._outer_positions: np.ndarray | None = None
        self._scratch: PairScratch | None = None
        self.nbuilds = 0

    @classmethod
    def for_potential(cls, potential, box: Box, skin: float = 0.3,
                      rows: tuple[int, int] | None = None) -> "NeighborList":
        """The list ``potential`` is evaluated on: its cutoff, and each
        bond once when ``potential.pairwise`` (a half list)."""
        nlist = cls(box=box, cutoff=potential.cutoff, skin=skin, rows=rows)
        nlist.half = bool(potential.pairwise)
        return nlist

    @property
    def ref_positions(self) -> np.ndarray | None:
        """Positions of the last topology build (None before the first).

        Checkpointed by :meth:`repro.md.engine.MDLoop.write_checkpoint`:
        the skin-extended pair set and the refreshed geometry depend on
        the build-time positions, so a bitwise restart must rebuild at
        exactly these coordinates.
        """
        return self._ref_positions

    def reset(self, box: Box) -> None:
        """Drop the pairs and put the list on ``box``: the next
        :meth:`get` rebuilds, never reusing pair order from the old
        cell; the outer candidate set goes too, so that build is the
        plain one.  The build counter keeps counting and the scratch
        stays, so a rebind allocates nothing the next build can reuse."""
        self.box = box
        self._pairs = None
        self._ref_positions = None
        self._outer = self._outer_positions = None

    def _displacements(self, positions: np.ndarray, since: np.ndarray,
                       reach: float) -> np.ndarray | None:
        """Minimum-image moves from ``since``, or None when an atom
        moved more than ``reach`` (or a coordinate is not finite: NaN
        fails every comparison, so it must fail this one towards a
        rebuild, which raises)."""
        disp = self.box.minimum_image(positions - since)
        if not (disp * disp).sum(axis=1).max() <= reach ** 2:
            return None
        return disp

    def _build(self, positions: np.ndarray) -> NeighborBatch:
        """The reference pairs at ``positions``: ``build_pairs`` at the
        list radius, or on the tree path after the first build the same
        list pruned from the outer candidate set."""
        radius = self.cutoff + self.skin
        if self._ref_positions is None or not _uses_tree(
                len(positions), self.box, radius):
            return build_pairs(positions, self.box, radius, rows=self.rows,
                               half=self.half)
        positions = _finite(positions)
        pos, margin = self.box.wrap(positions), _OUTER_MARGIN * radius
        if self._outer is None or self._displacements(
                positions, self._outer_positions,
                0.5 * margin * (1.0 - _OUTER_SLACK)) is None:
            self._outer = None  # the old set goes before the query's peak
            self._outer = _tree_candidates(pos, self.box, radius + margin,
                                           self.rows, mirror=not self.half)
            self._outer_positions = np.array(positions)
        return _tree_batch(pos, self.box, *self._outer, radius, self.rows,
                           self.half)

    def get(self, positions: np.ndarray) -> NeighborBatch:
        """The pairs within ``cutoff`` at ``positions``, exact geometry.

        The batch lives in the list's scratch: it is valid until the
        next ``get`` of this list, which overwrites it.
        """
        ref = self._pairs
        if ref is not None:
            disp = self._displacements(positions, self._ref_positions,
                                       0.5 * self.skin)
            if disp is None:
                ref = None
        if ref is None:
            # the old pairs go before the build (its peak), the scratch
            # stays unless the new list overflows it
            self._pairs = None
            ref = self._build(positions)
            scratch = self._scratch
            if scratch is None or scratch.capacity < ref.npairs:
                scratch = self._scratch = PairScratch(
                    _SCRATCH_HEADROOM * ref.npairs)
            ref.scratch = scratch
            self._pairs = ref
            self._ref_positions = np.array(positions)
            self.nbuilds += 1
            # fresh build: displacements are zero, rij/r are already
            # exact - skip the refresh and filter the skin shell once
            rij, r = ref.rij, ref.r
        else:
            rij, r = refresh_pairs(ref, disp)
        keep = np.less(r, self.cutoff, out=ref.buffer("keep", dtype=bool))
        batch = filter_pairs(ref, rij, r, keep)
        batch.kept_below = self.cutoff
        return batch

    def bond_lengths(self, positions: np.ndarray, box: Box,
                     rmax: float) -> np.ndarray | None:
        """Length of every bond shorter than ``rmax`` at ``positions``,
        each bond once, from this list's reference pairs.

        The lengths are the ones ``build_pairs(positions, box, rmax,
        half=True).r`` holds, to the bit and as a multiset: the pairs
        are the reference list's, the geometry is the tree path's own
        (:func:`_separations`) on the current positions.  None when the
        list cannot serve: no build yet, a full or row-window list, a
        box the image sweep takes (its geometry is another), another
        cell (a ``Box`` equal by value serves: a restored checkpoint's),
        ``rmax`` beyond the cutoff, or an atom past ``skin/2`` since the
        build (then the reference may miss a bond).
        """
        ref = self._pairs
        if (ref is None or not self.half or self.rows is not None
                or box != self.box
                or rmax > self.cutoff
                or len(positions) != len(self._ref_positions)
                or not _uses_tree(len(positions), box,
                                  self.cutoff + self.skin)
                or self._displacements(positions, self._ref_positions,
                                       0.5 * self.skin) is None):
            return None
        d2 = _near(box.wrap(positions), box, ref.i_idx, ref.j_idx, rmax)[3]
        return np.sqrt(d2)
