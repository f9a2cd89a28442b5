"""3D spatial domain decomposition.

The paper runs a 3D grid of MPI ranks and explicitly chooses 27,900 =
30 x 30 x 31 "to minimize the surface-to-volume ratio of the
communication halo exchange regions".  :func:`best_grid` reproduces that
choice: it returns the factorization of ``nranks`` into three factors
with minimal total halo surface for a given box aspect ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..md.box import Box

__all__ = ["best_grid", "DomainGrid", "row_partition"]


def row_partition(natoms: int, nprocs: int) -> np.ndarray:
    """Balanced contiguous row bounds: ``nprocs + 1`` offsets over atoms.

    Rank ``r`` owns atom rows ``[bounds[r], bounds[r+1])``; sizes differ
    by at most one atom.  A 1D index-space partition (not spatial): the
    multiprocess backend slices the *i-sorted global pair list* by
    central-atom row, which is what keeps its per-rank work bitwise
    concatenable back into the serial evaluation order.
    """
    if natoms < 0:
        raise ValueError("natoms must be non-negative")
    if nprocs < 1:
        raise ValueError("nprocs must be positive")
    per, extra = divmod(natoms, nprocs)
    sizes = np.full(nprocs, per, dtype=np.int64)
    sizes[:extra] += 1
    return np.concatenate([[0], np.cumsum(sizes)])


def _factor_triples(n: int):
    for a in range(1, int(round(n ** (1 / 3))) + 2):
        if n % a:
            continue
        m = n // a
        b = a
        while b * b <= m:
            if m % b == 0:
                yield (a, b, m // b)
            b += 1


def best_grid(nranks: int, box_lengths: np.ndarray | None = None) -> tuple[int, int, int]:
    """Factor ``nranks`` into a 3D grid minimizing halo surface area.

    For a cubic box this selects the most-cubic factorization
    (e.g. ``27900 -> (30, 30, 31)``).
    """
    if nranks < 1:
        raise ValueError("nranks must be positive")
    lengths = np.ones(3) if box_lengths is None else np.asarray(box_lengths, float)
    best = None
    best_surface = np.inf
    for triple in _factor_triples(nranks):
        # all axis assignments of the triple, in sorted (not hash) order
        # so tie-breaking on equal surface area is deterministic
        for perm in sorted({(triple[i], triple[j], triple[k])
                            for i, j, k in [(0, 1, 2), (0, 2, 1), (1, 0, 2),
                                            (1, 2, 0), (2, 0, 1), (2, 1, 0)]}):
            d = lengths / np.array(perm)
            surface = 2.0 * (d[0] * d[1] + d[1] * d[2] + d[0] * d[2]) * nranks
            if surface < best_surface - 1e-12:
                best_surface = surface
                best = perm
    assert best is not None
    return best


@dataclass(frozen=True)
class DomainGrid:
    """Regular 3D grid of rank subdomains over a periodic box."""

    box: Box
    dims: tuple[int, int, int]

    def __post_init__(self) -> None:
        if min(self.dims) < 1:
            raise ValueError("grid dims must be >= 1")

    @classmethod
    def for_ranks(cls, box: Box, nranks: int) -> "DomainGrid":
        return cls(box=box, dims=best_grid(nranks, box.lengths))

    @property
    def nranks(self) -> int:
        dx, dy, dz = self.dims
        return dx * dy * dz

    @property
    def subdomain_lengths(self) -> np.ndarray:
        return self.box.lengths / np.array(self.dims, dtype=float)

    def rank_of_coords(self, coords: np.ndarray) -> np.ndarray:
        """Rank id for grid coordinates ``(..., 3)`` (wrapped)."""
        coords = np.asarray(coords)
        dims = np.array(self.dims)
        c = np.mod(coords, dims)
        return (c[..., 0] * dims[1] + c[..., 1]) * dims[2] + c[..., 2]

    def coords_of_rank(self, rank: int) -> tuple[int, int, int]:
        dx, dy, dz = self.dims
        return (rank // (dy * dz), (rank // dz) % dy, rank % dz)

    def assign_atoms(self, positions: np.ndarray) -> np.ndarray:
        """Owning rank per atom."""
        pos = self.box.wrap(positions)
        frac = pos / self.box.lengths
        coords = np.minimum((frac * self.dims).astype(int),
                            np.array(self.dims) - 1)
        return self.rank_of_coords(coords)

    def neighbor_ranks(self, rank: int) -> list[int]:
        """The (up to) 26 distinct neighboring ranks of a subdomain."""
        c = np.array(self.coords_of_rank(rank))
        out = set()
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    if dx == dy == dz == 0:
                        continue
                    out.add(int(self.rank_of_coords(c + np.array([dx, dy, dz]))))
        out.discard(rank)
        return sorted(out)
