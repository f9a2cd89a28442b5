"""Orthorhombic periodic simulation boxes.

Minimum-image and wrapping helpers shared by the serial and the
domain-decomposed drivers.  The paper's production cells are cubic
(periodic replication of an amorphous-carbon sample), so orthorhombic
support is sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Box"]


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box with per-axis periodicity, origin at 0.

    Two boxes are equal, and hash equal, when their lengths and
    periodic flags are (a restored checkpoint's box equals the one it
    was written from).

    Parameters
    ----------
    lengths:
        Edge lengths ``(Lx, Ly, Lz)`` in Angstrom.
    periodic:
        Per-axis periodic flags (default fully periodic).
    """

    lengths: np.ndarray
    periodic: tuple[bool, bool, bool] = (True, True, True)

    def __post_init__(self) -> None:
        lengths = np.asarray(self.lengths, dtype=float).reshape(3)
        if np.any(lengths <= 0) or not np.isfinite(lengths).all():
            raise ValueError(
                f"box lengths must be positive and finite, got {lengths}")
        lengths.setflags(write=False)
        periodic = tuple(bool(p) for p in self.periodic)
        pmask = np.array(periodic, dtype=bool)
        pmask.setflags(write=False)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "periodic", periodic)
        # derived once: the step's skin test reads them every step
        object.__setattr__(self, "_pmask", pmask)
        object.__setattr__(self, "_all_periodic", all(periodic))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return (self.periodic == other.periodic
                and self.lengths.tolist() == other.lengths.tolist())

    def __hash__(self) -> int:
        return hash((tuple(self.lengths.tolist()), self.periodic))

    @classmethod
    def cubic(cls, l: float) -> "Box":
        return cls(lengths=np.array([l, l, l]))

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @property
    def pmask(self) -> np.ndarray:
        """Per-axis periodic flags as a read-only boolean array."""
        return self._pmask

    def wrap(self, positions: np.ndarray) -> np.ndarray:
        """Map positions into the primary cell along periodic axes."""
        pos = np.array(positions, dtype=float)
        for k in range(3):
            if self.periodic[k]:
                l = self.lengths[k]
                pos[:, k] %= l
                # guard the float edge case (-eps % L) == L
                pos[pos[:, k] >= l, k] -= l
        return pos

    def minimum_image(self, dr: np.ndarray) -> np.ndarray:
        """Apply the minimum-image convention to displacement vectors."""
        dr = np.asarray(dr, dtype=float)
        if self._all_periodic:
            # dr - lengths * round(dr / lengths), in one temporary
            out = np.divide(dr, self.lengths)
            np.rint(out, out=out)  # np.round(x) is rint(x), to the bit
            out *= self.lengths
            return np.subtract(dr, out, out=out)
        return np.where(self._pmask,
                        dr - self.lengths * np.round(dr / self.lengths), dr)

    def scaled(self, factor: float | np.ndarray) -> "Box":
        """Return a box with edge lengths scaled by ``factor``."""
        return Box(lengths=self.lengths * np.asarray(factor, dtype=float),
                   periodic=self.periodic)

    def replicate(self, nx: int, ny: int, nz: int) -> "Box":
        return Box(lengths=self.lengths * np.array([nx, ny, nz], dtype=float),
                   periodic=self.periodic)
