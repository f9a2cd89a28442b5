"""Radial distribution function and coordination numbers."""

from __future__ import annotations

import numpy as np

from ..md.box import Box
from ..md.neighbor import build_pairs

__all__ = ["rdf", "coordination_numbers"]


def rdf(positions: np.ndarray, box: Box, rmax: float, nbins: int = 100
        ) -> tuple[np.ndarray, np.ndarray]:
    """Radial distribution function ``g(r)``.

    Returns ``(r_centers, g)``.  Normalization is the standard ideal-gas
    one, so a random sample gives ``g ~ 1``.
    """
    n = positions.shape[0]
    if n < 2:
        raise ValueError("need at least two atoms")
    pairs = build_pairs(positions, box, rmax)
    hist, edges = np.histogram(pairs.r, bins=nbins, range=(0.0, rmax))
    rc = 0.5 * (edges[1:] + edges[:-1])
    shell = 4.0 * np.pi * rc**2 * np.diff(edges)
    rho = n / box.volume
    # full pair list counts each bond twice -> per-atom pair density
    g = hist / (n * shell * rho)
    return rc, g


def coordination_numbers(positions: np.ndarray, box: Box, rcut: float) -> np.ndarray:
    """Number of neighbors within ``rcut`` per atom."""
    pairs = build_pairs(positions, box, rcut)
    return np.bincount(pairs.i_idx, minlength=positions.shape[0])
