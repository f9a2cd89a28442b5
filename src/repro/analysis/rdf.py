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
    hist, edges = bond_histogram(positions, box, rmax, nbins)
    rc = 0.5 * (edges[1:] + edges[:-1])
    shell = 4.0 * np.pi * rc**2 * np.diff(edges)
    rho = n / box.volume
    g = hist / (n * shell * rho)
    return rc, g


def bond_histogram(positions: np.ndarray, box: Box, rmax: float,
                   nbins: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair-distance counts on ``[0, rmax)`` as a full list would give
    them (each bond from both ends), from each bond once: the counts
    are doubled, so ``g(r)`` reads per-atom pair density."""
    pairs = build_pairs(positions, box, rmax, half=True)
    hist, edges = np.histogram(pairs.r, bins=nbins, range=(0.0, rmax))
    return 2 * hist, edges


def coordination_numbers(positions: np.ndarray, box: Box, rcut: float) -> np.ndarray:
    """Number of neighbors within ``rcut`` per atom (each bond counted
    at both ends)."""
    pairs = build_pairs(positions, box, rcut, half=True)
    n = positions.shape[0]
    return np.bincount(pairs.i_idx, minlength=n) \
        + np.bincount(pairs.j_idx, minlength=n)
