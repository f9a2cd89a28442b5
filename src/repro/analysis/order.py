"""Steinhardt bond-orientational order parameters.

``q_l(i)`` fingerprints the local angular arrangement of an atom's
neighbor shell; we use it to distinguish the diamond, BC8 and amorphous
environments of the paper's a-C -> BC8 transformation.
"""

from __future__ import annotations

import numpy as np
from scipy.special import sph_harm_y

from ..md.box import Box
from ..md.neighbor import build_pairs

__all__ = ["steinhardt_q", "local_fingerprints"]


def _qlm_sums(positions: np.ndarray, box: Box, rcut: float, l: int,
              nnn: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-atom sums of Y_lm over the neighbor shell and neighbor counts.

    If ``nnn`` is given, only the ``nnn`` nearest neighbors (within
    ``rcut``) of each atom contribute - the convention that makes the
    fingerprint robust against cutoff placement in dense liquids.
    """
    n = positions.shape[0]
    pairs = build_pairs(positions, box, rcut)
    i_idx, rij, r = pairs.i_idx, pairs.rij, pairs.r
    if nnn is not None:
        order = np.lexsort((r, i_idx))
        i_s = i_idx[order]
        rank = np.arange(i_s.size) - np.searchsorted(i_s, i_s)
        keep = order[rank < nnn]
        i_idx, rij, r = i_idx[keep], rij[keep], r[keep]
    theta = np.arccos(np.clip(rij[:, 2] / r, -1.0, 1.0))
    phi = np.arctan2(rij[:, 1], rij[:, 0])
    qlm = np.zeros((n, 2 * l + 1), dtype=np.complex128)
    for mi, m in enumerate(range(-l, l + 1)):
        vals = sph_harm_y(l, m, theta, phi)
        np.add.at(qlm[:, mi], i_idx, vals)
    return qlm, np.bincount(i_idx, minlength=n)


def steinhardt_q(positions: np.ndarray, box: Box, rcut: float, l: int = 6,
                 nnn: int | None = None) -> np.ndarray:
    """Per-atom ``q_l``; zero for atoms with no neighbors."""
    qlm, counts = _qlm_sums(positions, box, rcut, l, nnn)
    safe = np.maximum(counts, 1)
    qlm /= safe[:, None]
    s = np.sum(np.abs(qlm) ** 2, axis=1)
    q = np.sqrt(4.0 * np.pi / (2 * l + 1) * s)
    return np.where(counts > 0, q, 0.0)


def local_fingerprints(positions: np.ndarray, box: Box, rcut: float,
                       ls: tuple[int, ...] = (3, 4, 6),
                       nnn: int | None = 4) -> np.ndarray:
    """Stacked ``q_l`` fingerprints, shape ``(natoms, len(ls))``.

    The default ``nnn=4`` targets the fourfold-coordinated carbon phases
    (diamond and BC8 are both 4-coordinated; their angular distortion
    separates them in ``q_l`` space).
    """
    return np.stack([steinhardt_q(positions, box, rcut, l, nnn) for l in ls], axis=1)
