"""Stillinger-Weber potential with carbon-flavored defaults.

Role in the reproduction (see DESIGN.md, substitution #2): the paper's
carbon SNAP was trained to DFT, which is unavailable offline.  We use a
three-body Stillinger-Weber model - which stabilizes fourfold (diamond)
coordination like the paper's carbon - as the *reference* potential
that generates training data for our SNAP fit and drives the physics
examples (diamond/BC8 equations of state, melt-quench amorphous carbon).

Functional form (Stillinger & Weber 1985):

.. math::

    v_2(r) = A\\epsilon\\,(B (\\sigma/r)^p - (\\sigma/r)^q)
             \\exp\\!\\frac{\\sigma}{r - a\\sigma}

.. math::

    v_3 = \\lambda\\epsilon (\\cos\\theta_{jik} - \\cos\\theta_0)^2
          \\exp\\!\\frac{\\gamma\\sigma}{r_{ij} - a\\sigma}
          \\exp\\!\\frac{\\gamma\\sigma}{r_{ik} - a\\sigma}

Defaults are the original Si parameter set rescaled to carbon-like bond
length (sigma chosen so the diamond first-neighbor distance ~1.54 A)
and cohesion (epsilon in eV).
"""

from __future__ import annotations

import numpy as np

from ..core.snap import NeighborBatch, scatter_add
from .base import Potential

__all__ = ["StillingerWeber", "triplet_indices"]


def triplet_indices(i_idx: np.ndarray, natoms: int) -> tuple[np.ndarray, np.ndarray]:
    """All pair-row combinations ``(p, q)`` with ``p < q`` sharing a center.

    ``i_idx`` must be sorted (CSR ordering).  Returns two arrays of pair
    row indices; each unordered neighbor pair ``{j, k}`` of each central
    atom appears exactly once.  Vectorized by grouping atoms with equal
    neighbor counts and broadcasting a cached ``triu`` pattern.
    """
    ptr = np.searchsorted(i_idx, np.arange(natoms + 1))
    counts = np.diff(ptr)
    p_list, q_list = [], []
    for c in np.unique(counts):
        if c < 2:
            continue
        atoms = np.nonzero(counts == c)[0]
        la, lb = np.triu_indices(c, k=1)
        starts = ptr[atoms]
        p_list.append((starts[:, None] + la[None, :]).ravel())
        q_list.append((starts[:, None] + lb[None, :]).ravel())
    if not p_list:
        e = np.zeros(0, dtype=np.intp)
        return e, e
    return np.concatenate(p_list), np.concatenate(q_list)


class StillingerWeber(Potential):
    """Three-body Stillinger-Weber potential (single species)."""

    def __init__(self, epsilon: float = 3.2, sigma: float = 1.335,
                 a: float = 1.8, lam: float = 23.0, gamma: float = 1.2,
                 cos0: float = -1.0 / 3.0, big_a: float = 7.049556277,
                 big_b: float = 0.6022245584, p: float = 4.0, q: float = 0.0) -> None:
        if epsilon <= 0 or sigma <= 0 or a <= 1:
            raise ValueError("need epsilon > 0, sigma > 0, a > 1")
        self.epsilon = float(epsilon)
        self.sigma = float(sigma)
        self.a = float(a)
        self.lam = float(lam)
        self.gamma = float(gamma)
        self.cos0 = float(cos0)
        self.big_a = float(big_a)
        self.big_b = float(big_b)
        self.p = float(p)
        self.q = float(q)
        self.cutoff = self.a * self.sigma

    # -- two-body ------------------------------------------------------
    def _v2(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        eps, sig = self.epsilon, self.sigma
        inside = r < self.cutoff - 1e-12
        rs = np.where(inside, r, self.cutoff - 1e-6)
        sr = sig / rs
        poly = self.big_b * sr ** self.p - sr ** self.q
        dpoly = (-self.p * self.big_b * sr ** self.p + self.q * sr ** self.q) / rs
        g = sig / (rs - self.a * sig)
        e = np.exp(g)
        dg = -sig / (rs - self.a * sig) ** 2
        v2 = self.big_a * eps * poly * e
        dv2 = self.big_a * eps * e * (dpoly + poly * dg)
        return np.where(inside, v2, 0.0), np.where(inside, dv2, 0.0)

    # -- three-body radial factor --------------------------------------
    def _h(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sig = self.sigma
        inside = r < self.cutoff - 1e-12
        rs = np.where(inside, r, self.cutoff - 1e-6)
        g = self.gamma * sig / (rs - self.a * sig)
        e = np.exp(g)
        de = e * (-self.gamma * sig / (rs - self.a * sig) ** 2)
        return np.where(inside, e, 0.0), np.where(inside, de, 0.0)

    def pair_gradients(self, nbr: NeighborBatch, rows: tuple[int, int]
                       ) -> tuple[np.ndarray, np.ndarray]:
        """``E_i`` is half of atom ``i``'s bonds plus the triplets it
        centers; a triplet's two gradients land on its two pair rows.
        Each row collects only its own atom's triplets, in the fixed
        ``triu`` order, so row windows concatenate bitwise."""
        lo, hi = rows
        i_loc = nbr.i_idx - lo
        phi, dphi = self._v2(nbr.r)
        peratom = scatter_add(i_loc, 0.5 * phi, hi - lo)
        dedr = (0.5 * dphi / nbr.r)[:, None] * nbr.rij

        pidx, qidx = triplet_indices(i_loc, hi - lo)
        if pidx.size:
            uj = nbr.rij[pidx]
            uk = nbr.rij[qidx]
            rj = nbr.r[pidx]
            rk = nbr.r[qidx]
            ej, dej = self._h(rj)
            ek, dek = self._h(rk)
            c = np.einsum("tc,tc->t", uj, uk) / (rj * rk)
            dc = c - self.cos0
            pref = self.lam * self.epsilon
            e3 = pref * dc * dc * ej * ek
            peratom += scatter_add(i_loc[pidx], e3, hi - lo)

            # dcos/d(u_j) = u_k/(rj rk) - c u_j/rj^2  (and j<->k symmetric)
            dcdj = uk / (rj * rk)[:, None] - (c / (rj * rj))[:, None] * uj
            dcdk = uj / (rj * rk)[:, None] - (c / (rk * rk))[:, None] * uk
            common = pref * ej * ek
            # gradient of e3 w.r.t. neighbor-j position
            gj = common[:, None] * (2.0 * dc[:, None] * dcdj) + \
                (pref * dc * dc * dej * ek / rj)[:, None] * uj
            gk = common[:, None] * (2.0 * dc[:, None] * dcdk) + \
                (pref * dc * dc * ej * dek / rk)[:, None] * uk
            rows3 = np.concatenate((pidx, qidx))
            g3 = np.concatenate((gj, gk))
            for axis in range(3):
                dedr[:, axis] += scatter_add(rows3, g3[:, axis], nbr.npairs)
        return peratom, dedr
