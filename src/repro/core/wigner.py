r"""Wigner ``U`` matrices (hyperspherical harmonics) and their gradients.

The neighbor density on the 3-sphere is expanded in Wigner matrices
``U_j`` (paper Eq. 1).  Each relative position ``r_ik`` is mapped to
Cayley-Klein parameters

.. math::

    a = (z_0 - i z) / r_0, \qquad b = (y - i x) / r_0,

with :math:`r_0 = \sqrt{r^2 + z_0^2}`, :math:`z_0 = r \cot\theta_0` and
:math:`\theta_0 = r_{fac0}\,\pi\,(r - r_{min0}) / (r_{cut} - r_{min0})`.
Layers are then built by the standard VMK recursion, exactly as the
LAMMPS/TestSNAP kernels the paper optimizes (the hot path runs it in a
scaled basis where its square-root coefficients are all 1).  Everything
here is vectorized over an arbitrary batch of neighbor vectors; a layer
``j`` (doubled convention) is a complex array of shape ``(n, j+1, j+1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import comb

__all__ = ["CayleyKlein", "cayley_klein", "compute_u_layers", "compute_du_layers",
           "flatten_layers", "flatten_dlayers", "half_ncols", "half_scale",
           "compute_u_layers_half_lm", "adjoint_sweep_half_lm"]


@dataclass
class CayleyKlein:
    """Cayley-Klein parameters and their Cartesian gradients for a batch."""

    a: np.ndarray  # (n,) complex
    b: np.ndarray  # (n,) complex
    da: np.ndarray  # (n, 3) complex
    db: np.ndarray  # (n, 3) complex


def cayley_klein(rij: np.ndarray, r: np.ndarray, rcut: float,
                 rfac0: float = 0.99363, rmin0: float = 0.0) -> CayleyKlein:
    """Map neighbor vectors to 3-sphere coordinates with gradients.

    Parameters
    ----------
    rij:
        ``(n, 3)`` relative positions ``r_k - r_i``.
    r:
        ``(n,)`` distances ``|rij|`` (must be positive and below ``rcut``).
    """
    rij = np.asarray(rij, dtype=float)
    r = np.asarray(r, dtype=float)
    x, y, z = rij[:, 0], rij[:, 1], rij[:, 2]

    rscale0 = rfac0 * np.pi / (rcut - rmin0)
    theta0 = (r - rmin0) * rscale0
    z0 = r / np.tan(theta0)
    dz0dr = z0 / r - rscale0 * (r * r + z0 * z0) / r

    r0inv = 1.0 / np.sqrt(r * r + z0 * z0)
    a = r0inv * (z0 - 1j * z)
    b = r0inv * (y - 1j * x)

    uhat = rij / r[:, None]
    dr0invdr = -(r0inv ** 3) * (r + z0 * dz0dr)
    dr0inv = dr0invdr[:, None] * uhat  # (n, 3)
    dz0 = dz0dr[:, None] * uhat

    da = (dz0 * r0inv[:, None] + z0[:, None] * dr0inv) - 1j * (z[:, None] * dr0inv)
    da[:, 2] += -1j * r0inv
    db = (y[:, None] * dr0inv) - 1j * (x[:, None] * dr0inv)
    db[:, 0] += -1j * r0inv  # d(-i x r0inv)/dx
    db[:, 1] += r0inv        # d(y r0inv)/dy
    return CayleyKlein(a=a, b=b, da=da, db=db)


def compute_u_layers(ck: CayleyKlein, twojmax: int) -> list[np.ndarray]:
    """All Wigner layers ``U_j`` for ``j = 0..twojmax`` (doubled).

    Returns a list where element ``j`` has shape ``(n, j+1, j+1)``.
    """
    n = ck.a.shape[0]
    ac = np.conj(ck.a)
    bc = np.conj(ck.b)
    layers = [np.ones((n, 1, 1), dtype=np.complex128)]
    for j in range(1, twojmax + 1):
        prev = layers[j - 1]
        uj = np.zeros((n, j + 1, j + 1), dtype=np.complex128)
        ma = np.arange(j)
        mb = np.arange(j)
        c1 = np.sqrt((j - ma)[:, None] / (j - mb)[None, :])
        c2 = np.sqrt((ma + 1)[:, None] / (j - mb)[None, :])
        uj[:, :j, :j] += c1 * (ac[:, None, None] * prev)
        uj[:, 1:, :j] += -c2 * (bc[:, None, None] * prev)
        rows = np.arange(j + 1)
        sign = (-1.0) ** (j - rows)
        uj[:, rows, j] = sign * np.conj(uj[:, j - rows, 0])
        layers.append(uj)
    return layers


def compute_du_layers(ck: CayleyKlein, twojmax: int,
                      u_layers: list[np.ndarray] | None = None
                      ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Wigner layers and their Cartesian gradients.

    Returns ``(u_layers, du_layers)`` where ``du_layers[j]`` has shape
    ``(n, 3, j+1, j+1)`` and holds :math:`\\partial U_j / \\partial r_k`
    at fixed switching factor (the radial ``fc`` weighting is applied by
    the caller via the product rule).
    """
    if u_layers is None:
        u_layers = compute_u_layers(ck, twojmax)
    n = ck.a.shape[0]
    ac = np.conj(ck.a)[:, None, None, None]
    bc = np.conj(ck.b)[:, None, None, None]
    dac = np.conj(ck.da)[:, :, None, None]
    dbc = np.conj(ck.db)[:, :, None, None]
    dlayers = [np.zeros((n, 3, 1, 1), dtype=np.complex128)]
    for j in range(1, twojmax + 1):
        uprev = u_layers[j - 1][:, None, :, :]
        dprev = dlayers[j - 1]
        duj = np.zeros((n, 3, j + 1, j + 1), dtype=np.complex128)
        ma = np.arange(j)
        mb = np.arange(j)
        c1 = np.sqrt((j - ma)[:, None] / (j - mb)[None, :])
        c2 = np.sqrt((ma + 1)[:, None] / (j - mb)[None, :])
        duj[:, :, :j, :j] += c1 * (dac * uprev + ac * dprev)
        duj[:, :, 1:, :j] += -c2 * (dbc * uprev + bc * dprev)
        rows = np.arange(j + 1)
        sign = (-1.0) ** (j - rows)
        duj[:, :, rows, j] = sign * np.conj(duj[:, :, j - rows, 0])
        dlayers.append(duj)
    return u_layers, dlayers


def half_ncols(twojmax: int) -> list[int]:
    """Columns per layer of the half-plane layout: ``mb <= j//2``, plus
    for odd ``j < twojmax`` the spill column ``(j+1)/2`` that the even
    layer above reads."""
    return [j // 2 + 1 + (1 if j % 2 and j < twojmax else 0)
            for j in range(twojmax + 1)]


def half_scale(twojmax: int) -> list[np.ndarray]:
    """``D_j[ma, mb] = sqrt(C(j, mb) / C(j, ma))`` on ``mb <= j//2``:
    the constant that takes a layer of :func:`compute_u_layers_half_lm`
    to the Wigner matrix, ``U_j = D_j * V_j`` (<= 8.4 at 2J=8, 59 at 14)."""
    out = []
    for j in range(twojmax + 1):
        c = comb(j, np.arange(j + 1))  # exact in float64 far beyond 2J=14
        out.append(np.sqrt(c[None, :j // 2 + 1] / c[:, None]))
    return out


def compute_u_layers_half_lm(ck: CayleyKlein, twojmax: int,
                             seed: np.ndarray | float = 1.0
                             ) -> list[np.ndarray]:
    """Layer-major left-half layers in the binomially scaled basis:
    element ``j`` has shape ``(j+1, half_ncols(twojmax)[j], n)`` and
    holds ``V_j[ma, mb] = seed * U_j[ma, mb] * sqrt(C(j,ma) / C(j,mb))``.

    In that basis the recursion of :func:`compute_u_layers` has no
    coefficients, ``V_j[ma, mb] = conj(a) V_{j-1}[ma, mb] - conj(b)
    V_{j-1}[ma-1, mb]``; the constant ``D_j`` (:func:`half_scale`) is
    applied where the layers are consumed, once per atom.  Every layer
    is linear in layer 0, so a per-pair real ``seed`` (the switching
    weight) comes out multiplied into all of them.  The pair axis is
    innermost (every elementwise operation runs over a long contiguous
    axis) and only the columns ``mb <= j//2`` are built: the mirror
    ``V_j[j-ma, j-mb] = (-1)^(ma+mb) conj(V_j[ma, mb])`` (the scale is
    invariant under it) makes the right half redundant.  Column ``mb``
    of layer ``j`` depends only on column ``mb`` of layer ``j-1``, so
    the recursion stays closed on the left half, except that an even
    layer needs column ``j/2`` of the odd layer below - that *spill
    column* is rebuilt from the odd layer's column ``j/2 - 1`` by the
    same symmetry and stored with it.
    """
    n = ck.a.shape[0]
    ac = np.conj(ck.a)
    bc = np.conj(ck.b)
    ncols = half_ncols(twojmax)
    layers = [np.full((1, 1, n), seed, dtype=np.complex128)]
    buf = np.empty((twojmax, twojmax // 2 + 1, n), dtype=np.complex128)
    for j in range(1, twojmax + 1):
        prev = layers[j - 1]
        ncol = j // 2 + 1
        vj = np.empty((j + 1, ncols[j], n), dtype=np.complex128)
        np.multiply(prev, ac, out=vj[:j, :ncol])
        vj[j, :ncol] = 0.0
        t = buf[:j, :ncol]
        np.multiply(prev, bc, out=t)
        vj[1:, :ncol] -= t
        if ncols[j] > ncol:
            sign = (-1.0) ** (j - np.arange(j + 1) + ncol - 1)
            vj[:, ncol] = sign[:, None] * np.conj(vj[::-1, ncol - 1])
        layers.append(vj)
    return layers


def adjoint_sweep_half_lm(ck: CayleyKlein, v_layers: list[np.ndarray],
                          yv_layers: list[np.ndarray]
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reverse-mode sweep of the half-plane recursion against ``yv_layers``.

    ``v_layers`` come from :func:`compute_u_layers_half_lm`; element
    ``j`` of ``yv_layers`` is the ``(j+1, j//2+1, n)`` weight of layer
    ``j`` in the same basis (``D_j`` times the weight of ``U_j``).  With
    ``S = sum_j sum(yv_j * V_j)`` over the half plane, returns per-pair
    complex ``(g0, p, q)`` such that

        d Re(S) = Re(p * d conj(a) + q * d conj(b))

    and ``Re(g0)`` is ``Re(S)`` of the unit-seeded layers.

    Every layer is linear in ``(conj(a), conj(b))`` and in the layer
    below (``v_j[:j] = conj(a) x``, ``v_j[1:] -= conj(b) x``,
    ``x = v_{j-1}``), so the adjoint ``G_j`` of layer ``j`` is carried
    downwards instead of three Cartesian tangents upwards:
    ``p += sum G_j[:j] x``, ``q -= sum G_j[1:] x`` and
    ``G_{j-1} = yv_{j-1} + conj(a) G_j[:j] - conj(b) G_j[1:]``.
    The spill column of ``x`` is an anti-linear function of column
    ``j/2 - 1``, so its adjoint is conjugated back into that column.
    ``G`` never reads the layers and ``Re(S)`` is real-linear in layer
    0, so the adjoint that reaches layer 0 is ``g0`` whatever the seed,
    while ``p`` and ``q`` carry it.
    """
    twojmax = len(v_layers) - 1
    n = ck.a.shape[0]
    if n == 1:
        # einsum folds a length-1 pair axis away and reduces in another
        # order; run the pair twice so per-pair results never depend on
        # the batch they sit in (the bitwise serial == row-slice contract)
        def twice(v):
            return np.repeat(v, 2, axis=-1)
        return tuple(v[:1] for v in adjoint_sweep_half_lm(
            replace(ck, a=twice(ck.a), b=twice(ck.b)),
            [twice(v) for v in v_layers], [twice(w) for w in yv_layers]))
    ac = np.conj(ck.a)
    bc = np.conj(ck.b)
    p = np.zeros(n, dtype=np.complex128)
    q = np.zeros(n, dtype=np.complex128)
    g = yv_layers[twojmax]
    for j in range(twojmax, 0, -1):
        ncol = j // 2 + 1
        x = v_layers[j - 1]
        p += np.einsum("abp,abp->p", g[:j], x)
        q -= np.einsum("abp,abp->p", g[1:], x)
        g1 = g[:j] * ac
        g1 -= g[1:] * bc
        kept = (j - 1) // 2 + 1
        g = yv_layers[j - 1] + g1[:, :kept]
        if kept < ncol:
            sign = (-1.0) ** (j - 1 - np.arange(j) + kept - 1)
            g[::-1, kept - 1] += sign[:, None] * np.conj(g1[:, kept])
    return g[0, 0], p, q


def flatten_layers(layers: list[np.ndarray]) -> np.ndarray:
    """Concatenate layers into the flat ``(n, nu)`` vector layout."""
    n = layers[0].shape[0]
    return np.concatenate([l.reshape(n, -1) for l in layers], axis=1)


def flatten_dlayers(dlayers: list[np.ndarray]) -> np.ndarray:
    """Concatenate gradient layers into ``(n, 3, nu)``."""
    n = dlayers[0].shape[0]
    return np.concatenate([l.reshape(n, 3, -1) for l in dlayers], axis=2)
