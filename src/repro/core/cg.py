"""Clebsch-Gordan coefficients in the doubled-integer convention.

These feed the Clebsch-Gordan products :math:`Z^j_{j_1 j_2}` of the
paper's Eq. (2).  Everything is exact rational arithmetic under the hood
(Python integers in the factorial formula) converted to float at the end,
so coefficients are accurate to machine precision for the small ``j``
used by SNAP (``2J <= 14`` in the paper's benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, sqrt

import numpy as np

__all__ = ["clebsch_gordan", "cg_tensor", "cg_sparse", "SparseCGTriple"]

def _f(n2: int) -> int:
    """Factorial of a doubled integer ``n2`` (must be an even non-negative)."""
    if n2 % 2 != 0:
        raise ValueError(f"factorial argument {n2}/2 is not an integer")
    n = n2 // 2
    if n < 0:
        raise ValueError(f"negative factorial argument {n}")
    return factorial(n)


@lru_cache(maxsize=None)
def clebsch_gordan(j1: int, m1: int, j2: int, m2: int, j: int, m: int) -> float:
    """Clebsch-Gordan coefficient ``<j1 m1 j2 m2 | j m>``.

    All six arguments are *doubled* values (``j1 = 2*j1_physical`` etc.),
    so half-integer momenta are represented exactly.
    """
    if m1 + m2 != m:
        return 0.0
    if not (abs(j1 - j2) <= j <= j1 + j2):
        return 0.0
    if (j1 + j2 + j) % 2 != 0:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m) > j:
        return 0.0
    if (j1 + m1) % 2 or (j2 + m2) % 2 or (j + m) % 2:
        return 0.0

    # Racah's factorial formula; every _f argument is a doubled integer.
    pref = (
        _f(j1 + j2 - j)
        * _f(j1 - j2 + j)
        * _f(-j1 + j2 + j)
        / _f(j1 + j2 + j + 2)
        * (j + 1)  # (2j+1) in physical units is (j+1) in doubled units
        * _f(j + m)
        * _f(j - m)
        * _f(j1 - m1)
        * _f(j1 + m1)
        * _f(j2 - m2)
        * _f(j2 + m2)
    )

    # Summation index k is a plain (non-doubled) integer.
    kmin = max(0, (j2 - j - m1) // 2, (j1 - j + m2) // 2)
    kmax = min((j1 + j2 - j) // 2, (j1 - m1) // 2, (j2 + m2) // 2)
    total = 0.0
    for k in range(kmin, kmax + 1):
        k2 = 2 * k
        denom = (
            factorial(k)
            * _f(j1 + j2 - j - k2)
            * _f(j1 - m1 - k2)
            * _f(j2 + m2 - k2)
            * _f(j - j2 + m1 + k2)
            * _f(j - j1 - m2 + k2)
        )
        total += (-1.0) ** k / denom
    return sqrt(pref) * total


@lru_cache(maxsize=None)
def cg_tensor(j1: int, j2: int, j: int) -> np.ndarray:
    """Dense CG tensor ``H[ma1, ma2, ma]`` for a (doubled) triple.

    ``H`` has shape ``(j1+1, j2+1, j+1)`` and satisfies
    ``H[ma1, ma2, ma] = <j1 m1 j2 m2 | j m>`` with ``m = m1 + m2``.
    The returned array is cached and read-only.
    """
    h = np.zeros((j1 + 1, j2 + 1, j + 1))
    shift = (j1 + j2 - j) // 2
    for ma1 in range(j1 + 1):
        m1 = 2 * ma1 - j1
        for ma2 in range(j2 + 1):
            m2 = 2 * ma2 - j2
            ma = ma1 + ma2 - shift
            if 0 <= ma <= j:
                h[ma1, ma2, ma] = clebsch_gordan(j1, m1, j2, m2, j, m1 + m2)
    h.setflags(write=False)
    return h


@dataclass(frozen=True)
class SparseCGTriple:
    """Flattened sparse index structure for one ``(j1, j2, j)`` z-triple.

    The Clebsch-Gordan product is, for every atom and every half-plane
    output element ``(ma, mb)`` with ``mb <= j/2``::

        z[ma, mb] = sum_{ma1+ma2=ma+shift} sum_{mb1+mb2=mb+shift}
                    H[ma1, ma2, ma] * H[mb1, mb2, mb]
                    * u1[ma1, mb1] * u2[ma2, mb2]

    Selection rules make ``H`` sparse, so only the nonzero products are
    enumerated here, CSR-style: entry ``k`` multiplies flat u-layer
    elements ``idx1[k]`` (into layer ``j1``, index ``ma1*(j1+1)+mb1``)
    and ``idx2[k]`` (into layer ``j2``) with real weight ``value[k]``,
    and accumulates into half-plane output ``out_index[seg]`` where
    ``seg`` is the segment containing ``k``.  Entries are sorted by
    ``(out, idx1, idx2)``; ``seg_starts`` marks the output segments
    (:meth:`repro.core.snap.SNAP._build_plan` turns them into the rows
    of its CSR operators).

    ``nnz`` / ``dense_size`` give the achieved sparsity for the FLOP
    model (``dense_size`` counts the half-plane inner products a dense
    GEMM contraction would evaluate for this triple).
    """

    idx1: np.ndarray
    idx2: np.ndarray
    value: np.ndarray
    out_index: np.ndarray
    seg_starts: np.ndarray
    nnz: int
    dense_size: int
    shape: tuple[int, int]


@lru_cache(maxsize=None)
def cg_sparse(j1: int, j2: int, j: int) -> SparseCGTriple:
    """Sparse CG index structure for a (doubled) triple (cached, read-only).

    See :class:`SparseCGTriple`.  ``SNAP.__init__`` primes this cache
    (and through it :func:`cg_tensor`'s) for every triple it uses, so
    forked process workers only ever see cache hits.
    """
    h = cg_tensor(j1, j2, j)
    ncol = j // 2 + 1
    # Nonzero (ma1, ma2, ma) entries of H; the mb factor reuses the same
    # tensor restricted to the half plane mb <= j/2.
    a1, a2, am = np.nonzero(h)
    bmask = np.nonzero(h[:, :, :ncol])
    b1, b2, bm = bmask
    na, nb = a1.size, b1.size
    # Outer product of the two nonzero lists: every (A, B) combination
    # contributes one multiply-accumulate.
    A = np.repeat(np.arange(na), nb)
    B = np.tile(np.arange(nb), na)
    ma1, ma2, ma = a1[A], a2[A], am[A]
    mb1, mb2, mb = b1[B], b2[B], bm[B]
    value = h[ma1, ma2, ma] * h[mb1, mb2, mb]
    out = ma * ncol + mb
    idx1 = ma1 * (j1 + 1) + mb1
    idx2 = ma2 * (j2 + 1) + mb2
    order = np.lexsort((idx2, idx1, out))
    out, idx1, idx2, value = out[order], idx1[order], idx2[order], value[order]
    boundary = np.empty(out.size, dtype=bool)
    if out.size:
        boundary[0] = True
        np.not_equal(out[1:], out[:-1], out=boundary[1:])
    seg_starts = np.nonzero(boundary)[0]
    out_index = out[seg_starts]
    dense = (j1 + 1) * (j2 + 1) * (j + 1) * ncol
    triple = SparseCGTriple(
        idx1=np.ascontiguousarray(idx1, dtype=np.intp),
        idx2=np.ascontiguousarray(idx2, dtype=np.intp),
        value=np.ascontiguousarray(value),
        out_index=np.ascontiguousarray(out_index, dtype=np.intp),
        seg_starts=np.ascontiguousarray(seg_starts, dtype=np.intp),
        nnz=int(value.size),
        dense_size=int(dense),
        shape=(j + 1, ncol),
    )
    for arr in (triple.idx1, triple.idx2, triple.value,
                triple.out_index, triple.seg_starts):
        arr.setflags(write=False)
    return triple
