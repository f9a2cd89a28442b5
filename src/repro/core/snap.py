"""SNAP potential: vectorized adjoint-refactorized energy/force kernel.

This is the production implementation of the paper's force kernel,
mirroring the optimized LAMMPS/Kokkos pipeline in NumPy:

1. ``compute_ui``   - accumulate neighbor-density expansion ``U_tot``
   per atom (paper Eq. 1), O(J^3 N_nbor) per atom.
2. ``compute_yi``   - adjoint accumulation ``Y_j = sum beta Z^j_{j1 j2}``
   (paper Eq. 7) which replaces the O(J^5) ``Z``/``dB`` storage of the
   original algorithm with O(J^3) storage - the "adjoint
   refactorization" that made the 2J=14 problem fit on a V100 and is the
   paper's key algorithmic enabler.  The bispectrum components ``B``
   (for the energy) fall out of the same pass.
3. ``compute_dui/deidrj`` - per-pair gradients of ``Y : conj(U)``
   (paper Eq. 8) by one reverse-mode sweep of the ``U`` recursion per
   pair chunk: the adjoint of each layer is carried downwards, so
   neither ``dU`` nor any per-direction tensor is ever materialized.
   Whether the per-pair ``U`` layers are re-computed per chunk or
   cached from stage 1 is the ``SNAPParams.store_u`` knob - the same
   recompute-vs-store trade the paper uses to raise arithmetic
   intensity on GPUs (kernel fusion).  All hot-path array work runs in
   *layer-major* half-plane layout (pair axis innermost, columns
   ``mb <= j/2``) and both force scatters are ``np.add.reduceat``
   segment reductions.

The per-kernel wall times of the latest evaluation are kept in
:attr:`SNAP.last_timings` so benchmarks can report a stage breakdown.
"""

from __future__ import annotations

import operator
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .cg import cg_sparse, cg_tensor
from .indexing import SNAPIndex
from .switching import sfac_dsfac
from .wigner import (adjoint_sweep_half_lm, cayley_klein,
                     compute_u_layers_half_lm, half_ncols)

__all__ = ["SNAPParams", "NeighborBatch", "EnergyForces", "SNAP"]


@dataclass(frozen=True)
class SNAPParams:
    """Hyperparameters of a SNAP model (single chemical species).

    ``twojmax`` is the doubled band limit (paper benchmark sizes: 8 and
    14, giving 55 and 204 bispectrum components).  ``rcut`` is the
    neighbor cutoff in Angstrom.

    ``store_u`` controls the store-vs-recompute trade of the force pass
    (the arithmetic-intensity knob of the TestSNAP ladder): ``"always"``
    caches the per-pair switching factors and Wigner ``U`` layers from
    the density accumulation and reuses them for the gradients,
    ``"never"`` recomputes them per chunk, and ``"auto"`` stores only
    when the whole-pair-list cache fits in ``store_u_budget_mb``.

    ``chunk`` is the pair-block size of both passes: large enough to
    amortize per-chunk dispatch overhead, small enough that the
    per-chunk scratch (O(nu_half * chunk) complex) stays
    cache-friendly.  4096 is the measured sweet spot at 2J=8.

    ``y_mode`` selects the z-triple contraction of the adjoint pass:
    ``"dense"`` runs the three-GEMM path, ``"sparse"`` contracts only
    the nonzero Clebsch-Gordan products through the precomputed index
    lists of :func:`repro.core.cg.cg_sparse` (identical forces, fewer
    FLOPs - the selection rules zero most of the dense blocks).

    These three fields are the whole kernel policy.  They are fixed
    when the (frozen) params object is built; nothing is read from disk
    or the environment, and an evaluator never rebinds its params.

    ``check_finite`` (debug sanitizer, default off) validates every
    kernel-stage output for NaN/Inf on exit and raises
    :class:`repro.lint.sanitizers.NumericsError` naming the offending
    stage; see ``python -m repro.lint`` in the README.
    """

    twojmax: int = 8
    rcut: float = 4.7
    rfac0: float = 0.99363
    rmin0: float = 0.0
    wself: float = 1.0
    switch: bool = True
    chunk: int = 4096
    store_u: str = "auto"
    store_u_budget_mb: float = 256.0
    check_finite: bool = False
    y_mode: str = "dense"

    def __post_init__(self) -> None:
        if self.rcut <= self.rmin0:
            raise ValueError("rcut must exceed rmin0")
        if self.twojmax < 0:
            raise ValueError("twojmax must be non-negative")
        try:
            chunk = operator.index(self.chunk)  # int or NumPy integer
        except TypeError:
            chunk = 0
        if chunk < 1 or isinstance(self.chunk, bool):
            raise ValueError(
                f"chunk must be a positive integer, got {self.chunk!r}")
        object.__setattr__(self, "chunk", chunk)
        if self.store_u not in ("auto", "always", "never"):
            raise ValueError("store_u must be 'auto', 'always' or 'never'")
        if self.store_u_budget_mb <= 0:
            raise ValueError("store_u_budget_mb must be positive")
        if self.y_mode not in ("dense", "sparse"):
            raise ValueError(
                f"y_mode must be 'dense' or 'sparse', got {self.y_mode!r}")


@dataclass
class NeighborBatch:
    """Flat neighbor pairs for a batch of atoms.

    ``i_idx[p]`` is the central atom of pair ``p`` and ``rij[p]`` the
    vector from it to its neighbor (minimum-image applied by the caller);
    ``r`` are the distances.  Pairs must appear in both directions, as
    in a LAMMPS *full* neighbor list.

    ``pair_weight`` and ``pair_rcut`` optionally carry per-pair density
    weights and cutoffs, the multi-species SNAP convention (``wj`` of the
    neighbor's element, ``(R_i + R_j) * rcutfac``).  Pairs beyond their
    own ``pair_rcut`` contribute exactly zero.
    """

    i_idx: np.ndarray
    rij: np.ndarray
    r: np.ndarray
    j_idx: np.ndarray | None = None  # neighbor atom ids; needed for forces
    pair_weight: np.ndarray | None = None
    pair_rcut: np.ndarray | None = None
    _j_perm: np.ndarray | None = field(default=None, init=False, repr=False)
    #: ``(reference batch, keep mask)`` of a skin-filtered batch, set by
    #: :func:`repro.md.neighbor.filter_pairs`
    _j_source: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.i_idx = np.ascontiguousarray(self.i_idx, dtype=np.intp)
        self.rij = np.ascontiguousarray(self.rij, dtype=float)
        self.r = np.ascontiguousarray(self.r, dtype=float)
        if self.j_idx is not None:
            self.j_idx = np.ascontiguousarray(self.j_idx, dtype=np.intp)
            if self.j_idx.shape != self.i_idx.shape:
                raise ValueError("j_idx must have shape (npairs,)")
        if self.rij.shape != (self.i_idx.shape[0], 3):
            raise ValueError("rij must have shape (npairs, 3)")
        if self.r.shape != self.i_idx.shape:
            raise ValueError("r must have shape (npairs,)")
        for name in ("pair_weight", "pair_rcut"):
            v = getattr(self, name)
            if v is not None:
                v = np.ascontiguousarray(v, dtype=float)
                if v.shape != self.r.shape:
                    raise ValueError(f"{name} must have shape (npairs,)")
                setattr(self, name, v)

    @property
    def npairs(self) -> int:
        return self.i_idx.shape[0]

    def j_sorted_perm(self) -> np.ndarray:
        """Stable permutation sorting pairs by neighbor atom (cached).

        Built on first call - only the SNAP force scatter asks - so the
        j-side scatter can run as a segment reduction instead of an
        ``np.add.at`` scatter.  A skin-filtered batch derives it from its
        reference's permutation in O(npairs): compressing a stable sort
        keeps it stable, so there is one sort per topology build.
        """
        if self.j_idx is None:
            raise ValueError("NeighborBatch.j_idx is required for j_sorted_perm")
        if self._j_perm is None:
            if self._j_source is None:
                self._j_perm = np.argsort(self.j_idx, kind="stable")
            else:
                ref, keep = self._j_source
                p = ref.j_sorted_perm()
                self._j_perm = (np.cumsum(keep) - 1)[p[keep[p]]]
        return self._j_perm


def _scatter_sum_sorted(out: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """``out[idx] += values`` for *sorted* ``idx`` via segment reduction.

    Neighbor pair lists are CSR-sorted by central atom, so the hot
    accumulation of ``U_tot`` reduces to ``np.add.reduceat`` on segment
    boundaries - far faster than ``np.add.at`` scatter adds.
    """
    if idx.size == 0:
        return
    starts = np.flatnonzero(np.r_[True, np.diff(idx) > 0])
    sums = np.add.reduceat(values, starts, axis=0)
    out[idx[starts]] += sums


@dataclass
class EnergyForces:
    """Result of a SNAP evaluation."""

    energy: float
    peratom: np.ndarray
    forces: np.ndarray
    virial: np.ndarray  # (3, 3), eV


class SNAP:
    """Linear SNAP interatomic potential.

    Parameters
    ----------
    params:
        Model hyperparameters.
    beta:
        Linear coefficients of length ``index.ncoeff`` = number of
        bispectrum components + 1; ``beta[0]`` is the constant per-atom
        energy shift and ``beta[1:]`` weight the components (paper Eq. 4).
    bzero:
        If True, subtract the isolated-atom bispectrum from ``B`` so a
        lone atom has energy ``beta[0]`` exactly (LAMMPS ``bzeroflag``).
    """

    def __init__(self, params: SNAPParams, beta: np.ndarray | None = None,
                 bzero: bool = False, quadratic: np.ndarray | None = None) -> None:
        self.params = params
        self.index = SNAPIndex(params.twojmax)
        if beta is None:
            beta = np.zeros(self.index.ncoeff)
            beta[1:] = 1.0
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (self.index.ncoeff,):
            raise ValueError(
                f"beta must have shape ({self.index.ncoeff},) for twojmax="
                f"{params.twojmax}, got {beta.shape}")
        self.beta = beta
        if quadratic is not None:
            quadratic = np.asarray(quadratic, dtype=float)
            nb = self.index.nb
            if quadratic.shape != (nb, nb):
                raise ValueError(f"quadratic must have shape ({nb}, {nb})")
            quadratic = 0.5 * (quadratic + quadratic.T)  # symmetrize
        self.quadratic = quadratic
        self._diag = self.index.diagonal_indices()
        # _build_triples touches cg_tensor/cg_sparse for every triple,
        # priming both lru caches eagerly so forked process workers only
        # ever see cache hits.
        self._triple_cache = self._build_triples()
        self._half_slices, self._nu_half, self._expand_phase = \
            self._build_half_layout()
        # Complex values per pair of the half-plane U layers (half plane
        # plus the odd-layer spill columns): the store_u cache layout
        # and the basis of its byte estimate.
        self._nu_store = sum((j + 1) * nc for j, nc
                             in enumerate(half_ncols(params.twojmax)))
        self.last_timings: dict[str, float] = {}
        self.last_store_u: bool = False
        self._plan_lock = threading.Lock()
        #: lazily built beta-folded plan of the sparse-CG Y pass
        self._y_plan: dict | None = None  # guarded-by: _plan_lock
        self.bzero_shift = self._isolated_b() if bzero else np.zeros(self.index.nb)

    # ------------------------------------------------------------------
    # setup helpers
    # ------------------------------------------------------------------
    def _build_triples(self) -> list[dict]:
        """Per z-triple: CG tensor, layer views and the Y beta-routing.

        ``beta_route`` stores ``(b_index, factor)`` implementing the
        LAMMPS role-permutation rules by which every ``Z^j_{j1 j2}``
        contributes to ``Y_j`` weighted by the bispectrum coefficient of
        the *canonical* triple it corresponds to.
        """
        idx = self.index
        triples = []
        for (j1, j2, j) in idx.z_triples:
            if j >= j1:
                bidx = idx.b_index[(j1, j2, j)]
                if j1 == j:
                    factor = 3.0 if j2 == j else 2.0
                else:
                    factor = 1.0
            elif j >= j2:
                bidx = idx.b_index[(j, j2, j1)]
                factor = (j1 + 1) / (j + 1.0)
                if j2 == j:
                    factor *= 2.0
            else:
                bidx = idx.b_index[(j2, j, j1)]
                factor = (j1 + 1) / (j + 1.0)
            h = cg_tensor(j1, j2, j)
            d1, d2, d = h.shape
            hc = np.ascontiguousarray(h, dtype=np.complex128)
            # Z inherits the layer symmetry Z[j-ma, j-mb] = (-1)^(ma+mb)
            # conj(Z[ma, mb]), so only columns mb <= j/2 are computed:
            # the final GEMM keeps ncol of d output columns and the B
            # contraction runs on the half-plane with doubled column
            # weights (the self-mirrored middle column of even j singly).
            ncol = j // 2 + 1
            bw = np.full(ncol, 2.0)
            if j % 2 == 0:
                bw[-1] = 1.0
            triples.append({
                "j1": j1, "j2": j2, "j": j, "ncol": ncol, "bw": bw,
                "h1": h,
                # pre-reshaped complex copies so the Z contraction runs as
                # three BLAS (zgemm) calls instead of generic einsums
                "hm_left": hc.reshape(d1, d2 * d),
                "hm_right_half": np.ascontiguousarray(
                    hc.reshape(d1 * d2, d)[:, :ncol]),
                "b_index": idx.b_index.get((j1, j2, j)) if j >= j1 else None,
                "y_b_index": bidx,
                "y_factor": factor,
                # sparse index lists over the nonzero CG products; the
                # y_mode="sparse" contraction path (and the FLOP model's
                # density report) read these
                "sparse": cg_sparse(j1, j2, j),
            })
        return triples

    def _build_half_layout(self) -> tuple[list[slice], int, list[np.ndarray]]:
        """Packed layout of the left-half Y columns plus expansion phases.

        Returns ``(half_slices, nu_half, expand_phase)``: slice of layer
        ``j`` inside the packed ``(n, nu_half)`` buffer the z-triple pass
        accumulates into, the packed width, and per layer the
        ``(-1)^(ma+mb)`` factors of the mirrored columns ``mb > j/2``
        used to reconstruct the full-plane ``Y``.
        """
        half_slices, expand, off = [], [], 0
        for j in range(self.params.twojmax + 1):
            ncol = j // 2 + 1
            half_slices.append(slice(off, off + (j + 1) * ncol))
            off += (j + 1) * ncol
            ma = np.arange(j + 1)
            mb = np.arange(ncol, j + 1)
            expand.append((-1.0) ** (ma[:, None] + mb[None, :]))
        return half_slices, off, expand

    def _isolated_b(self) -> np.ndarray:
        """Bispectrum of an atom with no neighbors (self-term only)."""
        empty = NeighborBatch(i_idx=np.zeros(0, dtype=np.intp),
                              rij=np.zeros((0, 3)), r=np.zeros(0))
        utot = self.compute_utot(1, empty)
        b, _ = self._compute_b_y(utot, want_y=False)
        return b[0]

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------
    @property
    def store_u_bytes_per_pair(self) -> int:
        """Cache footprint per pair of the ``store_u`` path, in bytes.

        Computed from the layout actually cached: the half-plane
        columns of every U layer (``_nu_store`` complex values -
        the half plane plus the odd-layer spill column, *not* the full
        ``nu`` plane), Cayley-Klein a/b/da/db (8 complex) and
        sfac/dsfac (2 float).
        """
        return (self._nu_store + 8) * 16 + 16

    def _resolve_store_u(self, npairs: int) -> bool:
        """Decide store-vs-recompute for a pair list of size ``npairs``."""
        mode = self.params.store_u
        if mode == "always":
            return True
        if mode == "never":
            return False
        return (npairs * self.store_u_bytes_per_pair
                <= self.params.store_u_budget_mb * 2**20)

    def _chunk_slices(self, npairs: int, chunk_origin: int = 0):
        """Pair-chunk slices of both passes.

        ``chunk_origin`` shifts the grid so that *global* pair index
        ``chunk_origin + lo`` lands on multiples of ``params.chunk``: an
        evaluator working on a contiguous row slice of a larger pair
        list passes its global pair offset and gets the per-chunk
        segment grouping of the full-list evaluation.
        """
        chunk = self.params.chunk
        lo = 0
        while lo < npairs:
            hi = min(lo + chunk - (chunk_origin + lo) % chunk, npairs)
            yield slice(lo, hi)
            lo = hi

    def _pair_terms(self, nbr: NeighborBatch, sl: slice) -> tuple:
        """Per-pair ``(ck, u_layers, sfac, dsfac)`` of one chunk: the
        ``store_u`` cache entry, or its per-chunk recomputation."""
        p = self.params
        rcut, wj, r_eff = self._pair_params(nbr, sl)
        ck = cayley_klein(nbr.rij[sl], r_eff, rcut, p.rfac0, p.rmin0)
        sfac, dsfac = sfac_dsfac(nbr.r[sl], rcut, p.rmin0, wj=wj,
                                 switch=p.switch)
        return ck, compute_u_layers_half_lm(ck, p.twojmax), sfac, dsfac

    def compute_utot(self, natoms: int, nbr: NeighborBatch,
                     cache: list | None = None,
                     chunk_origin: int = 0) -> np.ndarray:
        """Stage 1 (compute_ui): accumulate ``U_tot`` per atom.

        Returns a complex array of shape ``(natoms, nu)``; the self
        contribution ``wself`` sits on every layer diagonal.  Only the
        half plane ``mb <= j/2`` is built and accumulated per pair; the
        right half follows per atom from the conjugation symmetry.

        When ``cache`` is a list, the per-chunk Cayley-Klein parameters,
        half-plane ``U`` layers and switching factors are appended to it
        so :meth:`_compute_dedr` can reuse them instead of recomputing
        (the ``store_u`` trade).

        With ``chunk_origin`` set to a row slice's global pair offset
        (see :meth:`_chunk_slices`), the per-atom accumulation order -
        and hence ``U_tot`` - is bitwise identical to the serial pass
        over the full list: the property the multiprocess row-slice
        backend relies on.
        """
        utot_half = np.zeros((natoms, self._nu_half), dtype=np.complex128)
        for sl in self._chunk_slices(nbr.npairs, chunk_origin):
            terms = self._pair_terms(nbr, sl)
            _, u_lm, sfac, _ = terms
            w = np.empty((self._nu_half, sfac.shape[0]), dtype=np.complex128)
            for j, hsl in enumerate(self._half_slices):
                ncol = j // 2 + 1
                np.multiply(u_lm[j][:, :ncol], sfac,
                            out=w[hsl].reshape(j + 1, ncol, -1))
            idx = nbr.i_idx[sl]
            step = np.diff(idx)
            if np.all(step >= 0):
                starts = np.flatnonzero(np.r_[True, step > 0])
                sums = np.add.reduceat(w, starts, axis=1)
                utot_half[idx[starts]] += sums.T
            else:
                np.add.at(utot_half, idx, w.T)
            if cache is not None:
                cache.append(terms)
        utot = self._expand_y_half(utot_half)
        utot[:, self._diag] += self.params.wself
        return utot

    def _pair_params(self, nbr: NeighborBatch, sl: slice):
        """Per-chunk ``(rcut, weight, r_clamped)`` honoring pair overrides.

        Distances are clamped just inside the (per-pair) cutoff so the
        Cayley-Klein map stays finite for pairs the switching function
        already zeroes out (they can exist when a global neighbor list
        exceeds a species pair's own cutoff).
        """
        p = self.params
        r = nbr.r[sl]
        if nbr.pair_rcut is not None:
            rcut = nbr.pair_rcut[sl]
            r_eff = np.minimum(r, rcut * (1.0 - 1e-12))
        else:
            rcut = p.rcut
            r_eff = r
        wj = nbr.pair_weight[sl] if nbr.pair_weight is not None else 1.0
        return rcut, wj, r_eff

    def _layer_view(self, flat: np.ndarray, j: int) -> np.ndarray:
        n = flat.shape[0]
        return flat[:, self.index.layer_slice(j)].reshape(n, j + 1, j + 1)

    # Atoms per block of the z-triple pass.  Every quantity is computed
    # per-atom-row, so blocking changes nothing bitwise; it keeps the
    # per-triple GEMM temporaries (O(block * (j+1)^3) complex) resident
    # in cache instead of streaming whole-population arrays through DRAM
    # once per triple.
    _B_Y_BLOCK = 256

    def _compute_b_y(self, utot: np.ndarray, want_y: bool = True,
                     want_b: bool = True, beta_eff: np.ndarray | None = None
                     ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Stage 2 (compute_yi / compute_bi): one pass over z-triples.

        For every triple the Clebsch-Gordan product ``Z`` is formed and
        immediately consumed - accumulated into ``Y`` (adjoint, Eq. 7)
        and contracted with ``U*`` into ``B`` (Eq. 3) - so ``Z`` is never
        stored, which is precisely the paper's memory-footprint win.
        Atoms are processed in cache-sized blocks (see ``_B_Y_BLOCK``).

        ``beta_eff`` optionally supplies *per-atom* linear coefficients of
        shape ``(natoms, nb)`` - this is how quadratic SNAP reuses the
        adjoint machinery (LAMMPS does the same: the quadratic model's
        gradient is linear-SNAP with ``beta + Q B(i)``).
        """
        n = utot.shape[0]
        if n > self._B_Y_BLOCK:
            b_out = np.empty((n, self.index.nb)) if want_b else None
            y_out = (np.empty((n, self.index.nu), dtype=np.complex128)
                     if want_y else None)
            for lo in range(0, n, self._B_Y_BLOCK):
                sl = slice(lo, min(lo + self._B_Y_BLOCK, n))
                bb, yy = self._compute_b_y(
                    utot[sl], want_y=want_y, want_b=want_b,
                    beta_eff=None if beta_eff is None else beta_eff[sl])
                if want_b:
                    b_out[sl] = bb
                if want_y:
                    y_out[sl] = yy
            return b_out, y_out
        beta = self.beta
        b_out = np.zeros((n, self.index.nb)) if want_b else None
        y_out = np.zeros((n, self.index.nu), dtype=np.complex128) if want_y else None
        y_half = (np.zeros((n, self._nu_half), dtype=np.complex128)
                  if want_y else None)
        sparse_y = self.params.y_mode == "sparse"
        for t in self._triple_cache:
            j1, j2, j = t["j1"], t["j2"], t["j"]
            d1, d2, d = j1 + 1, j2 + 1, j + 1
            ncol = t["ncol"]
            if sparse_y:
                # Sparse-CG contraction: gather the u-layer factor pairs
                # of every nonzero CG product, weight, and segment-reduce
                # into the half-plane outputs (entries pre-sorted by
                # output, see cg_sparse) - same Z, ~5x fewer products
                # than the dense GEMMs at 2J=8.
                sp = t["sparse"]
                u1f = utot[:, self.index.layer_slice(j1)]
                u2f = utot[:, self.index.layer_slice(j2)]
                prod = u1f[:, sp.idx1]
                prod *= sp.value
                prod *= u2f[:, sp.idx2]
                zsum = np.add.reduceat(prod, sp.seg_starts, axis=1)
                z = np.zeros((n, d * ncol), dtype=np.complex128)
                z[:, sp.out_index] = zsum
                z = z.reshape(n, d, ncol)                         # (a,i,jj<=j/2)
            else:
                u1 = self._layer_view(utot, j1)
                u2 = self._layer_view(utot, j2)
                # Z[a,i,jj] = H[p,q,i] H[r,s,jj] U1[a,p,r] U2[a,q,s]
                # evaluated as three GEMMs (see _build_triples for the
                # reshaped H); only the left-half columns jj = mb <= j/2
                # are produced, the conjugate half follows from the
                # layer symmetry.
                t1 = np.tensordot(u1, t["hm_left"], axes=([1], [0]))  # (a,r,q*i)
                t1 = t1.reshape(n, d1, d2, d).transpose(0, 1, 3, 2)   # (a,r,i,q)
                t2 = np.matmul(t1.reshape(n, d1 * d, d2), u2)         # (a,r*i,s)
                t2 = t2.reshape(n, d1, d, d2).transpose(0, 2, 1, 3)   # (a,i,r,s)
                z = np.matmul(np.ascontiguousarray(t2.reshape(n, d, d1 * d2)),
                              t["hm_right_half"])                 # (a,i,jj<=j/2)
            if want_b and t["b_index"] is not None:
                uj = self._layer_view(utot, j)[:, :, :ncol]
                b_out[:, t["b_index"]] = np.einsum(
                    "aij,aij,j->a", z.real, uj.real, t["bw"]) + np.einsum(
                    "aij,aij,j->a", z.imag, uj.imag, t["bw"])
            if want_y:
                hsl = self._half_slices[j]
                if beta_eff is not None:
                    betaj = t["y_factor"] * beta_eff[:, t["y_b_index"]]
                    y_half[:, hsl] += betaj[:, None] * z.reshape(n, -1)
                else:
                    betaj = t["y_factor"] * beta[1 + t["y_b_index"]]
                    if betaj != 0.0:
                        y_half[:, hsl] += betaj * z.reshape(n, -1)
        if want_y:
            self._expand_y_half(y_half, y_out)
        return b_out, y_out

    def _expand_y_half(self, y_half: np.ndarray,
                       y_out: np.ndarray | None = None) -> np.ndarray:
        """Expand packed half-plane columns to the full-plane ``Y`` via
        ``Y[j-ma, j-mb] = (-1)^(ma+mb) conj(Y[ma, mb])``."""
        n = y_half.shape[0]
        if y_out is None:
            y_out = np.empty((n, self.index.nu), dtype=np.complex128)
        for j in range(self.params.twojmax + 1):
            ncol = j // 2 + 1
            zh = y_half[:, self._half_slices[j]].reshape(n, j + 1, ncol)
            full = np.empty((n, j + 1, j + 1), dtype=np.complex128)
            full[:, :, :ncol] = zh
            if ncol <= j:
                src = zh[:, ::-1, j - ncol::-1]
                full[:, :, ncol:] = self._expand_phase[j] * np.conj(src)
            y_out[:, self.index.layer_slice(j)] = full.reshape(n, -1)
        return y_out

    # Atoms per block of the sparse-CG Y pass: bounds the gathered
    # unique-product scratch (2 x nuniq x block complex, ~32 MB at 2J=8)
    # so it stays cache-resident through the gather/multiply/reduce trio.
    _Y_SPARSE_BLOCK = 64

    def _get_y_plan(self) -> dict:
        """Beta-folded global plan of the sparse-CG Y pass (built once).

        Concatenates the per-triple :func:`repro.core.cg.cg_sparse`
        entry lists of every triple with a nonzero adjoint weight
        ``y_factor * beta[b]``, mapping u-layer indices into the flat
        ``utot`` row and outputs into the packed half-plane ``Y``
        layout.  Because both product factors come from the *same*
        ``utot`` row, ``(i1, i2)`` and ``(i2, i1)`` are the same product:
        pairs are canonicalized and deduplicated (~2.6x fewer gathered
        products at 2J=8), and the weighted entry->output reduction is
        stored as a scipy CSR matrix.
        """
        with self._plan_lock:
            if self._y_plan is not None:
                return self._y_plan
            idx = self.index
            i1s, i2s, vals, outs = [], [], [], []
            for t in self._triple_cache:
                betaj = t["y_factor"] * self.beta[1 + t["y_b_index"]]
                if betaj == 0.0:
                    continue
                sp = t["sparse"]
                i1s.append(idx.layer_slice(t["j1"]).start + sp.idx1)
                i2s.append(idx.layer_slice(t["j2"]).start + sp.idx2)
                vals.append(betaj * sp.value)
                counts = np.diff(np.r_[sp.seg_starts, sp.nnz])
                outs.append(self._half_slices[t["j"]].start
                            + np.repeat(sp.out_index, counts))
            if not vals:
                self._y_plan = {"nuniq": 0}
                return self._y_plan
            i1 = np.concatenate(i1s)
            i2 = np.concatenate(i2s)
            val = np.concatenate(vals)
            out = np.concatenate(outs)
            pair_lo = np.minimum(i1, i2)
            pair_hi = np.maximum(i1, i2)
            upair, col = np.unique(pair_lo * idx.nu + pair_hi,
                                   return_inverse=True)
            from scipy import sparse as sps

            m = sps.csr_matrix((val, (out, col)),
                               shape=(self._nu_half, upair.size))
            m.sum_duplicates()
            self._y_plan = {
                "nuniq": int(upair.size),
                "pi1": np.ascontiguousarray(upair // idx.nu, dtype=np.intp),
                "pi2": np.ascontiguousarray(upair % idx.nu, dtype=np.intp),
                "mat": m.astype(np.complex128),
            }
            return self._y_plan

    def _sparse_y_half(self, utot: np.ndarray) -> np.ndarray:
        """Packed half-plane ``Y`` via the global sparse-CG plan.

        Per atom block: gather the two u factors of every unique product
        pair (layer-major, atom axis innermost), multiply once, and push
        the products through the weighted sparse entry->output map.
        """
        plan = self._get_y_plan()
        n = utot.shape[0]
        y_half = np.zeros((n, self._nu_half), dtype=np.complex128)
        if not plan["nuniq"]:
            return y_half
        blk = min(n, self._Y_SPARSE_BLOCK)
        g1 = np.empty((plan["nuniq"], blk), dtype=np.complex128)
        g2 = np.empty((plan["nuniq"], blk), dtype=np.complex128)
        for lo in range(0, n, blk):
            sl = slice(lo, min(lo + blk, n))
            ut = np.ascontiguousarray(utot[sl].T)
            m = ut.shape[1]
            a = g1[:, :m]
            b = g2[:, :m]
            np.take(ut, plan["pi1"], axis=0, out=a)
            np.take(ut, plan["pi2"], axis=0, out=b)
            a *= b
            y_half[sl] = (plan["mat"] @ a).T
        return y_half

    def compute_descriptors(self, natoms: int, nbr: NeighborBatch) -> np.ndarray:
        """Bispectrum components ``B`` per atom, shape ``(natoms, nb)``."""
        utot = self.compute_utot(natoms, nbr)
        b, _ = self._compute_b_y(utot, want_y=False)
        return b - self.bzero_shift

    def compute_descriptor_gradients(
            self, natoms: int, nbr: NeighborBatch) -> np.ndarray:
        """Per-pair gradients ``dB_l(i)/dr_k``, shape ``(npairs, 3, nb)``.

        Used by the FitSNAP-style trainer to build force rows of the
        design matrix.  This is the *pre-adjoint* quantity (the paper's
        ``dBlist``); it is O(nb) more expensive than a force call and
        intended for small training configurations.
        """
        from .baseline import descriptor_gradients  # local import: heavy path
        return descriptor_gradients(self, natoms, nbr)

    def _fold_y(self, y: np.ndarray) -> np.ndarray:
        """Fold the conjugate half-plane of ``Y`` into its left half.

        Returns ``(natoms, nu_half)`` with
        ``Yf[ma, mb] = conj(Y[ma, mb]) + (-1)^(ma+mb) Y[j-ma, j-mb]``
        (middle column of even layers halved), so that
        ``Re(Y : conj(X)) == Re(sum_half Yf * X)`` for any ``X`` with the
        layer conjugation symmetry.  Folding is per atom - the per-pair
        contraction then only gathers ``nu_half`` rows.
        """
        n = y.shape[0]
        out = np.empty((n, self._nu_half), dtype=np.complex128)
        for j in range(self.params.twojmax + 1):
            ncol = j // 2 + 1
            yj = y[:, self.index.layer_slice(j)].reshape(n, j + 1, j + 1)
            ma = np.arange(j + 1)
            phase = (-1.0) ** (ma[:, None] + ma[None, :ncol])
            o = out[:, self._half_slices[j]].reshape(n, j + 1, ncol)
            np.conjugate(yj[:, :, :ncol], out=o)
            o += phase * yj[:, ::-1, ::-1][:, :, :ncol]
            if j % 2 == 0:
                o[:, :, -1] *= 0.5
        return out

    def _compute_dedr(self, nbr: NeighborBatch, y: np.ndarray,
                      cache: list | None = None) -> np.ndarray:
        """Stage 3 (compute_duidrj / compute_deidrj): per-pair gradients.

        Returns ``dedr`` of shape ``(npairs, 3)``: the contribution of
        pair ``k`` to the force on its central atom,
        ``dE_i/dr_k = Re( Y : conj(dU_tot) )`` with
        ``dU_tot = sfac * dU + (dsfac * uhat) * U``.  ``Y : conj(dU)``
        comes from one adjoint sweep of the ``U`` recursion against the
        pre-folded ``Y`` (see :meth:`_fold_y`) as two complex scalars
        per pair, contracted with the Cayley-Klein gradients at the end.

        Every operation is per-pair, so the result is independent of the
        chunk grid - the property the multiprocess row-slice backend
        relies on for bitwise reproducibility.  ``cache`` entries (from
        :meth:`compute_utot`, on whatever grid it ran) are consumed in
        order; without a cache the terms are recomputed chunk by chunk.
        """
        if cache is None:
            cache = (self._pair_terms(nbr, sl)
                     for sl in self._chunk_slices(nbr.npairs))
        dedr = np.empty((nbr.npairs, 3))
        yfold = np.ascontiguousarray(self._fold_y(y).T)  # (nu_half, natoms)
        lo = 0
        for ck, u_lm, sfac, dsfac in cache:
            sl = slice(lo, lo + sfac.shape[0])
            lo = sl.stop
            ylm = np.take(yfold, nbr.i_idx[sl], axis=1)  # (nu_half, npc)
            yf = [ylm[hsl].reshape(j + 1, j // 2 + 1, -1)
                  for j, hsl in enumerate(self._half_slices)]
            radial, pa, pb = adjoint_sweep_half_lm(ck, u_lm, yf)
            grad = (pa.real[:, None] * ck.da.real
                    + pa.imag[:, None] * ck.da.imag
                    + pb.real[:, None] * ck.db.real
                    + pb.imag[:, None] * ck.db.imag)
            uhat = nbr.rij[sl] / nbr.r[sl][:, None]
            dedr[sl] = (grad * sfac[:, None]
                        + (dsfac * radial.real)[:, None] * uhat)
        return dedr

    def _accumulate_forces(self, natoms: int, nbr: NeighborBatch,
                           dedr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stage 4 (update_forces): scatter per-pair ``dedr`` into forces.

        Both scatters run as ``np.add.reduceat`` segment sums: the i-side
        uses the CSR sort of the pair list, the j-side the cached
        j-sorted permutation of the batch.
        """
        forces = np.zeros((natoms, 3))
        if nbr.i_idx.size and np.all(np.diff(nbr.i_idx) >= 0):
            _scatter_sum_sorted(forces, nbr.i_idx, dedr)
        else:
            np.add.at(forces, nbr.i_idx, dedr)
        perm = nbr.j_sorted_perm()
        _scatter_sum_sorted(forces, nbr.j_idx[perm], -dedr[perm])
        virial = -(nbr.rij.T @ dedr)
        return forces, virial

    def compute_forces_from_y(self, natoms: int, nbr: NeighborBatch,
                              y: np.ndarray, cache: list | None = None
                              ) -> tuple[np.ndarray, np.ndarray]:
        """Stages 3-4 (compute_duidrj / compute_deidrj / update_forces).

        Returns ``(forces, virial)``.  Processes pairs in chunks; with
        ``cache`` from :meth:`compute_utot` the per-pair ``U`` layers and
        switching factors are reused, otherwise they are recomputed per
        chunk to bound memory (kernel fusion).
        """
        if nbr.j_idx is None:
            raise ValueError("NeighborBatch.j_idx is required for forces")
        dedr = self._compute_dedr(nbr, y, cache=cache)
        return self._accumulate_forces(natoms, nbr, dedr)

    # ------------------------------------------------------------------
    # public evaluation
    # ------------------------------------------------------------------
    def _peratom_and_y(self, utot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stage 2: per-atom energies and the adjoint ``Y`` from ``U_tot``.

        With a ``quadratic`` coefficient matrix set, the model is
        ``E_i = beta0 + beta . B_i + 0.5 B_i^T Q B_i`` and ``Y`` is built
        with the per-atom effective coefficients ``beta + Q B_i``.

        With ``y_mode="sparse"`` (linear model only), ``Y`` comes from
        the global sparse-CG plan and the per-atom energy from the
        adjoint identity ``sum_j Re(Y_j : conj(U_j)) = 3 beta . B``
        (every canonical triple enters ``Y`` under its role permutations
        with multiplicity weights that total 3): no bispectrum pass at
        all on the force path.
        """
        if self.quadratic is None and self.params.y_mode == "sparse":
            y = self._expand_y_half(self._sparse_y_half(utot))
            r = (np.einsum("au,au->a", y.real, utot.real)
                 + np.einsum("au,au->a", y.imag, utot.imag))
            peratom = (self.beta[0] + r / 3.0
                       - self.bzero_shift @ self.beta[1:])
        elif self.quadratic is None:
            b, y = self._compute_b_y(utot)
            bc = b - self.bzero_shift
            peratom = self.beta[0] + bc @ self.beta[1:]
        else:
            b, _ = self._compute_b_y(utot, want_y=False)
            bc = b - self.bzero_shift
            qb = bc @ self.quadratic
            beta_eff = self.beta[1:][None, :] + qb
            _, y = self._compute_b_y(utot, want_b=False, beta_eff=beta_eff)
            peratom = self.beta[0] + bc @ self.beta[1:] + 0.5 * np.sum(bc * qb, axis=1)
        return peratom, y

    def compute(self, natoms: int, nbr: NeighborBatch) -> EnergyForces:
        """Full energy/force/virial evaluation (the paper's force kernel).

        Depending on ``params.store_u``, the per-pair ``U`` layers and
        switching factors from stage 1 are either cached and reused by
        the force pass or recomputed per chunk (store-vs-recompute);
        :attr:`last_store_u` records the decision taken.
        """
        t0 = time.perf_counter()
        sane = self.params.check_finite
        if sane:
            from ..lint.sanitizers import check_finite
            check_finite("neighbor_input", where="serial",
                         rij=nbr.rij, r=nbr.r)
        # decide once into a local: a second service thread sharing this
        # evaluator must not flip the decision between write and read
        store = self._resolve_store_u(nbr.npairs)
        cache = [] if store else None
        self.last_store_u = store  # repro-lint: disable=R8-lockset -- diagnostic, last writer wins; compute() itself reads only the local
        utot = self.compute_utot(natoms, nbr, cache=cache)
        if sane:
            check_finite("compute_ui", where="serial", utot=utot)
        t1 = time.perf_counter()
        peratom, y = self._peratom_and_y(utot)
        if sane:
            check_finite("compute_yi", where="serial", peratom=peratom, y=y)
        t2 = time.perf_counter()
        forces, virial = self.compute_forces_from_y(natoms, nbr, y, cache=cache)
        if sane:
            check_finite("compute_dui_deidrj", where="serial",
                         forces=forces, virial=virial)
        t3 = time.perf_counter()
        # repro-lint: disable=R8-lockset -- diagnostic, one atomic rebind of a fresh dict; last writer wins, the kernel never reads it
        self.last_timings = {
            "compute_ui": t1 - t0,
            "compute_yi": t2 - t1,
            "compute_dui_deidrj": t3 - t2,
        }
        return EnergyForces(energy=float(peratom.sum()), peratom=peratom,
                            forces=forces, virial=virial)
