"""SNAP potential: vectorized adjoint-refactorized energy/force kernel.

This is the production implementation of the paper's force kernel,
mirroring the optimized LAMMPS/Kokkos pipeline in NumPy:

1. ``compute_ui``   - accumulate neighbor-density expansion ``U_tot``
   per atom (paper Eq. 1), O(J^3 N_nbor) per atom.
2. ``compute_yi``   - adjoint accumulation ``Y_j = sum beta Z^j_{j1 j2}``
   (paper Eq. 7) which replaces the O(J^5) ``Z``/``dB`` storage of the
   original algorithm with O(J^3) storage - the "adjoint
   refactorization" that made the 2J=14 problem fit on a V100 and is the
   paper's key algorithmic enabler.  There is one Clebsch-Gordan
   contraction: per atom block, one deduplicated gather of the products
   ``u[i1] * u[i2]`` pushed through a constant real CSR operator
   (:meth:`SNAP._build_plan`).  Its beta-folded rows give linear ``Y``;
   its unfolded ``(triple, output)`` rows give every ``Z_t``, from
   which the bispectrum ``B`` and quadratic ``Y`` follow.
3. ``compute_dui/deidrj`` - per-pair gradients of ``Y : conj(U)``
   (paper Eq. 8) by one reverse-mode sweep of the ``U`` recursion per
   pair chunk: the adjoint of each layer is carried downwards, so
   neither ``dU`` nor any per-direction tensor is ever materialized.
   It sweeps the layers stage 1 built for the chunk, still cache-hot
   (the paper's kernel fusion): one Wigner recursion per pair per
   evaluation.  All hot-path array work runs in *layer-major*
   half-plane layout (pair axis innermost, columns ``mb <= j/2``, also
   the format ``Y`` is handed over in), in the coefficient-free scaled
   basis of :func:`repro.core.wigner.compute_u_layers_half_lm`.
4. ``update_forces`` - the one force assembly, :func:`update_forces`:
   ``f[i] += dedr``, ``f[j] -= dedr`` strictly in pair order (on a
   pair potential's half list it also credits each end half of each
   bond's energy).  Stages
   1-3 are :meth:`SNAP.pair_gradients`, the contract every potential
   in :mod:`repro.potentials` implements, so every potential on every
   engine ends in this same stage.

Stages 1-3 run fused over atom ranges of about ``SNAPParams.chunk``
pairs: a central atom's pairs are never split, so its neighbor sum is
one ``np.add.reduceat`` segment (one team per atom in TestSNAP's
``compute_ui``), and ``Y_i`` needs only atom ``i``'s ``U_tot``.  So
``U_tot``, ``Y``, ``dedr`` and the forces are bitwise independent of
``chunk`` and of where a row slice of a longer list starts.

The per-kernel wall times of the latest evaluation are kept in
:attr:`SNAP.last_timings` so benchmarks can report a stage breakdown.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse as sps
from scipy.sparse import _sparsetools  # csr_matvecs adds into its output

from .cg import cg_sparse
from .indexing import SNAPIndex
from .switching import sfac_dsfac
from .wigner import (adjoint_sweep_half_lm, cayley_klein,
                     compute_u_layers_half_lm, half_scale)

__all__ = ["SNAPParams", "NeighborBatch", "PairScratch", "EnergyForces",
           "SNAP", "scatter_add", "scatter_pair_forces", "update_forces"]


@dataclass(frozen=True)
class SNAPParams:
    """Hyperparameters of a SNAP model (single chemical species).

    ``twojmax`` is the doubled band limit (paper benchmark sizes: 8 and
    14, giving 55 and 204 bispectrum components).  ``rcut`` is the
    neighbor cutoff in Angstrom.

    ``chunk`` is the target pair count of one fused chunk: large
    enough to amortize per-chunk dispatch overhead, small enough that
    the chunk's layers (O(nu_half * chunk) complex) stay cache-warm
    from the forward recursion to the reverse sweep.  4096 is the
    measured sweet spot at 2J=8.  Chunks end on atom-row boundaries
    (a chunk can run up to one row past ``chunk``); results do not
    depend on it.

    ``y_mode`` is inert: ``"dense"`` and ``"sparse"`` both run the one
    sparse Clebsch-Gordan contraction of :meth:`SNAP._build_plan`.  The
    field stays validated only because the benchmark suite passes it by
    name (ROADMAP item 1(b) deletes it).

    ``chunk`` is the whole kernel policy.  It is fixed when the (frozen)
    params object is built; nothing is read from disk or the
    environment, and an evaluator never rebinds its params.

    ``check_finite`` (debug sanitizer, default off) validates every
    kernel-stage output for NaN/Inf on exit and raises
    :class:`repro.core.sanitizers.NumericsError` naming the offending
    stage.
    """

    twojmax: int = 8
    rcut: float = 4.7
    rfac0: float = 0.99363
    rmin0: float = 0.0
    wself: float = 1.0
    switch: bool = True
    chunk: int = 4096
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
        if self.y_mode not in ("dense", "sparse"):
            raise ValueError(
                f"y_mode must be 'dense' or 'sparse', got {self.y_mode!r}")


class PairScratch:
    """Working arrays of one neighbour list's per-step pair pipeline.

    The refresh, the skin filter, a pair potential's terms and the force
    assembly write into these with ``out=`` instead of allocating (and
    page-faulting in) fresh pair-sized arrays every step.  LAMMPS sizes
    its neighbour pages the same way: at the build, growing only on
    overflow.  Each named array is allocated on first use with a whole
    multiple of ``capacity`` rows and handed out as its leading rows;
    a request longer than the array reallocates that one array.

    Callers own the name space: two arrays live at the same time only
    under two names.  Everything handed out is overwritten by the next
    step of the list that owns the scratch.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = max(int(capacity), 1)
        self._arrays: dict[str, np.ndarray] = {}
        #: the last view handed out per name: a list between builds asks
        #: for the same lengths every step
        self._views: dict[str, np.ndarray] = {}

    def array(self, name: str, n: int, width: int = 0,
              dtype=float) -> np.ndarray:
        """Uninitialised ``(n,)`` (or ``(n, width)``) view of the array
        called ``name``."""
        view = self._views.get(name)
        if view is not None and view.shape[0] == n:
            return view
        buf = self._arrays.get(name)
        if buf is None or buf.shape[0] < n:
            rows = self.capacity * max(-(-n // self.capacity), 1)
            buf = self._arrays[name] = np.empty(
                (rows, width) if width else rows, dtype)
        view = self._views[name] = buf[:n]
        return view


def work_array(scratch: PairScratch | None, name: str, n: int,
               width: int = 0, dtype=float) -> np.ndarray:
    """``scratch.array(name, n, width, dtype)``, or a fresh ``np.empty``
    when there is no scratch (a list built outside a
    :class:`~repro.md.neighbor.NeighborList`)."""
    if scratch is None:
        return np.empty((n, width) if width else n, dtype)
    return scratch.array(name, n, width, dtype)


@dataclass
class NeighborBatch:
    """Flat neighbor pairs for a batch of atoms.

    ``i_idx[p]`` is the central atom of pair ``p`` and ``rij[p]`` the
    vector from it to its neighbor (minimum-image applied by the caller);
    ``r`` are the distances.  Pairs appear in both directions, as in a
    LAMMPS *full* neighbor list, unless ``half`` is set: then each bond
    appears once (``i < j``, or ``i == j`` through a positive image
    shift), the list LAMMPS hands pair styles that use Newton's third
    law.  Only potentials whose energy is a sum over unordered pairs
    (``Potential.pairwise``) can be evaluated on a half list.

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
    half: bool = False
    #: ``(reference batch, keep mask)`` of a skin-filtered batch, set by
    #: :func:`repro.md.neighbor.filter_pairs`
    filtered_from: tuple | None = field(default=None, init=False, repr=False)
    #: working arrays shared with the list's other batches (see above)
    scratch: PairScratch | None = field(default=None, init=False,
                                        repr=False)
    #: every ``r`` is below this (a skin-filtered batch: the filter's
    #: ``r < cutoff``, which a NaN distance fails too), or None
    kept_below: float | None = field(default=None, init=False,
                                     repr=False)

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

    def buffer(self, name: str, width: int = 0,
               dtype=float) -> np.ndarray:
        """An uninitialised per-pair working array (``(npairs,)``, or
        ``(npairs, width)``) from :attr:`scratch`."""
        return work_array(self.scratch, name, self.i_idx.shape[0], width,
                          dtype)


@dataclass
class EnergyForces:
    """Result of a SNAP evaluation."""

    energy: float
    peratom: np.ndarray
    forces: np.ndarray
    virial: np.ndarray  # (3, 3), eV
    #: the :class:`~repro.md.neighbor.NeighborList` the forces were
    #: evaluated on, when one process holds it (the serial engine);
    #: in-situ analysis may reuse its pairs
    neighbors: object = field(default=None, repr=False, compare=False)


def scatter_add(index: np.ndarray, weights: np.ndarray,
                size: int) -> np.ndarray:
    """``out = zeros(size); np.add.at(out, index, weights)``, faster.

    ``np.bincount`` accumulates strictly in input order from zero, like
    the ``add.at`` chain it replaces, so the sums are bitwise equal to
    it - which is what lets every force backend share this one helper
    and stay bitwise equal to the serial pass.
    """
    if index.size == 0:  # bincount of nothing is int64, not float64
        return np.zeros(size)
    return np.bincount(index, weights=weights, minlength=size)


def scatter_pair_forces(size: int, i_idx: np.ndarray, dedr_i: np.ndarray,
                        j_idx: np.ndarray, dedr_j: np.ndarray,
                        bond_i: np.ndarray | None = None,
                        bond_j: np.ndarray | None = None,
                        scratch: PairScratch | None = None):
    """Per-atom forces from per-pair gradients, in ``add.at`` order.

    Bitwise equal to ``f = zeros((size, 3)); np.add.at(f, j_idx,
    -dedr_j); np.add.at(f, i_idx, dedr_i)``: each atom first receives
    the negated rows of the pairs it is the neighbor of, in pair order,
    then the rows of its own pairs.  The two sides are separate
    arguments because a process rank gathers its neighbor-side rows
    from every rank's pairs.  Runs one :func:`scatter_add` per Cartesian
    component over one weight buffer, so no ``(2 * npairs, 3)`` array is
    formed; the index and weight buffers come from ``scratch`` when
    given.  The returned arrays are always fresh.

    Given the bond energies of a half list (``bond_i`` / ``bond_j``, one
    per pair of each side) it returns ``(forces, peratom)``: each end of
    a bond is credited half its energy, in the same order as the forces
    - the neighbor side first, then the own rows.
    """
    nj = j_idx.size
    nall = nj + i_idx.size
    index = work_array(scratch, "scatter.index", nall, 0, np.intp)
    np.concatenate((j_idx, i_idx), out=index)
    weights = work_array(scratch, "scatter.weights", nall)
    forces = np.empty((size, 3))
    for c in range(3):
        np.negative(dedr_j[:, c], out=weights[:nj])
        weights[nj:] = dedr_i[:, c]
        forces[:, c] = scatter_add(index, weights, size)
    if bond_i is None:
        return forces
    np.multiply(bond_j, 0.5, out=weights[:nj])
    np.multiply(bond_i, 0.5, out=weights[nj:])
    return forces, scatter_add(index, weights, size)


def update_forces(natoms: int, nbr: NeighborBatch, peratom: np.ndarray,
                  dedr: np.ndarray) -> EnergyForces:
    """Stage 4 (update_forces): the one force assembly of the package.

    ``peratom`` and ``dedr`` are what a potential's
    ``pair_gradients(nbr, (0, natoms))`` returns; pair ``k`` pushes its
    central atom by ``+dedr[k]`` and its neighbor by ``-dedr[k]``.  On a
    full list ``peratom`` is per atom and ``dedr[k] = dE_i/dr_k``; on a
    half list (``nbr.half``) both are per bond - its energy and the
    gradient of that energy - and the assembly credits half of each
    bond's energy to each end.  The forces, the virial and a half
    list's per-atom energies are fresh arrays, never views of the list's
    scratch; a full list's ``peratom`` is the potential's own.
    """
    if nbr.j_idx is None:
        raise ValueError("NeighborBatch.j_idx is required for forces")
    if nbr.half:
        forces, peratom = scatter_pair_forces(
            natoms, nbr.i_idx, dedr, nbr.j_idx, dedr, peratom, peratom,
            scratch=nbr.scratch)
    else:
        forces = scatter_pair_forces(natoms, nbr.i_idx, dedr, nbr.j_idx,
                                     dedr, scratch=nbr.scratch)
    return EnergyForces(energy=float(peratom.sum()), peratom=peratom,
                        forces=forces, virial=-(nbr.rij.T @ dedr))


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

    #: nothing is stored per pair; the suite still reads this (ROADMAP 1(b))
    last_store_u = False
    #: keys of :attr:`last_timings`, there from construction on
    _STAGES = ("compute_ui", "compute_yi", "compute_dui_deidrj")

    def __init__(self, params: SNAPParams, beta: np.ndarray | None = None,
                 bzero: bool = False, quadratic: np.ndarray | None = None) -> None:
        self.params = params
        self.index = SNAPIndex(params.twojmax)
        if beta is None:
            beta = np.zeros(self.index.ncoeff)
            beta[1:] = 1.0
        # private read-only copies: beta and Q are folded into the plan
        # built below, so a later write could only go stale
        beta = np.array(beta, dtype=float)
        beta.setflags(write=False)
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
            quadratic.setflags(write=False)
        self.quadratic = quadratic
        self._diag = self.index.diagonal_indices()
        # _build_triples touches cg_sparse (and through it cg_tensor) for
        # every triple, priming both lru caches eagerly so forked process
        # workers only ever see cache hits.
        self._triple_cache = self._build_triples()
        self._build_half_layout()
        self.last_timings = dict.fromkeys(self._STAGES, 0.0)
        # built here, before any fork: process workers inherit it
        self._plan = self._build_plan()
        self.bzero_shift = self._isolated_b() if bzero else np.zeros(self.index.nb)

    # ------------------------------------------------------------------
    # setup helpers
    # ------------------------------------------------------------------
    def _build_triples(self) -> list[dict]:
        """Per z-triple: sparse CG entries and the Y beta-routing.

        ``y_b_index`` / ``y_factor`` implement the LAMMPS
        role-permutation rules by which every ``Z^j_{j1 j2}``
        contributes to ``Y_j`` weighted by the bispectrum coefficient of
        the *canonical* triple it corresponds to; ``b_index`` is set on
        the canonical triples (``j >= j1``), the only ones ``B`` reads.
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
            triples.append({
                "j1": j1, "j2": j2, "j": j,
                "b_index": idx.b_index.get((j1, j2, j)) if j >= j1 else None,
                "y_b_index": bidx,
                "y_factor": factor,
                # index lists over the nonzero CG products (also what
                # the FLOP model's density report counts)
                "sparse": cg_sparse(j1, j2, j),
            })
        return triples

    def _build_half_layout(self) -> None:
        """Packed layout of the left-half columns ``mb <= j/2``.

        ``_half_slices[j]`` is layer ``j`` inside a packed buffer
        ``_nu_half`` wide and ``_expand_phase[j]`` the ``(-1)^(ma+mb)``
        of its mirrored columns ``mb > j/2``.  Per packed element:
        ``_half_u``, its index in the flat ``nu`` row; ``_w_half``, the
        weight with which it stands for its mirror image too (2, or 1 on
        the self-mirrored middle column of even ``j``); ``_d_half``,
        the scale of :func:`repro.core.wigner.half_scale`.
        """
        half_slices, expand, half_u, w_half, off = [], [], [], [], 0
        for j in range(self.params.twojmax + 1):
            ncol = j // 2 + 1
            half_slices.append(slice(off, off + (j + 1) * ncol))
            off += (j + 1) * ncol
            expand.append((-1.0) ** np.add.outer(np.arange(j + 1),
                                                 np.arange(ncol, j + 1)))
            ma, mb = np.divmod(np.arange((j + 1) * ncol), ncol)
            half_u.append(self.index.u_offset[j] + ma * (j + 1) + mb)
            w_half.append(np.where(2 * mb == j, 1.0, 2.0))
        self._half_slices, self._nu_half, self._expand_phase = \
            half_slices, off, expand
        self._half_u = np.concatenate(half_u)
        self._w_half = np.concatenate(w_half)
        self._d_half = np.concatenate(
            [d.ravel() for d in half_scale(self.params.twojmax)])

    # Byte bound of the product-gather scratch, the two (columns, block)
    # complex arrays of _product_blocks: column chunks that stay in L2
    # (1 MiB measured best on the TestSNAP problem, E24).
    _GATHER_SCRATCH_BYTES = 1 << 20
    # The atom block keeps a block's *whole* product set under this (67
    # atoms at 2J=8, 3 at 2J=14): its Z rows do not grow with 2J.
    _PRODUCT_SET_BYTES = 32 << 20

    def _build_plan(self) -> dict:
        """The one Clebsch-Gordan contraction, as constant operators.

        Concatenates the :func:`repro.core.cg.cg_sparse` entry lists of
        every z-triple, mapping u-layer indices into the flat ``utot``
        row.  Both product factors come from the *same* row, so
        ``(i1, i2)`` and ``(i2, i1)`` are one product: pairs are
        canonicalized and deduplicated (~2.6x fewer gathered products at
        2J=8) into the gather lists ``pi1`` / ``pi2``.  The CG weights
        are real, so the entry -> output reduction is a real scipy CSR
        matrix over the products, in two row sets:

        ``z_op``
            one row per ``(triple, half-plane output)``: applied to the
            products it yields every ``Z_t`` at once.  Canonical triples
            come first, so ``zb_op`` (its leading ``nbrow`` rows) is all
            ``B`` needs; ``b_op`` then sums ``bw * Re(Z_t conj(U_j))``
            per triple (half-plane columns doubled, the self-mirrored
            middle column of even ``j`` singly) and ``fold_op`` adds the
            per-row weighted ``Z_t`` into the packed half-plane ``Y``.
        ``y_op``
            the same rows pre-weighted by ``y_factor * beta`` and folded
            onto the ``nu_half`` outputs: linear ``Y`` in one product.

        ``y_op``, ``zb_op`` and ``z_op`` are stored split at the column
        ``edges`` of :meth:`_product_blocks`, one CSR matrix per chunk.
        """
        idx = self.index
        # stable: canonical triples first, each group in z_triples order
        triples = sorted(self._triple_cache,
                         key=lambda t: t["b_index"] is None)
        # rows: every half-plane output (ma, mb <= j/2) of every triple
        js = np.array([t["j"] for t in triples])
        nout = (js + 1) * (js // 2 + 1)
        row0 = np.r_[0, np.cumsum(nout)]
        nrow = int(row0[-1])
        row_j = np.repeat(js, nout)
        out = np.arange(nrow) - np.repeat(row0[:-1], nout)
        ma, mb = np.divmod(out, row_j // 2 + 1)
        row_factor = np.repeat([t["y_factor"] for t in triples], nout)
        row_b = np.repeat([t["y_b_index"] for t in triples], nout)
        row_half = np.array([h.start for h in self._half_slices])[row_j] + out
        b_of_row = np.repeat([t["b_index"] for t in triples
                              if t["b_index"] is not None],
                             nout[:idx.nb])
        nbrow = b_of_row.size
        row_u = (np.array(idx.u_offset)[row_j] + ma * (row_j + 1) + mb)[:nbrow]
        row_bw = np.where(2 * mb == row_j, 1.0, 2.0)[:nbrow]
        i1s, i2s, rows = [], [], []
        for t, r0 in zip(triples, row0):
            sp = t["sparse"]
            i1s.append(idx.u_offset[t["j1"]] + sp.idx1)
            i2s.append(idx.u_offset[t["j2"]] + sp.idx2)
            counts = np.diff(np.r_[sp.seg_starts, sp.nnz])
            rows.append(r0 + np.repeat(sp.out_index, counts))
        i1 = np.concatenate(i1s)
        i2 = np.concatenate(i2s)
        upair, col = np.unique(np.minimum(i1, i2) * idx.nu
                               + np.maximum(i1, i2), return_inverse=True)
        nuniq = upair.size
        # coo -> csr sums the (i1, i2) / (i2, i1) duplicates of a row
        z_op = sps.csr_matrix(
            (np.concatenate([t["sparse"].value for t in triples]),
             (np.concatenate(rows), col)), shape=(nrow, nuniq))
        b_op = sps.csr_matrix((row_bw, (b_of_row, np.arange(nbrow))),
                              shape=(idx.nb, nbrow))
        fold_op = sps.csr_matrix((np.ones(nrow), (row_half, np.arange(nrow))),
                                 shape=(self._nu_half, nrow))
        y_op = (fold_op @ sps.diags(row_factor * self.beta[1 + row_b])
                @ z_op).tocsr()
        y_op.eliminate_zeros()  # triples with a zero coefficient
        y_op.sort_indices()
        pi1 = np.ascontiguousarray(upair // idx.nu, dtype=np.intp)
        pi2 = np.ascontiguousarray(upair % idx.nu, dtype=np.intp)
        # the gathers run unchecked (mode="clip"): check the constants once
        for ind in (pi1, pi2, row_u):
            assert ind.min() >= 0 and ind.max() < idx.nu
        block = max(1, self._PRODUCT_SET_BYTES // (2 * 16 * nuniq))
        cols = max(1, self._GATHER_SCRATCH_BYTES // (2 * 16 * block))
        edges = np.r_[np.arange(0, nuniq, cols), nuniq]

        def split(op):  # csc -> csr leaves every row's columns sorted
            csc = op.tocsc()
            return [csc[:, k0:k1].tocsr()
                    for k0, k1 in zip(edges[:-1], edges[1:])]
        return {
            "nuniq": nuniq, "block": block, "edges": edges,
            "pi1": pi1, "pi2": pi2,
            "z_op": split(z_op), "zb_op": split(z_op[:nbrow]),
            "y_op": split(y_op),
            "row_u": row_u, "b_op": b_op,
            "fold_op": fold_op, "row_factor": row_factor, "row_b": row_b,
            # Q as CSR: a sparse product is column-by-column, so the
            # per-atom beta_eff does not depend on how many atoms share
            # the block (a GEMM's blocking would; the row-partitioned
            # process backend needs bitwise-equal rows)
            "q_op": (None if self.quadratic is None
                     else sps.csr_matrix(self.quadratic)),
        }

    def _isolated_b(self) -> np.ndarray:
        """Bispectrum of an atom with no neighbors (self-term only)."""
        empty = NeighborBatch(i_idx=np.zeros(0, dtype=np.intp),
                              rij=np.zeros((0, 3)), r=np.zeros(0))
        return self._bispectrum(self.compute_utot(1, empty))[0]

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------
    @staticmethod
    def _sorted_rows(nbr: NeighborBatch):
        """``(nbr, perm)``: the list stable-sorted by central atom and the
        permutation that did it (``None`` when it already was)."""
        if bool(np.all(np.diff(nbr.i_idx) >= 0)):
            return nbr, None
        perm = np.argsort(nbr.i_idx, kind="stable")
        per_pair = ("i_idx", "rij", "r", "j_idx", "pair_weight", "pair_rcut")
        return replace(nbr, **{f: getattr(nbr, f)[perm] for f in per_pair
                               if getattr(nbr, f) is not None}), perm

    def _pair_terms(self, nbr: NeighborBatch, sl: slice) -> tuple:
        """Per-pair ``(ck, layers, dsfac)`` of one chunk.  Seeded with the
        switching weight ``sfac``, the layers *are* the density terms, and
        the adjoint sweep against them returns ``sfac`` times its ``p, q``."""
        p = self.params
        rcut, wj, r_eff = self._pair_params(nbr, sl)
        ck = cayley_klein(nbr.rij[sl], r_eff, rcut, p.rfac0, p.rmin0)
        sfac, dsfac = sfac_dsfac(nbr.r[sl], rcut, p.rmin0, wj=wj,
                                 switch=p.switch)
        return ck, compute_u_layers_half_lm(ck, p.twojmax, sfac), dsfac

    def _density_chunks(self, natoms: int, nbr: NeighborBatch):
        """Stage 1 (compute_ui) chunk by chunk, on a sorted list.

        Yields ``(a0, a1, pairs, utot, terms)`` for atom ranges ``[a0,
        a1)`` that cover every atom, pair-less ones included.  A range
        ends at the first atom whose row starts at or after ``pairs.start
        + params.chunk``, so no row is split (a longer row is one range)
        and each atom's sum is one ``np.add.reduceat`` segment over
        exactly its own pairs ``pairs``.  ``utot`` is the range's
        ``U_tot``, complex ``(a1 - a0, nu)`` with ``wself`` on every
        layer diagonal: only the half plane ``mb <= j/2`` is built and
        summed per pair, in the scaled basis, and the scale ``D`` and the
        right half follow per atom.  ``terms`` (:meth:`_pair_terms`,
        ``None`` without pairs) are the layers stage 3 sweeps.
        """
        ptr = np.searchsorted(nbr.i_idx, np.arange(natoms + 1))
        a0 = 0
        while a0 < natoms:
            lo = int(ptr[a0])
            a1 = min(int(np.searchsorted(ptr, lo + self.params.chunk)), natoms)
            sl = slice(lo, int(ptr[a1]))
            utot_half = np.zeros((a1 - a0, self._nu_half), dtype=np.complex128)
            terms = None
            if sl.stop > lo:
                terms = self._pair_terms(nbr, sl)
                idx = nbr.i_idx[sl]
                # runs of one central atom: each its whole row
                starts = np.flatnonzero(np.r_[True, np.diff(idx) != 0])
                rows = idx[starts] - a0
                for j, hsl in enumerate(self._half_slices):
                    utot_half[rows, hsl] += np.add.reduceat(
                        terms[1][j][:, :j // 2 + 1], starts,
                        axis=2).reshape(-1, rows.size).T
            utot_half *= self._d_half
            utot = self._expand_y_half(utot_half)
            utot[:, self._diag] += self.params.wself
            yield a0, a1, sl, utot, terms
            a0 = a1

    def compute_utot(self, natoms: int, nbr: NeighborBatch) -> np.ndarray:
        """Stage 1 (compute_ui): ``U_tot`` per atom, ``(natoms, nu)``.

        The fused pass's density, kept for the descriptors and the staged
        ladder rungs: a row slice of a longer sorted list yields bitwise
        the rows the full list yields.
        """
        utot = np.empty((natoms, self.index.nu), dtype=np.complex128)
        for a0, a1, _, chunk, _ in self._density_chunks(
                natoms, self._sorted_rows(nbr)[0]):
            utot[a0:a1] = chunk
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

    def _product_blocks(self, utot: np.ndarray, op: str):
        """Stage 2 gather and contraction, atom block by block.

        Yields ``(rows, ut, z)``: the atom slice, its ``U_tot``
        transposed to ``(nu, m)`` (atom axis innermost) and the real CSR
        operator ``plan[op]`` applied to the deduplicated products
        ``ut[pi1] * ut[pi2]``.  The products are never whole: each
        column chunk is gathered into an L2-sized scratch and its slice
        of the operator accumulated into ``z`` (real and imaginary
        planes ride one product over the float64 view).  ``csr_matvecs``
        *adds* each nonzero's term to the output in column order, so
        ``z`` is the same sequential sum wherever the column edges fall;
        all of it is per atom column, so the block changes nothing
        bitwise either (a one-atom block, which rounds differently, runs
        as two copies of its column: the sweep's ``twice`` idiom).
        """
        plan = self._plan
        n = utot.shape[0]
        blk = min(n, plan["block"])
        edges = plan["edges"]
        parts = plan[op]
        nrow = parts[0].shape[0]
        kmax = int(np.diff(edges).max())
        g1 = np.empty(kmax * max(blk, 2), dtype=np.complex128)
        g2 = np.empty(kmax * max(blk, 2), dtype=np.complex128)
        for lo in range(0, n, blk):
            rows = slice(lo, min(lo + blk, n))
            m = rows.stop - lo
            w = max(m, 2)  # one atom runs as two copies of its column
            ut = np.repeat(utot[rows].T, w // m, axis=1)  # C-contiguous
            z = np.zeros((nrow, w), dtype=np.complex128)
            zf = z.view(np.float64).ravel()
            for k0, k1, part in zip(edges[:-1], edges[1:], parts):
                a = g1[:(k1 - k0) * w].reshape(k1 - k0, w)
                b = g2[:(k1 - k0) * w].reshape(k1 - k0, w)
                # mode="clip": the default "raise" buffers the whole output
                np.take(ut, plan["pi1"][k0:k1], axis=0, out=a, mode="clip")
                np.take(ut, plan["pi2"][k0:k1], axis=0, out=b, mode="clip")
                a *= b
                _sparsetools.csr_matvecs(
                    nrow, k1 - k0, 2 * w, part.indptr, part.indices,
                    part.data, a.view(np.float64).ravel(), zf)
            yield rows, ut[:, :m], z[:, :m]

    def _b_block(self, z: np.ndarray, ut: np.ndarray) -> np.ndarray:
        """``B`` of one block, ``(nb, m)``, from its canonical ``Z_t``
        rows (Eq. 3): ``sum bw * Re(Z_t conj(U_j))`` on the half plane."""
        plan = self._plan
        uj = np.take(ut, plan["row_u"], axis=0, mode="clip")
        zu = plan["b_op"] @ (z.view(np.float64) * uj.view(np.float64))
        return zu[:, 0::2] + zu[:, 1::2]  # re*re + im*im

    def _bispectrum(self, utot: np.ndarray) -> np.ndarray:
        """Raw bispectrum ``B`` per atom (no ``bzero`` shift)."""
        b = np.empty((utot.shape[0], self.index.nb))
        for rows, ut, z in self._product_blocks(utot, "zb_op"):
            b[rows] = self._b_block(z, ut).T
        return b

    def _linear_y_half(self, utot: np.ndarray) -> np.ndarray:
        """Packed half-plane ``Y = sum beta Z`` (Eq. 7), ``(nu_half,
        natoms)``; ``Z`` is never formed."""
        y_half = np.empty((self._nu_half, utot.shape[0]), dtype=np.complex128)
        for rows, _, y in self._product_blocks(utot, "y_op"):
            y_half[:, rows] = y
        return y_half

    def _quadratic_b_y_half(self, utot: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(B - B0, Q (B - B0), packed half-plane Y)`` of quadratic SNAP.

        The gradient of the quadratic model is linear SNAP with the
        per-atom coefficients ``beta + Q B_i`` (LAMMPS does the same), so
        one gather serves both uses of ``Z_t``: ``B`` from its canonical
        rows, then ``Y`` from all rows weighted per atom.
        """
        plan = self._plan
        n = utot.shape[0]
        bc = np.empty((n, self.index.nb))
        qb = np.empty((n, self.index.nb))
        y_half = np.empty((self._nu_half, n), dtype=np.complex128)
        for rows, ut, z in self._product_blocks(utot, "z_op"):
            bcb = self._b_block(z[:plan["row_u"].size], ut) \
                - self.bzero_shift[:, None]
            qbb = plan["q_op"] @ bcb
            beta_eff = self.beta[1:, None] + qbb
            z *= plan["row_factor"][:, None] * beta_eff[plan["row_b"]]
            y_half[:, rows] = (plan["fold_op"] @ z.view(np.float64)
                               ).view(np.complex128)
            bc[rows] = bcb.T
            qb[rows] = qbb.T
        return bc, qb, y_half

    def _expand_y_half(self, y_half: np.ndarray) -> np.ndarray:
        """Expand packed half-plane columns ``(n, nu_half)`` to the full
        plane via ``Y[j-ma, j-mb] = (-1)^(ma+mb) conj(Y[ma, mb])``."""
        n = y_half.shape[0]
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

    def compute_descriptors(self, natoms: int, nbr: NeighborBatch) -> np.ndarray:
        """Bispectrum components ``B`` per atom, shape ``(natoms, nb)``."""
        return self._bispectrum(self.compute_utot(natoms, nbr)) \
            - self.bzero_shift

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

    def _chunk_dedr(self, nbr: NeighborBatch, a0: int, sl: slice,
                    terms: tuple, y_half: np.ndarray) -> np.ndarray:
        """Stage 3 (compute_duidrj / compute_deidrj) of one chunk.

        Returns ``dedr[sl]``, shape ``(npairs, 3)``: the contribution of
        pair ``k`` to the force on its central atom,
        ``dE_i/dr_k = Re( Y : conj(dU_tot) )`` with
        ``dU_tot = sfac * dU + (dsfac * uhat) * U``.  ``y_half`` is the
        packed half plane of the chunk's atoms (from atom ``a0`` on); an
        element stands for its mirror image too, so a pair's layer
        element weighs ``w D conj(Y)`` (``_w_half``, ``_d_half``), formed
        per atom before it is taken to pairs.  One adjoint sweep of the
        chunk's ``sfac``-seeded layers (``terms``) against those weights
        yields ``sfac * Y : conj(dU)`` as two complex scalars per pair,
        contracted with the Cayley-Klein gradients at the end, and
        ``Y : conj(U)`` as the adjoint that reaches layer 0.
        """
        ck, layers, dsfac = terms
        yv = (self._w_half * self._d_half)[:, None] * np.conj(y_half)
        ylm = np.take(yv, nbr.i_idx[sl] - a0, axis=1)  # (nu_half, npc)
        yf = [ylm[hsl].reshape(j + 1, j // 2 + 1, -1)
              for j, hsl in enumerate(self._half_slices)]
        radial, pa, pb = adjoint_sweep_half_lm(ck, layers, yf)
        grad = (pa.real[:, None] * ck.da.real
                + pa.imag[:, None] * ck.da.imag
                + pb.real[:, None] * ck.db.real
                + pb.imag[:, None] * ck.db.imag)
        uhat = nbr.rij[sl] / nbr.r[sl][:, None]
        return grad + (dsfac * radial.real)[:, None] * uhat

    # ------------------------------------------------------------------
    # public evaluation
    # ------------------------------------------------------------------
    def _peratom_and_y(self, utot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stage 2: per-atom energies and the adjoint ``Y`` from ``U_tot``.

        ``Y`` is returned as its packed half plane, ``(nu_half, natoms)``
        (atom axis innermost): the one format the force pass reads
        (:meth:`_expand_y_half` of its transpose is the full plane).

        With a ``quadratic`` coefficient matrix set, the model is
        ``E_i = beta0 + beta . B_i + 0.5 B_i^T Q B_i`` and ``Y`` is built
        with the per-atom effective coefficients ``beta + Q B_i``.

        The linear model takes its per-atom energy from the adjoint
        identity ``sum_j Re(Y_j : conj(U_j)) = 3 beta . B`` (every
        canonical triple enters ``Y`` under its role permutations with
        multiplicity weights that total 3), summed on the half plane
        with the mirror weights: no bispectrum pass on the force path.
        """
        if self.quadratic is None:
            y_half = self._linear_y_half(utot)
            # one contiguous row per atom: the same pairwise sum
            # whatever the number of atoms in the batch
            r = np.ascontiguousarray(self._w_half * (
                y_half.T * np.conj(utot[:, self._half_u])).real).sum(axis=1)
            peratom = (self.beta[0] + r / 3.0
                       - self.bzero_shift @ self.beta[1:])
        else:
            bc, qb, y_half = self._quadratic_b_y_half(utot)
            # a row sum, not a matvec: BLAS picks its kernel by row count
            peratom = self.beta[0] + np.sum(
                bc * (self.beta[1:] + 0.5 * qb), axis=1)
        return peratom, y_half

    def pair_gradients(self, nbr: NeighborBatch, rows: tuple[int, int]
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Stages 1-3 on the atom window ``rows=(lo, hi)``, fused.

        ``nbr`` holds every pair whose central atom lies in the window
        (global ids).  Returns ``(peratom[lo:hi], dedr)`` with
        ``dedr[k] = dE_i/dr_k``, shape ``(npairs, 3)``: the contract of
        :class:`repro.potentials.Potential`, to be handed to
        :func:`update_forces`.  Each chunk of :meth:`_density_chunks`
        takes its atoms' energies and ``Y`` and sweeps its own layers
        against them.  Every stage is per atom row or per pair, so the
        windows of a row partition yield the bits the full list yields.
        Stage wall times, summed over chunks, go to :attr:`last_timings`;
        an unsorted list is sorted on entry and ``dedr`` returned in its
        pair order; with
        ``params.check_finite`` every stage output is validated here -
        the one place every engine's SNAP evaluation passes through.
        """
        lo, hi = rows
        spent = np.zeros(len(self._STAGES))
        sane = self.params.check_finite
        if sane:
            from .sanitizers import check_finite
            check_finite("neighbor_input", rij=nbr.rij, r=nbr.r)
        if lo:
            nbr = replace(nbr, i_idx=nbr.i_idx - lo)
        nbr, perm = self._sorted_rows(nbr)
        peratom = np.empty(hi - lo)
        dedr = np.empty((nbr.npairs, 3))
        t0 = time.perf_counter()
        for a0, a1, sl, utot, terms in self._density_chunks(hi - lo, nbr):
            if sane:
                check_finite("compute_ui", utot=utot)
            t1 = time.perf_counter()
            peratom[a0:a1], y = self._peratom_and_y(utot)
            if sane:
                check_finite("compute_yi", peratom=peratom[a0:a1], y=y)
            t2 = time.perf_counter()
            if terms is not None:
                dedr[sl] = self._chunk_dedr(nbr, a0, sl, terms, y)
                if sane:
                    check_finite("compute_dui_deidrj", dedr=dedr[sl])
            t3 = time.perf_counter()
            spent += (t1 - t0, t2 - t1, t3 - t2)
            t0 = t3
        if perm is not None:  # back to the caller's pair order
            dedr[perm] = dedr.copy()
        self.last_timings = dict(zip(self._STAGES, spent.tolist()))
        return peratom, dedr

    def compute(self, natoms: int, nbr: NeighborBatch) -> EnergyForces:
        """Full energy/force/virial evaluation (the paper's force kernel)."""
        return update_forces(natoms, nbr,
                             *self.pair_gradients(nbr, (0, natoms)))
