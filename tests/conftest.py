"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import multiprocessing

import numpy as np
import pytest

from repro.core import SNAP, NeighborBatch, SNAPParams
from repro.potentials import (FinnisSinclair, LennardJones, SNAPPotential,
                              StillingerWeber, TablePotential)
from repro.structures import lattice_system


@pytest.fixture(scope="session", autouse=True)
def no_worker_process_outlives_the_session():
    """Tier-1 fails if a segment worker (``repro-segsvc-*``) or a
    ``ProcessEngine`` rank (``repro-pe-*``) is still alive at exit: every
    scheduler and engine a test builds must have been closed (or
    finalized at collection) by then."""
    yield
    gc.collect()
    leaked = [f"{p.name} (pid {p.pid})"
              for p in multiprocessing.active_children()
              if p.name.startswith(("repro-segsvc", "repro-pe-"))]
    assert not leaked, f"worker processes alive at session end: {leaked}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def free_cluster_pairs(positions: np.ndarray, rcut: float) -> NeighborBatch:
    """Brute-force full pair list for a non-periodic cluster."""
    n = positions.shape[0]
    ii, jj, rv = [], [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = positions[j] - positions[i]
            dn = np.linalg.norm(d)
            if dn < rcut:
                ii.append(i)
                jj.append(j)
                rv.append(d)
    if not ii:
        z = np.zeros(0, dtype=np.intp)
        return NeighborBatch(i_idx=z, rij=np.zeros((0, 3)), r=np.zeros(0), j_idx=z)
    rij = np.asarray(rv)
    return NeighborBatch(i_idx=np.asarray(ii), rij=rij,
                         r=np.linalg.norm(rij, axis=1), j_idx=np.asarray(jj))


def random_cluster(rng, natoms=6, span=4.0, min_dist=0.9):
    """Random positions with a minimum separation (non-periodic)."""
    pts = [rng.uniform(0, span, size=3)]
    while len(pts) < natoms:
        cand = rng.uniform(0, span, size=3)
        if min(np.linalg.norm(cand - p) for p in pts) >= min_dist:
            pts.append(cand)
    return np.asarray(pts)


def fd_forces(energy_fn, positions, h=1e-6):
    """Central finite-difference forces for an energy callable."""
    f = np.zeros_like(positions)
    for i in range(positions.shape[0]):
        for c in range(3):
            p = positions.copy()
            p[i, c] += h
            ep = energy_fn(p)
            p[i, c] -= 2 * h
            em = energy_fn(p)
            f[i, c] = -(ep - em) / (2 * h)
    return f


def fd_forces_fixed_topology(snap, pos, nbr, h=1e-6):
    """Central-difference forces at fixed pair topology and overrides.

    The analytic forces of ``snap.compute`` differentiate the energy at
    the *given* pair list, so the finite difference must keep the same
    pairs (with their per-pair weight/rcut) and only refresh geometry.
    """
    def energy(p):
        rij = p[nbr.j_idx] - p[nbr.i_idx]
        batch = NeighborBatch(i_idx=nbr.i_idx, rij=rij,
                              r=np.linalg.norm(rij, axis=1), j_idx=nbr.j_idx,
                              pair_weight=nbr.pair_weight,
                              pair_rcut=nbr.pair_rcut)
        return snap.compute(pos.shape[0], batch).energy

    return fd_forces(energy, pos, h)


def staged_dedr(snap: SNAP, nbr: NeighborBatch,
                 y_half: np.ndarray) -> np.ndarray:
    """Stage 3 as it ran before the fused pass: a separate force pass.

    ``y_half`` is the packed half plane :meth:`SNAP._peratom_and_y`
    returns for *all* atoms of ``nbr`` (sorted by central atom).  The
    pass walks its own fixed grid of ``params.chunk`` pairs, rebuilds
    each chunk's Cayley-Klein map, switching weights and layers, and
    sweeps them against the per-atom weights ``w D conj(Y)`` - the
    staged reference the fused :meth:`SNAP.pair_gradients` must equal
    bit for bit (every operation of it is per pair).
    """
    from repro.core.wigner import adjoint_sweep_half_lm

    dedr = np.empty((nbr.npairs, 3))
    yv = (snap._w_half * snap._d_half)[:, None] * np.conj(y_half)
    for lo in range(0, nbr.npairs, snap.params.chunk):
        sl = slice(lo, min(lo + snap.params.chunk, nbr.npairs))
        ck, layers, dsfac = snap._pair_terms(nbr, sl)
        ylm = np.take(yv, nbr.i_idx[sl], axis=1)
        yf = [ylm[hsl].reshape(j + 1, j // 2 + 1, -1)
              for j, hsl in enumerate(snap._half_slices)]
        radial, pa, pb = adjoint_sweep_half_lm(ck, layers, yf)
        grad = (pa.real[:, None] * ck.da.real
                + pa.imag[:, None] * ck.da.imag
                + pb.real[:, None] * ck.db.real
                + pb.imag[:, None] * ck.db.imag)
        uhat = nbr.rij[sl] / nbr.r[sl][:, None]
        dedr[sl] = grad + (dsfac * radial.real)[:, None] * uhat
    return dedr


@pytest.fixture
def snap4(rng):
    """Small SNAP (2J=4) with random coefficients."""
    params = SNAPParams(twojmax=4, rcut=3.0, chunk=64)
    n = SNAP(params).index.ncoeff
    return SNAP(params, beta=rng.normal(size=n))


def snap_setup(seed=3, reps=(2, 2, 2), model="linear", chunk=64):
    rng = np.random.default_rng(seed)
    params = SNAPParams(twojmax=2, rcut=2.4, chunk=chunk)
    nb = SNAPPotential(params).snap.index.nb
    extra = {}
    if model == "quadratic":
        extra["quadratic"] = 0.1 * np.random.default_rng(seed + 2).normal(
            size=(nb, nb))
    if model == "multispecies":  # pair cutoffs 2.0 / 2.2 / 2.4
        extra.update(wj=np.array([1.0, 0.6]), radii=np.array([0.5, 0.6]),
                     rcutfac=2.0)
    pot = SNAPPotential(params, beta=rng.normal(size=nb + 1), **extra)
    s = lattice_system("diamond", a=3.57, reps=reps)
    if model == "multispecies":
        s.types = (np.arange(s.natoms) % 2).astype(np.intp)
        pot.set_types(s.types)
    s.positions = s.positions + rng.normal(scale=0.03, size=s.positions.shape)
    s.seed_velocities(40.0, rng=np.random.default_rng(seed + 1))
    return s, pot


def _jittered(kind, a, reps, scale=0.03, seed=7):
    s = lattice_system(kind, a=a, reps=reps)
    s.positions = s.positions + np.random.default_rng(seed).normal(
        scale=scale, size=s.positions.shape)
    return s


#: every bundled potential with a system it is at home on, for the
#: potential x engine matrix of tests/test_engine.py: every box fits a
#: two-rank halo, no system has more than 256 atoms
POTENTIAL_CASES = [
    ("lj", lambda: (_jittered("fcc", 2.5, (4, 4, 4)),
                    LennardJones(epsilon=0.2, sigma=2.2, cutoff=3.0))),
    # 5 A axes under three cutoffs: the half list comes from the image
    # sweep, and a pair can bond through two images of one axis
    ("lj_small_box", lambda: (_jittered("fcc", 2.5, (3, 2, 2)),
                              LennardJones(epsilon=0.2, sigma=2.2,
                                           cutoff=3.0))),
    ("table", lambda: (_jittered("fcc", 2.5, (4, 4, 4)),
                       TablePotential.from_potential(
                           lambda r: np.exp(-r) * np.cos(2 * r),
                           rmin=0.5, cutoff=3.0))),
    ("finnis_sinclair", lambda: (_jittered("bcc", 3.2, (4, 4, 4)),
                                 FinnisSinclair())),
    ("stillinger_weber", lambda: (_jittered("diamond", 3.57, (3, 2, 2)),
                                  StillingerWeber())),
    ("snap_linear", lambda: snap_setup(reps=(3, 2, 2))),
    ("snap_quadratic", lambda: snap_setup(reps=(3, 2, 2),
                                          model="quadratic")),
    ("snap_two_species", lambda: snap_setup(reps=(3, 2, 2),
                                            model="multispecies")),
]


@pytest.fixture(params=POTENTIAL_CASES, ids=lambda case: case[0])
def potential_case(request):
    """``(name, system, potential)`` of one :data:`POTENTIAL_CASES` row."""
    name, build = request.param
    return (name, *build())
