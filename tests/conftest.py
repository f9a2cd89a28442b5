"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import multiprocessing

import numpy as np
import pytest

from repro.core import SNAP, NeighborBatch, SNAPParams


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


@pytest.fixture
def snap4(rng):
    """Small SNAP (2J=4) with random coefficients."""
    params = SNAPParams(twojmax=4, rcut=3.0, chunk=64)
    n = SNAP(params).index.ncoeff
    return SNAP(params, beta=rng.normal(size=n))
