"""Cross-module property-based tests (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import free_cluster_pairs
from repro.core import SNAP, SNAPParams
from repro.md import Box, build_pairs
from repro.perfmodel import md_performance, step_time
from repro.potentials import LennardJones
from repro.structures import lattice_system


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 10_000), nn=st.integers(1, 10))
def test_snap_descriptor_rotation_invariance_property(seed, nn):
    """B is rotation invariant for arbitrary environments."""
    from scipy.spatial.transform import Rotation

    rng = np.random.default_rng(seed)
    params = SNAPParams(twojmax=2, rcut=3.0)
    snap = SNAP(params)
    rij = rng.normal(size=(nn, 3))
    norms = np.linalg.norm(rij, axis=1)
    rij = rij / norms[:, None] * rng.uniform(0.5, 2.7, size=nn)[:, None]
    from repro.core import NeighborBatch

    nbr1 = NeighborBatch(i_idx=np.zeros(nn, dtype=np.intp), rij=rij,
                         r=np.linalg.norm(rij, axis=1))
    rot = Rotation.random(random_state=seed % 100).as_matrix()
    rij2 = rij @ rot.T
    nbr2 = NeighborBatch(i_idx=np.zeros(nn, dtype=np.intp), rij=rij2,
                         r=np.linalg.norm(rij2, axis=1))
    b1 = snap.compute_descriptors(1, nbr1)
    b2 = snap.compute_descriptors(1, nbr2)
    assert np.allclose(b1, b2, rtol=1e-9, atol=1e-9)


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 1000), natoms=st.integers(3, 8))
def test_snap_newton_third_law_property(seed, natoms):
    rng = np.random.default_rng(seed)
    params = SNAPParams(twojmax=2, rcut=3.0)
    snap = SNAP(params, beta=rng.normal(size=6))
    pos = rng.uniform(0, 4.0, size=(natoms, 3))
    # avoid overlapping atoms
    for i in range(natoms):
        for j in range(i):
            if np.linalg.norm(pos[i] - pos[j]) < 0.5:
                pos[i] += 0.7
    res = snap.compute(natoms, free_cluster_pairs(pos, 3.0))
    assert np.allclose(res.forces.sum(axis=0), 0.0, atol=1e-8)


@settings(deadline=None, max_examples=20)
@given(natoms=st.floats(1e6, 2e10), nodes=st.integers(1, 4650))
def test_perfmodel_rate_bounded_by_compute(natoms, nodes):
    """Per-node rate never exceeds the compute-only plateau."""
    perf = md_performance("summit", natoms, nodes)
    assert 0 < perf < 6.55e6 + 1.0


@settings(deadline=None, max_examples=20)
@given(natoms=st.floats(1e7, 2e10), nodes=st.integers(2, 4000))
def test_perfmodel_fractions_are_probabilities(natoms, nodes):
    frac = step_time("summit", natoms, nodes).fractions()
    assert all(0 <= v <= 1 for v in frac.values())
    assert sum(frac.values()) == pytest.approx(1.0)


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 500), cutoff=st.floats(1.5, 3.5))
def test_pair_potential_energy_translation_invariant(seed, cutoff):
    rng = np.random.default_rng(seed)
    box = Box.cubic(12.0)
    pos = rng.uniform(0, 12, size=(40, 3))
    pot = LennardJones(epsilon=0.3, sigma=1.1, cutoff=cutoff)
    e1 = pot.compute(40, build_pairs(pos, box, cutoff)).energy
    shift = rng.uniform(-20, 20, size=3)
    e2 = pot.compute(40, build_pairs(box.wrap(pos + shift), box, cutoff)).energy
    assert e1 == pytest.approx(e2, rel=1e-9, abs=1e-9)


@settings(deadline=None, max_examples=10)
@given(reps=st.integers(1, 3), kind=st.sampled_from(["sc", "bcc", "fcc",
                                                     "diamond", "bc8"]))
def test_lattice_energy_extensive(reps, kind):
    """Energy per atom is replication invariant for crystals."""
    pot = LennardJones(epsilon=0.1, sigma=1.4, cutoff=2.8)
    a = 3.2
    s1 = lattice_system(kind, a=a, reps=(1, 1, 1))
    # guard: box must admit the cutoff through the image sweep
    if s1.box.lengths[0] < 2.8 / 1.4:
        return
    sr = lattice_system(kind, a=a, reps=(reps, reps, reps))
    e1 = pot.compute(s1.natoms, build_pairs(s1.positions, s1.box, 2.8)).energy
    er = pot.compute(sr.natoms, build_pairs(sr.positions, sr.box, 2.8)).energy
    assert er / sr.natoms == pytest.approx(e1 / s1.natoms, rel=1e-9)


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 300), t_seg=st.floats(0.1, 3.0))
def test_parsplice_time_conservation(seed, t_seg):
    """Spliced + stored segment time always equals generated time."""
    from repro.parsplice import (SegmentGenerator, SpliceEngine, arrhenius_msm,
                                 nanoparticle_landscape)

    e, b = nanoparticle_landscape(seed=seed % 5)
    msm = arrhenius_msm(e, b, temperature=800.0)
    gen = SegmentGenerator(msm, t_segment=t_seg, seed=seed)
    sp = SpliceEngine(initial_state=0)
    rng = np.random.default_rng(seed)
    for _ in range(50):
        sp.deposit(gen.generate(int(rng.integers(0, 5))))
    stored_time = sp.stored_segments * t_seg
    assert sp.trajectory_time + stored_time == pytest.approx(50 * t_seg)
