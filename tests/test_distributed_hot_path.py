"""Distributed hot path: serial agreement, persistence, traffic.

Covers :class:`repro.parallel.DistributedEngine` driven by
:func:`repro.md.build_engine` + :class:`repro.md.MDLoop`:

* serial agreement at <= 1e-10 on a periodic SNAP carbon cell and for
  the classical potentials, with a global virial on every evaluation,
* persistent skinned halos / neighbor lists (rebuild cadence on a
  quiescent run),
* the ghost/reverse traffic ledger and the phase breakdown, and
* degenerate rank handling (zero-atom and single-atom clusters).
"""

import numpy as np
import pytest

from repro.core import SNAPParams
from repro.md import Box, MDLoop, build_engine, build_pairs
from repro.parallel import (BYTES_PER_GHOST, DistributedEngine, DomainGrid,
                            build_halos)
from repro.md.system import ParticleSystem
from repro.potentials import (FinnisSinclair, LennardJones, SNAPPotential,
                              StillingerWeber)
from repro.structures import lattice_system


def snap_carbon(rng, reps=(3, 3, 3), jitter=0.03):
    """Periodic diamond-carbon cell with a random-coefficient SNAP."""
    params = SNAPParams(twojmax=4, rcut=2.4)
    pot = SNAPPotential(params, beta=rng.normal(
        size=SNAPPotential(params).snap.index.ncoeff))
    s = lattice_system("diamond", a=3.57, reps=reps)
    s.positions = s.positions + rng.normal(scale=jitter, size=s.positions.shape)
    return s, pot


class TestHaloModeAgreement:
    # ids carry the "1x" label of the engine's one halo scheme
    @pytest.mark.parametrize("nranks", [2, 4], ids=["2-1x-0.3", "4-1x-0.3"])
    def test_snap_matches_serial(self, rng, nranks):
        s, pot = snap_carbon(rng)
        nbr = build_pairs(s.positions, s.box, pot.cutoff)
        ref = pot.compute(s.natoms, nbr)
        res = DistributedEngine(s.copy(), pot, nranks).evaluate()
        assert res.energy == pytest.approx(ref.energy, abs=1e-10)
        assert np.abs(res.forces - ref.forces).max() <= 1e-10
        assert np.abs(res.virial - ref.virial).max() <= 1e-9

    @pytest.mark.parametrize("make_pot", [
        lambda: LennardJones(epsilon=0.2, sigma=2.2, cutoff=3.0),
        lambda: StillingerWeber(),
        lambda: FinnisSinclair(),
    ], ids=["<lambda>0-1x", "<lambda>1-1x", "<lambda>2-1x"])
    def test_classical_matches_serial(self, rng, make_pot):
        pot = make_pot()
        s = lattice_system("fcc", a=2.5, reps=(6, 6, 6))
        s.positions = s.positions + rng.normal(scale=0.04,
                                               size=s.positions.shape)
        nbr = build_pairs(s.positions, s.box, pot.cutoff)
        ref = pot.compute(s.natoms, nbr)
        res = DistributedEngine(s.copy(), pot, 4).evaluate()
        assert res.energy == pytest.approx(ref.energy, abs=1e-9)
        assert np.abs(res.forces - ref.forces).max() <= 1e-10

    def test_negative_skin_rejected(self, rng):
        s, pot = snap_carbon(rng)
        with pytest.raises(ValueError):
            DistributedEngine(s, pot, 2, skin=-0.1)


class TestPersistence:
    def test_quiescent_rebuild_cadence(self, rng):
        """Low-T run: halos/neighbor lists rebuild on a small fraction of
        steps, and the trajectory still matches the serial engine."""
        s1, pot = snap_carbon(rng, reps=(2, 2, 2), jitter=0.005)
        s1.seed_velocities(30.0, rng=np.random.default_rng(9))
        s2 = s1.copy()
        engine = build_engine(s1, pot, nranks=2, skin=0.3)
        out = MDLoop(engine, dt=5e-4).run(12)
        # 13 evaluations; the quiescent cell must reuse the persistent
        # lists almost every step
        assert out.rebuilds == engine.ledger.rebuilds
        assert out.rebuilds <= 3
        MDLoop(build_engine(s2, pot, skin=0.3), dt=5e-4).run(12)
        assert np.allclose(s1.box.wrap(s1.positions),
                           s2.box.wrap(s2.positions), atol=1e-8)

    def test_zero_skin_rebuilds_every_moving_step(self, rng):
        s, pot = snap_carbon(rng, reps=(2, 2, 2))
        s.seed_velocities(300.0, rng=np.random.default_rng(4))
        out = MDLoop(build_engine(s, pot, nranks=2, skin=0.0),
                     dt=1e-3).run(4)
        assert out.rebuilds == 5  # initial + every post-motion step

    def test_refresh_is_exact_not_stale(self, rng):
        """Forces on a refresh step equal a from-scratch evaluation."""
        s, pot = snap_carbon(rng, reps=(2, 2, 2), jitter=0.02)
        s.seed_velocities(80.0, rng=np.random.default_rng(11))
        engine = build_engine(s, pot, nranks=2, skin=0.4)
        MDLoop(engine, dt=5e-4).run(3)
        assert engine.ledger.rebuilds < engine.ledger.steps  # refreshes happened
        nbr = build_pairs(s.positions, s.box, pot.cutoff)
        ref = pot.compute(s.natoms, nbr)
        assert np.abs(engine.evaluate().forces - ref.forces).max() <= 1e-10


class TestTraffic:
    def test_single_halo_build_keeps_1x_accounting(self, rng):
        """The ledger's ghost bytes after one evaluation are those of a
        direct halo build at the 1x (cutoff + skin) width."""
        s, pot = snap_carbon(rng)
        pos = s.box.wrap(s.positions)
        grid = DomainGrid.for_ranks(s.box, 2)
        skin = 0.1
        halos = build_halos(grid, pos, grid.assign_atoms(pos),
                            pot.cutoff + skin)
        engine = DistributedEngine(s.copy(), pot, 2, skin=skin)
        engine.evaluate()
        nghost = sum(h.count for h in halos)
        assert engine.ledger.ghost_atoms == nghost
        assert engine.ledger.ghost_bytes == nghost * BYTES_PER_GHOST

    def test_run_summary_has_breakdown(self, rng):
        s, pot = snap_carbon(rng, reps=(2, 2, 2))
        s.seed_velocities(50.0, rng=np.random.default_rng(2))
        out = MDLoop(build_engine(s, pot, nranks=2), dt=5e-4).run(2)
        assert out.ghost_bytes_per_step > 0
        assert out.reverse_bytes_per_step > 0
        bd = out.phase_breakdown
        assert {"comm", "neigh", "force"} <= set(bd)
        assert {"halo_build", "forward", "reverse"} <= set(bd["comm"]["sub"])
        assert {"rebuild", "refresh"} <= set(bd["neigh"]["sub"])
        # SNAP kernel stages surface as force sub-phases
        assert "compute_yi" in bd["force"]["sub"]


class TestDegenerateRanks:
    def test_empty_and_single_atom_ranks(self):
        """Atoms confined to one octant leave ranks with 0 owned atoms;
        an isolated far atom gives a 1-atom cluster. Both must work."""
        box = Box.cubic(40.0)
        rng = np.random.default_rng(0)
        cluster = rng.uniform(1.0, 8.0, size=(30, 3))
        lone = np.array([[35.0, 35.0, 35.0]])
        pos = np.concatenate([cluster, lone])
        system = ParticleSystem(positions=pos, box=box)
        pot = LennardJones(epsilon=0.2, sigma=2.2, cutoff=3.0)
        nbr = build_pairs(pos, box, pot.cutoff)
        ref = pot.compute(system.natoms, nbr)
        engine = DistributedEngine(system.copy(), pot, 8)
        owner = engine.grid.assign_atoms(pos)
        counts = np.bincount(owner, minlength=8)
        assert (counts == 0).any()  # empty ranks exist
        assert (counts == 1).any()  # the lone atom's rank
        res = engine.evaluate()
        assert res.energy == pytest.approx(ref.energy, rel=1e-12)
        fscale = max(1.0, np.abs(ref.forces).max())
        assert np.abs(res.forces - ref.forces).max() <= 1e-12 * fscale
