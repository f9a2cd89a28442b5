"""The halo census: the bytes a rank decomposition would move.

:func:`repro.parallel.halo_census` books one halo build step of an
``nranks`` MPI decomposition; :class:`RunCensus` folds it over a serial
engine's neighbour rebuilds (a refresh step in between ships one
position per ghost).  The numbers pinned here are the ones the retired
in-process rank engine booked on the same runs (EXPERIMENTS E36 has the
differential table).  Also here: the one cell-index expression that
ownership and the halo build share, checked on a face-exact atom
against a brute-force ghost reference.
"""

import functools
import itertools
from dataclasses import astuple

import numpy as np
import pytest

from repro.md import Box, MDLoop, ParticleSystem, build_engine
from repro.md.engine import CommLedger
from repro.parallel import (BYTES_PER_GHOST, BYTES_PER_POSITION, DomainGrid,
                            build_halos, forward_bytes, halo_census)
from repro.core import SNAPParams
from repro.potentials import LennardJones, SNAPPotential, StillingerWeber
from repro.structures import lattice_system, random_packed


class RunCensus:
    """Census of a whole run: wraps ``engine.evaluate`` and books every
    step the way a rank-decomposed run of the same trajectory would -
    a fresh census on each neighbour rebuild, a position refresh of the
    same ghosts on every other step, the ghost forces back on all."""

    def __init__(self, engine, nranks: int) -> None:
        self.ledger = CommLedger()
        self._build: CommLedger | None = None
        inner = engine.evaluate

        def evaluate(positions=None):
            builds = engine.neighbor_builds
            result = inner(positions)
            if engine.neighbor_builds > builds:
                pos = engine.system.positions if positions is None \
                    else positions
                self._rebuilt(halo_census(pos, engine.system.box, nranks,
                                          engine.potential.cutoff
                                          + engine.skin))
                self._book(rebuilt=True)
            else:
                self._book(rebuilt=False)
            return result

        engine.evaluate = evaluate

    def _rebuilt(self, build: CommLedger) -> None:
        led = self.ledger
        led.max_rank_atoms = max(led.max_rank_atoms, build.max_rank_atoms)
        led.min_rank_atoms = build.min_rank_atoms if led.rebuilds == 0 \
            else min(led.min_rank_atoms, build.min_rank_atoms)
        led.rebuilds += 1
        self._build = build

    def _book(self, rebuilt: bool) -> None:
        led, build = self.ledger, self._build
        led.steps += 1
        led.ghost_atoms += build.ghost_atoms
        led.ghost_bytes += forward_bytes(build.ghost_atoms, rebuilt)
        led.reverse_bytes += build.reverse_bytes


@functools.lru_cache(maxsize=1)
def e4b_sample():
    """EXPERIMENTS E4b's paper-shaped sample and its skinned cutoff
    (shared: read it, never move it)."""
    density = 0.1
    s = random_packed(4000, density=density, seed=1)
    cutoff = (26 / (4 / 3 * np.pi * density)) ** (1 / 3)
    return s, cutoff + 0.3


def census_of_run(make, nranks: int, steps: int,
                  temp: float) -> CommLedger:
    """Fold the census over a serial MD run of ``make()``'s system."""
    s, pot = make()
    s.seed_velocities(temp, rng=np.random.default_rng(5))
    with build_engine(s, pot) as engine:
        census = RunCensus(engine, nranks)
        MDLoop(engine, dt=1e-3).run(steps)
    assert census.ledger.rebuilds == engine.neighbor_builds
    return census.ledger


def lj_fcc():
    """864-atom LJ fcc: at 1500 K it rebuilds 39 times in 200 steps."""
    return (lattice_system("fcc", a=3.5, reps=(6, 6, 6)),
            LennardJones(epsilon=0.2, sigma=2.2, cutoff=5.0))


def sw_diamond():
    s = lattice_system("diamond", a=5.43, reps=(4, 4, 4))
    s.positions += np.random.default_rng(3).normal(scale=0.04,
                                                   size=s.positions.shape)
    return s, StillingerWeber()


def snap_diamond():
    params = SNAPParams(twojmax=2, rcut=2.4)
    beta = np.random.default_rng(0).normal(
        size=SNAPPotential(params).snap.index.ncoeff)
    s = lattice_system("diamond", a=3.57, reps=(3, 3, 3))
    s.positions += np.random.default_rng(1).normal(scale=0.03,
                                                   size=s.positions.shape)
    return s, SNAPPotential(params, beta=beta)


# ======================================================================
# pinned census numbers (E36): what the rank engine booked
# ======================================================================
class TestPinnedCensus:
    """Fields are ``(steps, rebuilds, ghost_atoms, ghost_bytes,
    reverse_bytes, max_rank_atoms, min_rank_atoms)``; each row equalled
    the retired rank engine's ledger on the same run."""

    #: E4b's sample, one build step
    E4B = {
        2: (1, 1, 5334, 170_688, 128_016, 2008, 1992),
        4: (1, 1, 7169, 229_408, 172_056, 1007, 993),
        8: (1, 1, 9436, 301_952, 226_464, 519, 480),
    }

    @pytest.mark.parametrize("nranks", [2, 4, 8])
    def test_e4b_sample(self, nranks):
        s, cutoff = e4b_sample()
        got = halo_census(s.positions, s.box, nranks, cutoff)
        assert astuple(got) == self.E4B[nranks]

    #: serial MD runs folded over their rebuilds
    RUNS = {
        ("lj_fcc", 2): (201, 39, 662_209, 16_922_360, 15_893_016, 449, 415),
        ("lj_fcc", 4): (201, 39, 950_676, 24_293_880, 22_816_224, 229, 201),
        ("lj_fcc", 8): (201, 39, 1_345_704, 34_388_544, 32_296_896, 120, 91),
        ("sw_diamond", 8): (31, 10, 36_130, 960_824, 867_120, 71, 59),
        ("snap_diamond", 4): (31, 11, 36_043, 964_944, 865_032, 59, 44),
    }

    @pytest.mark.parametrize("nranks", [2, 4, 8])
    def test_lj_run(self, nranks):
        got = census_of_run(lj_fcc, nranks, steps=200, temp=1500.0)
        assert astuple(got) == self.RUNS["lj_fcc", nranks]

    def test_sw_run(self):
        got = census_of_run(sw_diamond, 8, steps=30, temp=600.0)
        assert astuple(got) == self.RUNS["sw_diamond", 8]

    def test_snap_run(self):
        got = census_of_run(snap_diamond, 4, steps=30, temp=600.0)
        assert astuple(got) == self.RUNS["snap_diamond", 4]

    def test_empty_rank_reads_zero_and_returns_nothing(self):
        """12 atoms in one octant: rank 1 owns none.  It still receives
        its 7 ghosts (13 in all forward), but it evaluates nothing, so
        only rank 0's 6 ghost forces come back."""
        pos = np.random.default_rng(7).uniform(1.0, 9.0, size=(12, 3))
        got = halo_census(pos, Box.cubic(24.0), 2, 3.0)
        assert astuple(got) == (1, 1, 13, 13 * BYTES_PER_GHOST,
                               6 * BYTES_PER_POSITION, 12, 0)

    def test_subdomain_below_the_cutoff_raises(self):
        s, pot = snap_diamond()
        with pytest.raises(ValueError, match="subdomain length"):
            halo_census(s.positions, s.box, 5, pot.cutoff + 0.3)


# ======================================================================
# the ledger of one build step
# ======================================================================
class TestCensus:
    def test_bytes_follow_the_ghosts(self):
        s, cutoff = e4b_sample()
        grid = DomainGrid.for_ranks(s.box, 4)
        ghosts = sum(h.count for h in build_halos(grid, s.positions, cutoff))
        got = halo_census(s.positions, s.box, 4, cutoff)
        assert got.ghost_atoms == ghosts
        assert got.ghost_bytes == ghosts * BYTES_PER_GHOST
        assert forward_bytes(ghosts, rebuilt=False) \
            == ghosts * BYTES_PER_POSITION

    def test_owned_counts_partition_the_atoms(self, rng):
        """Every atom is owned by exactly one rank, after atoms moved
        across subdomain faces too."""
        box = Box.cubic(24.0)
        pos = rng.uniform(0.0, 24.0, size=(200, 3))
        grid = DomainGrid.for_ranks(box, 8)
        for shift in (0.0, 3.7, 11.9):
            owner = grid.assign_atoms(pos + shift)
            counts = np.bincount(owner, minlength=grid.nranks)
            assert counts.sum() == len(pos)
            census = halo_census(pos + shift, box, 8, 3.0)
            assert (census.max_rank_atoms, census.min_rank_atoms) \
                == (counts.max(), counts.min())

    def test_empty_rank_minimum_survives_later_rebuilds(self, rng):
        """Folded over a run, an empty rank's 0 is the run's minimum; a
        later rebuild where every rank owns atoms must not overwrite
        it."""
        box = Box.cubic(24.0)
        pot = LennardJones(epsilon=0.2, sigma=2.2, cutoff=3.0)
        octant = ParticleSystem(positions=rng.uniform(1.0, 9.0, size=(12, 3)),
                                box=box)
        spread = ParticleSystem(positions=rng.uniform(0.0, 24.0,
                                                      size=(64, 3)), box=box)
        with build_engine(octant, pot) as engine:
            census = RunCensus(engine, 2)
            engine.evaluate()
            assert (census.ledger.min_rank_atoms,
                    census.ledger.max_rank_atoms) == (0, 12)
            engine.bind(spread)
            engine.evaluate()
        counts = np.bincount(
            DomainGrid.for_ranks(box, 2).assign_atoms(spread.positions),
            minlength=2)
        assert counts.min() > 0 and census.ledger.rebuilds == 2
        assert census.ledger.min_rank_atoms == 0
        assert census.ledger.max_rank_atoms == counts.max()


# ======================================================================
# one cell-index expression (a face-exact atom)
# ======================================================================
def _reference_ghosts(grid: DomainGrid, pos: np.ndarray, cutoff: float):
    """Brute-force ghost sets: every periodic image of every atom inside
    a rank's cutoff-widened subdomain, except an owned atom itself."""
    box, sub = grid.box, grid.subdomain_lengths
    pos = box.wrap(pos)
    owner = grid.assign_atoms(pos)
    out = []
    for rank in range(grid.nranks):
        coords = np.array(np.unravel_index(rank, grid.dims))
        lo, hi = coords * sub - cutoff, (coords + 1) * sub + cutoff
        ghosts = set()
        for shift in itertools.product((-1, 0, 1), repeat=3):
            image = pos + np.array(shift) * box.lengths
            inside = np.all((image > lo) & (image < hi), axis=1)
            if shift == (0, 0, 0):
                inside &= owner != rank
            ghosts |= {(int(i), *np.round(image[i], 9)) for i in
                       np.flatnonzero(inside)}
        out.append(ghosts)
    return out


class TestFaceAtom:
    def test_face_atom_is_a_ghost_of_its_neighbour_not_its_owner(self):
        """``z / L * 5`` puts this atom in cell 1, ``z / (L / 5)`` in
        cell 2: with two cell-index expressions the owner got its own
        atom as a ghost and rank 2 never got it."""
        box = Box.cubic(27.293659056250902)
        z = 10.91746362250036
        pos = np.array([[5.0, 5.0, z], [5.0, 5.0, z - 1.2],
                        [5.0, 5.0, z + 1.2]])
        grid = DomainGrid(box=box, dims=(1, 1, 5))
        cutoff = 3.0
        halos = build_halos(grid, pos, cutoff)
        want = _reference_ghosts(grid, pos, cutoff)
        for rank, halo in enumerate(halos):
            got = {(int(i), *np.round(p, 9))
                   for i, p in zip(halo.indices, halo.positions)}
            assert len(got) == halo.count, f"rank {rank}: duplicate ghost"
            assert got == want[rank], f"rank {rank}"
