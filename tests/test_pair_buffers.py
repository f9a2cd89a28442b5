"""The pair pipeline's reused buffers, and what reads the engine's list.

A :class:`~repro.md.NeighborList` refreshes, filters, evaluates and
assembles into one scratch that every step reuses.  These tests pin the
three contracts that reuse must keep:

* no array an engine returns is a view of a reused buffer: a held
  result survives the next step unchanged, on the serial engine and on
  the process engine;
* :class:`~repro.analysis.RDFObserver` reading the step's own half list
  counts the bonds :func:`~repro.analysis.rdf.bond_histogram` counts,
  to the bit, and runs its own search whenever the list cannot serve;
* a non-finite coordinate on a refresh step rebuilds, and so raises,
  instead of dropping that atom's pairs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import RDFObserver
from repro.analysis.rdf import bond_histogram
from repro.md import Box, LangevinThermostat, MDLoop, ParticleSystem, \
    build_engine
from repro.potentials import LennardJones, StillingerWeber
from repro.structures import lattice_system, random_packed


def _fcc_lj(reps=(4, 4, 4), jitter=0.03, seed=7):
    s = lattice_system("fcc", a=2.5, reps=reps)
    s.positions = s.positions + np.random.default_rng(seed).normal(
        scale=jitter, size=s.positions.shape)
    s.seed_velocities(40.0, rng=np.random.default_rng(seed + 1))
    return s, LennardJones(epsilon=0.2, sigma=2.2, cutoff=3.0)


def _held(result):
    return (result.energy, result.forces.copy(), result.peratom.copy(),
            result.virial.copy())


def _assert_unchanged(result, held):
    energy, forces, peratom, virial = held
    assert result.energy == energy
    for got, want in ((result.forces, forces), (result.peratom, peratom),
                      (result.virial, virial)):
        assert got.tobytes() == want.tobytes()


# ======================================================================
# no returned array aliases the scratch
# ======================================================================
class TestHeldResults:
    def test_serial_results_survive_later_steps(self, potential_case):
        """Every potential on the serial engine: step k's energy,
        forces, per-atom energies and virial are unchanged after a
        refresh step and after a rebuild step, and none of them shares
        memory with the list's scratch."""
        _name, s, pot = potential_case
        engine = build_engine(s, pot)
        first = engine.evaluate()
        held = _held(first)
        rng = np.random.default_rng(3)
        nudge = rng.uniform(-1, 1, size=s.positions.shape) * 0.02
        second = engine.evaluate(s.positions + nudge)  # refresh
        jump = nudge.copy()
        jump[0] += 0.5  # past skin/2: a rebuild
        third = engine.evaluate(s.positions + jump)
        assert engine.neighbor_builds == 2
        _assert_unchanged(first, held)
        buffers = list(engine.neighbors._pairs.scratch._arrays.values())
        assert buffers
        for result in (first, second, third):
            for arr in (result.forces, result.peratom, result.virial):
                assert not any(np.shares_memory(arr, buf) for buf in buffers)

    @pytest.mark.parametrize("nprocs", [1, 2])
    def test_process_results_survive_later_steps(self, nprocs):
        """Same on ``ProcessEngine``: what it returns is the parent's
        own copy, never the shared block the workers write next."""
        s, pot = _fcc_lj()
        with build_engine(s, pot, nprocs=nprocs) as engine:
            first = engine.evaluate()
            held = _held(first)
            moved = s.positions + 0.02
            second = engine.evaluate(moved)
            held2 = _held(second)
            moved[0] += 0.5
            engine.evaluate(moved)
            assert engine.neighbor_builds == 2
            _assert_unchanged(first, held)
            _assert_unchanged(second, held2)


# ======================================================================
# RDF from the engine's list
# ======================================================================
def _observed(system, result, rmax, nbins):
    obs = RDFObserver(rmax=rmax, nbins=nbins)
    obs.observe(0, system, result)
    return obs.hist


def _searched(system, rmax, nbins):
    """:func:`bond_histogram`'s counts, as the observer accumulates them."""
    return bond_histogram(system.positions, system.box, rmax,
                          nbins)[0].astype(float)


@st.composite
def lj_runs(draw):
    """A packed LJ gas whose list takes the tree path, its cutoff and
    skin drawn against the box, every atom drifted by whole box lengths
    (``MDLoop`` never wraps)."""
    seed = draw(st.integers(0, 2**16))
    density = draw(st.floats(0.05, 0.12))
    system = random_packed(draw(st.integers(40, 300)), density=density,
                           seed=seed)
    rng = np.random.default_rng(seed)
    system.positions += rng.integers(-2, 3, size=system.positions.shape) \
        * system.box.lengths
    system.seed_velocities(draw(st.floats(50.0, 800.0)), rng=rng)
    skin = draw(st.floats(0.1, 0.5))
    cutoff = draw(st.floats(0.5, 0.95)) \
        * (system.box.lengths.min() / 3.0 - skin)
    rmax = draw(st.sampled_from([0.5, 0.9, 1.0])) * cutoff
    sigma = 0.85 * 0.8 * (1.0 / density) ** (1.0 / 3.0)  # the core radius
    return system, sigma, cutoff, rmax, skin, draw(st.integers(1, 120))


class TestRDFFromTheList:
    @settings(deadline=None, max_examples=25)
    @given(run=lj_runs())
    def test_list_histogram_is_the_searched_one(self, run):
        """Along a Langevin run the observer's counts from the step's
        half list equal a fresh search's on every sampled step, refresh
        and rebuild steps alike."""
        system, sigma, cutoff, rmax, skin, nbins = run
        pot = LennardJones(epsilon=0.01, sigma=min(sigma, 0.9 * cutoff),
                           cutoff=cutoff)
        engine = build_engine(system, pot, skin=skin)
        obs = RDFObserver(rmax=rmax, nbins=nbins)
        want = np.zeros(nbins)

        class Searched:
            def observe(self, step, system, result):
                assert result.neighbors.bond_lengths(
                    system.positions, system.box, rmax) is not None
                want[:] += _searched(system, rmax, nbins)

        loop = MDLoop(engine, dt=2e-3, observers=[obs, Searched()],
                      thermostat=LangevinThermostat(temp=300.0, damp=0.05,
                                                    seed=5))
        loop.run(8)
        assert obs.nsamples == 9
        assert obs.hist.tobytes() == want.tobytes()

    def test_lj4k_shaped_histogram(self):
        """The benchmark row's shape: ``rmax`` equal to the LJ cutoff,
        a 500-atom gas at 0.1 atoms / A^3, skin 0.3."""
        rng = np.random.default_rng(931)
        length = (500 / 0.1) ** (1.0 / 3.0)
        box = Box.cubic(length)
        system = ParticleSystem(
            positions=rng.uniform(0, length, size=(500, 3)), box=box)
        rcut = (26 / (4.0 / 3.0 * np.pi * 0.1)) ** (1.0 / 3.0)
        pot = LennardJones(epsilon=0.1, sigma=2.0, cutoff=rcut)
        engine = build_engine(system, pot)
        result = engine.evaluate()
        assert result.neighbors.bond_lengths(
            system.positions, box, rcut) is not None
        got = _observed(system, result, rcut, 100)
        assert got.tobytes() == _searched(system, rcut, 100).tobytes()

    def test_fallbacks_search_for_themselves(self):
        """Where the list cannot serve the observer searches, with the
        same counts: ``rmax`` past the list's cutoff, a full list (a
        many-body potential's), the small-box image sweep, atoms moved
        past skin/2 since the build, a rescaled cell, and no result at
        all.  A cell equal by value (a restored checkpoint's) serves."""
        s, pot = _fcc_lj()
        result = build_engine(s, pot).evaluate()
        nlist = result.neighbors
        cases = [(s, result, 3.2)]  # beyond the 3.0 cutoff
        moved = s.copy()
        moved.positions[4] += 0.4  # past skin/2, no get since
        cases.append((moved, result, 2.9))
        scaled = s.copy()
        scaled.box = s.box.scaled(1.001)  # a barostat step
        scaled.positions *= 1.001
        cases.append((scaled, result, 2.9))
        cases.append((s, None, 2.9))
        small, small_pot = _fcc_lj(reps=(3, 2, 2))
        small_result = build_engine(small, small_pot).evaluate()
        cases.append((small, small_result, 2.9))
        # four cells per axis: the full list comes from the tree
        diamond = lattice_system("diamond", a=3.57, reps=(4, 4, 4))
        full = build_engine(diamond, StillingerWeber()).evaluate()
        cases.append((diamond, full, 2.3))  # SW's cutoff is 2.403
        for system, res, rmax in cases:
            if res is not None:
                assert res.neighbors.bond_lengths(
                    system.positions, system.box, rmax) is None
            got = _observed(system, res, rmax, 50)
            assert got.tobytes() == _searched(system, rmax, 50).tobytes()
        same_cell = s.copy()
        same_cell.box = Box(lengths=s.box.lengths.copy(),
                            periodic=s.box.periodic)
        assert nlist.bond_lengths(s.positions, same_cell.box,
                                  2.9) is not None
        got = _observed(same_cell, result, 2.9, 50)
        assert got.tobytes() == _searched(same_cell, 2.9, 50).tobytes()

    def test_process_engine_results_carry_no_list(self):
        s, pot = _fcc_lj()
        with build_engine(s, pot, nprocs=2) as engine:
            result = engine.evaluate()
        assert result.neighbors is None
        got = _observed(s, result, 2.9, 50)
        assert got.tobytes() == _searched(s, 2.9, 50).tobytes()


# ======================================================================
# a non-finite coordinate on a refresh step
# ======================================================================
class TestNonFiniteRefresh:
    """NaN fails every comparison, so a skin test written ``moved >
    skin/2`` refreshes a NaN atom instead of rebuilding; its distances
    then fail ``r < cutoff`` and it loses every pair without a word."""

    def _poisoned(self, s):
        pos = s.positions.copy()
        pos[5, 1] = np.nan
        return pos

    def test_serial_engine_raises(self):
        s, pot = _fcc_lj()
        engine = build_engine(s, pot)
        engine.evaluate()
        with pytest.raises(ValueError, match="finite"):
            engine.evaluate(self._poisoned(s))

    def test_process_engine_raises(self):
        s, pot = _fcc_lj()
        engine = build_engine(s, pot, nprocs=2)
        try:
            engine.evaluate()
            with pytest.raises(RuntimeError, match="worker rank") as err:
                engine.evaluate(self._poisoned(s))
            assert isinstance(err.value.__cause__, ValueError)
            assert "finite" in str(err.value.__cause__)
        finally:
            engine.close()
