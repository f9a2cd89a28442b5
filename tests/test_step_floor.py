"""The small-replica MD step: its bits and its per-step call count.

The step's per-step invariants (the Verlet and Langevin per-atom
factors, a box's periodic mask, the scratch views of a list between
builds) are formed outside the step; these nets pin that doing so kept
the arithmetic and cut the work.

``TestStepBits`` pins the sha256 of positions, velocities and forces
after two runs, one per neighbour-search path.  The digests were
recorded by running the same test bodies on the tree before the
factors were hoisted: a change that regroups a product in the
integrator, thermostat, list refresh or force assembly shows here even
when every in-run equality (restart, rebind, process = serial) holds.

``TestStepCost`` counts the interpreter's function calls (Python frames
and calls into C) per step of the 64-atom ParSplice replica.  On such a
replica the step's time is set by how many calls it makes, not by the
arithmetic, so the count is the step's cost in a form that does not
depend on the machine.
"""

import gc
import hashlib
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.rng import SeedStream
from repro.md import MDLoop, build_engine
from repro.md.engine import EngineSession
from repro.md.integrators import LangevinThermostat
from repro.md import neighbor
from repro.md.neighbor import _uses_tree
from repro.parsplice import run_md_segment
from repro.potentials import LennardJones
from repro.structures import lattice_system, random_packed

DENSITY = 0.1
#: 26 neighbours at this density: the benchmark's LJ cutoff
RCUT = (26 / (4.0 / 3.0 * math.pi * DENSITY)) ** (1.0 / 3.0)
SKIN = 0.3

#: recorded on the tree before the step's invariants were hoisted: the
#: hoisting is the same arithmetic in the same order
SEGMENT_DIGESTS = (
    "d1f6a225581f6965ba446e3264663d1a69a43546691f81d0b63e33cb877ffcae",
    "35e1bae7cd1585d8d1cf1622a028a67ef9f91ee0d6aad554a70bac9f349293ca",
    "ae0dc50b34e910c3b9e20f1f3bce9139b0ff41920fe9a0c25db6722a05e5ce31",
)
TREE_DIGESTS = (
    "a2cb8858d65c637d6244133169ba0c6a871422894aeac948bddb92139c0b78a2",
    "3074e6fff73dc9a72ab1de1f8b8d9cebc8f6e795f22a543eca96beca446dfc94",
    "8e00bebed1f5fd656a88171fcedac06473f0fe083960309bc307c28a81c4e5bb",
)

#: calls per step of the replica's Langevin step, ``STEP_CALLS`` when
#: this bound was set, with 5 % headroom (the tree before the hoisting
#: made 222.11)
STEP_CALLS = 169.74
STEP_CALL_BOUND = 178


def _lj():
    return LennardJones(epsilon=0.1, sigma=2.0, cutoff=RCUT)


def _replica():
    """The jittered 64-atom simple-cubic LJ replica of a ParSplice
    segment (8.6 A box, under two list cutoffs: the image sweep)."""
    spacing = (1.0 / DENSITY) ** (1.0 / 3.0)
    system = lattice_system("sc", a=spacing, reps=(4, 4, 4))
    rng = np.random.default_rng(921)
    system.positions = system.positions + rng.normal(
        scale=0.05, size=system.positions.shape)
    return system


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def segment_digests():
    """sha256 of positions, velocities and forces after a 50-step
    ``run_md_segment`` on the replica (the image-sweep path)."""
    template = _replica()
    assert not _uses_tree(template.natoms, template.box, RCUT + SKIN)
    with EngineSession.build(template.copy(), _lj(), skin=SKIN) as session:
        seg = run_md_segment(session, template, state=0, seed=5,
                             stream=SeedStream(38), nsteps=50)
        forces = session.engine.evaluate().forces
    return _sha(seg.positions), _sha(seg.velocities), _sha(forces)


def tree_digests():
    """The same after a 30-step Langevin run of 500 packed atoms (the
    k-d tree path); the forces are the run's last, thermostat included."""
    system = random_packed(500, density=DENSITY, seed=38)
    assert _uses_tree(system.natoms, system.box, RCUT + SKIN)
    system.seed_velocities(300.0, rng=np.random.default_rng(38))
    with build_engine(system, _lj(), skin=SKIN) as engine:
        loop = MDLoop(engine, dt=1.0e-3, thermostat=LangevinThermostat(
            temp=300.0, damp=0.1, seed=38))
        loop.run(30)
        forces = loop.last_result.forces
    return _sha(system.positions), _sha(system.velocities), _sha(forces)


class TestStepBits:
    def test_segment_on_the_image_sweep(self):
        assert segment_digests() == SEGMENT_DIGESTS

    def test_langevin_run_on_the_tree(self):
        assert tree_digests() == TREE_DIGESTS


class TestTreeCensus:
    """On the tree path one tree query serves several rebuilds: after
    the first build a rebuild prunes the list's outer candidate set,
    queried again only when an atom moved ``margin / 2`` since."""

    def test_motion_rebuilds_per_tree(self, monkeypatch):
        """The 500-atom tree run of ``TestStepBits``, its bits
        unchanged, makes at least three motion rebuilds per tree; the
        first build after construction and after ``reset`` queries at
        the list radius, every other query at the outer one."""
        radii = []
        tree = neighbor.cKDTree

        def counting_tree(data, **shape):
            built = tree(data, **shape)

            def query_pairs(radius, **kw):
                radii.append(radius)
                return built.query_pairs(radius, **kw)
            return SimpleNamespace(query_pairs=query_pairs)

        monkeypatch.setattr(neighbor, "cKDTree", counting_tree)
        system = random_packed(500, density=DENSITY, seed=38)
        system.seed_velocities(300.0, rng=np.random.default_rng(38))
        with build_engine(system, _lj(), skin=SKIN) as engine:
            loop = MDLoop(engine, dt=1.0e-3, thermostat=LangevinThermostat(
                temp=300.0, damp=0.1, seed=38))
            loop.run(30)
            assert _sha(system.positions) == TREE_DIGESTS[0]
            motion = engine.neighbor_builds - 1
            assert motion >= 3 * len(radii)
            engine.neighbors.reset(system.box)
            engine.evaluate()
        inner = pytest.approx(RCUT + SKIN)
        outer = pytest.approx((RCUT + SKIN) * (1.0 + neighbor._OUTER_MARGIN))
        assert radii[0] == inner and radii[-1] == inner
        assert all(r == outer for r in radii[1:-1]) and len(radii) > 2


def calls_per_step(nsteps=200):
    """Function calls the interpreter makes per step of a Langevin
    segment on the replica: the calls of an ``nsteps`` segment less
    those of a zero-step one (bind, first evaluation, summary), over
    ``nsteps``.  Seeded, so the rebuild steps and the count are fixed."""
    template = _replica()
    counted = [0]

    def count(frame, event, arg):
        if event == "call" or event == "c_call":
            counted[0] += 1

    def segment_calls(session, n):
        counted[0] = 0
        sys.setprofile(count)
        try:
            run_md_segment(session, template, state=0, seed=7,
                           stream=SeedStream(38), nsteps=n)
        finally:
            sys.setprofile(None)
        return counted[0]

    with EngineSession.build(template.copy(), _lj(), skin=SKIN) as session:
        run_md_segment(session, template, state=0, seed=7,
                       stream=SeedStream(38), nsteps=20)  # warm
        enabled = gc.isenabled()
        gc.disable()  # a collection could run a callback mid-count
        try:
            return (segment_calls(session, nsteps)
                    - segment_calls(session, 0)) / nsteps
        finally:
            if enabled:
                gc.enable()


class TestStepCost:
    def test_calls_per_step_stay_at_the_floor(self):
        assert calls_per_step() <= STEP_CALL_BOUND

    def test_segments_on_one_session_reuse_one_scratch(self, monkeypatch):
        """A session's bind resets its neighbour list in place: ten
        segments on one session allocate one pair scratch, not one per
        segment (all start from the same template, so no build
        outgrows the first)."""
        made = []

        class CountingScratch(neighbor.PairScratch):
            def __init__(self, capacity):
                made.append(capacity)
                super().__init__(capacity)

        monkeypatch.setattr(neighbor, "PairScratch", CountingScratch)
        template = _replica()
        with EngineSession.build(template.copy(), _lj(),
                                 skin=SKIN) as session:
            for seed in range(10):
                run_md_segment(session, template, state=0, seed=seed,
                               stream=SeedStream(38), nsteps=5)
            assert session.engine.neighbor_builds >= 10
        assert len(made) == 1
