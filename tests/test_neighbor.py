"""Tests for neighbor lists."""

import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import repro.md.neighbor as neighbor
from repro.md import Box, MDLoop, NeighborList, build_engine, build_pairs
from repro.md.neighbor import (_brute_force_pairs, filter_pairs,
                               refresh_pairs)
from repro.potentials import LennardJones, TablePotential
from repro.structures import lattice_system, random_packed, replicate


def test_refresh_census():
    """One refresh, shared: the pair-geometry update lives in
    ``refresh_pairs``; ``NeighborList`` (serial engine and every process
    worker) calls it - no copy of its arithmetic, and no second skin
    state machine, elsewhere under ``src/repro``."""
    import repro

    assert sorted(neighbor.__all__) == ["NeighborList", "build_pairs",
                                        "filter_pairs", "refresh_pairs"]
    source = {p: p.read_text()
              for p in Path(repro.__file__).parent.rglob("*.py")}
    calls = {p.name: len(re.findall(r"(?<!def )refresh_pairs\(", text))
             for p, text in source.items() if "refresh_pairs(" in text}
    assert calls == {"neighbor.py": 1}
    assert not any("linalg.norm(rij" in text for text in source.values())
    worker = next(text for p, text in source.items()
                  if p.name == "process_engine.py")
    for name in ("build_pairs", "refresh_pairs", "filter_pairs"):
        assert name not in worker
    assert worker.count("barrier.wait()") == 3
    assert not any("chunk_origin" in text for text in source.values())


def _pair_set(nbr):
    return sorted(zip(nbr.i_idx.tolist(), nbr.j_idx.tolist(),
                      np.round(nbr.r, 9).tolist()))


class TestBuildPairs:
    def test_cells_match_brute_force(self, rng):
        box = Box.cubic(15.0)
        pos = rng.uniform(0, 15, size=(150, 3))
        for cutoff in (2.0, 3.3, 4.9):
            nbr = build_pairs(pos, box, cutoff)
            ii, jj, rv = _brute_force_pairs(pos, box, cutoff)
            rr = np.linalg.norm(rv, axis=1)
            assert _pair_set(nbr) == sorted(
                zip(ii.tolist(), jj.tolist(), np.round(rr, 9).tolist()))

    def test_full_list_is_symmetric(self, rng):
        box = Box.cubic(12.0)
        pos = rng.uniform(0, 12, size=(80, 3))
        nbr = build_pairs(pos, box, 3.0)
        fwd = set(zip(nbr.i_idx.tolist(), nbr.j_idx.tolist()))
        assert all((j, i) in fwd for (i, j) in fwd)

    def test_sorted_by_center(self, rng):
        box = Box.cubic(12.0)
        pos = rng.uniform(0, 12, size=(60, 3))
        nbr = build_pairs(pos, box, 3.0)
        assert np.all(np.diff(nbr.i_idx) >= 0)

    def test_distances_below_cutoff(self, rng):
        box = Box.cubic(10.0)
        pos = rng.uniform(0, 10, size=(50, 3))
        nbr = build_pairs(pos, box, 2.7)
        assert np.all(nbr.r < 2.7)
        assert np.all(nbr.r > 0)

    def test_small_box_multiple_images(self):
        # one pair interacting through two images in a tight box
        box = Box.cubic(2.0)
        pos = np.array([[0.1, 1.0, 1.0], [1.9, 1.0, 1.0]])
        nbr = build_pairs(pos, box, 1.0)
        # separation is 0.2 through the boundary and 1.8 directly
        assert np.sum((nbr.i_idx == 0) & (nbr.j_idx == 1)) == 1
        assert np.allclose(sorted(nbr.r), [0.2, 0.2])

    def test_self_image_pairs(self):
        # an atom can neighbor its own periodic image: the 6 faces at
        # 1.5, then the 12 edges at 2.12 (the +-2 faces at 3.0 are out)
        box = Box.cubic(1.5)
        pos = np.array([[0.75, 0.75, 0.75]])
        for cutoff, npairs in ((1.6, 6), (2.2, 18)):
            nbr = build_pairs(pos, box, cutoff)
            assert nbr.npairs == npairs
            assert np.all(nbr.i_idx == 0) and np.all(nbr.j_idx == 0)
            assert np.allclose(np.sort(np.abs(nbr.rij).sum(axis=1)),
                               [1.5] * 6 + [3.0] * (npairs - 6))
            # each bond once: the image of positive shift
            half = build_pairs(pos, box, cutoff, half=True)
            assert half.npairs == npairs // 2
            assert np.all(half.rij[np.arange(half.npairs), np.argmax(
                np.abs(half.rij) > 0.1, axis=1)] > 0)

    def test_rij_consistency(self, rng):
        box = Box.cubic(14.0)
        pos = rng.uniform(0, 14, size=(70, 3))
        nbr = build_pairs(pos, box, 3.5)
        assert np.allclose(np.linalg.norm(nbr.rij, axis=1), nbr.r)

    def test_nonperiodic_box(self, rng):
        box = Box(lengths=[8.0] * 3, periodic=(False, False, False))
        pos = rng.uniform(0, 8, size=(40, 3))
        nbr = build_pairs(pos, box, 2.5)
        direct = np.linalg.norm(pos[nbr.j_idx] - pos[nbr.i_idx], axis=1)
        assert np.allclose(direct, nbr.r)

    def test_cutoff_too_large_raises(self):
        box = Box.cubic(2.0)
        pos = np.array([[1.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match="too large"):
            build_pairs(pos, box, 3.5)


@st.composite
def tree_systems(draw, sweep=False):
    """``(box, positions, cutoff, rng)`` that ``build_pairs`` sends down
    the tree path: n > 32 and three cells per periodic axis.  Mixed
    periodicity, non-cubic, and every atom drifted by whole box lengths
    along the periodic axes (``MDLoop`` never wraps).  ``sweep=True``
    draws the other side of that choice: a periodic axis shorter than
    three cutoffs, so the image sweep runs."""
    periodic = draw(st.tuples(*[st.booleans()] * 3))
    if sweep:
        periodic = (True,) + periodic[1:]
    box = Box(lengths=draw(st.tuples(*[st.floats(6.0, 14.0)] * 3)),
              periodic=periodic)
    n = draw(st.integers(33, 80 if sweep else 200))
    room = min([box.lengths[k] for k in range(3) if periodic[k]] or [12.0])
    cutoff = draw(st.floats(0.34, 0.9)) * room if sweep \
        else draw(st.floats(0.25, 0.999)) * room / 3.0
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pos = rng.uniform(0, 1, size=(n, 3)) * box.lengths
    pos += rng.integers(-3, 4, size=(n, 3)) * box.lengths * box.pmask
    return box, pos, cutoff, rng


@st.composite
def self_image_systems(draw):
    """``(box, positions, cutoff, rng)`` of small sweep boxes in which
    atoms bond to their own periodic images: the cutoff is longer than
    the shortest periodic axis.  Open axes and drifted coordinates as in
    :func:`tree_systems`."""
    periodic = (True,) + draw(st.tuples(st.booleans(), st.booleans()))
    box = Box(lengths=draw(st.tuples(*[st.floats(2.0, 6.0)] * 3)),
              periodic=periodic)
    shortest = min(box.lengths[k] for k in range(3) if periodic[k])
    cutoff = draw(st.floats(1.0, 1.49)) * shortest
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(1, 24))
    pos = rng.uniform(0, 1, size=(n, 3)) * box.lengths
    pos += rng.integers(-3, 4, size=(n, 3)) * box.lengths * box.pmask
    return box, pos, cutoff, rng


#: every neighbour-list code path: tree, image sweep, self-image sweep
any_system = st.one_of(tree_systems(), tree_systems(sweep=True),
                       self_image_systems())


def _in_canonical_order(i_idx, j_idx, rij):
    order = np.argsort(i_idx * (j_idx.max(initial=0) + 1) + j_idx,
                       kind="stable")
    return i_idx[order], j_idx[order], rij[order]


class TestTreeSearch:
    """The tree path against the image sweep, over generated systems."""

    @settings(deadline=None, max_examples=100)
    @given(system=tree_systems())
    def test_tree_equals_brute_force_in_canonical_order(self, system):
        box, pos, cutoff, _ = system
        nbr = build_pairs(pos, box, cutoff)
        ii, jj, rv = _in_canonical_order(*_brute_force_pairs(pos, box, cutoff))
        assert np.array_equal(nbr.i_idx, ii)
        assert np.array_equal(nbr.j_idx, jj)
        assert np.allclose(nbr.rij, rv, rtol=0, atol=1e-12)
        assert np.allclose(nbr.r, np.linalg.norm(rv, axis=1), rtol=0,
                           atol=1e-12)
        # i non-decreasing, j strictly increasing within an atom
        key = nbr.i_idx * len(pos) + nbr.j_idx
        assert np.all(np.diff(key) > 0) and np.all(np.diff(nbr.i_idx) >= 0)

    @settings(deadline=None, max_examples=40)
    @given(system=any_system, nparts=st.integers(2, 4), half=st.booleans())
    def test_row_partitions_concatenate_bitwise(self, system, nparts, half):
        box, pos, cutoff, rng = system
        full = build_pairs(pos, box, cutoff, half=half)
        cuts = np.sort(rng.integers(0, len(pos) + 1, size=nparts - 1))
        edges = [0, *cuts.tolist(), len(pos)]  # empty windows allowed
        parts = [build_pairs(pos, box, cutoff, rows=(lo, hi), half=half)
                 for lo, hi in zip(edges[:-1], edges[1:])]
        for name in ("i_idx", "j_idx", "rij", "r"):
            whole = getattr(full, name)
            glued = np.concatenate([getattr(part, name) for part in parts])
            assert glued.dtype == whole.dtype
            assert glued.tobytes() == whole.tobytes()

    @settings(deadline=None, max_examples=40)
    @given(system=any_system, nparts=st.integers(1, 4),
           skin_frac=st.floats(0.02, 0.3), pairwise=st.booleans())
    def test_row_windowed_lists_concatenate_bitwise(self, system, nparts,
                                                    skin_frac, pairwise):
        """``NeighborList(rows=)`` over a row partition ≡ the
        unrestricted list, bit for bit, on the build step, a refresh
        step and the rebuild one far-away atom triggers in all of them;
        half lists (a pair potential's) as well as full ones."""
        box, pos, reach, rng = system
        skin = skin_frac * reach
        cuts = np.sort(rng.integers(0, len(pos) + 1, size=nparts - 1))
        edges = [0, *cuts.tolist(), len(pos)]  # empty windows allowed
        pot = SimpleNamespace(cutoff=reach - skin, pairwise=pairwise)
        full = NeighborList.for_potential(pot, box, skin=skin)
        parts = [NeighborList.for_potential(pot, box, skin=skin, rows=rows)
                 for rows in zip(edges[:-1], edges[1:])]
        nudge = rng.uniform(-1, 1, size=pos.shape)
        nudge *= 0.499 * skin / np.linalg.norm(nudge, axis=1).max()
        jump = np.zeros_like(pos)
        jump[rng.integers(len(pos))] = 0.6 * skin
        for step, builds in ((0.0, 1), (nudge, 1), (nudge + jump, 2)):
            whole = full.get(pos + step)
            glued = [part.get(pos + step) for part in parts]
            assert [nl.nbuilds for nl in [full] + parts] \
                == [builds] * (nparts + 1)
            for name in ("i_idx", "j_idx", "rij", "r"):
                assert np.concatenate(
                    [getattr(nbr, name) for nbr in glued]).tobytes() \
                    == getattr(whole, name).tobytes()
            kept = np.concatenate([nbr.filtered_from[1] for nbr in glued])
            assert np.array_equal(kept, whole.filtered_from[1])

    @settings(deadline=None, max_examples=40)
    @given(system=tree_systems(), skin_frac=st.floats(0.02, 0.3))
    def test_refresh_and_filter_equal_a_fresh_build(self, system, skin_frac):
        box, pos, reach, rng = system
        skin = skin_frac * reach
        cutoff = reach - skin
        ref = build_pairs(pos, box, reach)
        move = rng.uniform(-1, 1, size=pos.shape)
        move *= 0.499 * skin / np.linalg.norm(move, axis=1).max()
        rij, r = refresh_pairs(ref, move)
        got = filter_pairs(ref, rij, r, r < cutoff)
        fresh = build_pairs(pos + move, box, cutoff)
        assert np.array_equal(got.i_idx, fresh.i_idx)
        assert np.array_equal(got.j_idx, fresh.j_idx)
        assert np.allclose(got.rij, fresh.rij, rtol=0, atol=1e-12)

    def test_atoms_on_and_just_below_a_periodic_face(self, rng):
        # the tree needs 0 <= x < L: -1e-17 % L is L in floating point
        # and x == L is one box length out; Box.wrap maps both to 0
        box = Box.cubic(12.0)
        pos = rng.uniform(0, 12, size=(60, 3))
        pos[0] = [-1e-17, 6.0, 6.0]
        pos[1] = [12.0, 6.5, 6.0]
        pos[2] = [11.5, 30.0, -6.0]
        nbr = build_pairs(pos, box, 3.0)
        ii, jj, rv = _in_canonical_order(*_brute_force_pairs(pos, box, 3.0))
        assert np.array_equal(nbr.i_idx, ii)
        assert np.array_equal(nbr.j_idx, jj)
        assert np.allclose(nbr.rij, rv, rtol=0, atol=1e-12)
        assert {(0, 1), (0, 2), (1, 2)} <= set(zip(ii.tolist(), jj.tolist()))

    def test_atoms_outside_the_box_on_an_open_axis(self, rng):
        box = Box(lengths=[10.0, 10.0, 10.0], periodic=(True, False, True))
        pos = rng.uniform(0, 10, size=(80, 3))
        pos[:, 1] = rng.uniform(-15.0, 25.0, size=80)
        nbr = build_pairs(pos, box, 3.2)
        ii, jj, rv = _in_canonical_order(*_brute_force_pairs(pos, box, 3.2))
        assert nbr.npairs == len(ii) > 0
        assert np.array_equal(nbr.j_idx, jj)
        assert np.allclose(nbr.rij, rv, rtol=0, atol=1e-12)
        # open axis: never an image, rij is the plain difference there
        assert np.array_equal(nbr.rij[:, 1],
                              pos[nbr.j_idx, 1] - pos[nbr.i_idx, 1])

    def test_nan_positions_raise(self, rng):
        """A NaN or inf coordinate raises on both paths: the tree box
        (four cells per axis) and an 8.6 A box the image sweep takes,
        where the check is ``build_pairs``' own (the sweep's distance
        test would drop that atom's pairs silently)."""
        for length, cutoff in ((12.0, 3.0), (8.6, 4.26)):
            for bad in (np.nan, np.inf, -np.inf):
                pos = rng.uniform(0, length, size=(64, 3))
                pos[7, 1] = bad
                for half in (False, True):
                    with pytest.raises(ValueError, match="finite"):
                        build_pairs(pos, Box.cubic(length), cutoff,
                                    half=half)


def _default_shape_tree(data, boxsize=None, **shape):
    """``cKDTree`` as ``build_pairs`` calls it, minus the tree-shape
    keywords: SciPy's default median-split, compacted tree."""
    assert set(shape) == {"balanced_tree", "compact_nodes"}
    return cKDTree(data, boxsize=boxsize)


def _under_both_trees(build):
    """``build()`` with the module's tree, then with SciPy's default."""
    chosen = build()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neighbor, "cKDTree", _default_shape_tree)
        default = build()
    return chosen, default


def _assert_same_bytes(got, want):
    for name in ("i_idx", "j_idx", "rij", "r"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name


def _assert_tree_independent(pos, box, cutoff):
    n = len(pos)
    for half in (False, True):
        for rows in (None, (0, n // 3), (n // 3, n - 1), (n - 1, n)):
            _assert_same_bytes(*_under_both_trees(
                lambda: build_pairs(pos, box, cutoff, rows=rows, half=half)))


def _lattice_cases():
    """Perfect crystals with a shell exactly at the cutoff (sc: the
    shells at ``sqrt 2 a`` and ``2 a``; fcc: the second, at ``a``;
    diamond: the second, at ``a / sqrt 2``): exact coordinate ties in
    every split plane."""
    for kind, a, reps, cutoff in (("sc", 2.0, 6, 2.0 * np.sqrt(2.0)),
                                  ("sc", 2.0, 6, 4.0),
                                  ("fcc", 3.6, 4, 3.6),
                                  ("diamond", 3.567, 3, 3.567 / np.sqrt(2.0))):
        s = lattice_system(kind, a=a, reps=(reps,) * 3)
        yield pytest.param(s.positions, s.box, cutoff,
                           id=f"{kind}-{cutoff:.3f}")


class TestTreeShape:
    """The pair list does not depend on the tree's shape: SciPy's default
    tree gives the same bytes as the module's sliding-midpoint one."""

    def test_one_tree_with_the_module_shape(self):
        import repro
        calls = [p for p in Path(repro.__file__).parent.rglob("*.py")
                 for _ in re.findall(r"cKDTree\(", p.read_text())]
        assert [p.name for p in calls] == ["neighbor.py"]
        assert neighbor._TREE_SHAPE == {"balanced_tree": False,
                                        "compact_nodes": False}

    def test_the_default_tree_is_a_different_tree(self):
        """The comparison is not vacuous: the two trees hand back their
        candidate pairs in different orders on the replicated input."""
        cell = random_packed(64, density=0.1, seed=3)
        s = replicate(cell, 2, 2, 2)
        pos = s.box.wrap(s.positions)
        chosen, default = _under_both_trees(
            lambda: neighbor.cKDTree(pos, boxsize=s.box.lengths,
                                     **neighbor._TREE_SHAPE)
            .query_pairs(4.26, output_type="ndarray"))
        assert chosen.tobytes() != default.tobytes()
        assert set(map(tuple, chosen.tolist())) \
            == set(map(tuple, default.tolist()))

    @settings(deadline=None, max_examples=30)
    @given(system=tree_systems())
    def test_generated_systems(self, system):
        box, pos, cutoff, _ = system
        _assert_tree_independent(pos, box, cutoff)

    @pytest.mark.parametrize("pos, box, cutoff", _lattice_cases())
    def test_lattices_with_a_shell_at_the_cutoff(self, pos, box, cutoff):
        assert len(pos) > 32 and np.all(box.lengths >= 3 * cutoff)
        _assert_tree_independent(pos, box, cutoff)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_replicated_random_cell(self, seed):
        """The suite's and the paper's way of building a sample: a
        packed cell replicated 2x2x2, so every coordinate repeats."""
        s = replicate(random_packed(64, density=0.1, seed=seed), 2, 2, 2)
        _assert_tree_independent(s.positions, s.box, 3.96 + 0.3)


def _canonical_half(nbr, box):
    """Mask of a full list's canonical half: ``i < j``, and the
    self-image pairs whose first nonzero image shift is positive."""
    shift = np.round(nbr.rij / box.lengths)
    first = shift[np.arange(nbr.npairs), np.argmax(shift != 0, axis=1)]
    return (nbr.i_idx < nbr.j_idx) | ((nbr.i_idx == nbr.j_idx) & (first > 0))


def _pair_multiset(i_idx, j_idx, rij):
    """A pair list in an order that depends only on its pairs."""
    key = np.round(rij, 6)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0], j_idx, i_idx))
    return i_idx[order], j_idx[order], rij[order]


def _pair_potentials(reach):
    """LJ and a table with a cutoff inside the list's ``reach``, as on
    a skinned list."""
    cutoff = 0.97 * reach
    return (LennardJones(epsilon=0.2, sigma=0.4 * cutoff, cutoff=cutoff),
            TablePotential.from_potential(
                lambda r: np.exp(-r) * np.cos(2 * r), rmin=0.1 * cutoff,
                cutoff=cutoff))


def _assert_close(got, want, rel=1e-12, scale=None):
    """``got == want`` to ``rel`` of ``scale`` (default: of ``want``)."""
    if scale is None:
        scale = np.abs(want).max(initial=0.0)
    assert np.abs(got - want).max(initial=0.0) <= rel * scale


class TestHalfList:
    """A pair potential's list holds each bond once; mirrored it is the
    full list, and every result on it is the full list's to 1e-12."""

    @settings(deadline=None, max_examples=80)
    @given(system=any_system)
    def test_half_is_the_canonical_half_of_the_full_list(self, system):
        box, pos, cutoff, _ = system
        full = build_pairs(pos, box, cutoff)
        half = build_pairs(pos, box, cutoff, half=True)
        assert half.half and not full.half
        # the full list's canonical half, in its order, to the bit
        keep = _canonical_half(full, box)
        for name in ("i_idx", "j_idx", "rij", "r"):
            assert getattr(half, name).tobytes() \
                == getattr(full, name)[keep].tobytes()
        # mirrored: the full pair set.  The sweep's image arithmetic is
        # not antisymmetric to the bit, so a bond within rounding of the
        # cutoff may sit in the full list one way only: compare the rest
        inner = np.tile(half.r < cutoff * (1 - 1e-9), 2)
        mirror = _pair_multiset(
            np.concatenate([half.i_idx, half.j_idx])[inner],
            np.concatenate([half.j_idx, half.i_idx])[inner],
            np.concatenate([half.rij, -half.rij])[inner])
        inner = full.r < cutoff * (1 - 1e-9)
        want = _pair_multiset(full.i_idx[inner], full.j_idx[inner],
                              full.rij[inner])
        assert np.array_equal(mirror[0], want[0])
        assert np.array_equal(mirror[1], want[1])
        assert np.allclose(mirror[2], want[2], rtol=0, atol=1e-12 * cutoff)

    @settings(deadline=None, max_examples=60)
    @given(system=any_system)
    # one atom bonded only to its own images: its force cancels to ~1e-18
    @example(system=(Box(lengths=np.array([2.0, 2.0, 2.0]),
                         periodic=(True, False, True)),
                     np.array([[-4.72607663, 0.53957343, -3.91805295]]),
                     2.9375, None))
    def test_pair_potentials_agree_on_both_forms(self, system):
        box, pos, cutoff, _ = system
        n = len(pos)
        full = build_pairs(pos, box, cutoff)
        half = build_pairs(pos, box, cutoff, half=True)
        for pot in _pair_potentials(cutoff):
            a, b = pot.compute(n, half), pot.compute(n, full)
            assert abs(a.energy - b.energy) \
                <= 1e-12 * np.abs(b.peratom).sum()
            _assert_close(a.peratom, b.peratom)
            # an atom's bonds can cancel to rounding noise (one atom and
            # its own images): compare forces on one bond's gradient scale
            _assert_close(a.forces, b.forces, scale=np.abs(
                pot.pair_gradients(full, (0, n))[1]).max(initial=0.0))
            _assert_close(a.virial, b.virial)


def _reference_sweep(positions, box, cutoff):
    """The image sweep one image at a time: every shift in ``-m..m``,
    ``m = ceil(cutoff / L)``, on each periodic axis, around the whole-box
    count ``trunc(dx / L)`` of each pair, with ``(x_j + img * L) - x_i``
    per image, concatenated in ``(sx, sy, sz)`` order and then stably
    sorted by ``i`` (what ``build_pairs`` hands on).  No nearest-image
    shortcut and no sort key: the reference the sweep must equal."""
    n = len(positions)
    images, shifts = [], []
    for k in range(3):
        x, length = positions[:, k], box.lengths[k]
        if box.periodic[k]:
            m = int(np.ceil(cutoff / length))
            shifts.append(np.arange(-m, m + 1.0))
            images.append(np.trunc((x[None, :] - x[:, None]) / length))
        else:
            shifts.append(np.zeros(1))
            images.append(np.zeros((n, n)))
    i_list, j_list, rij_list = [], [], []
    for sx in shifts[0]:
        for sy in shifts[1]:
            for sz in shifts[2]:
                dr = [(positions[None, :, k] + (s - images[k])
                       * box.lengths[k]) - positions[:, None, k]
                      for k, s in enumerate((sx, sy, sz))]
                mask = (dr[0] * dr[0] + dr[1] * dr[1]) + dr[2] * dr[2] \
                    < cutoff * cutoff
                if sx == 0 and sy == 0 and sz == 0:
                    np.fill_diagonal(mask, False)
                ii, jj = np.nonzero(mask)
                i_list.append(ii)
                j_list.append(jj)
                rij_list.append(np.stack([d[ii, jj] for d in dr], axis=1))
    ii, jj, rij = (np.concatenate(part)
                   for part in (i_list, j_list, rij_list))
    order = np.argsort(ii, kind="stable")
    return ii[order], jj[order], rij[order]


def _assert_same_pairs(got, ref):
    """Same pairs, same order, same bits."""
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestImageSweep:
    @settings(deadline=None, max_examples=80)
    @given(n=st.integers(2, 80),
           lengths=st.tuples(*[st.floats(2.5, 9.0)] * 3),
           periodic=st.tuples(*[st.booleans()] * 3),
           cut_frac=st.floats(0.05, 0.999), straddle=st.floats(-0.5, 0.5),
           drift=st.booleans(), seed=st.integers(0, 2**16))
    def test_sweep_equals_image_by_image_reference(
            self, n, lengths, periodic, cut_frac, straddle, drift, seed):
        """Array-equal ``(i, j, rij)`` - order and bits included - up to
        the cutoff guard, so on both sides of ``L = 2 cutoff`` (one
        nearest image per axis above it) and past ``L = cutoff`` (the
        +-2 images), on non-cubic, partly open boxes, with atoms
        straddling a boundary or drifted by whole box lengths."""
        box = Box(lengths=lengths, periodic=periodic)
        rng = np.random.default_rng(seed)
        # a box-sized cloud that may straddle a periodic boundary
        pos = (rng.uniform(0, 1, size=(n, 3)) + straddle) * box.lengths
        if drift:
            pos += rng.integers(-3, 4, size=(n, 3)) * box.lengths * box.pmask
        guard = 1.5 * min([box.lengths[k] for k in range(3)
                           if periodic[k]] or [6.0])
        cutoff = cut_frac * guard
        _assert_same_pairs(_brute_force_pairs(pos, box, cutoff),
                           _reference_sweep(pos, box, cutoff))

    @settings(deadline=None, max_examples=40)
    @given(system=tree_systems(sweep=True))
    def test_sweep_systems_equal_the_reference(self, system):
        box, pos, cutoff, _ = system
        _assert_same_pairs(_brute_force_pairs(pos, box, cutoff),
                           _reference_sweep(pos, box, cutoff))

    @pytest.mark.parametrize("ratio", [1 - 1e-3, 1 - 1e-7, 1 + 1e-7,
                                       1 + 1e-3])
    def test_box_at_twice_the_cutoff(self, rng, ratio):
        # L / (2 cutoff) just below, at the margin and just above the
        # switch to one nearest image per axis; atoms packed near L / 2
        # apart, where the nearest image is least clear
        box = Box(lengths=[8.0, 8.0, 9.0])
        pos = rng.uniform(0, 1, size=(48, 3)) * box.lengths
        pos[::2, 0] = rng.uniform(0.0, 0.01, size=24)
        pos[1::2, 0] = 4.0 + rng.uniform(-0.01, 0.01, size=24)
        cutoff = 4.0 * ratio
        _assert_same_pairs(_brute_force_pairs(pos, box, cutoff),
                           _reference_sweep(pos, box, cutoff))

    def test_sweep_reaches_the_second_image(self):
        # cutoff 4 in a 3 A box: x = 0.1 and 2.6 are 2.5 apart directly,
        # 0.5 and 3.5 through one and two boundaries; a +-1 sweep misses
        # the 3.5 pair both ways (32 pairs instead of 34)
        box = Box.cubic(3.0)
        pos = np.array([[0.1, 1.5, 1.5], [2.6, 1.5, 1.5]])
        nbr = build_pairs(pos, box, 4.0)
        assert nbr.npairs == 34
        far = (nbr.i_idx != nbr.j_idx) & np.isclose(nbr.r, 3.5)
        assert np.allclose(nbr.rij[far], [[-3.5, 0, 0], [3.5, 0, 0]])
        _assert_same_pairs((nbr.i_idx, nbr.j_idx, nbr.rij),
                           _reference_sweep(pos, box, 4.0))

    def test_blocked_sweep_equals_one_block(self, rng, monkeypatch):
        # the table budget only changes how many images go per pass
        import repro.md.neighbor as neighbor

        box = Box(lengths=[5.0, 6.0, 7.0], periodic=(True, True, False))
        pos = rng.uniform(0, 1, size=(40, 3)) * box.lengths
        whole = _brute_force_pairs(pos, box, 3.1)
        monkeypatch.setattr(neighbor, "_SWEEP_TABLE_ELEMS", 1)
        _assert_same_pairs(_brute_force_pairs(pos, box, 3.1), whole)

    def test_drifted_unwrapped_coordinates_keep_their_pairs(self):
        # MDLoop never wraps: two atoms 21 A apart in a 10 A box are 1 A
        # apart through the boundary (the +-1 sweep used to see 0 pairs)
        box = Box.cubic(10.0)
        far = build_pairs(np.array([[0.5, 5, 5], [21.5, 5, 5]]), box, 3.0)
        near = build_pairs(np.array([[0.5, 5, 5], [1.5, 5, 5]]), box, 3.0)
        assert far.npairs == near.npairs == 2
        assert np.allclose(np.sort(far.r), np.sort(near.r))

    @settings(deadline=None, max_examples=25)
    @given(n=st.integers(2, 30), seed=st.integers(0, 2**16))
    def test_whole_box_drift_never_changes_the_pair_set(self, n, seed):
        rng = np.random.default_rng(seed)
        box = Box(lengths=rng.uniform(4, 8, size=3),
                  periodic=(True, True, bool(rng.integers(2))))
        pos = rng.uniform(0, 1, size=(n, 3)) * box.lengths
        drift = rng.integers(-3, 4, size=(n, 3)) * box.lengths * box.pmask
        cutoff = rng.uniform(1.0, 0.99 * box.lengths.min())
        assert _pair_set(build_pairs(pos + drift, box, cutoff)) \
            == _pair_set(build_pairs(pos, box, cutoff))

    def test_long_small_box_nve_run_matches_wrapped_rebuild(self):
        """A hot small-box gas diffuses several box lengths in unwrapped
        coordinates; the live list must still be the list of the wrapped
        configuration, and NVE must still conserve energy."""
        pot = LennardJones(epsilon=0.2, sigma=2.2, cutoff=3.0)
        system = random_packed(12, density=12 / 8.0 ** 3, min_dist=2.2,
                               seed=5)
        system.seed_velocities(3000.0, rng=np.random.default_rng(6))
        box = system.box
        with build_engine(system, pot) as engine:
            loop = MDLoop(engine, dt=1.0e-3)
            e0 = loop.run(1).energy + system.kinetic_energy()
            summary = loop.run(1500)
            drift = summary.energy + system.kinetic_energy() - e0
            live = engine.evaluate()
        pos = system.positions
        assert np.ptp(pos, axis=0).max() > 2 * box.lengths.max()
        assert abs(drift) < 1e-3 * abs(e0)
        unwrapped = build_pairs(pos, box, pot.cutoff)
        wrapped = build_pairs(box.wrap(pos), box, pot.cutoff)
        assert unwrapped.npairs == wrapped.npairs > 0
        assert live.energy == pytest.approx(
            pot.compute(system.natoms, wrapped).energy, rel=1e-9)


class TestNeighborList:
    def test_rebuild_on_motion(self, rng):
        box = Box.cubic(12.0)
        pos = rng.uniform(0, 12, size=(64, 3))
        nl = NeighborList(box=box, cutoff=3.0, skin=0.4)
        nl.get(pos)
        assert nl.nbuilds == 1
        nl.get(pos + 0.05)  # below skin/2
        assert nl.nbuilds == 1
        pos2 = pos.copy()
        pos2[0] += 0.5  # beyond skin/2
        nl.get(pos2)
        assert nl.nbuilds == 2

    def test_exact_distances_between_rebuilds(self, rng):
        box = Box.cubic(12.0)
        pos = rng.uniform(0, 12, size=(64, 3))
        nl = NeighborList(box=box, cutoff=3.0, skin=0.6)
        nl.get(pos)
        pos2 = pos + rng.normal(scale=0.05, size=pos.shape)
        got = nl.get(pos2)
        exact = build_pairs(pos2, box, 3.0)
        assert _pair_set(got) == _pair_set(exact)

    def test_validation(self):
        with pytest.raises(ValueError):
            NeighborList(box=Box.cubic(5.0), cutoff=-1.0)
        with pytest.raises(ValueError):
            NeighborList(box=Box.cubic(5.0), cutoff=1.0, skin=-0.1)

    def test_nbuilds_semantics(self, rng):
        # pin the counter contract: one build per topology rebuild, the
        # rebuild-step batch comes straight from the fresh build (no
        # second pass), and unmoved queries never rebuild
        box = Box.cubic(12.0)
        pos = rng.uniform(0, 12, size=(64, 3))
        nl = NeighborList(box=box, cutoff=3.0, skin=0.4)
        got = nl.get(pos)
        assert nl.nbuilds == 1
        exact = build_pairs(pos, box, 3.0)
        assert _pair_set(got) == _pair_set(exact)
        for _ in range(3):
            nl.get(pos)
        assert nl.nbuilds == 1
        pos2 = pos.copy()
        pos2[5] += 1.0
        got2 = nl.get(pos2)
        assert nl.nbuilds == 2
        assert _pair_set(got2) == _pair_set(build_pairs(pos2, box, 3.0))


@settings(deadline=None, max_examples=20)
@given(n=st.integers(2, 40), cutoff=st.floats(1.0, 4.0), seed=st.integers(0, 99))
def test_cells_equal_brute_property(n, cutoff, seed):
    rng = np.random.default_rng(seed)
    box = Box.cubic(11.0)
    pos = rng.uniform(0, 11, size=(n, 3))
    nbr = build_pairs(pos, box, cutoff)
    ii, jj, rv = _brute_force_pairs(pos, box, cutoff)
    assert nbr.npairs == len(ii)
