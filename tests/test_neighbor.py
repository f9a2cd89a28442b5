"""Tests for neighbor lists."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md import Box, MDLoop, NeighborList, build_engine, build_pairs
from repro.md.neighbor import _brute_force_pairs, ragged_arange
from repro.potentials import LennardJones
from repro.structures import random_packed


class TestRaggedArange:
    def test_basic(self):
        out = ragged_arange(np.array([3, 0, 2]))
        assert out.tolist() == [0, 1, 2, 0, 1]

    def test_empty(self):
        assert ragged_arange(np.array([], dtype=int)).size == 0

    def test_all_zero(self):
        assert ragged_arange(np.array([0, 0])).size == 0


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
        # an atom can neighbor its own periodic image
        box = Box.cubic(1.5)
        pos = np.array([[0.75, 0.75, 0.75]])
        nbr = build_pairs(pos, box, 1.6)
        assert nbr.npairs >= 6  # at least the 6 face images
        assert np.all(nbr.i_idx == 0) and np.all(nbr.j_idx == 0)

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


def _reference_sweep(positions, box, cutoff):
    """The 27-pass image sweep ``_brute_force_pairs`` replaced: one
    ``(N, N, 3)`` pass per image, concatenated in ``(sx, sy, sz)`` order.
    Kept verbatim as the reference the one-pass sweep must equal."""
    shifts = [np.arange(-1, 2) if p else np.array([0]) for p in box.periodic]
    i_list, j_list, rij_list = [], [], []
    for sx in shifts[0]:
        for sy in shifts[1]:
            for sz in shifts[2]:
                shift = np.array([sx, sy, sz], dtype=float) * box.lengths
                dr = positions[None, :, :] + shift - positions[:, None, :]
                d2 = np.sum(dr * dr, axis=-1)
                mask = d2 < cutoff * cutoff
                if sx == 0 and sy == 0 and sz == 0:
                    np.fill_diagonal(mask, False)
                ii, jj = np.nonzero(mask)
                i_list.append(ii)
                j_list.append(jj)
                rij_list.append(dr[ii, jj])
    return (np.concatenate(i_list), np.concatenate(j_list),
            np.concatenate(rij_list))


def _assert_same_pairs(got, ref):
    """Same pairs, same order, same bits."""
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestImageSweep:
    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(2, 80),
           lengths=st.tuples(*[st.floats(2.5, 9.0)] * 3),
           periodic=st.tuples(*[st.booleans()] * 3),
           cut_frac=st.floats(0.05, 0.999), straddle=st.floats(-0.5, 0.5),
           seed=st.integers(0, 2**16))
    def test_one_pass_sweep_equals_27_pass_reference(
            self, n, lengths, periodic, cut_frac, straddle, seed):
        """Array-equal ``(i, j, rij)`` - order and bits included - for
        coordinates within one box length of each other, up to the
        cutoff guard, on non-cubic and partly open boxes."""
        box = Box(lengths=lengths, periodic=periodic)
        rng = np.random.default_rng(seed)
        # a box-sized cloud that may straddle a periodic boundary
        pos = (rng.uniform(0, 1, size=(n, 3)) + straddle) * box.lengths
        guard = 1.5 * min([box.lengths[k] for k in range(3)
                           if periodic[k]] or [6.0])
        cutoff = cut_frac * guard
        _assert_same_pairs(_brute_force_pairs(pos, box, cutoff),
                           _reference_sweep(pos, box, cutoff))

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

    def test_filtered_j_perm_is_valid(self, rng):
        # the derived permutation of a skin-filtered batch must be a
        # stable j-sort, both right after a rebuild and between rebuilds
        box = Box.cubic(12.0)
        pos = rng.uniform(0, 12, size=(64, 3))
        nl = NeighborList(box=box, cutoff=3.0, skin=0.6)
        for p in (pos, pos + rng.normal(scale=0.05, size=pos.shape)):
            got = nl.get(p)
            perm = got._j_perm
            assert perm is not None
            assert np.array_equal(np.sort(perm), np.arange(got.npairs))
            js = got.j_idx[perm]
            assert np.all(np.diff(js) >= 0)
            # stability: equal j keep their original relative order
            assert np.array_equal(perm, np.argsort(got.j_idx, kind="stable"))

    def test_build_pairs_precomputes_j_perm(self, rng):
        box = Box.cubic(10.0)
        nbr = build_pairs(rng.uniform(0, 10, size=(40, 3)), box, 2.5)
        assert nbr._j_perm is not None


@settings(deadline=None, max_examples=20)
@given(n=st.integers(2, 40), cutoff=st.floats(1.0, 4.0), seed=st.integers(0, 99))
def test_cells_equal_brute_property(n, cutoff, seed):
    rng = np.random.default_rng(seed)
    box = Box.cubic(11.0)
    pos = rng.uniform(0, 11, size=(n, 3))
    nbr = build_pairs(pos, box, cutoff)
    ii, jj, rv = _brute_force_pairs(pos, box, cutoff)
    assert nbr.npairs == len(ii)
