"""Tests for periodic boxes."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md import Box


class TestBox:
    def test_volume(self):
        assert Box(lengths=[2.0, 3.0, 4.0]).volume == pytest.approx(24.0)

    def test_cubic(self):
        b = Box.cubic(5.0)
        assert np.allclose(b.lengths, 5.0)

    def test_invalid_lengths(self):
        with pytest.raises(ValueError):
            Box(lengths=[1.0, -1.0, 1.0])
        for bad in (np.nan, np.inf):
            for axis in range(3):
                lengths = [1.0, 1.0, 1.0]
                lengths[axis] = bad
                with pytest.raises(ValueError, match="finite"):
                    Box(lengths=lengths)

    def test_wrap(self):
        b = Box.cubic(10.0)
        p = b.wrap(np.array([[11.0, -0.5, 5.0]]))
        assert np.allclose(p, [[1.0, 9.5, 5.0]])

    def test_wrap_respects_open_axes(self):
        b = Box(lengths=[10.0] * 3, periodic=(True, False, True))
        p = b.wrap(np.array([[11.0, 12.0, 13.0]]))
        assert np.allclose(p, [[1.0, 12.0, 3.0]])

    def test_minimum_image(self):
        b = Box.cubic(10.0)
        dr = b.minimum_image(np.array([[9.0, -9.0, 4.0]]))
        assert np.allclose(dr, [[-1.0, 1.0, 4.0]])

    def test_minimum_image_open_axis(self):
        b = Box(lengths=[10.0] * 3, periodic=(False, True, True))
        dr = b.minimum_image(np.array([[9.0, 9.0, 0.0]]))
        assert np.allclose(dr, [[9.0, -1.0, 0.0]])

    def test_scaled(self):
        b = Box.cubic(10.0).scaled(1.5)
        assert np.allclose(b.lengths, 15.0)

    def test_replicate(self):
        b = Box(lengths=[1.0, 2.0, 3.0]).replicate(2, 3, 4)
        assert np.allclose(b.lengths, [2.0, 6.0, 12.0])

    def test_immutable(self):
        b = Box.cubic(3.0)
        with pytest.raises(ValueError):
            b.lengths[0] = 5.0
        with pytest.raises(ValueError):
            b.pmask[0] = False


class TestBoxValue:
    def test_equal_and_hash_equal_by_value(self):
        assert Box.cubic(2.0) == Box.cubic(2.0)
        assert hash(Box.cubic(2.0)) == hash(Box.cubic(2.0))
        assert Box(lengths=[1, 2, 3]) == Box(lengths=np.array([1.0, 2.0, 3.0]))
        assert len({Box.cubic(2.0), Box.cubic(2.0), Box.cubic(3.0)}) == 2

    def test_lengths_and_periodic_both_count(self):
        b = Box.cubic(2.0)
        assert b != Box.cubic(2.0 + 1e-15)
        assert b != Box(lengths=[2.0] * 3, periodic=(True, True, False))
        assert b != (2.0, 2.0, 2.0)
        assert b != b.scaled(1.5) and b.scaled(1.0) == b

    def test_derived_mask_is_not_part_of_the_value(self):
        b = Box(lengths=[1.0, 2.0, 3.0], periodic=(True, False, True))
        assert [f.name for f in dataclasses.fields(b)] == ["lengths",
                                                             "periodic"]
        assert repr(b) == ("Box(lengths=array([1., 2., 3.]), "
                           "periodic=(True, False, True))")
        assert b.pmask.tolist() == [True, False, True]
        copy = pickle.loads(pickle.dumps(b))
        assert copy == b and hash(copy) == hash(b)
        dr = np.array([[0.9, 1.9, 2.9]])
        assert np.array_equal(copy.minimum_image(dr), b.minimum_image(dr))


@settings(deadline=None, max_examples=50)
@given(x=st.floats(-100, 100), l=st.floats(0.5, 50))
def test_wrap_idempotent_and_in_range(x, l):
    b = Box.cubic(l)
    p = b.wrap(np.array([[x, x / 2, 0.1]]))
    assert np.all(p >= 0) and np.all(p < l + 1e-9)
    assert np.allclose(b.wrap(p), p, atol=1e-9)


@settings(deadline=None, max_examples=50)
@given(d=st.floats(-60, 60), l=st.floats(1.0, 20))
def test_minimum_image_bound(d, l):
    b = Box.cubic(l)
    dr = b.minimum_image(np.array([[d, 0.0, 0.0]]))
    assert abs(dr[0, 0]) <= l / 2 + 1e-9


@settings(deadline=None, max_examples=100)
@given(dr=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=30),
       lengths=st.tuples(*[st.floats(0.5, 50)] * 3))
def test_periodic_minimum_image_is_the_masked_formula(dr, lengths):
    # a fully periodic box skips the mask: the same bits as the masked
    # formula, and the caller's array is not written
    b = Box(lengths=list(lengths))
    dr = np.array(dr[:len(dr) // 3 * 3]).reshape(-1, 3)
    before = dr.copy()
    want = np.where(np.ones(3, dtype=bool),
                    dr - b.lengths * np.round(dr / b.lengths), dr)
    assert b.minimum_image(dr).tobytes() == want.tobytes()
    assert np.array_equal(dr, before)
