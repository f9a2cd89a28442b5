"""Tests for the Wigner U-matrix recursion and its gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wigner import (adjoint_sweep_half_lm, cayley_klein,
                               compute_du_layers, compute_u_layers,
                               compute_u_layers_half_lm, flatten_dlayers,
                               flatten_layers, half_ncols, half_scale)


def _random_vectors(rng, n=5, rmin=0.4, rmax=2.2):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    v *= rng.uniform(rmin, rmax, size=n)[:, None]
    return v


RCUT = 3.0


class TestCayleyKlein:
    def test_unit_norm(self, rng):
        rij = _random_vectors(rng)
        r = np.linalg.norm(rij, axis=1)
        ck = cayley_klein(rij, r, RCUT)
        assert np.allclose(np.abs(ck.a) ** 2 + np.abs(ck.b) ** 2, 1.0)

    def test_gradients_fd(self, rng):
        rij = _random_vectors(rng, n=3)
        h = 1e-7
        ck0 = cayley_klein(rij, np.linalg.norm(rij, axis=1), RCUT)
        for c in range(3):
            p = rij.copy()
            p[:, c] += h
            ckp = cayley_klein(p, np.linalg.norm(p, axis=1), RCUT)
            p[:, c] -= 2 * h
            ckm = cayley_klein(p, np.linalg.norm(p, axis=1), RCUT)
            da_fd = (ckp.a - ckm.a) / (2 * h)
            db_fd = (ckp.b - ckm.b) / (2 * h)
            assert np.allclose(ck0.da[:, c], da_fd, atol=1e-6)
            assert np.allclose(ck0.db[:, c], db_fd, atol=1e-6)


class TestULayers:
    def test_layer_zero_is_one(self, rng):
        rij = _random_vectors(rng)
        ck = cayley_klein(rij, np.linalg.norm(rij, axis=1), RCUT)
        layers = compute_u_layers(ck, 3)
        assert np.allclose(layers[0], 1.0)

    def test_layer_one_is_cayley_klein_matrix(self, rng):
        # U^{1/2} = [[a, b], [-b*, a*]] in the VMK convention
        rij = _random_vectors(rng)
        ck = cayley_klein(rij, np.linalg.norm(rij, axis=1), RCUT)
        u1 = compute_u_layers(ck, 1)[1]
        m = np.abs(u1).reshape(-1, 4)
        expect = np.stack([np.abs(ck.a), np.abs(ck.b),
                           np.abs(ck.b), np.abs(ck.a)], axis=1)
        assert np.allclose(m, expect, atol=1e-12)

    @pytest.mark.parametrize("tj", [1, 2, 4, 6, 8])
    def test_unitarity(self, rng, tj):
        rij = _random_vectors(rng, n=4)
        ck = cayley_klein(rij, np.linalg.norm(rij, axis=1), RCUT)
        for j, u in enumerate(compute_u_layers(ck, tj)):
            g = np.einsum("nab,ncb->nac", u, u.conj())
            assert np.allclose(g, np.eye(j + 1), atol=1e-12), f"layer {j}"

    def test_inversion_symmetry(self, rng):
        # u[j-ma, j-mb] = (-1)^(ma+mb) conj(u[ma, mb])
        rij = _random_vectors(rng, n=3)
        ck = cayley_klein(rij, np.linalg.norm(rij, axis=1), RCUT)
        for j, u in enumerate(compute_u_layers(ck, 5)):
            for ma in range(j + 1):
                for mb in range(j + 1):
                    lhs = u[:, j - ma, j - mb]
                    rhs = (-1.0) ** (ma + mb) * np.conj(u[:, ma, mb])
                    assert np.allclose(lhs, rhs, atol=1e-12)

    def test_flatten_shape(self, rng):
        rij = _random_vectors(rng, n=7)
        ck = cayley_klein(rij, np.linalg.norm(rij, axis=1), RCUT)
        flat = flatten_layers(compute_u_layers(ck, 4))
        assert flat.shape == (7, sum((j + 1) ** 2 for j in range(5)))


def _scale_with_spill(tj):
    """``D_j`` on the stored columns, spill column included (the scale
    of column ``mb`` is ``sqrt(C(j, mb) / C(j, ma))`` there too)."""
    out = []
    for j, nc in enumerate(half_ncols(tj)):
        c = np.array([math.comb(j, m) for m in range(j + 1)], dtype=float)
        out.append(np.sqrt(c[None, :nc] / c[:, None]))
    return out


def _random_weights(rng, tj, n):
    return [rng.normal(size=(j + 1, j // 2 + 1, n))
            + 1j * rng.normal(size=(j + 1, j // 2 + 1, n))
            for j in range(tj + 1)]


class TestHalfPlane:
    @pytest.mark.parametrize("tj", [0, 1, 4, 5, 8])
    def test_layers_are_left_columns_of_full_recursion(self, rng, tj):
        # D * V is U, incl. the spill column (j+1)/2 stored with every
        # odd j < tj
        rij = _random_vectors(rng, n=6)
        ck = cayley_klein(rij, np.linalg.norm(rij, axis=1), RCUT)
        half = compute_u_layers_half_lm(ck, tj)
        for u, h, d, nc in zip(compute_u_layers(ck, tj), half,
                               _scale_with_spill(tj), half_ncols(tj)):
            assert h.shape == (u.shape[1], nc, 6)
            assert np.allclose(d[:, :, None] * h,
                               u[:, :, :nc].transpose(1, 2, 0), atol=1e-13)
        for d, full in zip(half_scale(tj), _scale_with_spill(tj)):
            assert np.array_equal(d, full[:, :d.shape[1]])

    @pytest.mark.parametrize("tj", [1, 4, 5])
    def test_sweep_is_the_adjoint_of_the_gradient_recursion(self, rng, tj):
        # Re(p dconj(a) + q dconj(b)) == Re sum_half w . dU, per direction
        n = 4
        rij = _random_vectors(rng, n=n)
        ck = cayley_klein(rij, np.linalg.norm(rij, axis=1), RCUT)
        u_full, du_full = compute_du_layers(ck, tj)
        w = _random_weights(rng, tj, n)
        yv = [d[:, :, None] * wj for d, wj in zip(half_scale(tj), w)]
        g0, p, q = adjoint_sweep_half_lm(ck, compute_u_layers_half_lm(ck, tj),
                                         yv)
        s_ref = sum(np.einsum("abn,nab->n", wj, u[:, :, :wj.shape[1]])
                    for wj, u in zip(w, u_full))
        assert np.allclose(g0.real, s_ref.real, atol=1e-12)
        for c in range(3):
            ref = sum(np.einsum("abn,nab->n", wj, du[:, c, :, :wj.shape[1]])
                      for wj, du in zip(w, du_full)).real
            got = (p * np.conj(ck.da[:, c]) + q * np.conj(ck.db[:, c])).real
            assert np.allclose(got, ref, atol=1e-11)


@st.composite
def _pair_batches(draw):
    """2J in 0..8, a batch of 1..5 neighbour vectors inside the cutoff,
    complex layer weights and per-pair seeds in [0, 1] (zero included)."""
    tj = draw(st.integers(0, 8))
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rij = _random_vectors(rng, n=n, rmin=0.05, rmax=0.999 * RCUT)
    seed = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) > 0.2)
    return tj, rij, _random_weights(rng, tj, n), seed


class TestScaledRecursionIdentities:
    """The three exact identities the coefficient-free recursion rests
    on, over generated inputs (the fixtures above pin a few sizes)."""

    @settings(deadline=None, max_examples=60)
    @given(_pair_batches())
    def test_scaled_layers_are_the_wigner_layers(self, batch):
        tj, rij, _, _ = batch
        ck = cayley_klein(rij, np.linalg.norm(rij, axis=1), RCUT)
        for u, v, d, nc in zip(compute_u_layers(ck, tj),
                               compute_u_layers_half_lm(ck, tj),
                               _scale_with_spill(tj), half_ncols(tj)):
            assert np.abs(d[:, :, None] * v
                          - u[:, :, :nc].transpose(1, 2, 0)).max() <= 1e-13

    @settings(deadline=None, max_examples=60)
    @given(_pair_batches())
    def test_layer_zero_adjoint_is_the_radial_sum(self, batch):
        tj, rij, w, _ = batch
        ck = cayley_klein(rij, np.linalg.norm(rij, axis=1), RCUT)
        yv = [d[:, :, None] * wj for d, wj in zip(half_scale(tj), w)]
        g0, _, _ = adjoint_sweep_half_lm(
            ck, compute_u_layers_half_lm(ck, tj), yv)
        direct = sum(np.einsum("abn,nab->n", wj, u[:, :, :wj.shape[1]])
                     for wj, u in zip(w, compute_u_layers(ck, tj)))
        scale = max(1.0, np.abs(direct).max())
        assert np.abs(g0.real - direct.real).max() <= 1e-12 * scale

    @settings(deadline=None, max_examples=60)
    @given(_pair_batches())
    def test_seed_scales_p_and_q_and_leaves_g0(self, batch):
        tj, rij, w, seed = batch
        ck = cayley_klein(rij, np.linalg.norm(rij, axis=1), RCUT)
        g0, p, q = adjoint_sweep_half_lm(
            ck, compute_u_layers_half_lm(ck, tj), w)
        seeded = compute_u_layers_half_lm(ck, tj, seed)
        g0s, ps, qs = adjoint_sweep_half_lm(ck, seeded, w)
        assert np.array_equal(g0s, g0)  # G never reads the layers
        scale = max(1.0, np.abs(p).max(), np.abs(q).max())
        assert np.abs(ps - seed * p).max() <= 1e-13 * scale
        assert np.abs(qs - seed * q).max() <= 1e-13 * scale
        zero = seed == 0.0
        for v in seeded:
            assert np.all(v[:, :, zero] == 0.0)
        assert np.all(ps[zero] == 0.0) and np.all(qs[zero] == 0.0)

    def test_batch_of_one_is_the_row_of_a_longer_batch(self, rng):
        # the einsum guard: per-pair results do not depend on the batch
        rij = _random_vectors(rng, n=3)
        w = _random_weights(rng, 5, 3)
        ck = cayley_klein(rij, np.linalg.norm(rij, axis=1), RCUT)
        whole = adjoint_sweep_half_lm(ck, compute_u_layers_half_lm(ck, 5), w)
        ck1 = cayley_klein(rij[:1], np.linalg.norm(rij[:1], axis=1), RCUT)
        one = adjoint_sweep_half_lm(ck1, compute_u_layers_half_lm(ck1, 5),
                                    [wj[:, :, :1] for wj in w])
        for a, b in zip(one, whole):
            assert np.array_equal(a, b[:1])


class TestDULayers:
    @pytest.mark.parametrize("tj", [2, 4])
    def test_gradients_fd(self, rng, tj):
        rij = _random_vectors(rng, n=3)
        h = 1e-6

        def uflat(p):
            ck = cayley_klein(p, np.linalg.norm(p, axis=1), RCUT)
            return flatten_layers(compute_u_layers(ck, tj))

        ck0 = cayley_klein(rij, np.linalg.norm(rij, axis=1), RCUT)
        _, dl = compute_du_layers(ck0, tj)
        du = flatten_dlayers(dl)
        for c in range(3):
            p = rij.copy()
            p[:, c] += h
            up = uflat(p)
            p[:, c] -= 2 * h
            um = uflat(p)
            fd = (up - um) / (2 * h)
            assert np.allclose(du[:, c, :], fd, atol=1e-5)

    def test_du_layer_zero_vanishes(self, rng):
        rij = _random_vectors(rng)
        ck = cayley_klein(rij, np.linalg.norm(rij, axis=1), RCUT)
        _, dl = compute_du_layers(ck, 2)
        assert np.all(dl[0] == 0.0)

    def test_reuses_precomputed_u(self, rng):
        rij = _random_vectors(rng)
        ck = cayley_klein(rij, np.linalg.norm(rij, axis=1), RCUT)
        ul = compute_u_layers(ck, 3)
        ul2, _ = compute_du_layers(ck, 3, u_layers=ul)
        assert ul2 is ul


@settings(deadline=None, max_examples=20)
@given(x=st.floats(-1.5, 1.5), y=st.floats(-1.5, 1.5), z=st.floats(0.2, 1.5))
def test_unitarity_property(x, y, z):
    rij = np.array([[x, y, z]])
    r = np.linalg.norm(rij, axis=1)
    if r[0] < 0.1 or r[0] > 2.8:
        return
    ck = cayley_klein(rij, r, RCUT)
    for j, u in enumerate(compute_u_layers(ck, 4)):
        g = np.einsum("nab,ncb->nac", u, u.conj())
        assert np.allclose(g, np.eye(j + 1), atol=1e-11)
