"""E2 - TestSNAP Fig. 2: optimization progress relative to baseline (2J=8).

The kernel paper's ladder went from the baseline Kokkos implementation
to ~22x on a V100.  Our NumPy ladder reproduces the *shape*: each
restructuring step (adjoint refactorization, full vectorization,
chunk fusion) is faster than the one before, with the vectorized
production kernel an order of magnitude beyond the Listing-1 baseline.
"""

import numpy as np
import pytest

from repro.core import SNAP, SNAPParams
from repro.core.variants import VARIANTS, grind_times, run_variant
from repro.md import build_pairs
from repro.perfmodel import PAPER
from repro.structures import random_packed

TWOJMAX = 8
NATOMS = 40  # Listing-1 baseline is O(minutes) beyond this on one core


@pytest.fixture(scope="module")
def problem():
    density = 0.1
    s = random_packed(NATOMS, density=density, seed=7)
    rcut = (26 / (4 / 3 * np.pi * density)) ** (1 / 3)
    params = SNAPParams(twojmax=TWOJMAX, rcut=rcut, chunk=4096)
    snap = SNAP(params, beta=np.random.default_rng(0).normal(
        size=SNAP(params).index.ncoeff))
    return snap, NATOMS, build_pairs(s.positions, s.box, rcut)


def test_testsnap_ladder_2j8(benchmark, problem, report):
    snap, n, nbr = problem
    timings = benchmark.pedantic(grind_times, args=(snap, n, nbr),
                                 rounds=1, iterations=1)
    report(f"TestSNAP progress relative to baseline, 2J=8 "
           f"({n} atoms, ~26 neighbors)")
    report(f"paper (V100, Kokkos ladder): final speedup ~"
           f"{PAPER['testsnap']['2J8_final_speedup']:.0f}x over baseline")
    report(f"{'variant':24s} {'grind ms/atom':>14s} {'speedup':>9s}")
    for t in timings:
        report(f"{t.name:24s} {t.grind_time_per_atom * 1e3:14.3f} "
               f"{t.speedup_vs_baseline:8.1f}x")
    speed = {t.name: t.speedup_vs_baseline for t in timings}
    # shape: monotone ladder, vectorized >> baseline
    assert speed["listing5_adjoint"] > 1.0
    assert speed["vectorized"] > speed["listing5_adjoint"]
    assert speed["vectorized"] > 3.0
    # the fused/sparse-Y/stored-U production rungs sit on top
    assert {"fused", "sparse_y", "stored_u"} <= set(speed)
    assert speed["fused"] > speed["listing5_adjoint"]
    assert speed["sparse_y"] > speed["listing5_adjoint"]
    assert speed["stored_u"] > speed["listing5_adjoint"]


@pytest.mark.parametrize("name", list(VARIANTS))
def test_variant_benchmarks(benchmark, problem, name):
    snap, n, nbr = problem
    benchmark.pedantic(run_variant, args=(name, snap, n, nbr),
                       rounds=1, iterations=1)
