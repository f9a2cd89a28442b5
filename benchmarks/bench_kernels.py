"""E11 - per-stage grind time of the SNAP force kernel (measured).

The paper's complexity table per atom: compute_ui O(J^3 N_nbor),
compute_yi O(J^7), compute_dui/deidrj O(J^3 N_nbor).  We measure the
stage split of the production NumPy kernel across 2J and check the
scaling trends it implies (yi grows fastest with J; pair kernels scale
with neighbor count).

The headline test also pits the fused/stored-U production hot path
against the preserved pre-fusion kernel at a production-like size
(2J=8, ~2000 atoms, ~26 neighbors) and writes the measurement to
``BENCH_snap.json`` at the repo root via
:mod:`repro.core.benchrecord`.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import SNAP, SNAPParams
from repro.core.benchrecord import make_snap_record, write_record
from repro.core.flops import kernel_flops_per_atom
from repro.core.variants import run_variant
from repro.md import build_pairs
from repro.structures import random_packed


def _problem(twojmax, natoms=128, density=0.1, seed=5):
    s = random_packed(natoms, density=density, seed=seed)
    rcut = (26 / (4 / 3 * np.pi * density)) ** (1 / 3)
    params = SNAPParams(twojmax=twojmax, rcut=rcut)
    snap = SNAP(params, beta=np.random.default_rng(0).normal(
        size=SNAP(params).index.ncoeff))
    return snap, natoms, build_pairs(s.positions, s.box, rcut)


def test_stage_breakdown(benchmark, report):
    snap0, n0, nbr0 = _problem(4)
    benchmark.pedantic(snap0.compute, args=(n0, nbr0), rounds=1, iterations=1)
    report("measured SNAP kernel stage split (128 atoms, ~26 neighbors):")
    report(f"{'2J':>4s} {'ui':>10s} {'yi':>10s} {'dui+dei':>10s} "
           f"{'total ms/atom':>14s}")
    stage_by_tj = {}
    for tj in (4, 6, 8):
        snap, n, nbr = _problem(tj)
        snap.compute(n, nbr)
        t = snap.last_timings
        total = sum(t.values())
        stage_by_tj[tj] = t
        report(f"{tj:4d} {t['compute_ui']/total*100:9.1f}% "
               f"{t['compute_yi']/total*100:9.1f}% "
               f"{t['compute_dui_deidrj']/total*100:9.1f}% "
               f"{total/n*1e3:14.2f}")
    # yi share grows with J (O(J^7) vs O(J^3 N) pair kernels)
    share = {tj: t["compute_yi"] / sum(t.values()) for tj, t in stage_by_tj.items()}
    assert share[8] > share[4]


def test_flops_model_matches_stage_trends(benchmark, report):
    benchmark.pedantic(kernel_flops_per_atom, args=(8, 26), rounds=1, iterations=1)
    k8 = kernel_flops_per_atom(8, 26)
    k4 = kernel_flops_per_atom(4, 26)
    report("")
    report("FLOP model per atom-step (26 neighbors):")
    for tj, k in ((4, k4), (8, k8)):
        report(f"  2J={tj}: " + ", ".join(f"{n}={v/1e3:.1f}K" for n, v in k.items()))
    assert k8["yi"] / k4["yi"] > k8["ui"] / k4["ui"]


def test_fused_speedup_2j8(benchmark, report):
    """Fused/sparse-Y hot paths vs the pre-fusion kernel, 2J=8, ~2000 atoms.

    ``vectorized_chunked`` is the pre-fusion kernel preserved verbatim
    as a ladder rung, run at its shipped default ``chunk=8192``;
    ``fused`` is the production kernel recomputing the per-pair U
    layers per chunk, ``stored_u`` the same kernel with the U cache on
    (what ``store_u="auto"`` picks at this size; recorded runs put it
    between 3 % faster and 20 % slower than ``fused``); ``sparse_y``
    contracts the z-triple stage through the nonzero CG products
    only.  Acceptance bars:
    stored_u >= 1.5x over the pre-fusion kernel, and the sparse-Y
    ``compute_yi`` stage >= 1.3x the fused stage throughput.
    """
    import gc

    from repro.core.flops import yi_contraction_model
    from repro.core.variants import with_params

    snap, n, nbr = _problem(8, natoms=2000)
    seed_snap = with_params(snap, chunk=8192)
    evaluators = {
        "vectorized_chunked":
            lambda: run_variant("vectorized_chunked", seed_snap, n, nbr),
        "fused": with_params(snap, store_u="never"),
        "sparse_y": with_params(snap, store_u="never", y_mode="sparse"),
        "stored_u": with_params(snap, store_u="always"),
    }

    # interleaved best-of-2: the pre-fusion kernel's timing is dominated
    # by page-faulting its per-chunk allocations, which makes single
    # measurements noisy - take the min of two passes per variant
    ref = None
    seconds = {}
    stages = {}
    for _ in range(2):
        for name, ev in evaluators.items():
            gc.collect()
            t0 = time.perf_counter()
            res = ev() if callable(ev) else ev.compute(n, nbr)
            dt = time.perf_counter() - t0
            if name not in seconds or dt < seconds[name]:
                seconds[name] = dt
                if not callable(ev):
                    stages[name] = dict(ev.last_timings)
            if ref is None:
                ref = res
            else:
                assert np.allclose(res.forces, ref.forces, atol=1e-8)
    benchmark.pedantic(evaluators["stored_u"].compute, args=(n, nbr),
                       rounds=1, iterations=1)

    yi_model = yi_contraction_model(8)
    record = make_snap_record(
        problem={"twojmax": 8, "natoms": n, "npairs": nbr.npairs,
                 "neighbors_per_atom": nbr.npairs / n,
                 "cg_density": yi_model["cg_density"],
                 "yi_theoretical_speedup": yi_model["theoretical_speedup"]},
        seconds=seconds, natoms=n, reference="vectorized_chunked",
        stage_timings=stages)
    out = write_record(Path(__file__).resolve().parent.parent
                       / "BENCH_snap.json", record)

    report("")
    report(f"fused hot path vs pre-fusion kernel (2J=8, {n} atoms, "
           f"{nbr.npairs / n:.0f} neighbors):")
    for name, t in seconds.items():
        sp = seconds["vectorized_chunked"] / t
        report(f"  {name:20s} {t:8.2f} s   {n / t:10.0f} atoms/s   {sp:5.2f}x")
    yi_speedup = stages["fused"]["compute_yi"] / stages["sparse_y"]["compute_yi"]
    report(f"  compute_yi sparse vs dense: {yi_speedup:.2f}x measured, "
           f"{yi_model['theoretical_speedup']:.2f}x per-triple nnz model "
           f"(CG density {yi_model['cg_density']:.3f})")
    report(f"  record written to {out}")
    speedup = seconds["vectorized_chunked"] / seconds["stored_u"]
    assert speedup >= 1.5, f"stored_u speedup {speedup:.2f}x below 1.5x bar"
    assert yi_speedup >= 1.3, \
        f"sparse_y compute_yi {yi_speedup:.2f}x below 1.3x bar"


@pytest.mark.parametrize("tj", [4, 8])
def test_kernel_benchmark(benchmark, tj):
    snap, n, nbr = _problem(tj)
    benchmark.pedantic(snap.compute, args=(n, nbr), rounds=2, iterations=1)


def test_descriptor_only_benchmark(benchmark):
    snap, n, nbr = _problem(6)
    benchmark.pedantic(snap.compute_descriptors, args=(n, nbr),
                       rounds=2, iterations=1)
