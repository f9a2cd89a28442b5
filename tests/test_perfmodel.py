"""Tests for the performance model against the paper's reported numbers."""

import numpy as np
import pytest

from repro.core.flops import PAPER_FLOPS_PER_ATOM_STEP
from repro.perfmodel import (MACHINES, PAPER, breakdown,
                             comm_time_per_step, ghost_atoms_per_domain,
                             md_performance, parallel_efficiency, pflops,
                             production_trace, step_time, strong_scaling,
                             weak_scaling)

N20 = 19_683_000_000
N1B = 1_024_192_512
N100M = 102_503_232
N10M = 10_077_696


class TestHeadline:
    def test_md_performance_20b(self):
        perf = md_performance("summit", N20, 4650) / 1e6
        assert perf == pytest.approx(6.21, rel=0.03)

    def test_steps_per_second(self):
        sps = 1.0 / step_time("summit", N20, 4650).total
        assert sps == pytest.approx(1.47, rel=0.03)

    def test_pflops_and_fraction_of_peak(self):
        pf = pflops("summit", N20, 4650, PAPER_FLOPS_PER_ATOM_STEP)
        assert pf == pytest.approx(50.0, rel=0.03)
        frac = pf * 1e15 / (4650 * MACHINES["summit"].peak_flops_node)
        assert frac == pytest.approx(0.249, rel=0.05)

    def test_deepmd_speedup(self):
        ours = md_performance("summit", N20, 4650) / 1e6
        speedup = ours / PAPER["headline"]["deepmd_matom_steps_node_s"]
        assert speedup == pytest.approx(22.9, rel=0.05)


class TestStrongScaling:
    def test_efficiency_20b(self):
        assert parallel_efficiency("summit", N20, 4650, 972) == \
            pytest.approx(0.97, abs=0.03)

    def test_efficiency_1b(self):
        assert parallel_efficiency("summit", N1B, 4650, 64) == \
            pytest.approx(0.82, abs=0.07)

    def test_efficiency_10m_degrades(self):
        eff = parallel_efficiency("summit", N10M, 512, 1)
        assert 0.3 < eff < 0.65  # paper: 0.41

    def test_time_to_solution_monotone_in_nodes(self):
        sweep = strong_scaling("summit", N1B, [64, 128, 256, 512, 1024, 4650])
        assert np.all(np.diff(sweep["s_per_step"]) < 0)

    def test_per_node_rate_decreases(self):
        sweep = strong_scaling("summit", N1B, [64, 512, 4650])
        assert np.all(np.diff(sweep["matom_steps_node_s"]) < 0)

    def test_larger_samples_scale_better(self):
        e_small = parallel_efficiency("summit", N100M, 4650, 972)
        e_large = parallel_efficiency("summit", N20, 4650, 972)
        assert e_large > e_small

    def test_input_validation(self):
        with pytest.raises(ValueError):
            step_time("summit", N1B, 0)
        with pytest.raises(ValueError):
            step_time("summit", -5, 10)


class TestBreakdown:
    @pytest.mark.parametrize("natoms,key", [(N20, 19_683_000_000),
                                            (N1B, 1_024_192_512),
                                            (N100M, 102_503_232)])
    def test_fractions_match_paper(self, natoms, key):
        got = breakdown("summit", natoms, 4650)
        want = PAPER["breakdown"][key]
        assert got["SNAP"] == pytest.approx(want["SNAP"], abs=0.07)
        assert got["MPI Comm"] == pytest.approx(want["MPI Comm"], abs=0.07)

    def test_fractions_sum_to_one(self):
        got = breakdown("summit", N1B, 4650)
        assert sum(got.values()) == pytest.approx(1.0)

    def test_comm_fraction_grows_with_node_count(self):
        f1 = breakdown("summit", N1B, 64)["MPI Comm"]
        f2 = breakdown("summit", N1B, 4650)["MPI Comm"]
        assert f2 > f1

    def test_comm_fraction_grows_as_sample_shrinks(self):
        # the trend Fig. 4 exists to show, at the full machine
        fracs = [breakdown("summit", n, 4650)["MPI Comm"]
                 for n in (N20, N1B, N100M)]
        assert fracs[0] < fracs[1] < fracs[2]


class TestWeakScaling:
    def test_efficiency_90_percent(self):
        ws = weak_scaling("summit", 373_248, [1, 4096])
        eff = ws["matom_steps_node_s"][1] / ws["matom_steps_node_s"][0]
        assert eff == pytest.approx(0.90, abs=0.04)

    def test_rack_dip(self):
        ws = weak_scaling("summit", 373_248, [8, 64])
        assert ws["matom_steps_node_s"][1] < ws["matom_steps_node_s"][0]

    def test_flat_beyond_rack(self):
        ws = weak_scaling("summit", 373_248, [64, 256, 1024, 4096])
        rates = ws["matom_steps_node_s"]
        assert np.ptp(rates) / rates.mean() < 0.02

    def test_one_ns_per_day_at_full_machine(self):
        # paper Sec. 6: 373,248 atoms/node at full machine -> 1 ns/day
        rate = md_performance("summit", 373_248 * 4650, 4650)
        steps_per_day = rate * 4650 / (373_248 * 4650) * 86400
        ns_per_day = steps_per_day * 0.5e-6  # 0.5 fs production timestep
        assert ns_per_day == pytest.approx(1.0, rel=0.35)


class TestMachines:
    def test_summit_over_frontera(self):
        r = md_performance("summit", N1B, 256) / md_performance("frontera", N1B, 256)
        assert r == pytest.approx(52.0, rel=0.1)

    def test_selene_over_summit(self):
        r = md_performance("selene", N1B, 256) / md_performance("summit", N1B, 256)
        assert r == pytest.approx(1.9, rel=0.1)

    def test_selene_20b(self):
        assert md_performance("selene", N20, 512) / 1e6 == \
            pytest.approx(12.72, rel=0.05)

    def test_perlmutter_20b(self):
        assert md_performance("perlmutter", N20, 1024) / 1e6 == \
            pytest.approx(6.42, rel=0.06)

    def test_selene_pflops(self):
        pf = pflops("selene", N20, 512, PAPER_FLOPS_PER_ATOM_STEP)
        assert pf == pytest.approx(11.14, rel=0.06)

    def test_perlmutter_pflops(self):
        pf = pflops("perlmutter", N20, 1024, PAPER_FLOPS_PER_ATOM_STEP)
        assert pf == pytest.approx(11.24, rel=0.08)

    def test_ordering_at_common_scale(self):
        # Fig. 6's visual ordering per node: Selene > Perlmutter ~ Summit
        # >> Frontera
        perf = {m: md_performance(m, N1B, 256) for m in MACHINES}
        assert perf["selene"] > perf["perlmutter"] > 0.8 * perf["summit"]
        assert perf["summit"] > 20 * perf["frontera"]

    def test_table1_gpu_fraction_of_peak_below_cpu(self):
        """Table I's motivating shape: normalised to SandyBridge, the
        baseline kernel's fraction of peak on every GPU generation sits
        below every CPU's and no later part regains the 2012 fraction;
        the column itself follows from the speed and peak columns."""
        rows = PAPER["table1"]
        _, _, speed0, peak0, frac0 = rows[0]
        assert rows[0][0] == "Intel SandyBridge" and frac0 == 1.0
        for hw, _, speed, peak, frac in rows:
            assert frac == pytest.approx((speed / peak) / (speed0 / peak0),
                                         rel=0.02), hw
        def is_accel(hw):  # KNL is manycore and sits with the GPUs
            return "NVIDIA" in hw or "KNL" in hw

        accel = [r[4] for r in rows if is_accel(r[0])]
        cpu = [r[4] for r in rows if not is_accel(r[0])]
        assert len(accel) == 4 and max(accel) < 0.1 < min(cpu)
        assert all(r[4] <= frac0 for r in rows)

    def test_min_nodes(self):
        m = MACHINES["summit"]
        assert m.min_nodes(N1B) <= 64
        assert m.min_nodes(N20) <= 972
        assert m.min_nodes(N20) > 400


class TestCommModel:
    def test_ghosts_surface_to_volume(self):
        small = ghost_atoms_per_domain(1e4)
        large = ghost_atoms_per_domain(1e7)
        assert small / 1e4 > large / 1e7  # relative halo shrinks

    def test_zero_atoms(self):
        assert ghost_atoms_per_domain(0.0) == 0.0

    def test_single_node_cheaper(self):
        m = MACHINES["summit"]
        t1 = comm_time_per_step(m, 1, 373_248)
        t2 = comm_time_per_step(m, 2, 373_248)
        assert t1 < t2

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            comm_time_per_step(MACHINES["summit"], 0, 1000)

    def test_ghost_residual_against_distributed_engine(self):
        """The model's ghost shell against the halos ``DistributedEngine``
        builds on the paper-shaped sample (EXPERIMENTS E4b has the
        rows): within 8 % on every grid, best on the cubic one the
        model assumes, and the total halo grows with the rank count
        (Fig. 3's surface-to-volume trend)."""
        from repro.md import build_engine
        from repro.potentials import LennardJones
        from repro.structures import random_packed

        natoms, density, skin = 4000, 0.1, 0.3
        s = random_packed(natoms, density=density, seed=1)
        cutoff = (26 / (4 / 3 * np.pi * density)) ** (1 / 3)
        pot = LennardJones(epsilon=0.2, sigma=2.2, cutoff=cutoff)
        residual, total = {}, {}
        for n in (2, 4, 8):
            engine = build_engine(s.copy(), pot, nranks=n, skin=skin)
            engine.evaluate()
            total[n] = engine.ledger.ghost_atoms
            model = ghost_atoms_per_domain(natoms / n, density, cutoff + skin)
            residual[n] = total[n] / n / model - 1.0
        assert all(abs(r) <= 0.08 for r in residual.values()), residual
        assert abs(residual[8]) == min(abs(r) for r in residual.values())
        assert total[2] < total[4] < total[8]


class TestProductionTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        return production_trace()

    def test_duration(self, trace):
        assert trace["wall_hours"][-1] == pytest.approx(24.0, abs=0.5)

    def test_sim_time_about_one_ns(self, trace):
        assert trace["sim_time_ns"][-1] == pytest.approx(1.0, rel=0.35)

    def test_io_dips_present(self, trace):
        perf = trace["perf"]
        assert perf.min() < 0.7 * np.median(perf)

    def test_mean_perf_reasonable(self, trace):
        assert np.median(trace["perf"]) == pytest.approx(
            PAPER["production"]["mean_perf_matom"], rel=0.4)

    def test_five_segments(self, trace):
        assert set(trace["segment"]) == {0, 1, 2, 3, 4}
        assert list(np.unique(trace["temperature"])) == [5000.0, 5300.0, 5500.0]

    def test_rate_rises_with_bc8(self, trace):
        perf = trace["perf"]
        med = np.median(perf)
        clean = perf[perf > 0.8 * med]  # drop I/O dips
        n = len(clean)
        assert np.median(clean[-n // 4:]) > np.median(clean[:n // 4])

    def test_custom_bc8_curve(self):
        tr = production_trace(bc8_fraction_of_time=lambda f: 0.0)
        assert np.all(tr["bc8"] == 0.0)

    def test_checkpoint_cadence(self, trace):
        # ~2e6 steps at a 50k-step checkpoint interval: a dip per write
        perf = trace["perf"]
        assert 10 <= (perf < 0.8 * np.median(perf)).sum() <= 80

    def test_crystallisation_buys_simulated_time(self):
        from repro.perfmodel import ProductionRun
        flat = production_trace(ProductionRun(seed=5),
                                bc8_fraction_of_time=lambda f: 0.0)
        ramp = production_trace(ProductionRun(seed=5),
                                bc8_fraction_of_time=lambda f: min(1.0, 2 * f))
        assert ramp["sim_time_ns"][-1] > flat["sim_time_ns"][-1]


class TestFileSystemModel:
    def test_write_seconds_latency_plus_bandwidth(self):
        from repro.perfmodel import FileSystemModel
        fs = FileSystemModel(bandwidth=1e9, latency=0.01)
        assert fs.write_seconds(1e9) == pytest.approx(1.01)
        assert np.allclose(fs.write_seconds([0, 2e9]), [0.01, 2.01])
        assert fs.bytes_per_s(1e9) == pytest.approx(1e9 / 1.01)

    def test_validation(self):
        from repro.perfmodel import FileSystemModel
        with pytest.raises(ValueError):
            FileSystemModel(bandwidth=0.0)
        with pytest.raises(ValueError):
            FileSystemModel(bandwidth=1e9, latency=-1.0)
        with pytest.raises(ValueError):
            FileSystemModel(bandwidth=1e9).write_seconds(-1)

    def test_fit_recovers_latency_and_bandwidth(self):
        from repro.perfmodel import FileSystemModel
        truth = FileSystemModel(bandwidth=2e8, latency=0.005)
        sizes = np.array([1e6, 1e7, 1e8])
        fit = FileSystemModel.from_measurement(
            sizes, truth.write_seconds(sizes))
        assert fit.bandwidth == pytest.approx(2e8, rel=1e-6)
        assert fit.latency == pytest.approx(0.005, rel=1e-6)

    def test_single_sample_pins_bandwidth(self):
        from repro.perfmodel import FileSystemModel
        fit = FileSystemModel.from_measurement(1e6, 0.01)
        assert fit.bandwidth == pytest.approx(1e8)
        assert fit.latency == 0.0

    def test_production_trace_unchanged_at_zero_latency(self):
        from repro.perfmodel import ProductionRun, production_trace
        run = ProductionRun(wall_hours=0.5)
        trace = production_trace(run)
        legacy_io = run.natoms * run.checkpoint_bytes_per_atom \
            / run.io_bandwidth
        assert run.filesystem().write_seconds(
            run.natoms * run.checkpoint_bytes_per_atom) \
            == pytest.approx(legacy_io)
        assert len(trace["perf"]) > 0

    def test_latency_slows_checkpoints(self):
        from repro.perfmodel import ProductionRun, production_trace
        base = production_trace(ProductionRun(wall_hours=2.0))
        slow = production_trace(ProductionRun(wall_hours=2.0,
                                              io_latency=60.0))
        # same simulated steps cost more wall time with per-write latency
        n = min(len(base["wall_hours"]), len(slow["wall_hours"]))
        assert slow["wall_hours"][n - 1] > base["wall_hours"][n - 1]
