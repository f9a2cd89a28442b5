"""Tests for the Parallel Trajectory Splicing extension."""

import inspect

import numpy as np
import pytest

import repro.parsplice
from repro.parsplice import (MarkovStateModel, SegmentGenerator, SpliceEngine,
                             TransitionOracle, arrhenius_msm,
                             nanoparticle_landscape, run_parsplice)


@pytest.fixture
def two_state():
    return MarkovStateModel(rates=np.array([[0.0, 0.5], [0.2, 0.0]]))


class TestMSM:
    def test_validation(self):
        with pytest.raises(ValueError):
            MarkovStateModel(rates=np.array([[0.0, -1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            MarkovStateModel(rates=np.zeros((2, 3)))

    def test_absorbing_state(self):
        msm = MarkovStateModel(rates=np.array([[0.0, 1.0], [0.0, 0.0]]))
        rng = np.random.default_rng(0)
        end, n = msm.evolve(1, 100.0, rng)
        assert end == 1 and n == 0

    def test_stationary_two_state(self, two_state):
        pi = two_state.stationary_distribution()
        # detailed balance: pi0 * k01 = pi1 * k10
        assert pi[0] * 0.5 == pytest.approx(pi[1] * 0.2, rel=1e-9)
        assert pi.sum() == pytest.approx(1.0)

    def test_evolution_matches_stationary(self, two_state):
        rng = np.random.default_rng(1)
        occupancy = np.zeros(2)
        state = 0
        for _ in range(3000):
            events = two_state.trajectory(state, 5.0, rng)
            t_prev, s_prev = 0.0, state
            for (t, s) in events:
                occupancy[s_prev] += t - t_prev
                t_prev, s_prev = t, s
            occupancy[s_prev] += 5.0 - t_prev
            state = s_prev
        pi_emp = occupancy / occupancy.sum()
        pi = two_state.stationary_distribution()
        assert np.allclose(pi_emp, pi, atol=0.02)


class TestArrhenius:
    def test_detailed_balance(self):
        e, b = nanoparticle_landscape(seed=1)
        msm = arrhenius_msm(e, b, temperature=500.0)
        pi = msm.stationary_distribution()
        k = msm.rates
        for i in range(msm.nstates):
            for j in range(msm.nstates):
                if k[i, j] > 0 and pi[i] > 1e-12:
                    assert pi[i] * k[i, j] == pytest.approx(
                        pi[j] * k[j, i], rel=1e-6)

    def test_rates_increase_with_temperature(self):
        e, b = nanoparticle_landscape(seed=1)
        cold = arrhenius_msm(e, b, temperature=300.0)
        hot = arrhenius_msm(e, b, temperature=900.0)
        assert hot.rates.sum() > cold.rates.sum()

    def test_asymmetric_barriers_rejected(self):
        e = np.zeros(2)
        b = np.array([[np.inf, 1.0], [2.0, np.inf]])
        with pytest.raises(ValueError):
            arrhenius_msm(e, b, 300.0)


class TestSegments:
    def test_bookkeeping(self, two_state):
        gen = SegmentGenerator(two_state, t_segment=1.0, seed=3)
        segments = gen.generate_batch([0] * 5)
        assert gen.nstates == 2
        assert [seg.start_state for seg in segments] == [0] * 5
        assert sum(seg.duration for seg in segments) == pytest.approx(5.0)

    def test_validation(self, two_state):
        with pytest.raises(ValueError):
            SegmentGenerator(two_state, t_segment=0.0)


class TestSplicer:
    def test_only_matching_segments_splice(self):
        from repro.parsplice.segments import Segment

        sp = SpliceEngine(initial_state=0)
        sp.deposit(Segment(start_state=1, end_state=2, duration=1.0, n_transitions=1))
        assert sp.trajectory_time == 0.0
        assert sp.stored_segments == 1
        sp.deposit(Segment(start_state=0, end_state=1, duration=1.0, n_transitions=1))
        # now both splice: 0->1 then the stored 1->2
        assert sp.trajectory_time == pytest.approx(2.0)
        assert sp.current_state == 2
        assert sp.n_transitions == 2

    def test_statistics_match_direct_dynamics(self, two_state):
        """Spliced state-residence fractions equal the direct MSM's."""
        gen = SegmentGenerator(two_state, t_segment=2.0, seed=11)
        sp = SpliceEngine(initial_state=0)
        for _ in range(8000):
            sp.deposit(gen.generate(sp.current_state))
        frac = sp.empirical_state_fractions()
        pi = two_state.stationary_distribution()
        assert frac[0] == pytest.approx(pi[0], abs=0.03)

    def test_spliced_fraction(self):
        sp = SpliceEngine(initial_state=0)
        assert sp.spliced_fraction(0) == 0.0


class TestOracle:
    def test_allocation_sums_to_workers(self):
        o = TransitionOracle(nstates=5)
        alloc = o.allocate(0, nworkers=17)
        assert alloc.sum() == 17
        assert np.all(alloc >= 0)

    def test_prediction_is_distribution(self):
        o = TransitionOracle(nstates=4)
        o.observe(0, 1)
        o.observe(1, 2)
        p = o.predict(0, horizon=3)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p >= 0)

    def test_prior_is_stay_put(self):
        o = TransitionOracle(nstates=3)
        p = o.predict(1, horizon=1)
        assert p[1] == pytest.approx(1.0)

    def test_learns_transitions(self):
        o = TransitionOracle(nstates=3, alpha=0.1)
        for _ in range(50):
            o.observe(0, 1)
        p = o.predict(0, horizon=1)
        assert p[1] > 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            TransitionOracle(nstates=0)
        o = TransitionOracle(nstates=2)
        with pytest.raises(ValueError):
            o.predict(0, horizon=-1)
        with pytest.raises(ValueError):
            o.allocate(0, nworkers=0)
        with pytest.raises(ValueError):
            o.allocate(0, nworkers=4, horizon=0)
        assert o.predict(0, horizon=0) == pytest.approx([1.0, 0.0])


class TestRunParSplice:
    def test_one_campaign_loop_census(self):
        """The campaign loop is reviewed, not accreted: a generator and
        five keywords, no protocol probing, and no second loop or
        adapter generator beside it."""
        params = inspect.signature(run_parsplice).parameters
        assert list(params) == ["generator", "nworkers", "quanta",
                                "initial_state", "horizon", "speculate"]
        assert all(p.kind is p.KEYWORD_ONLY
                   for name, p in params.items() if name != "generator")
        assert "hasattr" not in inspect.getsource(run_parsplice)
        for gone in ("run_parsplice_service", "ServiceRun",
                     "ServiceSegmentGenerator", "MDSegmentGenerator"):
            assert gone not in repro.parsplice.__all__
            assert not hasattr(repro.parsplice, gone)

    def test_rare_event_regime_near_linear_speedup(self):
        e, b = nanoparticle_landscape(seed=2)
        msm = arrhenius_msm(e, b, temperature=300.0)
        run = run_parsplice(SegmentGenerator(msm, seed=1), nworkers=16,
                            quanta=20)
        assert run.speedup > 14.0
        assert run.spliced_fraction > 0.95

    def test_fast_event_regime_degrades(self):
        e, b = nanoparticle_landscape(n_basins=40, states_per_basin=8, seed=2)
        cold = run_parsplice(SegmentGenerator(arrhenius_msm(e, b, 300.0),
                                              t_segment=0.2, seed=2),
                             nworkers=16, quanta=15)
        hot = run_parsplice(SegmentGenerator(arrhenius_msm(e, b, 6000.0),
                                             t_segment=0.2, seed=2),
                            nworkers=16, quanta=15)
        assert hot.speedup < cold.speedup
        assert hot.n_transitions > cold.n_transitions

    def test_speedup_grows_with_workers(self):
        e, b = nanoparticle_landscape(n_basins=40, states_per_basin=8, seed=2)
        msm = arrhenius_msm(e, b, temperature=300.0)
        speedups = [run_parsplice(SegmentGenerator(msm, t_segment=0.2, seed=1),
                                  nworkers=nw, quanta=15).speedup
                    for nw in (4, 16, 64)]
        assert speedups[0] < speedups[1] < speedups[2]

    def test_trajectory_time_bounded_by_generated(self):
        e, b = nanoparticle_landscape(seed=3)
        run = run_parsplice(SegmentGenerator(arrhenius_msm(e, b, 800.0)),
                            nworkers=8, quanta=10)
        assert run.trajectory_time <= run.generated_time + 1e-9

    def test_validation(self, two_state):
        with pytest.raises(ValueError):
            run_parsplice(SegmentGenerator(two_state), nworkers=0, quanta=1)
        with pytest.raises(ValueError):
            run_parsplice(SegmentGenerator(two_state), nworkers=2, horizon=0)

    def test_summary_string(self, two_state):
        run = run_parsplice(SegmentGenerator(two_state), nworkers=2, quanta=2)
        assert "workers" in run.summary()
        assert run.wall_s > 0
        assert run.spliced_ns_per_s == pytest.approx(
            run.trajectory_time / 1000.0 / run.wall_s)

    def test_reused_generator_reports_this_campaign(self, two_state):
        # the loop counts what it receives: a generator used before
        # contributes nothing to the next campaign's figures
        gen = SegmentGenerator(two_state, t_segment=1.0, seed=5)
        first = run_parsplice(gen, nworkers=3, quanta=2)
        second = run_parsplice(gen, nworkers=3, quanta=2)
        for run in (first, second):
            assert run.n_generated == 3 * 2
            assert run.generated_time == pytest.approx(3 * 2 * 1.0)
            assert run.spliced_fraction == run.n_spliced / run.n_generated


class TestSpeculationAblation:
    def test_no_speculation_still_valid(self):
        e, b = nanoparticle_landscape(seed=4)
        msm = arrhenius_msm(e, b, temperature=700.0)
        run = run_parsplice(SegmentGenerator(msm, seed=3), nworkers=8,
                            quanta=10, speculate=False)
        assert run.trajectory_time <= run.generated_time
        assert run.speedup >= 1.0

    def test_speculation_helps_in_multistate_regime(self):
        e, b = nanoparticle_landscape(n_basins=40, states_per_basin=8, seed=2)
        msm = arrhenius_msm(e, b, temperature=3000.0)
        w = run_parsplice(SegmentGenerator(msm, t_segment=0.2, seed=4),
                          nworkers=32, quanta=25, speculate=True)
        wo = run_parsplice(SegmentGenerator(msm, t_segment=0.2, seed=4),
                           nworkers=32, quanta=25, speculate=False)
        assert w.speedup >= 0.9 * wo.speedup
