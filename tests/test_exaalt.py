"""Tests for the EXAALT task-management simulator."""

import pytest

from repro.exaalt import EventLoop, ExaaltConfig, simulate_exaalt


class TestEventLoop:
    def test_ordering(self):
        loop = EventLoop()
        seen = []
        loop.schedule(2.0, lambda: seen.append("b"))
        loop.schedule(1.0, lambda: seen.append("a"))
        loop.schedule(3.0, lambda: seen.append("c"))
        loop.run_until(2.5)
        assert seen == ["a", "b"]
        loop.run_until(5.0)
        assert seen == ["a", "b", "c"]

    def test_fifo_ties(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append(1))
        loop.schedule(1.0, lambda: seen.append(2))
        loop.run_until(2.0)
        assert seen == [1, 2]

    def test_negative_delay(self):
        with pytest.raises(ValueError):
            EventLoop().schedule(-1.0, lambda: None)

    def test_chained_events(self):
        loop = EventLoop()
        seen = []

        def first():
            seen.append(loop.now)
            loop.schedule(1.0, lambda: seen.append(loop.now))

        loop.schedule(1.0, first)
        loop.run_until(10.0)
        assert seen == [1.0, 2.0]


class TestExaalt:
    def test_full_utilization_small(self):
        st = simulate_exaalt(ExaaltConfig(n_workers=50, duration=20.0,
                                          task_duration_mean=0.1))
        assert st.worker_utilization > 0.95
        assert st.tasks_completed > 0

    def test_throughput_scales_with_workers(self):
        r = []
        for nw in (50, 500):
            st = simulate_exaalt(ExaaltConfig(n_workers=nw, duration=20.0,
                                              task_duration_mean=0.1))
            r.append(st.tasks_per_second)
        assert r[1] / r[0] == pytest.approx(10.0, rel=0.1)

    def test_wm_saturation_limits_throughput(self):
        # push far past the WM's ~1/wm_service ceiling
        st = simulate_exaalt(ExaaltConfig(n_workers=8000, duration=10.0,
                                          task_duration_mean=0.05))
        assert st.wm_utilization > 0.95
        assert st.worker_utilization < 0.9
        assert st.tasks_per_second < 1.05 / ExaaltConfig().wm_service

    def test_tm_count(self):
        st = simulate_exaalt(ExaaltConfig(n_workers=1000, workers_per_tm=100,
                                          duration=1.0))
        assert st.n_tms == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_exaalt(ExaaltConfig(n_workers=0))

    def test_summary(self):
        st = simulate_exaalt(ExaaltConfig(n_workers=10, duration=5.0))
        assert "tasks/s" in st.summary()

    def test_quoted_50k_tasks_per_second_regime(self):
        """The lecture quotes ~50,000 tasks/s; the simulated WM ceiling
        (1/wm_service = 50k) reproduces it at scale."""
        st = simulate_exaalt(ExaaltConfig(n_workers=4000, duration=10.0,
                                          task_duration_mean=0.05))
        assert st.tasks_per_second == pytest.approx(50_000, rel=0.15)


class TestDatastore:
    def test_bytes_accounted(self):
        st = simulate_exaalt(ExaaltConfig(n_workers=50, duration=10.0,
                                          task_duration_mean=0.1))
        assert st.datastore_bytes == pytest.approx(
            st.tasks_completed * 1.0e6, rel=0.02)

    def test_prefetch_hides_most_fetches(self):
        """With the pull model keeping queues full, exposed fetch time is
        a small fraction of total work ("data motion in the background")."""
        st = simulate_exaalt(ExaaltConfig(n_workers=200, duration=10.0,
                                          task_duration_mean=0.1))
        total_work = st.tasks_completed * 0.1
        assert st.exposed_fetch_time < 0.05 * total_work

    def test_slow_datastore_hurts_throughput(self):
        fast = simulate_exaalt(ExaaltConfig(n_workers=100, duration=10.0,
                                            task_duration_mean=0.05,
                                            datastore_bandwidth=1e12))
        slow = simulate_exaalt(ExaaltConfig(n_workers=100, duration=10.0,
                                            task_duration_mean=0.05,
                                            datastore_bandwidth=1e7,
                                            batch=2, low_water=1))
        assert slow.tasks_per_second <= fast.tasks_per_second
