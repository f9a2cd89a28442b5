"""EXAALT task-management framework simulator (extension scope).

The lecture describes EXAALT's *pull* model: workers never idle; task
managers (TMs) are the middle-men that keep local task queues, request
more work from the workflow manager (WM) before running out, aggregate
small messages, and fulfil data dependencies from a datastore.  This
module reproduces that architecture as a discrete-event simulation so
its scaling behavior (tasks/s vs workers, worker utilization, the WM
bottleneck when TMs are removed) can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..core.rng import SeedStream
from .events import EventLoop

__all__ = ["ExaaltConfig", "ExaaltStats", "simulate_exaalt",
           "calibrated_config"]


@dataclass
class ExaaltConfig:
    """Virtual-cluster and workload parameters.

    Times in seconds of virtual wall clock.  Defaults give the ~seconds
    task granularity and >10^4 tasks/s regimes quoted in the lecture.
    """

    n_workers: int = 1000
    workers_per_tm: int = 100
    task_duration_mean: float = 1.0
    task_duration_cv: float = 0.2
    #: WM service time per task request (task generation + bookkeeping)
    wm_service: float = 2.0e-5
    #: TM overhead per task handed to a worker
    tm_service: float = 2.0e-6
    #: batch of tasks a TM pulls from the WM at once (message aggregation)
    batch: int = 64
    #: TM requests more work when its queue falls below this
    low_water: int = 32
    #: one-way TM<->WM message latency
    latency: float = 1.0e-4
    #: datastore traffic per task (input deps + result) and bandwidth;
    #: fetches are prefetched/overlapped while the TM queue is non-empty
    #: ("no worker should ever be idle: data motion in the background")
    data_bytes_per_task: float = 1.0e6
    datastore_bandwidth: float = 1.0e10
    duration: float = 60.0
    seed: int = 0


@dataclass
class ExaaltStats:
    """Measured outcome of a simulated campaign."""

    tasks_completed: int
    virtual_time: float
    tasks_per_second: float
    worker_utilization: float
    wm_utilization: float
    n_tms: int
    datastore_bytes: float = 0.0
    exposed_fetch_time: float = 0.0

    def summary(self) -> str:
        return (f"{self.tasks_completed} tasks in {self.virtual_time:.0f}s "
                f"-> {self.tasks_per_second:.0f} tasks/s, "
                f"worker util {self.worker_utilization * 100:.1f}%, "
                f"WM util {self.wm_utilization * 100:.1f}%")


def calibrated_config(system, potential=None, t_segment: float = 1.0,
                      dt: float = 1.0e-3, engine=None,
                      **kwargs) -> ExaaltConfig:
    """An :class:`ExaaltConfig` with a *measured* task duration.

    EXAALT tasks are MD segments; instead of guessing
    ``task_duration_mean``, run one ``t_segment``-ps segment through
    :func:`repro.parsplice.measured_md_rate` on this host and use its
    wall time.  Keywords naming an :class:`ExaaltConfig` field go to the
    config, every other one to the engine (``build_engine``'s keywords:
    ``backend``, ``nprocs``, ...); ``engine`` calibrates over
    a live :class:`repro.md.EngineSession` and leaves it open, so the
    task duration reflects the session fleet's true marginal segment
    cost.
    """
    from ..parsplice.oracle import measured_md_rate

    config_keys = {f.name for f in fields(ExaaltConfig)}
    config = {k: kwargs.pop(k) for k in list(kwargs) if k in config_keys}
    nsteps = max(1, int(round(t_segment / dt)))
    rate = measured_md_rate(system, potential, dt=dt, nsteps=nsteps,
                            engine=engine, **kwargs)
    # simulated ps / (ps per wall-second) = the measured wall seconds
    return ExaaltConfig(task_duration_mean=nsteps * dt / rate, **config)


def simulate_exaalt(config: ExaaltConfig | None = None) -> ExaaltStats:
    """Run the discrete-event simulation and return throughput stats."""
    cfg = config or ExaaltConfig()
    if cfg.n_workers < 1 or cfg.workers_per_tm < 1:
        raise ValueError("worker counts must be positive")
    # SeedStream at the root realizes the historical default_rng stream
    rng = SeedStream(cfg.seed).generator()
    loop = EventLoop()
    n_tms = max(1, cfg.n_workers // cfg.workers_per_tm)

    completed = 0
    busy_time = 0.0
    wm_busy = 0.0
    wm_free_at = 0.0  # WM is a serial resource
    data_bytes = 0.0
    exposed_fetch = 0.0
    fetch_time = cfg.data_bytes_per_task / cfg.datastore_bandwidth

    sigma = cfg.task_duration_mean * cfg.task_duration_cv

    class TM:
        def __init__(self, idx: int, nworkers: int) -> None:
            self.idx = idx
            self.queue = 0
            self.idle_workers = nworkers
            self.requesting = False

        def request_batch(self) -> None:
            nonlocal wm_free_at, wm_busy
            if self.requesting:
                return
            self.requesting = True
            # serialize on the WM
            start = max(loop.now + cfg.latency, wm_free_at)
            service = cfg.wm_service * cfg.batch
            wm_free_at = start + service
            wm_busy += service
            loop.schedule(wm_free_at - loop.now + cfg.latency, self.receive_batch)

        def receive_batch(self) -> None:
            self.requesting = False
            self.queue += cfg.batch
            self.dispatch()
            if self.queue < cfg.low_water:
                self.request_batch()

        def dispatch(self) -> None:
            nonlocal data_bytes, exposed_fetch
            while self.idle_workers > 0 and self.queue > 0:
                prefetched = self.queue > 1  # deps staged while queued
                self.queue -= 1
                self.idle_workers -= 1
                dur = max(1e-6, rng.normal(cfg.task_duration_mean, sigma))
                data_bytes += cfg.data_bytes_per_task
                extra = 0.0 if prefetched else fetch_time
                exposed_fetch += extra
                loop.schedule(cfg.tm_service + extra + dur, self._make_done(dur))
            if self.queue < cfg.low_water and not self.requesting:
                self.request_batch()

        def _make_done(self, dur: float):
            def done() -> None:
                nonlocal completed, busy_time
                completed += 1
                busy_time += dur
                self.idle_workers += 1
                self.dispatch()
            return done

    base = cfg.n_workers // n_tms
    extra = cfg.n_workers - base * n_tms
    tms = [TM(i, base + (1 if i < extra else 0)) for i in range(n_tms)]
    for tm in tms:
        tm.request_batch()
    loop.run_until(cfg.duration)

    t = loop.now
    return ExaaltStats(
        tasks_completed=completed,
        virtual_time=t,
        tasks_per_second=completed / t if t > 0 else 0.0,
        worker_utilization=busy_time / (cfg.n_workers * t) if t > 0 else 0.0,
        wm_utilization=min(wm_busy / t, 1.0) if t > 0 else 0.0,
        n_tms=n_tms,
        datastore_bytes=data_bytes,
        exposed_fetch_time=exposed_fetch,
    )
