"""Engine sessions + batched segment service (ISSUE 10).

Covers the three layers of the refactor: the :meth:`ForceEngine.bind`
contract (a rebound live engine is bitwise-identical to a freshly
constructed one, on every backend), the in-memory
snapshot/restore-snapshot path against the file-checkpoint baseline,
and the :class:`SegmentScheduler` service semantics - idempotent
resubmission, the segment cache, deterministic splicing, and
rescheduling after a killed worker process or a worker-side exception,
and the caller-driven dispatcher's own contracts (timeouts, close(),
a lost worker slot, no thread of its own).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.rng import SeedStream
from repro.md import MDLoop, build_engine
from repro.md.engine import EngineSession
from repro.md.integrators import LangevinThermostat
from repro.parsplice import (SegmentScheduler, measured_md_rate,
                             run_md_segment, run_parsplice)
from repro.potentials import LennardJones
from repro.structures import lattice_system

BACKENDS = [
    pytest.param(dict(), id="serial"),
    pytest.param(dict(backend="process", nprocs=2), id="process"),
]


def _pot():
    return LennardJones(epsilon=0.2, sigma=2.2, cutoff=3.0)


def _state(jitter_seed=None):
    # 3 reps along x so a 2-rank domain split stays above the cutoff
    s = lattice_system("fcc", a=2.5, reps=(3, 2, 2))
    if jitter_seed is not None:
        rng = np.random.default_rng(jitter_seed)
        s.positions = s.positions + rng.normal(scale=0.02,
                                               size=s.positions.shape)
    return s


def _library(n=3):
    return [_state(None if i == 0 else i) for i in range(n)]


def _lone_prints(states, pot, keys, **engine_kwargs):
    """The lone-session reference: fingerprints of the ``(state, seed)``
    segments run in turn on one session, with the physics and root seed
    the scheduler tests use (``nsteps=6``, ``seed=7``)."""
    with EngineSession.build(states[0].copy(), pot,
                             **engine_kwargs) as session:
        return [run_md_segment(session, states[state], state=state,
                               seed=seed, stream=SeedStream(7),
                               nsteps=6).fingerprint
                for state, seed in keys]


def _run_segment_on(engine, system, nsteps=8, seed=4):
    sys_run = system.copy()
    sys_run.seed_velocities(60.0, rng=np.random.default_rng(seed))
    loop = MDLoop(engine, dt=1e-3,
                  thermostat=LangevinThermostat(temp=60.0, damp=0.1,
                                                seed=seed))
    loop.run(nsteps)
    return sys_run.positions.copy(), sys_run.velocities.copy()


# ======================================================================
# SeedStream
# ======================================================================
class TestSeedStream:
    def test_root_matches_default_rng(self):
        a = SeedStream(1234).generator().normal(size=8)
        b = np.random.default_rng(1234).normal(size=8)
        assert np.array_equal(a, b)

    def test_child_keys_are_stateless_and_deterministic(self):
        s = SeedStream(7)
        a = s.child("segment", 3, 5)
        b = s.child("segment", 3, 5)
        assert a == b
        assert np.array_equal(a.generator().normal(size=4),
                              b.generator().normal(size=4))
        # order-of-derivation independence: deriving other children
        # first never perturbs a keyed stream
        s.child("other", 0)
        c = s.child("segment", 3, 5)
        assert np.array_equal(c.generator().normal(size=4),
                              a.generator().normal(size=4))

    def test_distinct_keys_distinct_streams(self):
        s = SeedStream(7)
        draws = {tuple(s.child("segment", i, j).generator().integers(
            0, 2**32, size=2)) for i in range(3) for j in range(3)}
        assert len(draws) == 9

    def test_spawn_is_sequential_and_unique(self):
        s = SeedStream(11)
        a, b = s.spawn(), s.spawn()
        assert a != b
        t = SeedStream(11)
        c, d = t.spawn_many(2)
        assert (a, b) == (c, d)

    def test_state_round_trip(self):
        s = SeedStream(3).child("x", 2)
        r = SeedStream.from_state(s.state())
        assert r == s
        assert np.array_equal(r.generator().normal(size=3),
                              s.generator().normal(size=3))

    def test_integer_fits_requested_bits(self):
        v = SeedStream(5).child("thermostat").integer(bits=31)
        assert 0 <= v < 2**31


# ======================================================================
# bind contract + snapshot/restore
# ======================================================================
class TestBindContract:
    @pytest.mark.parametrize("engine_kwargs", BACKENDS)
    def test_bound_engine_bitwise_matches_fresh(self, engine_kwargs):
        pot = _pot()
        state_a, state_b = _state(1), _state(2)
        # dirty the engine on state A, then rebind to state B
        with build_engine(state_a.copy(), pot, **engine_kwargs) as engine:
            _run_segment_on(engine, engine.system)
            target = state_b.copy()
            engine.bind(target)
            pos_bound, vel_bound = _run_segment_on(engine, target)
        with build_engine(state_b.copy(), pot, **engine_kwargs) as engine:
            pos_fresh, vel_fresh = _run_segment_on(engine, engine.system)
        assert np.array_equal(pos_bound, pos_fresh)
        assert np.array_equal(vel_bound, vel_fresh)

    @pytest.mark.parametrize("engine_kwargs", BACKENDS)
    def test_bind_rebuilds_inside_the_skin_on_the_same_box(self,
                                                           engine_kwargs):
        """The next evaluate after bind() builds at the bound coordinates
        even when they sit inside the old Verlet skin on the very same
        Box object (what an in-memory restore reinstalls): the build
        counter and the topology reference a checkpoint stores say so."""
        state = _state(1)
        with build_engine(state, _pot(), **engine_kwargs) as engine:
            engine.evaluate()
            builds = engine.neighbor_builds
            target = state.copy()  # shares the Box object
            target.positions += 0.01
            engine.bind(target)
            engine.evaluate()
            assert engine.neighbor_builds == builds + 1
            assert np.array_equal(engine.topology_reference,
                                  target.positions)

    def test_process_bind_rejects_shape_changes(self):
        pot = _pot()
        with build_engine(_state(), pot, backend="process",
                          nprocs=2) as engine:
            bigger = lattice_system("fcc", a=2.5, reps=(4, 2, 2))
            with pytest.raises(ValueError):
                engine.bind(bigger)

    @pytest.mark.parametrize("engine_kwargs", BACKENDS)
    def test_file_restore_replays_identically(self, engine_kwargs, tmp_path):
        pot = _pot()
        sys_run = _state(1)
        sys_run.seed_velocities(60.0, rng=np.random.default_rng(2))
        ck = tmp_path / "mid.ckpt"
        with build_engine(sys_run, pot, **engine_kwargs) as engine:
            loop = MDLoop(engine, dt=1e-3,
                          thermostat=LangevinThermostat(temp=60.0, damp=0.1,
                                                        seed=3),
                          checkpoint_every=3, checkpoint_path=ck)
            loop.run(3)
            # stop checkpointing: the replay runs below would overwrite
            # the step-3 file at step 6 and break the file baseline
            loop.checkpoint_every = 0
            # restoring the same checkpoint twice gives the identical
            # continuation regardless of intervening loop state
            loop.run(2)
            loop.restore(ck)
            loop.run(4)
            pos_first = loop.system.positions.copy()
            vel_first = loop.system.velocities.copy()
            loop.restore(ck)
            loop.run(4)
            assert np.array_equal(loop.system.positions, pos_first)
            assert np.array_equal(loop.system.velocities, vel_first)

    def test_session_counts_reuse(self):
        pot = _pot()
        session = EngineSession.build(_state(), pot)
        with session:
            for k in range(3):
                sys_k = _state(k)
                session.run(sys_k, 2, thermostat=LangevinThermostat(
                    temp=60.0, damp=0.1, seed=k))
            assert session.segments == 3
            assert session.binds == 3
            assert session.steps == 6
            assert session.md_wall_s > 0
        assert session.closed
        with pytest.raises(RuntimeError):
            session.bind(_state())


# ======================================================================
# segment service
# ======================================================================
class TestSegmentService:
    def test_idempotent_resubmission_across_sessions(self):
        """Same (state, seed) is the bitwise-identical segment on any
        session of the pool, any resubmission, and on a lone session."""
        states, pot = _library(), _pot()
        with SegmentScheduler(states, pot, nworkers=2, nsteps=6,
                              seed=7, cache_limit=0) as sched:
            futs = [sched.request(1, seed=5) for _ in range(4)]
            prints = {f.result().fingerprint for f in futs}
        assert len(prints) == 1
        assert _lone_prints(states, pot, [(1, 5)])[0] in prints

    def test_cache_hit_path_skips_md(self):
        states, pot = _library(), _pot()
        with SegmentScheduler(states, pot, nworkers=1, nsteps=6,
                              seed=7) as sched:
            first = sched.request(2, seed=0).result()
            runs = sched.stats.segments_run
            again = sched.request(2, seed=0).result()
            assert sched.stats.segments_run == runs  # no MD re-run
            assert sched.stats.cache_hits >= 1
            assert again.fingerprint == first.fingerprint

    def test_sequential_seeds_differ_per_state(self):
        states, pot = _library(), _pot()
        with SegmentScheduler(states, pot, nworkers=1, nsteps=6,
                              seed=7) as sched:
            a = sched.request(0).result()
            b = sched.request(0).result()
        assert (a.seed, b.seed) == (0, 1)
        assert a.fingerprint != b.fingerprint

    def test_worker_death_reschedules_on_replacement_session(self, tmp_path):
        """SIGKILL a segment worker mid-segment: the session is
        replaced, the segment rescheduled, and the result is bitwise
        what a healthy scheduler produces."""
        states, pot = _library(), _pot()
        reached = tmp_path / "mid-segment"

        def classifier(system, state):
            # inside run_md_segment, in the worker: the first attempt
            # parks here until it is killed, the rescheduled one returns
            if not reached.exists():
                reached.touch()
                time.sleep(120)
            return state

        with SegmentScheduler(states, pot, nworkers=1, nsteps=6, seed=7,
                              classifier=classifier) as sched:
            victim = sched.session_stats()[0]["pid"]
            fut = sched.request(1, seed=5)
            deadline = time.monotonic() + 60
            while not reached.exists():
                assert time.monotonic() < deadline, "worker never started"
                time.sleep(0.01)
            os.kill(victim, signal.SIGKILL)
            # let the death land whole before the dispatcher looks: the
            # pipe's end-of-file and the sentinel are then ready in one
            # wait, and the second must not be blamed on the replacement
            stat = Path(f"/proc/{victim}/stat")
            while stat.read_text().rpartition(")")[2].split()[0] != "Z":
                assert time.monotonic() < deadline, "worker never died"
                time.sleep(0.01)
            time.sleep(0.2)
            seg = fut.result(timeout=60)
            assert sched.stats.reschedules == 1
            assert sched.stats.sessions_replaced == 1
            assert sched.session_stats()[0]["pid"] != victim
        with SegmentScheduler(states, pot, nworkers=1, nsteps=6,
                              seed=7) as sched:
            healthy = sched.request(1, seed=5).result()
        assert seg.fingerprint == healthy.fingerprint

    def test_worker_exception_is_reported_with_traceback_and_retried(
            self, tmp_path):
        states, pot = _library(), _pot()
        tripped = tmp_path / "tripped"

        class FlakySession:
            """Raises on the first run of the campaign (the flag is a
            file: the session lives in a worker process), then
            delegates to a real session."""

            def __init__(self):
                self._real = EngineSession.build(states[0].copy(), pot)

            def run(self, *args, **kwargs):
                if not tripped.exists():
                    tripped.touch()
                    raise ValueError("engine poisoned")
                return self._real.run(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._real, name)

        with SegmentScheduler(states, session_factory=FlakySession,
                              nworkers=1, nsteps=6, seed=7) as sched:
            seg = sched.request(1, seed=5).result(timeout=60)
            assert sched.stats.reschedules == 1
            assert sched.stats.sessions_replaced == 1
        assert [seg.fingerprint] == _lone_prints(states, pot, [(1, 5)])
        # out of retries, the worker's own exception and traceback are
        # what the future's error chains to
        tripped.unlink()
        with SegmentScheduler(states, session_factory=FlakySession,
                              nworkers=1, nsteps=6, seed=7,
                              max_retries=0) as sched:
            with pytest.raises(RuntimeError, match="failed after 1") as info:
                sched.request(1, seed=5).result(timeout=60)
        remote = info.value.__cause__
        assert isinstance(remote, ValueError)
        assert "engine poisoned" in str(remote)
        assert "run_md_segment" in str(remote.__cause__)
        assert "test_service.py" in str(remote.__cause__)

    def test_close_reaps_every_worker_process(self):
        states, pot = _library(), _pot()

        def segment_workers():
            return [p for p in multiprocessing.active_children()
                    if p.name.startswith("repro-segsvc")]

        sched = SegmentScheduler(states, pot, nworkers=3, nsteps=6, seed=7)
        try:
            assert len(segment_workers()) == 3
            sched.gather(sched.request_batch([1, 1, 1]))
            pids = {row["pid"] for row in sched.session_stats()}
            assert pids == {p.pid for p in segment_workers()}
            assert os.getpid() not in pids
        finally:
            sched.close()
        assert segment_workers() == []
        assert multiprocessing.active_children() == []
        sched.close()  # idempotent

    def test_exhausted_retries_fail_the_future_not_the_service(self):
        states, pot = _library(), _pot()

        class DeadSession:
            def run(self, *args, **kwargs):
                raise RuntimeError("permanently dead")

            def bind(self, system):
                pass

            def close(self):
                pass

        with SegmentScheduler(states, session_factory=DeadSession,
                              nworkers=1, nsteps=6, seed=7,
                              max_retries=1) as sched:
            with pytest.raises(RuntimeError, match="failed after 2"):
                sched.request(0, seed=0).result()

    def test_lost_slot_fails_queued_work_instead_of_wedging(self, tmp_path):
        """The session fails its first segment and the replacement's
        factory fails too: the segment fails with the factory's error,
        its ticket settles, a queued segment fails with a RuntimeError
        chained to that error, a re-request is a new (failing) future,
        and close() returns.  Run in a subprocess so a wedged service
        fails the test instead of hanging it."""
        script = f"""
import pathlib
from repro.md.engine import EngineSession
from repro.parsplice import SegmentScheduler
from repro.potentials import LennardJones
from repro.structures import lattice_system

built = pathlib.Path({str(tmp_path / "built")!r})
states = [lattice_system("fcc", a=2.5, reps=(3, 2, 2))]

class PoisonedOnce:
    def __init__(self):
        if built.exists():
            raise RuntimeError("factory broken")
        built.touch()
        self._real = EngineSession.build(
            states[0].copy(), LennardJones(epsilon=0.2, sigma=2.2,
                                           cutoff=3.0))

    def run(self, *args, **kwargs):
        raise ValueError("engine poisoned")

    def __getattr__(self, name):
        return getattr(self._real, name)

with SegmentScheduler(states, session_factory=PoisonedOnce, nworkers=1,
                      nsteps=6, seed=7) as sched:
    a = sched.request(0, seed=0)
    b = sched.request(0, seed=1)
    err_a, err_b = a.exception(), b.exception()
    assert str(err_a) == "factory broken", repr(err_a)
    assert isinstance(err_b, RuntimeError), repr(err_b)
    assert err_b.__cause__ is err_a, repr(err_b.__cause__)
    again = sched.request(0, seed=0)
    assert again is not a and isinstance(again.exception(), RuntimeError)
    assert sched._next_splice == 3 and sched._inflight == {{}}
print("closed")
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"),
             os.environ.get("PYTHONPATH", "")])}
        try:
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail("the segment service wedged after a failed "
                        "replacement")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "closed"

    def test_result_timeout_leaves_the_segment_running(self):
        states, pot = _library(), _pot()

        def slow(system, state):
            time.sleep(1.0)
            return state

        with SegmentScheduler(states, pot, nworkers=1, nsteps=6, seed=7,
                              classifier=slow) as sched:
            fut = sched.request(1, seed=5)
            with pytest.raises(TimeoutError):
                fut.result(timeout=0.05)
            assert not fut.done()
            seg = fut.result(timeout=60)
        assert [seg.fingerprint] == _lone_prints(states, pot, [(1, 5)])

    def test_close_resolves_unwaited_futures_in_request_order(self):
        states, pot = _library(), _pot()

        def slow_state_zero(system, state):
            # state 0's segments finish last on a two-worker pool
            if state == 0:
                time.sleep(0.3)
            return state

        sched = SegmentScheduler(states, pot, nworkers=2, nsteps=6, seed=7,
                                 classifier=slow_state_zero)
        spliced = []
        deposit = sched.splicer.deposit
        sched.splicer.deposit = lambda seg: (
            spliced.append((seg.state, seg.seed)), deposit(seg))
        keys = [(0, 0), (1, 0), (2, 0), (1, 1), (0, 1)]
        futs = [sched.request(state, seed=seed) for state, seed in keys]
        sched.close()
        assert all(f.done() for f in futs)
        assert [(f.result().state, f.result().seed) for f in futs] \
            == keys
        assert spliced == keys

    def test_campaign_starts_no_thread(self):
        states, pot = _library(), _pot()
        before = threading.active_count()
        with SegmentScheduler(states, pot, nworkers=2, nsteps=6,
                              seed=3) as sched:
            run = run_parsplice(sched, nworkers=sched.nworkers, quanta=2)
            assert threading.active_count() == before
        assert run.n_spliced >= 1
        assert threading.active_count() == before

    def test_splice_order_is_submission_order(self):
        """The official trajectory is a pure function of the request
        sequence, not of worker completion order."""
        states, pot = _library(), _pot()

        def campaign(nworkers):
            with SegmentScheduler(states, pot, nworkers=nworkers, nsteps=6,
                                  seed=7, initial_state=0) as sched:
                sched.gather(sched.request_batch([2, 2, 2]))
                return (sched.trajectory_ps, sched.current_state,
                        sched.splicer.n_spliced)

        assert campaign(1) == campaign(3)

    def test_run_parsplice_over_md_generator(self):
        """Any object with ``nstates``, ``t_segment`` and
        ``generate_batch`` is a generator: here, MD segments run in turn
        on one session."""
        states, pot = _library(), _pot()

        class LoneSessionGenerator:
            nstates, t_segment = len(states), 6 * 1.0e-3

            def __init__(self, session):
                self.session, self.seeds = session, [0] * len(states)

            def generate_batch(self, starts):
                segments = []
                for s in starts:
                    seed, self.seeds[s] = self.seeds[s], self.seeds[s] + 1
                    segments.append(run_md_segment(
                        self.session, states[s], state=int(s), seed=seed,
                        stream=SeedStream(7), nsteps=6))
                return segments

        with EngineSession.build(states[0].copy(), pot) as session:
            gen = LoneSessionGenerator(session)
            run = run_parsplice(gen, nworkers=2, quanta=2)
        assert run.n_generated == 4
        assert run.trajectory_time > 0
        assert run.generated_time == pytest.approx(4 * gen.t_segment)

    def test_run_parsplice_over_service_adapter(self):
        """The scheduler is its own generator adapter: a quantum fans out
        over the pool through ``generate_batch``."""
        states, pot = _library(), _pot()
        with SegmentScheduler(states, pot, nworkers=2, nsteps=6,
                              seed=7) as sched:
            run = run_parsplice(sched, nworkers=2, quanta=2)
            assert run.n_generated == 4
            assert sched.stats.segments_run <= 4  # cache may dedup

    def test_run_parsplice_service_campaign(self):
        states, pot = _library(), _pot()
        with SegmentScheduler(states, pot, nworkers=2, nsteps=6,
                              seed=3) as sched:
            run = run_parsplice(sched, nworkers=2, quanta=2)
            session_stats = sched.session_stats()
            summary = sched.summary()
        assert run.n_spliced >= 1
        assert run.trajectory_time > 0
        assert len(session_stats) == 2
        assert sum(row["segments"] for row in session_stats) \
            == summary["segments_run"]
        assert all(row["steps"] == 6 * row["segments"]
                   and row["binds"] == row["segments"]
                   for row in session_stats)

    @pytest.mark.parametrize("nworkers", [1, 3])
    def test_campaign_splice_matches_the_reorder_buffer(self, nworkers):
        """``run_parsplice`` splices what it receives, in gather order;
        the scheduler's reorder buffer splices the same segments in
        ticket order.  The two trajectories agree, transitions included,
        so the two orders are one."""
        states, pot = _library(), _pot()

        def hop(system, state):
            # a deterministic transition on the final configuration
            return int(abs(system.positions.sum()) * 1e6) % 3

        with SegmentScheduler(states, pot, nworkers=nworkers, nsteps=6,
                              seed=7, classifier=hop) as sched:
            run = run_parsplice(sched, nworkers=2, quanta=3)
            assert run.n_transitions >= 1
            assert (run.trajectory_time, run.n_spliced) \
                == (sched.trajectory_ps, sched.splicer.n_spliced)
            assert run.state_time == sched.splicer.state_time
            assert run.final_state == sched.current_state


# ======================================================================
# calibration over a live session (satellite: oracle/exaalt engine=)
# ======================================================================
class TestCalibrationOverSession:
    def test_measured_md_rate_reuses_session(self):
        pot = _pot()
        with EngineSession.build(_state(), pot) as session:
            rate1 = measured_md_rate(_state(1), nsteps=2, engine=session)
            rate2 = measured_md_rate(_state(2), nsteps=2, engine=session)
            assert rate1 > 0 and rate2 > 0
            assert not session.closed
            assert session.binds >= 2

    def test_measured_md_rate_requires_potential_or_engine(self):
        with pytest.raises(ValueError):
            measured_md_rate(_state(), nsteps=2)

    def test_calibrated_config_over_session(self):
        from repro.exaalt import calibrated_config

        pot = _pot()
        with EngineSession.build(_state(), pot) as session:
            cfg = calibrated_config(_state(1), t_segment=0.002,
                                    engine=session, n_workers=10)
            assert cfg.task_duration_mean > 0
            assert cfg.n_workers == 10
            assert not session.closed

    def test_calibrated_config_forwards_every_engine_keyword(self):
        # build_engine's keywords reach the engine, the rest the config
        from repro.exaalt import calibrated_config

        cfg = calibrated_config(_state(1), _pot(), t_segment=0.002,
                                backend="process", nprocs=2, batch=8)
        assert cfg.task_duration_mean > 0
        assert cfg.batch == 8


# ======================================================================
# soak matrix
# ======================================================================
@pytest.mark.parametrize("engine_kwargs", BACKENDS)
@pytest.mark.parametrize("nworkers", [1, 2, 4])
def test_soak_matrix_bitwise_across_pool_shapes(nworkers, engine_kwargs):
    """Every (nworkers, backend) cell serves the same segments as one
    lone session of that backend, bitwise - pool size and request
    interleaving never leak into the physics.  The reference is
    per-backend: each backend's lone session."""
    states, pot = _library(), _pot()
    jobs = [(k % 3, k) for k in range(6)]
    with SegmentScheduler(states, pot, nworkers=nworkers, nsteps=6,
                          seed=7, **engine_kwargs) as sched:
        futs = [sched.request(s, seed=k) for s, k in jobs]
        prints = [f.result().fingerprint for f in futs]
        assert sched.stats.segments_run == len(jobs)
    assert prints == _lone_prints(states, pot, jobs, **engine_kwargs)
