"""Batched ParSplice segment service over a pool of engine sessions.

The production shape of ParSplice/EXAALT is many small MD jobs and
heavy aggregate traffic: thousands of short, independently seeded
segments in flight against a fixed worker fleet.  One-shot engines
price every segment at a full construct/teardown (worker forks,
shared-memory blocks); this module serves segments from **persistent
engine sessions** instead, so the setup cost is paid ``nworkers`` times
per campaign rather than once per segment.

:class:`SegmentScheduler`
    The service core.  Holds ``nworkers`` long-lived worker processes,
    each owning one live :class:`~repro.md.engine.EngineSession`,
    multiplexes segment requests over them, and gives every
    request the idempotency contract of
    :func:`~repro.parsplice.segments.run_md_segment`: the same
    ``(state, seed)`` is the bitwise-identical segment, which makes
    resubmission after a worker death (or a duplicate request) safe.
    Completed segments land in a bounded LRU cache keyed by
    ``(state, seed)``; replays are served from it without touching an
    engine.  Completions are spliced *asynchronously but
    deterministically*: a reorder buffer releases segments to the
    :class:`~repro.parsplice.SpliceEngine` in request-submission order
    regardless of which session finishes first.  Engine failures are
    detected per segment, the dead session is replaced from the factory
    and the segment is rescheduled (bounded retries).

    It is also a segment generator: :meth:`SegmentScheduler.generate_batch`
    fans one scheduling quantum out over the pool, so
    :func:`repro.parsplice.run_parsplice` drives a real-MD campaign
    through the same loop as a Markov-model one.

Process model: one MD instance per Python process.  Every session lives
in its own worker process (``repro-segsvc-<slot>``) that holds the
template library, runs the whole of
:func:`~repro.parsplice.segments.run_md_segment` for a ``(state, seed)``
key received over a pipe and sends back the
:class:`~repro.parsplice.segments.MDSegment` (a few KB) with its session
counters - segments never share a GIL.  The workers are
:mod:`repro.parallel.workers` workers, like the engine's ranks (fork
preferred, so factories and classifiers need not pickle), and
non-daemonic, so a ``backend="process"`` session can fork its own ranks.
The parent runs no thread: :meth:`SegmentScheduler.request` starts a new
key on an idle worker or queues it (FIFO), and waiting on a returned
future pumps the dispatcher - one kit :func:`~repro.parallel.workers.wait`
over the busy workers' pipes and process sentinels.  A dead worker fires
its sentinel (ranks it forked may hold its pipe open); an exception
raised inside it is re-raised in the parent with the remote traceback
attached; both take the replace-and-reschedule path.
"""

from __future__ import annotations

import functools
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from ..core.rng import SeedStream
from ..md.engine import EngineSession
from ..parallel import workers
from .segments import MDSegment, run_md_segment
from .splicer import SpliceEngine

__all__ = ["SegmentScheduler", "ServiceStats"]

#: how a dying engine surfaces: poisoned state/NaNs (ValueError,
#: ArithmeticError), dead worker processes or torn shared memory
#: (OSError and subclasses, EOFError), and the engines' own lifecycle
#: errors (RuntimeError).  Programming errors (TypeError, KeyError, ...)
#: fail the segment's future - rescheduling cannot fix those.
_ENGINE_FAILURES = (RuntimeError, OSError, ValueError, EOFError,
                    ArithmeticError)

#: seconds a stopped segment worker gets to close its session - and the
#: ranks a process session forked - before it is terminated
_REAP_GRACE_S = 10.0


# ======================================================================
# segment worker processes
# ======================================================================
def _default_session(template, potential, engine_kwargs) -> EngineSession:
    return EngineSession.build(template.copy(), potential, **engine_kwargs)


class _SegmentServer:
    """What a segment worker runs: one session, one segment per request.

    Requests are ``(state, seed)`` keys; a reply is the segment and the
    session's counters.  An exception leaves the worker serving -
    whether it is replaced is the parent's decision.
    """

    def __init__(self, session_factory, states, segment_kwargs: dict) -> None:
        self.session = session_factory()
        self.states = states
        self.segment_kwargs = segment_kwargs
        self.hello = getattr(self.session, "backend",
                             type(self.session).__name__)

    def __call__(self, key):
        state, seed = key
        session = self.session
        segment = run_md_segment(session, self.states[state], state=state,
                                 seed=seed, **self.segment_kwargs)
        return segment, {
            "segments": session.segments, "binds": session.binds,
            "steps": session.steps, "md_wall_s": session.md_wall_s}

    def close(self) -> None:
        self.session.close()


class _SegmentFuture(Future):
    """A request's future; waiting on it runs the scheduler's dispatcher.

    Completed on the caller's thread, so done-callbacks fire there too.
    """

    def __init__(self, scheduler: "SegmentScheduler") -> None:
        super().__init__()
        self._scheduler = scheduler
        # a request cannot be withdrawn: its ticket holds the splice order
        self.set_running_or_notify_cancel()

    def result(self, timeout: float | None = None):
        self._scheduler._pump_until(self, timeout)
        return super().result(0)

    def exception(self, timeout: float | None = None):
        self._scheduler._pump_until(self, timeout)
        return super().exception(0)


@dataclass(eq=False)
class _Job:
    key: tuple
    ticket: int
    future: _SegmentFuture
    attempts: int = 0


@dataclass
class ServiceStats:
    """Scheduler counters."""

    #: request() calls (cache hits and joins included)
    requests: int = 0
    #: segments actually integrated on a session
    segments_run: int = 0
    #: requests served from the segment cache
    cache_hits: int = 0
    #: requests attached to an already in-flight identical segment
    joined_inflight: int = 0
    #: segment attempts rescheduled after a session failure
    reschedules: int = 0
    #: dead sessions replaced from the factory
    sessions_replaced: int = 0
    #: high-water mark of concurrently in-flight segments
    max_inflight_seen: int = 0
    #: physical time integrated [ps]
    generated_ps: float = 0.0
    #: wall seconds spent inside MD across all sessions
    md_wall_s: float = 0.0


class SegmentScheduler:
    """Multiplex batched segment requests over persistent session workers.

    Parameters
    ----------
    states:
        State library; state ``i`` starts segments from ``states[i]``
        (templates are copied at construction and never mutated).
    potential:
        Force field for the default session factory (ignored when
        ``session_factory`` is given).
    nworkers:
        Worker processes, one live engine session each (= maximum
        concurrently running segments).
    nsteps, dt, temperature, damp:
        Segment physics; one segment is ``nsteps`` Langevin steps.
    seed:
        Root entropy (or :class:`~repro.core.rng.SeedStream`) for the
        keyed per-segment streams.
    classifier:
        ``classifier(system, start_state) -> end_state`` hook mapping a
        segment's final configuration onto the library; default keeps
        the segment in its start state.  Runs inside the workers.
    cache_limit:
        Bounded LRU capacity of the ``(state, seed)`` segment cache.
    max_retries:
        Reschedule attempts per segment after session failures.
    session_factory:
        Zero-argument callable producing a fresh
        :class:`~repro.md.engine.EngineSession`; called inside each
        worker process as it starts, at construction and when a dead
        worker is replaced.  Default builds
        ``build_engine(states[0], potential, **engine_kwargs)``.
    """

    def __init__(self, states, potential=None, *, nworkers: int = 2,
                 nsteps: int = 100, dt: float = 1.0e-3,
                 temperature: float = 300.0, damp: float = 0.1,
                 seed: int | SeedStream = 0, initial_state: int = 0,
                 classifier=None, cache_limit: int = 4096,
                 max_retries: int = 2, session_factory=None,
                 **engine_kwargs) -> None:
        if nworkers < 1:
            raise ValueError("nworkers must be positive")
        if nsteps < 1:
            raise ValueError("nsteps must be positive")
        if cache_limit < 0:
            raise ValueError("cache_limit must be non-negative")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.states = [s.copy() for s in states]
        if not self.states:
            raise ValueError("the state library must hold at least one state")
        if session_factory is None:
            if potential is None:
                raise ValueError(
                    "potential is required without a session_factory")
            session_factory = functools.partial(
                _default_session, self.states[0], potential, engine_kwargs)

        self.nworkers = int(nworkers)
        self.nsteps = int(nsteps)
        self.dt = float(dt)
        self.temperature = float(temperature)
        self.damp = float(damp)
        self.classifier = classifier
        self.stream = seed if isinstance(seed, SeedStream) else SeedStream(seed)
        self.stats = ServiceStats()
        self.splicer = SpliceEngine(initial_state=int(initial_state))
        self.max_retries = int(max_retries)
        self.cache_limit = int(cache_limit)

        self._worker_args = (session_factory, self.states, dict(
            stream=self.stream, nsteps=self.nsteps, dt=self.dt,
            temperature=self.temperature, damp=self.damp,
            classifier=classifier))
        #: one kit worker per slot; ``None`` once a replacement failed
        self._workers: list = [None] * self.nworkers
        #: per-slot session counters, as last relayed by its worker
        self._counters: list = [None] * self.nworkers
        self._finalizer = workers.finalizer(self, workers.reap,
                                            self._workers, _REAP_GRACE_S)
        try:
            for slot in range(self.nworkers):
                self._spawn_worker(slot)
        except BaseException:
            self._finalizer()
            raise
        #: the job each slot is running, ``None`` when idle
        self._running: list = [None] * self.nworkers
        self._queue: deque = deque()
        self._lost: Exception | None = None
        self._cache: OrderedDict = OrderedDict()
        self._inflight: dict = {}
        self._next_seed: dict = {}
        self._tickets = 0
        self._next_splice = 0
        self._reorder: dict = {}
        self._closed = False

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    @property
    def nstates(self) -> int:
        return len(self.states)

    @property
    def t_segment(self) -> float:
        """Physical duration of one segment [ps]."""
        return self.nsteps * self.dt

    def request(self, state: int, seed: int | None = None) -> Future:
        """Schedule one segment; returns a future of :class:`MDSegment`.

        ``seed=None`` draws the state's next sequential segment seed;
        an explicit seed makes the request idempotent - a cached or
        in-flight identical segment is returned instead of rerunning.
        A new segment starts on an idle worker before this returns, or
        waits in a FIFO queue for the next free one.
        """
        state = int(state)
        if not 0 <= state < len(self.states):
            raise ValueError(f"state {state} outside the library "
                             f"[0, {len(self.states)})")
        if self._closed:
            raise RuntimeError("SegmentScheduler is closed")
        if seed is None:
            seed = self._next_seed.get(state, 0)
            self._next_seed[state] = seed + 1
        key = (state, int(seed))
        self.stats.requests += 1
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.stats.cache_hits += 1
            fut: Future = Future()
            fut.set_result(cached)
            return fut
        fut = self._inflight.get(key)
        if fut is not None:
            self.stats.joined_inflight += 1
            return fut
        fut = self._inflight[key] = _SegmentFuture(self)
        self.stats.max_inflight_seen = max(self.stats.max_inflight_seen,
                                           len(self._inflight))
        self._queue.append(_Job(key, self._tickets, fut))
        self._tickets += 1
        self._dispatch()
        return fut

    def request_batch(self, alloc) -> list[Future]:
        """Schedule a quantum: ``alloc[state]`` segments per state.

        ``alloc`` is a per-state count array (the shape
        :meth:`TransitionOracle.allocate` emits) or a ``{state: count}``
        mapping.  Returns the futures in submission order.
        """
        if isinstance(alloc, dict):
            items = sorted(alloc.items())
        else:
            counts = np.asarray(alloc, dtype=int)
            items = [(s, int(c)) for s, c in enumerate(counts) if c > 0]
        futures = []
        for state, count in items:
            for _ in range(int(count)):
                futures.append(self.request(int(state)))
        return futures

    @staticmethod
    def gather(futures) -> list[MDSegment]:
        """Wait on a batch; returns the segments in request order."""
        return [f.result() for f in futures]

    def generate_batch(self, starts) -> list[MDSegment]:
        """One scheduling quantum: a segment per start state, run across
        the pool and returned in request order (the generator protocol of
        :func:`repro.parsplice.run_parsplice`)."""
        return self.gather([self.request(s) for s in starts])

    # ------------------------------------------------------------------
    # dispatcher (runs on the caller's thread; the MD runs in the workers)
    # ------------------------------------------------------------------
    def _spawn_worker(self, slot: int) -> None:
        """Start the slot's worker and wait for its session (the first
        reply names its backend); a failed start leaves no process."""
        worker = workers.Worker(f"repro-segsvc-{slot}", _SegmentServer,
                                *self._worker_args, daemon=False)
        try:
            workers.wait([worker])
            backend = worker.reply()
        except BaseException:
            workers.reap([worker], _REAP_GRACE_S)
            raise
        self._workers[slot] = worker
        self._counters[slot] = {"backend": backend, "pid": worker.proc.pid,
                                "segments": 0, "binds": 0, "steps": 0,
                                "md_wall_s": 0.0}

    def _dispatch(self) -> None:
        """Start queued jobs on idle workers, oldest first."""
        while self._queue:
            slot = next((slot for slot, worker in enumerate(self._workers)
                         if worker is not None
                         and self._running[slot] is None), None)
            if slot is None:
                break
            job = self._running[slot] = self._queue.popleft()
            # a worker that died while idle drops the key: the next
            # pump sees its death and reschedules the job
            self._workers[slot].send(job.key)
        while self._queue and not any(self._workers):
            err = RuntimeError("no segment worker left")
            err.__cause__ = self._lost  # the last failed replacement
            self._settle(self._queue.popleft(), error=err)

    def _pump(self, timeout: float | None = None) -> None:
        """Wait once on the busy workers; settle every reply or death."""
        busy = {worker: slot for slot, worker in enumerate(self._workers)
                if self._running[slot] is not None}
        if not busy:
            raise RuntimeError("no segment is in flight to wait on")
        for worker in workers.wait(busy, timeout):
            slot = busy[worker]
            if self._workers[slot] is not worker:
                # a killed worker readies its pipe and its sentinel at
                # once: the first one replaced it already
                continue
            job = self._running[slot]
            try:
                segment, counters = worker.reply()
            except _ENGINE_FAILURES as err:  # session died mid-segment
                self._failed(slot, err)
            except Exception as err:  # programming error: no retry
                self._running[slot] = None
                self._settle(job, error=err)
            else:
                self._counters[slot].update(counters)
                self._running[slot] = None
                self._settle(job, segment)
            self._dispatch()

    def _pump_until(self, future: Future, timeout: float | None) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not future.done():
            left = None if deadline is None else deadline - time.monotonic()
            if left is not None and left <= 0:
                return
            self._pump(left)

    def _failed(self, slot: int, err: Exception) -> None:
        """Replace a failed worker; its job goes back to the head of the
        queue, or fails after ``max_retries``.  A failing factory loses
        the slot and fails the job with the factory's error."""
        job, self._running[slot] = self._running[slot], None
        workers.reap([self._workers[slot]], _REAP_GRACE_S)
        try:
            self._spawn_worker(slot)
        except Exception as spawn_err:
            self._workers[slot] = None
            self._lost = spawn_err
            if job is not None:
                self._settle(job, error=spawn_err)
            return
        self.stats.sessions_replaced += 1
        if job is None:
            return
        if job.attempts < self.max_retries:
            job.attempts += 1
            self.stats.reschedules += 1
            self._queue.appendleft(job)
            return
        error = RuntimeError(f"segment {job.key} failed after "
                             f"{self.max_retries + 1} attempts")
        error.__cause__ = err
        self._settle(job, error=error)

    def _settle(self, job: _Job, segment: MDSegment | None = None,
                error: Exception | None = None) -> None:
        """Resolve a job: its ticket, then the splice, then its future.

        Sessions finish in wall-clock order, but the official trajectory
        must not depend on which worker was faster: the reorder buffer
        holds finished segments until every earlier ticket has resolved
        (an abandoned one as ``None``), so the splice sequence is a pure
        function of the request sequence.
        """
        self._inflight.pop(job.key, None)
        if segment is not None:
            if self.cache_limit:
                self._cache[job.key] = segment
                while len(self._cache) > self.cache_limit:
                    self._cache.popitem(last=False)
            self.stats.segments_run += 1
            self.stats.generated_ps += segment.duration
            self.stats.md_wall_s += segment.wall_s
        self._reorder[job.ticket] = segment
        while self._next_splice in self._reorder:
            done = self._reorder.pop(self._next_splice)
            self._next_splice += 1
            if done is not None:
                self.splicer.deposit(done)
        if error is None:
            job.future.set_result(segment)
        else:
            job.future.set_exception(error)

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def trajectory_ps(self) -> float:
        return self.splicer.trajectory_time

    @property
    def current_state(self) -> int:
        return self.splicer.current_state

    def session_stats(self) -> list[dict]:
        """Per-session counters as last relayed by each live worker:
        backend, pid, segments, binds, steps, MD wall seconds."""
        return [dict(counters) for worker, counters
                in zip(self._workers, self._counters) if worker is not None]

    def summary(self) -> dict:
        return {
            "nworkers": self.nworkers,
            "nstates": self.nstates,
            "t_segment_ps": self.t_segment,
            "trajectory_ps": self.splicer.trajectory_time,
            "n_spliced": self.splicer.n_spliced,
            "n_transitions": self.splicer.n_transitions,
            "stored_segments": self.splicer.stored_segments,
            "requests": self.stats.requests,
            "segments_run": self.stats.segments_run,
            "cache_hits": self.stats.cache_hits,
            "joined_inflight": self.stats.joined_inflight,
            "reschedules": self.stats.reschedules,
            "sessions_replaced": self.stats.sessions_replaced,
            "generated_ps": self.stats.generated_ps,
            "md_wall_s": self.stats.md_wall_s,
        }

    def close(self) -> None:
        """Finish every requested segment, stop every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            while any(job is not None for job in self._running):
                self._pump()
        finally:
            self._finalizer()

    def __enter__(self) -> "SegmentScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
