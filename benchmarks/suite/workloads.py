"""The four workloads: inputs from the seed, set-up, timed window, checks.

Each row drives the public API only (``build_engine``, ``MDLoop``,
``SegmentScheduler``) through ``adapters``.  A row's life, as
``worker.py`` walks it::

    generate()   inputs from --seed           (not part of setup_s)
    setup()      potential, engine, loop, first evaluation + warm-up
    measure()    the timed window             (closed loop, one driver)
    finish()     release workers, read peak RSS
    check()      output checks
    replay()     --trace only: layer replay on the warmed-up state

Why these four: see README.md ("Why each workload exists").
"""

from __future__ import annotations

import math
import resource
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import adapters as repo
import layers
from measure import (HostSpeed, Spans, StepClock, WindowDone, median, rss_mb,
                     sha256_arrays, tail)

# ----------------------------------------------------------------------
# problem constants (the TestSNAP shape: 26 neighbours at 2J=8)
# ----------------------------------------------------------------------
DENSITY = 0.1
NEIGHBORS = 26
RCUT = (NEIGHBORS / (4.0 / 3.0 * math.pi * DENSITY)) ** (1.0 / 3.0)
DT = 1.0e-3            # ps
TEMPERATURE = 300.0    # K
LJ_PARAMS = {"epsilon": 0.1, "sigma": 2.0, "cutoff": RCUT}
#: beta = BETA_SCALE x N(0,1).  At scale 1 the random potential forces a
#: neighbour rebuild on every step; at 1e-3 the cadence is one rebuild
#: per ~8 steps, which is what production MD looks like.
BETA_SCALE = 1.0e-3
#: |E(end) - E(start)| allowed on the NVE rows, as a share of the final
#: kinetic energy.  The packed start relaxes, and the integrator's error
#: is under 1e-3 of the kinetic energy gained on every seed and window
#: length tried (3-120 steps), so it stays under 1e-3 of the total; the
#: gain itself varies 30-fold between seeds and is not linear in steps,
#: which is why the bound is not in eV per step
NVE_DRIFT_BOUND = 5.0e-3
NET_FORCE_BOUND = 1.0e-10
#: ParSplice request shape
SEGMENTS_PER_QUANTUM = 4
REPLAY_KEYS = 90
SPLICE_DIGEST_SEGMENTS = 32

# seed-derivation keys: one child stream per consumer
K_STRUCTURE, K_VELOCITY, K_BETA, K_THERMOSTAT, K_SCHEDULER, K_TEMPLATES, \
    K_PROBE = range(7)


def child_rng(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng([seed, key])


def child_int(seed: int, key: int) -> int:
    return int(np.random.SeedSequence([seed, key]).generate_state(1)[0])


@dataclass(frozen=True)
class Shape:
    """Problem sizes; ``QUICK`` is the smoke-test shape."""

    natoms: int
    twojmax: int
    segment_steps: int
    #: step / quantum budget of a window (None: run until --seconds)
    max_steps: int | None
    max_quanta: int | None
    checkpoint_every: int
    reps: int | None


FULL = Shape(natoms=2000, twojmax=8, segment_steps=50, max_steps=None,
             max_quanta=None, checkpoint_every=50, reps=None)
QUICK = Shape(natoms=128, twojmax=4, segment_steps=10, max_steps=5,
              max_quanta=2, checkpoint_every=4, reps=2)
#: shape of the mini campaign that measures ``parsplice.*`` on MD rows
PROBE_CAMPAIGN = Shape(natoms=0, twojmax=0, segment_steps=20, max_steps=None,
                       max_quanta=2, checkpoint_every=0, reps=2)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def packed_system(natoms: int, seed: int):
    """``random_packed`` seed cell of natoms/8, replicated 2x2x2.

    ``random_packed`` is O(N^2) (2.1 s at 2000 atoms, 8.3 s at 4000);
    packing an eighth and replicating keeps the neighbour statistics
    (the paper built its samples the same way) at a cost that fits the
    run budget.  Returns ``(system, cell, seconds in random_packed)``.
    """
    t0 = time.perf_counter()
    cell = repo.random_packed(natoms // 8, density=DENSITY,
                              seed=child_int(seed, K_STRUCTURE))
    packed_s = time.perf_counter() - t0
    system = repo.replicate(cell, 2, 2, 2)
    system.seed_velocities(TEMPERATURE, rng=child_rng(seed, K_VELOCITY))
    return system, cell, packed_s


def small_templates(seed: int, nstates: int = 3) -> list:
    """Jittered 64-atom simple-cubic LJ states.  The 8.6 A box is under
    2 x (rcut + skin), so the neighbour layer takes its image-sweep path."""
    spacing = (1.0 / DENSITY) ** (1.0 / 3.0)
    base = repo.lattice_system("sc", a=spacing, reps=(4, 4, 4))
    rng = child_rng(seed, K_TEMPLATES)
    states = []
    for _ in range(nstates):
        state = base.copy()
        state.positions = state.positions + rng.normal(
            scale=0.05, size=state.positions.shape)
        states.append(state)
    return states


def snap_beta(twojmax: int, seed: int) -> np.ndarray:
    ncoeff = repo.SNAPIndex(twojmax).ncoeff
    return BETA_SCALE * child_rng(seed, K_BETA).normal(size=ncoeff)


def hop_classifier(system, start: int) -> int:
    """Benchmark-owned end-state rule: a pure function of the final
    configuration (so segments stay idempotent) that hops to the next
    state about one time in five, which gives the oracle something to
    predict and leaves unspliced segments in the store."""
    word = int(np.ascontiguousarray(system.positions).view(np.uint64).sum()
               % np.uint64(5))
    return (start + 1) % 3 if word == 0 else start


def net_force_ratio(forces: np.ndarray) -> float:
    return float(np.abs(forces.sum(axis=0)).max() / np.abs(forces).sum())


# ----------------------------------------------------------------------
# MD rows
# ----------------------------------------------------------------------
class Row:
    """What every workload carries: its seed, shape, scratch directory,
    span recorder and the check / digest ledger the worker prints."""

    def __init__(self, seed: int, shape: Shape, workdir: Path,
                 spans: Spans | None) -> None:
        self.seed = seed
        self.shape = shape
        self.workdir = workdir
        self.spans = spans
        #: host-speed sampler of the timed window
        self.host = HostSpeed()
        self.checks: list[tuple[str, bool, str]] = []
        self.failed = 0
        self.digests: dict[str, str] = {}
        #: the window's rates as the clock read them, before scaling to
        #: the reference host speed
        self.raw: dict[str, float] = {}

    def end_to_end(self, atom_steps_per_s: float,
                   traj_ns_per_day: float) -> dict:
        """Record the raw rates; return the normalised metric."""
        self.raw = {"atom_steps_per_s": atom_steps_per_s,
                    "traj_ns_per_day": traj_ns_per_day,
                    "host_gflops": self.host.gflops}
        return {"atom_steps_per_s_norm":
                self.host.to_reference(atom_steps_per_s)}

    def note(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))


class MDRow(Row):
    """One long ``MDLoop`` run on one engine."""

    name = ""
    kind = ""                 # "snap" | "lj": the row's own potential
    engine_kwargs: dict = {"backend": "serial"}
    natoms_factor = 1
    warm_steps = 0
    trace_block = 1           # steps per traced / untraced block
    thermostatted = False
    #: per-step call frequency of the optional layers (ledger weights)
    cadence: dict = {}

    def __init__(self, seed: int, shape: Shape, workdir: Path,
                 spans: Spans | None) -> None:
        super().__init__(seed, shape, workdir, spans)
        self.natoms = shape.natoms * self.natoms_factor

    # -- life cycle ----------------------------------------------------
    def generate(self) -> float:
        self.system, self.cell, packed_s = packed_system(self.natoms,
                                                         self.seed)
        self.system0 = self.system.copy()
        self.packed_s = packed_s
        return packed_s

    def make_potential(self):
        raise NotImplementedError

    def loop_kwargs(self) -> dict:
        return {}

    def setup(self) -> None:
        t0 = time.perf_counter()
        self.pot = self.make_potential()
        self.init_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        self.engine = repo.build_engine(self.system, self.pot,
                                        **self.engine_kwargs)
        self.build_s = time.perf_counter() - t0
        self.clock = StepClock(self.host, self.spans, self.trace_block,
                               digest_step=self.warm_steps + 4)
        kwargs = self.loop_kwargs()
        observers = [self.clock] + kwargs.pop("observers", [])
        self.loop = repo.MDLoop(self.engine, dt=DT, observers=observers,
                                **kwargs)
        self.loop.run(self.warm_steps)
        self.warm_forces = np.array(self.loop.last_result.forces)
        self.energy0 = self.total_energy()

    def total_energy(self) -> float:
        return self.loop.last_result.energy + self.system.kinetic_energy()

    def measure(self, seconds: float) -> dict:
        loop, clock = self.loop, self.clock
        builds0 = self.engine.neighbor_builds
        self.host.reset()
        if self.spans is not None:
            clock.window_span = self.spans.add(
                "window", time.perf_counter(), math.nan)
        clock.arm(None if self.shape.max_steps else seconds,
                  self.shape.max_steps, loop.step)
        try:
            # the clock ends the window by raising at a step boundary:
            # MDLoop.run has no time budget, and run(1) in a loop would
            # pay an extra force evaluation at every call
            loop.run(10 ** 9)
        except WindowDone:
            pass
        if self.spans is not None:
            self.spans.rows[clock.window_span]["end"] = clock.stamps[-1]
        if loop.trajectory is not None:
            loop.trajectory.flush()
        intervals = clock.intervals
        self.steps = len(intervals)
        self.wall_s = float(intervals.sum())
        self.rebuild_frac = (self.engine.neighbor_builds - builds0) \
            / self.steps
        self.failed += clock.nonfinite
        self.final_forces = self.conservative_forces()
        self.digests["state_sha256@step%d" % clock.digest_step] = \
            clock.digest or "not reached"
        self.digests["warm_forces_sha256"] = sha256_arrays(self.warm_forces)
        return self.end_to_end(
            self.natoms * self.steps / self.wall_s,
            self.steps * DT * 1e-3 / self.wall_s * 86400.0)

    @property
    def attempted(self) -> int:
        return self.steps

    def conservative_forces(self) -> np.ndarray:
        return np.array(self.loop.last_result.forces)

    def finish(self) -> float:
        """Release the engine and return peak RSS [MiB]."""
        self.engine.close()
        return rss_mb()

    def close(self) -> None:
        self.engine.close()

    # -- checks --------------------------------------------------------
    def check(self) -> None:
        self.note("finite_energy", self.clock.nonfinite == 0,
                  f"{self.clock.nonfinite} non-finite of {self.steps} steps")
        ratio = net_force_ratio(self.final_forces)
        self.note("net_force", ratio < NET_FORCE_BOUND,
                  f"|sum F|/sum|F| = {ratio:.3g} (bound {NET_FORCE_BOUND:g})")

    def check_nve_drift(self) -> None:
        nsteps = self.loop.step - self.warm_steps
        drift = abs(self.total_energy() - self.energy0) \
            / self.system.kinetic_energy()
        self.note("nve_drift", drift < NVE_DRIFT_BOUND,
                  f"|dE| = {drift:.3g} of the kinetic energy after "
                  f"{nsteps} steps (bound {NVE_DRIFT_BOUND:g})")

    # -- trace ---------------------------------------------------------
    def replay_loop(self):
        return self.loop

    def window_layers(self) -> dict:
        intervals = 1e3 * self.clock.intervals
        traced = np.asarray(self.clock.traced)
        value, level, count = tail(intervals)
        print(f"# md.engine.step_ms_tail is p{100 * level:.1f} of {count} "
              "step samples")
        overhead = 0.0
        if traced.any() and not traced.all():
            overhead = median(intervals[traced]) \
                / median(intervals[~traced]) - 1.0
        return {"md.engine.step_ms_p50": median(intervals),
                "md.engine.step_ms_tail": value,
                "md.engine.step_ms_max": float(intervals.max()),
                "md.neighbor.rebuild_frac": self.rebuild_frac,
                "trace.overhead_frac": overhead}

    @property
    def mean_step_ms(self) -> float:
        return 1e3 * float(self.clock.intervals.mean())


class SnapRow(MDRow):
    name = "snap2j8_serial"
    kind = "snap"

    def make_potential(self):
        return repo.snap_potential(self.shape.twojmax, RCUT,
                                   snap_beta(self.shape.twojmax, self.seed))

    def check(self) -> None:
        super().check()
        self.check_nve_drift()


class SnapProcRow(SnapRow):
    """The same system, seeds and dt on two worker processes."""

    name = "snap2j8_proc2"
    engine_kwargs = {"backend": "process", "nprocs": 2}

    def finish(self) -> float:
        self.engine.close()
        workers = rss_mb(resource.RUSAGE_CHILDREN)
        own = rss_mb()
        print(f"# peak_rss_mb (computed) = {own:.1f} own + 2 x "
              f"{workers:.1f} largest worker")
        return own + 2 * workers

    def check(self) -> None:
        super().check()
        # the bitwise backend contract, against a serial engine built
        # here on the same initial state (runs after RSS is read, so the
        # reference evaluation does not count against this row's memory)
        with repo.build_engine(self.system0.copy(), self.pot,
                               backend="serial") as reference:
            expected = reference.evaluate().forces
        self.note("forces_bitwise_vs_serial",
                  np.array_equal(expected, self.warm_forces),
                  "first-evaluation forces, ProcessEngine(2) vs SerialEngine")


class FrameKeeper:
    """Keeps the state at the latest trajectory cadence step, for the
    read-back check."""

    def __init__(self, every: int) -> None:
        self.every = every
        self.step = -1

    def observe(self, step, system, result) -> None:
        self.step = step
        self.positions = system.positions.copy()
        self.velocities = system.velocities.copy()


class LjRow(MDRow):
    """4000-atom LJ, Langevin NVT, frames, checkpoints, observers."""

    name = "lj4k_nvt_io"
    kind = "lj"
    natoms_factor = 2
    warm_steps = 3            # off every cadence, so no frame is doubled
    trace_block = 10
    thermostatted = True
    traj_every = 5
    rdf_every = 25
    thermo_every = 10

    def make_potential(self):
        return repo.LennardJones(**LJ_PARAMS)

    def thermostat(self):
        return repo.LangevinThermostat(
            temp=TEMPERATURE, damp=0.1,
            seed=child_int(self.seed, K_THERMOSTAT))

    def observers(self) -> list:
        return [repo.RDFObserver(rmax=RCUT, every=self.rdf_every),
                repo.ThermoObserver(every=self.thermo_every)]

    def loop_kwargs(self) -> dict:
        self.traj_path = self.workdir / "run.traj"
        self.ckpt_path = self.workdir / "run-checkpoint"
        self.writer = repo.AsyncTrajectoryWriter(self.traj_path,
                                                 natoms=self.natoms)
        self.keeper = FrameKeeper(self.traj_every)
        self.cadence = {"traj": self.traj_every, "rdf": self.rdf_every,
                        "thermo": self.thermo_every,
                        "checkpoint": self.shape.checkpoint_every}
        return {"thermostat": self.thermostat(), "trajectory": self.writer,
                "trajectory_every": self.traj_every,
                "trajectory_velocities": True,
                "checkpoint_every": self.shape.checkpoint_every,
                "checkpoint_path": self.ckpt_path,
                "observers": self.observers() + [self.keeper]}

    def conservative_forces(self) -> np.ndarray:
        # the loop's last result carries the thermostat's kicks
        return self.engine.evaluate().forces

    def check(self) -> None:
        super().check()
        # the clock ended the window before step ``end`` emitted its
        # frame / checkpoint, so the last emitting step is end - 1
        end = self.loop.step
        last_emit = end - 1
        scan = repo.scan_trajectory(self.traj_path)
        expected = last_emit // self.traj_every + 1
        self.note("trajectory_scan",
                  scan.nframes == expected and not scan.truncated,
                  f"{scan.nframes} frames (expected {expected}), "
                  f"truncated={scan.truncated}")
        with repo.TrajectoryReader(self.traj_path) as reader:
            frame = reader.read(-1)
        self.note("last_frame_bitwise",
                  frame.step == self.keeper.step
                  and np.array_equal(frame.positions, self.keeper.positions)
                  and np.array_equal(frame.velocities,
                                     self.keeper.velocities),
                  f"frame at step {frame.step} vs state kept at step "
                  f"{self.keeper.step}")
        every = self.shape.checkpoint_every
        ckpt_step = every * (last_emit // every)
        if ckpt_step == 0:
            self.note("restart_bitwise", False,
                      f"window ended at step {end}, before the first "
                      f"checkpoint (every {every})")
            return
        resumed_path = self.workdir / "resumed.traj"
        shutil.copyfile(self.traj_path, resumed_path)
        with repo.AsyncTrajectoryWriter(resumed_path, mode="a") as writer, \
                repo.build_engine(self.system0.copy(), self.pot,
                                  backend="serial") as engine:
            resumed = repo.MDLoop(
                engine, dt=DT, thermostat=self.thermostat(),
                trajectory=writer, trajectory_every=self.traj_every,
                trajectory_velocities=True)
            restored = resumed.restore(self.ckpt_path)
            resumed.run(end - restored)
            same_state = np.array_equal(engine.system.positions,
                                        self.system.positions) \
                and np.array_equal(engine.system.velocities,
                                   self.system.velocities)
        original = self.traj_path.read_bytes()
        same_bytes = resumed_path.read_bytes()[:len(original)] == original
        self.note("restart_bitwise",
                  restored == ckpt_step and same_state and same_bytes,
                  f"restore at step {restored}, re-run to {end}: "
                  f"state equal={same_state}, trajectory bytes "
                  f"equal={same_bytes}")

    def close(self) -> None:
        self.writer.close()
        super().close()


# ----------------------------------------------------------------------
# ParSplice row
# ----------------------------------------------------------------------
class ParspliceRow(Row):
    """Many short bind+run sessions: oracle-driven quanta, then a replay
    of the first keys that must all be cache hits."""

    name = "parsplice_lj64"
    kind = "lj"
    nworkers = 2
    thermostatted = True
    cadence: dict = {}

    def __init__(self, seed: int, shape: Shape, workdir: Path,
                 spans: Spans | None) -> None:
        super().__init__(seed, shape, workdir, spans)
        self.segments: list = []

    def generate(self) -> float:
        self.templates = small_templates(self.seed)
        self.natoms = self.templates[0].natoms
        self.packed_s = 0.0
        if self.spans is not None and self.shape.natoms:
            # cell-path probe for the layers this row never runs
            _, self.cell, self.packed_s = packed_system(
                2 * self.shape.natoms, child_int(self.seed, K_PROBE))
        return self.packed_s

    def setup(self) -> None:
        self.pot = repo.LennardJones(**LJ_PARAMS)
        self.scheduler = repo.SegmentScheduler(
            self.templates, self.pot, nworkers=self.nworkers,
            nsteps=self.shape.segment_steps, dt=DT, temperature=TEMPERATURE,
            seed=child_int(self.seed, K_SCHEDULER),
            classifier=hop_classifier)
        self.oracle = repo.TransitionOracle(len(self.templates))
        self.quantum(traced=False)

    def quantum(self, traced: bool, parent: int | None = None) -> float:
        """One scheduling quantum; returns its wall seconds."""
        sched = self.scheduler
        alloc = self.oracle.allocate(sched.current_state,
                                     SEGMENTS_PER_QUANTUM, horizon=4)
        t0 = time.perf_counter()
        futures = sched.request_batch(alloc)
        if traced:
            for future in futures:
                future.add_done_callback(
                    lambda done, t0=t0: self.done_stamps.append(
                        (t0, time.perf_counter(), done)))
        for future in futures:
            try:
                segment = future.result()
            except RuntimeError:   # out of retries: counted, not hidden
                self.failed += 1
                continue
            self.oracle.observe(segment.start_state, segment.end_state)
            self.segments.append(segment)
        t1 = time.perf_counter()
        if traced:
            self.spans.add("parsplice.quantum", t0, t1, parent)
        return t1 - t0

    def measure(self, seconds: float) -> dict:
        sched = self.scheduler
        before = sched.summary()
        first = len(self.segments)
        self.done_stamps: list[tuple] = []
        self.quantum_s: dict[bool, list[float]] = {False: [], True: []}
        window = None if self.spans is None else self.spans.add(
            "window", time.perf_counter(), math.nan)
        self.host.reset()
        t0 = time.perf_counter()
        quanta = 0
        sampling_s = 0.0
        while True:
            traced = self.spans is not None and quanta % 2 == 1
            self.quantum_s[traced].append(self.quantum(traced, window))
            quanta += 1
            sampling_s += self.host.sample_if_due()
            if self.shape.max_quanta:
                if quanta >= self.shape.max_quanta:
                    break
            elif time.perf_counter() - t0 >= seconds:
                break
        end = time.perf_counter()
        self.wall_s = end - t0 - sampling_s
        if window is not None:
            self.spans.rows[window]["end"] = end
        after = sched.summary()
        self.window = self.segments[first:]
        self.requested = quanta * SEGMENTS_PER_QUANTUM
        self.ran = after["segments_run"] - before["segments_run"]
        self.md_wall_s = after["md_wall_s"] - before["md_wall_s"]
        spliced_ps = after["trajectory_ps"] - before["trajectory_ps"]
        self.spliced_frac = after["n_spliced"] / after["segments_run"]
        nsteps = self.shape.segment_steps
        self.step_samples = [1e3 * s.wall_s / nsteps for s in self.window]
        return self.end_to_end(
            self.natoms * nsteps * self.ran / self.wall_s,
            spliced_ps * 1e-3 / self.wall_s * 86400.0)

    @property
    def attempted(self) -> int:
        return self.requested

    def finish(self) -> float:
        return rss_mb()

    def check(self) -> None:
        sched = self.scheduler
        summary = sched.summary()
        expected_ps = summary["n_spliced"] * sched.t_segment
        self.note("spliced_time",
                  math.isclose(summary["trajectory_ps"], expected_ps,
                               rel_tol=1e-9),
                  f"{summary['trajectory_ps']:.6g} ps spliced, "
                  f"{summary['n_spliced']} x {sched.t_segment:g} ps")
        # replay phase: the first keys again, all served from the cache
        keys = self.segments[:REPLAY_KEYS]
        hits0 = sched.stats.cache_hits
        self.hit_s = []
        replayed = []
        for segment in keys:
            t0 = time.perf_counter()
            replayed.append(sched.request(segment.state,
                                          segment.seed).result())
            self.hit_s.append(time.perf_counter() - t0)
        self.hit_rate = (sched.stats.cache_hits - hits0) / len(keys)
        same = all(a.fingerprint == b.fingerprint
                   for a, b in zip(keys, replayed))
        self.note("replay_idempotent", same and self.hit_rate == 1.0,
                  f"{len(keys)} keys replayed, fingerprints equal={same}, "
                  f"cache hit rate {self.hit_rate:g}")
        self.reschedules = sched.stats.reschedules
        self.note("no_reschedules", self.reschedules == 0,
                  f"{self.reschedules} reschedules")
        head = self.segments[:SPLICE_DIGEST_SEGMENTS]
        self.digests["splice_sha256@%d" % len(head)] = sha256_arrays(
            np.array([(s.state, s.seed, s.end_state) for s in head]),
            np.frombuffer("".join(s.fingerprint for s in head).encode(),
                          dtype=np.uint8))

    def close(self) -> None:
        self.scheduler.close()

    # -- trace ---------------------------------------------------------
    def parsplice_layers(self) -> dict:
        """``parsplice.*`` from the campaign's traced quanta and the
        replay phase (call after :meth:`check`)."""
        done = [(1e3 * (at - sent), 1e3 * future.result().wall_s)
                for sent, at, future in self.done_stamps
                if future.exception() is None]
        latency = [ms for ms, _ in done]
        value, level, count = tail(latency)
        print(f"# parsplice.segment_ms_tail is p{100 * level:.1f} of "
              f"{count} segment samples")
        return {
            "parsplice.segments_per_s": self.ran / self.wall_s,
            "parsplice.segment_ms_p50": median(latency),
            "parsplice.segment_ms_tail": value,
            "parsplice.queue_wait_ms_p50":
                median(ms - run_ms for ms, run_ms in done),
            "parsplice.session_util":
                self.md_wall_s / (self.nworkers * self.wall_s),
            "parsplice.step_ms": self.mean_step_ms,
            "parsplice.spliced_frac": self.spliced_frac,
            "parsplice.spliced_ns_per_s":
                self.raw["traj_ns_per_day"] / 86400.0,
            "parsplice.cache_hit_ms_p50": 1e3 * median(self.hit_s),
            "parsplice.cache_hit_rate": self.hit_rate,
            "parsplice.reschedules": float(self.reschedules),
        }

    def replay_loop(self):
        """A serial loop on template 0: the per-step work of a segment,
        without the scheduler around it."""
        system = self.templates[0].copy()
        system.seed_velocities(TEMPERATURE,
                               rng=child_rng(self.seed, K_VELOCITY))
        self.system = system
        engine = repo.build_engine(system, self.pot, backend="serial")
        loop = repo.MDLoop(engine, dt=DT,
                           thermostat=repo.LangevinThermostat(
                               temp=TEMPERATURE, damp=0.1,
                               seed=child_int(self.seed, K_THERMOSTAT)))
        nsteps = self.shape.segment_steps
        loop.run(nsteps)
        self.rebuild_frac = engine.neighbor_builds / (nsteps + 1)
        return loop

    def window_layers(self) -> dict:
        value, level, count = tail(self.step_samples)
        print(f"# md.engine.step_ms_tail is p{100 * level:.1f} of {count} "
              "per-segment mean step samples")
        overhead = 0.0
        if self.quantum_s[True] and self.quantum_s[False]:
            overhead = median(self.quantum_s[True]) \
                / median(self.quantum_s[False]) - 1.0
        return {"md.engine.step_ms_p50": median(self.step_samples),
                "md.engine.step_ms_tail": value,
                "md.engine.step_ms_max": max(self.step_samples),
                "md.neighbor.rebuild_frac": self.rebuild_frac,
                "trace.overhead_frac": overhead}

    @property
    def mean_step_ms(self) -> float:
        """MD wall per step inside the window's segments."""
        return 1e3 * self.md_wall_s / (self.ran * self.shape.segment_steps)


ROWS = {row.name: row for row in (SnapRow, SnapProcRow, LjRow, ParspliceRow)}


# ----------------------------------------------------------------------
# layer replay (--trace 1)
# ----------------------------------------------------------------------
def parsplice_probe(seed: int, workdir: Path, spans: Spans) -> dict:
    """``parsplice.*`` on an MD row: a two-quantum campaign on the
    64-atom templates."""
    row = ParspliceRow(seed, PROBE_CAMPAIGN, workdir, spans)
    row.generate()
    row.setup()
    try:
        row.measure(seconds=0.0)
        row.check()
        return row.parsplice_layers()
    finally:
        row.close()


def replay(row, gemm_gflops: float) -> dict:
    """Per-layer metrics of one row (see ``layers`` for each group).

    On-path layers are replayed on the row's own warmed-up state; layers
    the row never runs get a small probe so their number is still a
    measurement (README: "Reading a per-layer number").
    """
    spans, seed, workdir = row.spans, row.seed, row.workdir
    is_campaign = isinstance(row, ParspliceRow)
    out: dict[str, float] = {}
    with spans.span("replay") as root:
        loop = row.replay_loop()
        system, pot, result = loop.system, loop.engine.potential, \
            loop.last_result
        lj = pot if row.kind == "lj" else repo.LennardJones(**LJ_PARAMS)
        small = row.templates[0] if is_campaign else small_templates(seed)[0]
        cell_system = row.cell if is_campaign else system

        # kernels
        if row.kind == "snap":
            snap_pot, snap_system, init_s = pot, system, row.init_s
        else:
            twojmax = row.shape.twojmax
            t0 = time.perf_counter()
            snap_pot = repo.snap_potential(twojmax, RCUT,
                                           snap_beta(twojmax, seed))
            init_s = time.perf_counter() - t0
            snap_system = row.cell
        out.update(layers.snap_kernel(snap_pot, snap_system, gemm_gflops,
                                      spans, root))
        out["potentials.snap.init_s"] = init_s
        out.update(layers.lj_kernel(lj, system, spans, root))
        compute_ms = out["core.snap.compute_ms"] if row.kind == "snap" \
            else out["potentials.lj.compute_ms"]

        # neighbour, engine, integrators, io, analysis
        out.update(layers.neighbor(system, RCUT, cell_system, small, spans,
                                   root))
        out.update(layers.serial_engine(system, pot, spans, root))
        out["md.engine.evaluate_self_ms"] = max(
            out["md.engine.evaluate_ms"] - out["md.neighbor.refresh_ms"]
            - compute_ms, 0.0)
        out.update(layers.session_bind(small, lj, spans, root))
        out.update(layers.checkpointing(loop, workdir, spans, root))
        out.update(layers.integrators(system, result.forces, DT,
                                      child_int(seed, K_THERMOSTAT), spans,
                                      root))
        out.update(layers.trajectory(system, result, workdir, spans, root))
        out.update(layers.analysis(system, result, RCUT, spans, root))

        # process backend: the row's own engine on snap2j8_proc2, an LJ
        # probe on the row's system elsewhere
        if isinstance(row, SnapProcRow):
            out.update(layers.process_engine(
                system, pot, out["md.engine.evaluate_ms"], 2, spans, root,
                engine=row.engine, build_s=row.build_s))
        else:
            serial_ms = out["md.engine.evaluate_ms"] if row.kind == "lj" \
                else layers.serial_engine(system, lj, spans,
                                          root)["md.engine.evaluate_ms"]
            out.update(layers.process_engine(system, lj, serial_ms, 2, spans,
                                             root))

        out.update(row.parsplice_layers() if is_campaign
                   else parsplice_probe(seed, workdir, spans))
        out["structures.random_packed_s"] = row.packed_s
        out["md.engine.atom_steps_per_s"] = row.raw["atom_steps_per_s"]
        out["host.window_gflops"] = row.raw["host_gflops"]
        out.update(row.window_layers())
        out.update(ledger(row, out, compute_ms))
    return out


def ledger(row, m: dict, compute_ms: float) -> dict:
    """Time per call x calls per step, against the mean step.

    The weights are frequencies, so the denominator is the window's mean
    step (not the median: a median step is a refresh step and would
    ignore the 22 % of steps that rebuild).  The remainder is reported
    as ``md.engine.unaccounted_frac``, not hidden.
    """
    step_ms = row.mean_step_ms
    shares = dict.fromkeys(
        ("core.snap", "potentials.lj", "md.neighbor", "md.integrators",
         "md.trajectory", "analysis", "parallel.process"), 0.0)
    integrate = m["md.integrators.verlet_ms"] + (
        m["md.integrators.langevin_ms"] if row.thermostatted else 0.0)
    shares["md.integrators"] = integrate / step_ms
    self_share = 0.0
    if isinstance(row, SnapProcRow):
        # workers are opaque from outside: the evaluate is one entry,
        # split by the engine's own phase ledger (program-reported)
        evaluate = m["parallel.process.evaluate_ms"] / step_ms
        shares["parallel.process"] = evaluate
        shares["core.snap"] = evaluate * m["parallel.process.force_frac"]
        accounted = evaluate + shares["md.integrators"]
    else:
        rebuild_ms = m["md.neighbor.small_box_rebuild_ms"] \
            if isinstance(row, ParspliceRow) else m["md.neighbor.rebuild_ms"]
        rebuilds = m["md.neighbor.rebuild_frac"]
        shares["md.neighbor"] = (rebuilds * rebuild_ms + (1.0 - rebuilds)
                                 * m["md.neighbor.refresh_ms"]) / step_ms
        shares["core.snap" if row.kind == "snap" else "potentials.lj"] = \
            compute_ms / step_ms
        self_share = m["md.engine.evaluate_self_ms"] / step_ms
        cadence = row.cadence
        if cadence:
            shares["md.trajectory"] = (
                m["md.trajectory.submit_ms"] / cadence["traj"]
                + m["md.engine.checkpoint_ms"] / cadence["checkpoint"]
            ) / step_ms
            shares["analysis"] = (
                m["analysis.rdf_ms"] / cadence["rdf"]
                + m["analysis.thermo_ms"] / cadence["thermo"]) / step_ms
        accounted = sum(shares.values()) + self_share
    out = {f"{layer}.step_share": share for layer, share in shares.items()}
    out["md.engine.accounted_frac"] = accounted
    out["md.engine.unaccounted_frac"] = 1.0 - accounted
    return out
