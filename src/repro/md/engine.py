"""One timestep engine: pluggable force backends behind a shared MD loop.

The paper's production capability rests on a single MD loop driving the
SNAP kernel through interchangeable execution backends.  This module is
that seam for the reproduction, and ``build_engine`` ->
:class:`MDLoop` / :class:`EngineSession` is the only way to run MD:

:class:`ForceEngine`
    The backend contract - ``evaluate() -> EnergyForces`` plus shared
    :class:`~repro.md.timers.PhaseTimers`, a neighbor-build counter and
    (for the process backend) a :class:`CommLedger`.
:class:`SerialEngine`
    One :class:`~repro.md.neighbor.NeighborList` and a potential.
:class:`MDLoop`
    The single integrate/thermo/checkpoint loop shared by every
    backend: Verlet integration, Langevin thermostat, Berendsen
    barostat, checkpoint IO, trajectory frames and in-situ observers
    (thermo rows come from :class:`repro.analysis.ThermoObserver`).
:class:`RunSummary`
    The one typed run summary every backend emits.
:func:`build_engine`
    Factory selecting the backend: serial or
    :class:`repro.parallel.ProcessEngine` (the one parallel mechanism).
    The bytes an MPI decomposition would move are counted, not run:
    :func:`repro.parallel.halo_census`.
:class:`EngineSession`
    One engine construction serving many short runs.

Import discipline: this module must not import ``repro.parallel`` at
module level (that package imports ``repro.md`` first); the factory
pulls :class:`repro.parallel.ProcessEngine` in lazily.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.snap import EnergyForces
from ..potentials.base import Potential
from .dump import load_checkpoint, write_checkpoint
from .integrators import VelocityVerlet
from .neighbor import NeighborList
from .system import ParticleSystem
from .timers import PhaseTimers
from .trajectory import Frame

__all__ = ["ForceEngine", "SerialEngine", "MDLoop", "EngineSession",
           "RunSummary", "CommLedger", "build_engine"]


# ======================================================================
# typed run summary
# ======================================================================
@dataclass
class RunSummary:
    """Typed performance summary emitted by :meth:`MDLoop.run`.

    Fields a backend does not populate (the comm block for the serial
    backend, the IO block for a run without frames) stay ``None``.
    """

    steps: int
    natoms: int
    wall_s: float
    #: the paper's figure of merit; guarded against ``wall == 0`` for
    #: degenerate zero-step runs on coarse clocks
    atom_steps_per_s: float
    phase_fractions: dict
    phase_breakdown: dict
    neighbor_builds: int
    energy: float
    nprocs: int | None = None
    skin: float | None = None
    rebuilds: int | None = None
    ghost_bytes_per_step: float | None = None
    reverse_bytes_per_step: float | None = None
    #: trajectory-writer ledger (populated when the loop streams frames)
    io_frames: int | None = None
    io_bytes: int | None = None
    io_write_s: float | None = None
    io_bytes_per_s: float | None = None

    @classmethod
    def from_run(cls, engine: "ForceEngine", nsteps: int, wall: float,
                 energy: float, writer=None) -> "RunSummary":
        natoms = engine.system.natoms
        atom_steps = natoms * max(nsteps, 1)
        extras = dict(engine.summary_extras())
        if writer is not None:
            led = writer.ledger
            extras.update(io_frames=led.frames, io_bytes=led.nbytes,
                          io_write_s=led.write_s,
                          io_bytes_per_s=led.bytes_per_s)
        return cls(
            steps=nsteps, natoms=natoms, wall_s=wall,
            atom_steps_per_s=atom_steps / wall if wall > 0 else float("inf"),
            phase_fractions=engine.timers.fractions(),
            phase_breakdown=engine.timers.breakdown(),
            neighbor_builds=engine.neighbor_builds,
            energy=energy, **extras)


# ======================================================================
# comm accounting (the process backend and the halo census)
# ======================================================================
@dataclass
class CommLedger:
    """Accumulated halo-exchange traffic and rebuild cadence."""

    steps: int = 0
    #: halo + neighbor-list rebuilds (1 on a quiescent run)
    rebuilds: int = 0
    ghost_atoms: int = 0
    #: forward traffic actually exchanged: full ghost records on rebuild
    #: steps, position refreshes in between
    ghost_bytes: int = 0
    #: reverse (ghost-force) traffic actually exchanged
    reverse_bytes: int = 0
    max_rank_atoms: int = 0
    min_rank_atoms: int = 0

    @property
    def ghost_bytes_per_step(self) -> float:
        return self.ghost_bytes / max(self.steps, 1)

    @property
    def reverse_bytes_per_step(self) -> float:
        return self.reverse_bytes / max(self.steps, 1)


# ======================================================================
# backend contract
# ======================================================================
class ForceEngine(abc.ABC):
    """Force-evaluation backend behind :class:`MDLoop`.

    Concrete engines own the neighbor/halo state, the shared
    :class:`PhaseTimers` instance and (optionally) a :class:`CommLedger`;
    the loop owns integration, thermostatting and IO.
    """

    system: ParticleSystem
    potential: Potential
    timers: PhaseTimers
    #: populated by the process backend, None otherwise
    ledger: CommLedger | None = None

    @abc.abstractmethod
    def evaluate(self, positions: np.ndarray | None = None) -> EnergyForces:
        """One force evaluation at ``positions`` (default: the system's).

        Returns global energy, per-atom energies, forces and virial.
        """

    @property
    def neighbor_builds(self) -> int:
        """Neighbor(-and-halo) topology builds since construction."""
        return 0

    @property
    def topology_reference(self) -> np.ndarray | None:
        """Positions the current neighbor topology was built at.

        Pair *order* (and hence the floating-point accumulation order of
        forces) depends on the build-time coordinates, so checkpoints
        store this array and :meth:`MDLoop.restore` replays one priming
        evaluation at it - that is what makes a resumed run bitwise
        identical to an uninterrupted one.  ``None`` before the first
        build or for engines without persistent topology.
        """
        return None

    def summary_extras(self) -> dict:
        """Backend-specific :class:`RunSummary` fields."""
        return {}

    def bind(self, system: ParticleSystem) -> None:
        """Rebind this live engine to a new system state.

        The session contract: after ``bind()`` the next :meth:`evaluate`
        rebuilds the neighbor topology from scratch at the bound
        coordinates - never reusing stale pair order, even when the new
        positions sit within the old Verlet skin - so a rebound engine
        is bitwise identical to a freshly constructed one.  What it does
        *not* do is tear anything down: worker processes and
        shared-memory blocks survive, which is what makes thousands of
        short segments cheap
        (see :class:`EngineSession`).

        Backends override this to invalidate their persistent topology;
        the base implementation installs the system and refreshes a
        multi-species potential's type binding.
        """
        self.system = system
        if getattr(self.potential, "types", None) is not None:
            self.potential.set_types(system.types)

    def close(self) -> None:
        """Release backend resources (idempotent); none by default."""

    def __enter__(self) -> "ForceEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ======================================================================
# serial backend
# ======================================================================
class SerialEngine(ForceEngine):
    """Single-domain backend: one Verlet-skinned list, one potential.

    Parameters
    ----------
    check_finite:
        Debug sanitizer (default off): validate every kernel output for
        NaN/Inf, raising :class:`repro.core.sanitizers.NumericsError`.
    """

    def __init__(self, system: ParticleSystem, potential: Potential,
                 skin: float = 0.3, check_finite: bool = False) -> None:
        self.system = system
        self.potential = potential
        self.skin = float(skin)
        self.neighbors = NeighborList.for_potential(potential, system.box,
                                                    skin=skin)
        self.timers = PhaseTimers()
        self.check_finite = bool(check_finite)

    @property
    def neighbor_builds(self) -> int:
        return self.neighbors.nbuilds

    @property
    def topology_reference(self) -> np.ndarray | None:
        ref = self.neighbors.ref_positions
        return None if ref is None else ref.copy()

    def bind(self, system: ParticleSystem) -> None:
        """Rebind to ``system``; a reset neighbor list forces a rebuild
        at the new coordinates (the build counter carries over, same as
        the barostat rebind path)."""
        super().bind(system)
        self.neighbors.reset(system.box)

    def evaluate(self, positions: np.ndarray | None = None) -> EnergyForces:
        system, neighbors, timers = self.system, self.neighbors, self.timers
        if positions is None:
            positions = system.positions
        if neighbors.box is not system.box:
            # the barostat rescaled the cell
            neighbors.reset(system.box)
        builds = neighbors.nbuilds
        t0 = time.perf_counter()
        nbr = neighbors.get(positions)
        t_neigh = time.perf_counter() - t0
        timers.add("neigh", t_neigh)
        timers.add("neigh.rebuild" if neighbors.nbuilds > builds
                   else "neigh.refresh", t_neigh)
        potential = self.potential
        with timers.phase("force"):
            result = potential.compute(system.natoms, nbr)
        result.neighbors = neighbors
        # kernel-stage split (SNAP-backed potentials expose last_timings)
        stages = getattr(potential, "last_timings", None)
        if stages:
            for k, v in stages.items():
                timers.add(f"force.{k}", v)
        if self.check_finite:
            from ..core.sanitizers import check_finite

            check_finite("force", where="serial",
                         peratom=result.peratom, forces=result.forces)
        return result


# ======================================================================
# the one MD loop
# ======================================================================
class MDLoop:
    """Velocity-Verlet MD over any :class:`ForceEngine`.

    Owns integration, the Langevin thermostat (applied as a force
    modifier after every evaluation, so both Verlet half-kicks see the
    thermostated forces), the Berendsen barostat, checkpoint IO
    (accounted in the "io" phase), streaming trajectory output, in-situ
    observers and the run summary.

    Observers follow a duck-typed protocol: any object with
    ``observe(step, system, result)`` (and an optional integer ``every``
    cadence attribute, default 1) is called after each step under the
    "analysis" phase - see :mod:`repro.analysis.observers`.  Thermo rows
    are one such observer, :class:`repro.analysis.ThermoObserver`.

    ``trajectory`` accepts a :class:`repro.md.trajectory.TrajectoryFile`;
    frames (positions, and velocities with ``trajectory_velocities``)
    are written every ``trajectory_every`` steps, encode and write timed
    under the "io" phase, and the writer's byte/throughput ledger
    surfaced in the :class:`RunSummary`.  :meth:`restore` resumes a
    checkpointed run bitwise-identically (see the method docstring for
    the mechanics).
    """

    def __init__(self, engine: ForceEngine, dt: float = 1.0e-3,
                 thermostat=None, barostat=None, checkpoint_every: int = 0,
                 checkpoint_path: str | Path | None = None,
                 trajectory=None, trajectory_every: int = 0,
                 trajectory_velocities: bool = False,
                 observers=()) -> None:
        self.engine = engine
        self.integrator = VelocityVerlet(dt=dt)
        self.thermostat = thermostat
        self.barostat = barostat
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path \
            else None
        self.trajectory = trajectory
        self.trajectory_every = int(trajectory_every)
        self.trajectory_velocities = bool(trajectory_velocities)
        self.observers = list(observers)
        self.step = 0
        self._last: EnergyForces | None = None
        #: set by restore(): the next run() must not repeat the
        #: current step's observer calls / trajectory frame
        #: (the uninterrupted run emitted them before the checkpoint)
        self._resumed = False

    @property
    def system(self) -> ParticleSystem:
        return self.engine.system

    @property
    def timers(self) -> PhaseTimers:
        return self.engine.timers

    # ------------------------------------------------------------------
    def _evaluate(self) -> EnergyForces:
        engine, thermostat = self.engine, self.thermostat
        result = engine.evaluate()
        if thermostat is not None:
            with engine.timers.phase("other"):
                thermostat.add_forces(engine.system, result.forces,
                                      self.integrator.dt)
        self._last = result
        return result

    def instantaneous_pressure(self) -> float:
        """Current pressure [eV/A^3] from kinetic + virial terms."""
        from ..constants import KB

        if self._last is None:
            self._evaluate()
        v = self.system.box.volume
        kin = self.system.natoms * KB * self.system.temperature()
        return float((kin + np.trace(self._last.virial) / 3.0) / v)

    # ------------------------------------------------------------------
    # in-situ observers and streaming trajectory output
    # ------------------------------------------------------------------
    def _observe(self) -> None:
        if not self.observers:
            return
        with self.timers.phase("analysis"):
            for obs in self.observers:
                every = max(int(getattr(obs, "every", 1)), 1)
                if self.step % every == 0:
                    obs.observe(self.step, self.system, self._last)

    def _trajectory_due(self) -> bool:
        return (self.trajectory is not None and self.trajectory_every > 0
                and self.step % self.trajectory_every == 0)

    def _write_frame(self) -> None:
        with self.timers.phase("io"):
            self.trajectory.write_frame(Frame.from_state(
                self.step, self.system, self._last,
                velocities=self.trajectory_velocities))

    # ------------------------------------------------------------------
    # checkpoint / exact restart
    # ------------------------------------------------------------------
    def checkpoint_extras(self) -> dict:
        """Loop/engine state arrays stored alongside the system state."""
        extra: dict = {}
        rng_state = getattr(self.thermostat, "rng_state", None)
        if callable(rng_state):
            extra["thermostat_rng"] = rng_state()
        if self._last is not None:
            # the step's force result cannot be recomputed on resume: a
            # Langevin force holds a friction term in the *half-step*
            # velocities, which the checkpoint (post full-step) no
            # longer has - so the result itself is part of the state
            extra["last_energy"] = np.asarray(float(self._last.energy))
            extra["last_forces"] = np.asarray(self._last.forces,
                                              dtype=float)
            if self._last.peratom is not None:
                extra["last_peratom"] = np.asarray(self._last.peratom,
                                                   dtype=float)
            if self._last.virial is not None:
                extra["last_virial"] = np.asarray(self._last.virial,
                                                  dtype=float)
        ref = self.engine.topology_reference
        if ref is not None:
            extra["topology_ref"] = np.asarray(ref, dtype=float)
        if self.trajectory is not None:
            offset, nframes = self.trajectory.checkpoint_state()
            extra["traj_offset"] = np.array([offset, nframes],
                                            dtype=np.int64)
        return extra

    def write_checkpoint(self, path: str | Path | None = None) -> Path:
        """Write a restart checkpoint (system + loop state extras)."""
        path = Path(path) if path is not None else self.checkpoint_path
        if path is None:
            raise ValueError("no checkpoint path configured")
        return write_checkpoint(path, self.system, self.step,
                                extra=self.checkpoint_extras())

    def restore(self, path: str | Path) -> int:
        """Resume from a checkpoint; returns the restored step.

        Restores the system state *and* everything the forward path is
        sensitive to, so a resumed run is bitwise identical to an
        uninterrupted one on every backend:

        * the step counter (checkpoint/trajectory cadences and observer
          phases continue instead of restarting at 0),
        * the checkpointed step's force result - it enters the next
          step's first half-kick but cannot be recomputed here, because
          the Langevin friction term was evaluated at the half-step
          velocities the checkpoint no longer holds,
        * the Langevin RNG stream position, so the resumed run's first
          fresh draw is exactly the draw the uninterrupted run makes,
        * the neighbor-topology reference positions: the engine is
          rebound (dropping any persistent topology) and one priming
          evaluation at them rebuilds the pair lists in the identical
          order the uninterrupted run holds,
        * the attached trajectory writer's ``(offset, nframes)``, rolled
          back so frames written after the checkpoint (lost work from a
          crashed run) are truncated away.

        The loaded arrays are fresh, so they are installed as they are.
        """
        ck = load_checkpoint(path)
        src, extras, system = ck.system, ck.extras, self.system
        if src.natoms != system.natoms:
            raise ValueError(
                f"restart state holds {src.natoms} atoms, the engine's "
                f"system has {system.natoms}")
        system.positions = src.positions
        system.velocities = src.velocities
        system.masses = src.masses
        system.types = src.types
        system.box = src.box
        self.step = ck.step
        rng = extras.get("thermostat_rng")
        set_state = getattr(self.thermostat, "set_rng_state", None)
        if rng is not None and callable(set_state):
            set_state(rng)
        # rebind drops the engine's persistent topology (and refreshes a
        # multi-species potential's types) explicitly, not through the
        # box-identity check a restored cell happens to trip
        self.engine.bind(system)
        ref = extras.get("topology_ref")
        if ref is not None:
            self.engine.evaluate(np.asarray(ref, dtype=float))
        if self.trajectory is not None:
            off = extras.get("traj_offset")
            if off is not None:
                with self.timers.phase("io"):
                    self.trajectory.truncate_to(int(off[0]), int(off[1]))
        forces = extras.get("last_forces")
        # no stored result (a legacy checkpoint): re-evaluate on run()
        self._last = None if forces is None else EnergyForces(
            energy=float(extras["last_energy"]),
            peratom=extras.get("last_peratom"), forces=forces,
            virial=extras.get("last_virial"))
        self._resumed = True
        return self.step

    # ------------------------------------------------------------------
    def run(self, nsteps: int) -> RunSummary:
        """Advance ``nsteps``; returns the typed performance summary."""
        if nsteps < 0:
            raise ValueError("nsteps must be non-negative")
        t_start = time.perf_counter()
        resumed, self._resumed = self._resumed, False
        if resumed and self._last is not None:
            # the checkpointed force result stands in for the initial
            # evaluation; recomputing it would also re-draw thermostat
            # noise and desynchronize the RNG stream
            result = self._last
        else:
            result = self._evaluate()
        if not resumed:
            # a resumed run skips the start-of-run outputs: the
            # uninterrupted run already emitted this step's observer
            # samples and trajectory frame before checkpointing
            self._observe()
            if self._trajectory_due():
                self._write_frame()
        # read once, not every step: the loop's configuration and the
        # engine's system, timers and integrator stay put during a run
        system, phase = self.engine.system, self.engine.timers.phase
        integrator, barostat = self.integrator, self.barostat
        observe = self._observe if self.observers else None
        traj_every = self.trajectory_every \
            if self.trajectory is not None else 0
        ckpt_every = self.checkpoint_every if self.checkpoint_path else 0
        for _ in range(nsteps):
            with phase("other"):
                integrator.first_half(system, result.forces)
            result = self._evaluate()
            with phase("other"):
                integrator.second_half(system, result.forces)
                if barostat is not None:
                    barostat.apply(system, self.instantaneous_pressure(),
                                   integrator.dt)
            self.step = step = self.step + 1
            if observe is not None:
                observe()
            if traj_every > 0 and step % traj_every == 0:
                self._write_frame()
            # checkpoint last: it must capture the trajectory offset
            # *after* this step's frame so restore truncates correctly
            if ckpt_every and step % ckpt_every == 0:
                with phase("io"):
                    self.write_checkpoint()
        if self.trajectory is not None:
            with self.timers.phase("io"):
                self.trajectory.flush()
        wall = time.perf_counter() - t_start
        return RunSummary.from_run(self.engine, nsteps, wall, result.energy,
                                   writer=self.trajectory)

    # ------------------------------------------------------------------
    @property
    def last_result(self) -> EnergyForces:
        if self._last is None:
            self._evaluate()
        return self._last


# ======================================================================
# factory
# ======================================================================
def build_engine(system: ParticleSystem, potential: Potential, *,
                 backend: str | None = None, nprocs: int | None = None,
                 skin: float = 0.3,
                 check_finite: bool = False) -> ForceEngine:
    """Select a force backend from the requested execution layout.

    ``backend`` picks the engine: ``"serial"`` or ``"process"``
    (persistent shared-memory worker processes, sized by ``nprocs`` -
    the one parallel mechanism).  ``backend=None`` infers it: ``nprocs``
    set yields the process engine, else the serial one.  ``nprocs`` with
    the serial backend raises ``ValueError`` instead of being dropped.
    Every returned engine drives the same :class:`MDLoop`.
    """
    if backend is None:
        backend = "process" if nprocs is not None else "serial"
    if backend not in ("serial", "process"):
        raise ValueError(f"unknown backend {backend!r}; expected 'serial' "
                         "or 'process'")
    if nprocs is not None and backend != "process":
        raise ValueError(f"nprocs={nprocs} does not apply to "
                         f"backend={backend!r}")
    if backend == "serial":
        return SerialEngine(system, potential, skin=skin,
                            check_finite=check_finite)
    # imported lazily: repro.md must stay importable without pulling the
    # multiprocessing machinery (and repro.parallel imports us)
    from ..parallel.process_engine import ProcessEngine

    return ProcessEngine(system, potential,
                         nprocs=nprocs if nprocs is not None else 2,
                         skin=skin, check_finite=check_finite)


# ======================================================================
# reusable engine sessions
# ======================================================================
class EngineSession:
    """One engine construction serving many short runs.

    The one-shot lifecycle (construct, run, tear down) prices every
    ParSplice segment at a full engine setup - worker process forks,
    shared-memory blocks - when the segment itself may be a few hundred
    force calls.  A session pays that cost once: :meth:`run` rebinds
    the live engine to each new system state
    (:meth:`ForceEngine.bind`), drives a fresh
    :class:`MDLoop` over it and leaves every pool alive for the next
    segment.  The bind contract keeps results bitwise identical to a
    freshly constructed engine, so reuse is a pure amortization.

    A session is *not* thread-safe: one segment runs at a time (the
    engine's neighbor/halo state is singular).  Services wanting
    concurrency hold a pool of sessions - see
    :class:`repro.parsplice.service.SegmentScheduler`.
    """

    def __init__(self, engine: ForceEngine) -> None:
        self.engine = engine
        #: completed :meth:`run` calls
        self.segments = 0
        #: :meth:`bind` calls (includes the bind inside every run)
        self.binds = 0
        #: MD steps integrated across all runs
        self.steps = 0
        #: wall seconds inside :meth:`MDLoop.run` across all runs
        self.md_wall_s = 0.0
        self._closed = False

    @classmethod
    def build(cls, system: ParticleSystem, potential: Potential,
              **engine_kwargs) -> "EngineSession":
        """Construct a session around :func:`build_engine`."""
        return cls(build_engine(system, potential, **engine_kwargs))

    @property
    def backend(self) -> str:
        return type(self.engine).__name__

    def bind(self, system: ParticleSystem) -> None:
        """Rebind the live engine to a new system state."""
        if self._closed:
            raise RuntimeError("EngineSession is closed")
        self.engine.bind(system)
        self.binds += 1

    def run(self, system: ParticleSystem, nsteps: int, *,
            dt: float = 1.0e-3, thermostat=None, barostat=None,
            observers=()) -> RunSummary:
        """Bind ``system`` and integrate ``nsteps`` over the live engine.

        ``system`` is advanced in place (read positions/velocities off
        it afterwards); the returned :class:`RunSummary` carries the
        final potential energy and per-run throughput.  Thermo rows and
        other per-step samples come from ``observers`` (for example a
        :class:`repro.analysis.ThermoObserver`).
        """
        self.bind(system)
        loop = MDLoop(self.engine, dt=dt, thermostat=thermostat,
                      barostat=barostat, observers=observers)
        summary = loop.run(nsteps)
        self.segments += 1
        self.steps += int(nsteps)
        self.md_wall_s += summary.wall_s
        return summary

    def close(self) -> None:
        """Release the underlying engine (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.engine.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"EngineSession({self.backend}, segments={self.segments}, "
                f"steps={self.steps}, closed={self._closed})")
