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
    barostat, thermo logging, checkpoint IO and the sanitizer hooks.
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

__all__ = ["ForceEngine", "SerialEngine", "MDLoop", "LoopSnapshot",
           "EngineSession", "RunSummary", "ThermoEntry",
           "CommLedger", "build_engine"]


# ======================================================================
# typed run summary
# ======================================================================
@dataclass
class ThermoEntry:
    """One row of thermodynamic output."""

    step: int
    temperature: float
    potential_energy: float
    kinetic_energy: float
    total_energy: float


@dataclass
class RunSummary:
    """Typed performance summary emitted by :meth:`MDLoop.run`.

    ``as_dict()`` reproduces the historical per-driver summary dicts:
    fields that a backend does not populate (the comm block for the
    serial backend) stay ``None`` and are omitted, so existing key sets
    are preserved while every populated field is shared.
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

    def as_dict(self) -> dict:
        """Summary dict in the legacy key order, ``None`` fields omitted."""
        ordered = [
            ("steps", self.steps), ("natoms", self.natoms),
            ("nprocs", self.nprocs), ("skin", self.skin),
            ("wall_s", self.wall_s),
            ("atom_steps_per_s", self.atom_steps_per_s),
            ("phase_fractions", self.phase_fractions),
            ("phase_breakdown", self.phase_breakdown),
            ("neighbor_builds", self.neighbor_builds),
            ("rebuilds", self.rebuilds),
            ("ghost_bytes_per_step", self.ghost_bytes_per_step),
            ("reverse_bytes_per_step", self.reverse_bytes_per_step),
            ("io_frames", self.io_frames),
            ("io_bytes", self.io_bytes),
            ("io_write_s", self.io_write_s),
            ("io_bytes_per_s", self.io_bytes_per_s),
            ("energy", self.energy),
        ]
        return {k: v for k, v in ordered if v is not None}


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
        """Rebind to ``system``; a fresh neighbor list forces a rebuild
        at the new coordinates (the build counter carries over, same as
        the barostat rebind path)."""
        super().bind(system)
        self.neighbors = self.neighbors.rebound(system.box)

    def evaluate(self, positions: np.ndarray | None = None) -> EnergyForces:
        if positions is None:
            positions = self.system.positions
        if self.neighbors.box is not self.system.box:
            # the barostat rescaled the cell
            self.neighbors = self.neighbors.rebound(self.system.box)
        builds = self.neighbors.nbuilds
        t0 = time.perf_counter()
        nbr = self.neighbors.get(positions)
        t_neigh = time.perf_counter() - t0
        self.timers.add("neigh", t_neigh)
        self.timers.add("neigh.rebuild" if self.neighbors.nbuilds > builds
                        else "neigh.refresh", t_neigh)
        with self.timers.phase("force"):
            result = self.potential.compute(self.system.natoms, nbr)
        result.neighbors = self.neighbors
        # kernel-stage split (SNAP-backed potentials expose last_timings)
        for k, v in (getattr(self.potential, "last_timings", None) or {}).items():
            self.timers.add(f"force.{k}", v)
        if self.check_finite:
            from ..core.sanitizers import check_finite

            check_finite("force", where="serial",
                         peratom=result.peratom, forces=result.forces)
        return result


# ======================================================================
# the one MD loop
# ======================================================================
@dataclass
class LoopSnapshot:
    """In-memory exact-restart state (see :meth:`MDLoop.snapshot`).

    Holds everything a file checkpoint holds - a deep copy of the
    system, the step counter and the loop/engine extras (thermostat RNG
    position, the step's force result, the topology reference) - without
    touching the filesystem.  ParSplice-style services snapshot a state
    once and restore it for every segment spawned from it.
    """

    step: int
    system: ParticleSystem
    extras: dict


class MDLoop:
    """Velocity-Verlet MD over any :class:`ForceEngine`.

    Owns integration, the Langevin thermostat (applied as a force
    modifier after every evaluation, so both Verlet half-kicks see the
    thermostated forces), the Berendsen barostat, thermo logging,
    checkpoint IO (accounted in the "io" phase), streaming trajectory
    output, in-situ observers and the run summary.

    Observers follow a duck-typed protocol: any object with
    ``observe(step, system, result)`` (and an optional integer ``every``
    cadence attribute, default 1) is called after each step under the
    "analysis" phase - see :mod:`repro.analysis.observers`.

    ``trajectory`` accepts a :class:`repro.md.trajectory.TrajectoryFile`;
    frames are written every ``trajectory_every`` steps, encode and
    write timed under the "io" phase, and the writer's byte/throughput
    ledger surfaced in the :class:`RunSummary`.  :meth:`restore` resumes
    a checkpointed run bitwise-identically (see the method docstring for
    the mechanics).
    """

    def __init__(self, engine: ForceEngine, dt: float = 1.0e-3,
                 thermostat=None, barostat=None, checkpoint_every: int = 0,
                 checkpoint_path: str | Path | None = None,
                 trajectory=None, trajectory_every: int = 0,
                 trajectory_positions: bool = True,
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
        self.trajectory_positions = bool(trajectory_positions)
        self.trajectory_velocities = bool(trajectory_velocities)
        self.observers = list(observers)
        self.step = 0
        self.thermo_log: list[ThermoEntry] = []
        self._last: EnergyForces | None = None
        #: set by restore(): the next run() must not repeat the
        #: current step's thermo row / observer call / trajectory frame
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
        result = self.engine.evaluate()
        if self.thermostat is not None:
            with self.timers.phase("other"):
                self.thermostat.add_forces(self.system, result.forces,
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

    def _record_thermo(self) -> None:
        ke = self.system.kinetic_energy()
        pe = self._last.energy if self._last is not None else 0.0
        self.thermo_log.append(ThermoEntry(
            step=self.step, temperature=self.system.temperature(),
            potential_energy=pe, kinetic_energy=ke, total_energy=pe + ke))

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
                positions=self.trajectory_positions,
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

    def snapshot(self) -> LoopSnapshot:
        """In-memory checkpoint: the file-checkpoint state, no IO.

        Everything is deep-copied, so the snapshot stays valid (and
        restorable any number of times) while the loop keeps running.
        """
        extras = {k: np.array(v)
                  for k, v in self.checkpoint_extras().items()}
        return LoopSnapshot(step=self.step, system=self.system.copy(),
                            extras=extras)

    def restore(self, path: str | Path) -> int:
        """Resume from a checkpoint; returns the restored step.

        Restores the system state *and* everything the forward path is
        sensitive to, so a resumed run is bitwise identical to an
        uninterrupted one on every backend:

        * the step counter (thermo/checkpoint/trajectory cadences and
          observer phases continue instead of restarting at 0),
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
        """
        ck = load_checkpoint(path)
        return self._restore_state(ck.system, ck.step, ck.extras)

    def restore_snapshot(self, snap: LoopSnapshot) -> int:
        """In-memory counterpart of :meth:`restore`; same bitwise
        contract, same mechanics, no file round-trip.  The snapshot is
        not consumed - restoring it twice replays the same state."""
        return self._restore_state(snap.system, snap.step, snap.extras)

    def _restore_state(self, src: ParticleSystem, step: int,
                       extras: dict) -> int:
        """Shared exact-restart path behind file and in-memory restore."""
        system = self.system
        if src.natoms != system.natoms:
            raise ValueError(
                f"restart state holds {src.natoms} atoms, the engine's "
                f"system has {system.natoms}")
        system.positions = src.positions.copy()
        system.velocities = src.velocities.copy()
        system.masses = src.masses.copy()
        system.types = src.types.copy()
        system.box = src.box
        self.step = int(step)
        rng = extras.get("thermostat_rng")
        set_state = getattr(self.thermostat, "set_rng_state", None)
        if rng is not None and callable(set_state):
            set_state(rng)
        # rebind drops the engine's persistent topology explicitly: an
        # in-memory restore may reinstall the very Box object the engine
        # already holds, which the box-identity rebuild checks would
        # miss, silently keeping a pair order the snapshotted run did
        # not have
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
        if forces is not None:
            peratom = extras.get("last_peratom")
            virial = extras.get("last_virial")
            # copied: the loop mutates the force array in place (the
            # thermostat adds friction/noise), which must never leak
            # back into a restorable snapshot
            self._last = EnergyForces(
                energy=float(extras["last_energy"]),
                peratom=None if peratom is None
                else np.array(peratom, dtype=float),
                forces=np.array(forces, dtype=float),
                virial=None if virial is None
                else np.array(virial, dtype=float))
        else:
            self._last = None  # legacy checkpoint: re-evaluate on run()
        self._resumed = True
        return self.step

    # ------------------------------------------------------------------
    def run(self, nsteps: int, thermo_every: int = 0) -> RunSummary:
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
            # uninterrupted run already emitted this step's thermo row,
            # observer sample and trajectory frame before checkpointing
            if thermo_every:
                self._record_thermo()
            self._observe()
            if self._trajectory_due():
                self._write_frame()
        for _ in range(nsteps):
            with self.timers.phase("other"):
                self.integrator.first_half(self.system, result.forces)
            result = self._evaluate()
            with self.timers.phase("other"):
                self.integrator.second_half(self.system, result.forces)
                if self.barostat is not None:
                    self.barostat.apply(self.system,
                                        self.instantaneous_pressure(),
                                        self.integrator.dt)
            self.step += 1
            if thermo_every and self.step % thermo_every == 0:
                self._record_thermo()
            self._observe()
            if self._trajectory_due():
                self._write_frame()
            # checkpoint last: it must capture the trajectory offset
            # *after* this step's frame so restore truncates correctly
            if (self.checkpoint_every and self.checkpoint_path
                    and self.step % self.checkpoint_every == 0):
                with self.timers.phase("io"):
                    self.write_checkpoint()
        if self.trajectory is not None:
            with self.timers.phase("io"):
                self.trajectory.flush()
        wall = time.perf_counter() - t_start
        return RunSummary.from_run(self.engine, nsteps, wall, result.energy,
                                   writer=self.trajectory)

    # ------------------------------------------------------------------
    @property
    def potential_energy(self) -> float:
        if self._last is None:
            self._evaluate()
        return self._last.energy

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

    def loop(self, system: ParticleSystem | None = None,
             **loop_kwargs) -> MDLoop:
        """A fresh :class:`MDLoop` over the (optionally rebound) engine.

        For callers that drive the loop manually - e.g. to
        :meth:`MDLoop.snapshot`/:meth:`MDLoop.restore_snapshot` between
        runs.  Loop-level statistics are not folded into the session.
        """
        if system is not None:
            self.bind(system)
        return MDLoop(self.engine, **loop_kwargs)

    def run(self, system: ParticleSystem, nsteps: int, *,
            dt: float = 1.0e-3, thermostat=None, barostat=None,
            thermo_every: int = 0, observers=()) -> RunSummary:
        """Bind ``system`` and integrate ``nsteps`` over the live engine.

        ``system`` is advanced in place (read positions/velocities off
        it afterwards); the returned :class:`RunSummary` carries the
        final potential energy and per-run throughput.
        """
        self.bind(system)
        loop = MDLoop(self.engine, dt=dt, thermostat=thermostat,
                      barostat=barostat, observers=observers)
        summary = loop.run(nsteps, thermo_every=thermo_every)
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
