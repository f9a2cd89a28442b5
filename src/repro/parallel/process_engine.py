"""Persistent-worker multiprocess force backend over shared memory.

:class:`ProcessEngine` is the parallel :class:`~repro.md.engine.ForceEngine`:
ranks are long-lived **worker processes** (one fork per run, not per
step) that communicate exclusively through named
``multiprocessing.shared_memory`` blocks - the persistent-worker /
fixed-communication-schedule discipline of production MD codes.  It
runs any :class:`~repro.potentials.Potential`: a worker knows the
``pair_gradients`` contract and the one force assembly, nothing else.

Decomposition - row slices, not subdomains
------------------------------------------
Rank ``r`` owns the contiguous *atom-index window* ``[alo, ahi)`` of a
balanced :func:`~repro.parallel.decomposition.row_partition` and runs
the serial step on it: one :class:`~repro.md.neighbor.NeighborList`
restricted to its rows (``rows=(alo, ahi)``), then the potential's
``pair_gradients`` on the batch that list returns, for the same rows.
The list has the serial engine's form (``NeighborList.for_potential``):
a pair potential's window holds the half pairs - each bond once - whose
first atom it owns, a many-body potential's the full list's rows.
Because the global neighbor list is CSR-sorted by central atom, the
per-rank lists concatenate - on build and on refresh steps - to exactly
the serial list, and every pair is computed by the rank that owns its
central atom.  That turns the halo exchange into:

forward
    each worker reads any row of the shared position block directly
    (owned-row slice reads of the other ranks' slices);
reverse
    the per-pair gradients (and, on a half list, the bond energies
    beside them) are published to a shared reference-pair-space buffer;
    each owner gathers the entries whose *neighbor* atom it owns - in
    ascending global pair order, i.e. **fixed rank order** - and
    applies exactly the serial assembly.

Bitwise determinism contract
----------------------------
Forces and per-atom energies are bitwise identical to
:class:`~repro.md.engine.SerialEngine` at every ``nprocs``, for every
potential.  Two properties carry the proof:

* the row-restricted neighbor lists concatenate to the serial pair list
  (same pairs, same order, same skin decisions), and ``pair_gradients``
  is per atom row or per pair by contract - the SNAP density pass never
  splits a row across chunks, so a rank's rows hold the bits the full
  list yields whatever ``chunk`` either side runs with;
* owner assembly is the serial assembly: the strictly sequential
  :func:`~repro.core.snap.scatter_pair_forces` (what
  :func:`~repro.core.snap.update_forces` calls) over the owned rows,
  fed each atom's neighbor-side entries in global pair order and then
  its own pairs - the half of each bond's energy it is credited
  included.  The gather compresses dropped skin pairs *before* the
  scatter, exactly like the serial filter.

The virial keeps the usual fixed-order 1e-10 contract (the per-rank
GEMMs are summed in rank order).  Quadratic SNAP holds the force
contract too: its per-atom effective coefficients come from a
column-by-column sparse product (see ``SNAP._build_plan``), not a
row-count-sensitive GEMM.

Ranks are :mod:`repro.parallel.workers` workers.  All data moves
through the shared blocks: a step is one request out and one reply back
per rank over its pipe, plus one worker-internal barrier (the kept mask
and the per-pair values are published together behind it) and two more
on rebuild steps (pair counts, then neighbor ids).  Pair-capacity growth re-allocates the pair-space blocks under a
generation counter.  The parent owns every block and unlinks them all
on ``close()``; the kit's finalizer covers abandoned engines.  The
parent waits on the ranks' pipes and sentinels together, so a rank's
exception (re-raised with its traceback as the cause) or death fails
the step at once, named with the rank; a rank whose parent died reads
end-of-file and exits.
"""

from __future__ import annotations

import os
import secrets
import time

import numpy as np

from ..core.snap import EnergyForces, scatter_pair_forces
from ..md.box import Box
from ..md.engine import CommLedger, ForceEngine
from ..md.neighbor import NeighborList
from ..md.timers import PhaseTimers
from . import workers
from .decomposition import row_partition
from .halo import BYTES_PER_GHOST, BYTES_PER_POSITION
from .shm import SharedBlock

__all__ = ["ProcessEngine"]

# control-word layout (int64 slots in the "ctl" block)
_GEN = 0          #: pair-block generation (bumped on capacity growth)
_CAP = 1          #: current pair-space capacity
_BOX_EPOCH = 2    #: bumped by the parent whenever the box changes
_NEED = 3         #: requested pair capacity (grow protocol)
_NBUILDS = 4      #: neighbor topology builds (rank 0 increments)
_RANK0 = 5        #: start of the per-rank counter arrays
# per-rank counter arrays (each ``nprocs`` long, starting at _RANK0):
_F_REF = 0        #: reference (skinned) pair count
_F_GHOST = 1      #: distinct out-of-window neighbor atoms
_F_REVERSE = 2    #: kept cross-rank reverse-pass entries
_NFIELDS = 3

#: a rank's one request: run a step
_STEP = True
#: seconds the ranks get to act on stop before they are terminated (a
#: rank wedged in a barrier after a peer failed never reads it)
_REAP_GRACE_S = 0.5

# per-rank scalar slots in the "scal" block (float64)
_S_VIRIAL = slice(0, 9)
_S_NEIGH = 9
_S_FORCE = 10
_S_COMM_FWD = 11
_S_COMM_REV = 12
_S_STAGE0 = 13    #: one slot per key of ``potential.last_timings``


def _pair_width(potential) -> int:
    """float64 values per published pair: the gradient, plus the bond
    energy on a pair potential's half list.  One reverse-pass entry is
    that many values (the owning rank already knows the target row, no
    index payload)."""
    return 4 if potential.pairwise else 3


def _pair_blocks(prefix: str, gen: int) -> dict[str, str]:
    """Names of the generation-``gen`` pair-space blocks."""
    return {"val": f"{prefix}-val-g{gen}",
            "kept": f"{prefix}-kept-g{gen}",
            "jref": f"{prefix}-jref-g{gen}"}


def _cleanup(ranks: list, blocks: dict) -> None:
    """The engine's finalizer: reap the ranks, unlink every block.

    Runs once, from ``ProcessEngine.close()``, at garbage collection of
    an abandoned engine or at exit; blocks that are already gone are
    tolerated.
    """
    workers.reap(ranks, _REAP_GRACE_S)
    for block in blocks.values():
        block.close()


# ======================================================================
# worker side
# ======================================================================
class _WorkerState:
    """Per-process state of one rank: the server a rank's worker runs.

    Owns the rank's attachments, its row-window neighbor list and the
    rebuild-time neighbor-incidence index used for the reverse pass.
    Nothing here is shared between threads - each worker is a fresh
    process - so no locking is needed; cross-process ordering comes from
    the step request and reply on the rank's pipe and the step barriers.
    """

    hello = None

    def __init__(self, cfg: dict) -> None:
        self.rank: int = cfg["rank"]
        self.nprocs: int = cfg["nprocs"]
        self.alo: int = cfg["alo"]
        self.ahi: int = cfg["ahi"]
        self.natoms: int = cfg["natoms"]
        self.potential = cfg["potential"]
        self.width = _pair_width(self.potential)
        self.check_finite: bool = cfg["check_finite"]
        self.prefix: str = cfg["prefix"]
        self.barrier = cfg["barrier"]

        n = self.natoms
        self.pos = SharedBlock.attach(f"{self.prefix}-pos", (n, 3), np.float64)
        self.frc = SharedBlock.attach(f"{self.prefix}-frc", (n, 3), np.float64)
        self.pa = SharedBlock.attach(f"{self.prefix}-pa", (n,), np.float64)
        self.boxl = SharedBlock.attach(f"{self.prefix}-boxl", (3,), np.float64)
        self.ctl = SharedBlock.attach(
            f"{self.prefix}-ctl", (_RANK0 + _NFIELDS * self.nprocs,), np.int64)
        self.scal = SharedBlock.attach(
            f"{self.prefix}-scal", (self.nprocs, cfg["nscal"]), np.float64)
        self.gen = -1
        self.cap = 0
        self.val: SharedBlock | None = None
        self.kept: SharedBlock | None = None
        self.jref: SharedBlock | None = None
        self._attach_pair_blocks()

        self.neighbors = NeighborList.for_potential(
            self.potential, cfg["box"], skin=cfg["skin"],
            rows=(self.alo, self.ahi))
        self.box_epoch = 0
        self.ref_off = 0
        self.inc = np.zeros(0, dtype=np.intp)
        self.incj = np.zeros(0, dtype=np.intp)
        self.cross = np.zeros(0, dtype=bool)

    # ------------------------------------------------------------------
    def _slot(self, field: int) -> int:
        return _RANK0 + field * self.nprocs + self.rank

    def _field(self, field: int) -> np.ndarray:
        lo = _RANK0 + field * self.nprocs
        return self.ctl.array[lo:lo + self.nprocs]

    def _attach_pair_blocks(self) -> None:
        for block in (self.val, self.kept, self.jref):
            if block is not None:
                block.close()
        ctl = self.ctl.array
        self.gen = int(ctl[_GEN])
        self.cap = int(ctl[_CAP])
        names = _pair_blocks(self.prefix, self.gen)
        self.val = SharedBlock.attach(names["val"], (self.cap, self.width),
                                      np.float64)
        self.kept = SharedBlock.attach(names["kept"], (self.cap,), np.bool_)
        self.jref = SharedBlock.attach(names["jref"], (self.cap,), np.int64)

    # ------------------------------------------------------------------
    def __call__(self, request) -> None:
        """Run one step."""
        if int(self.ctl.array[_GEN]) != self.gen:
            self._attach_pair_blocks()
        self._step()

    def close(self) -> None:
        for block in (self.pos, self.frc, self.pa, self.boxl, self.scal,
                      self.val, self.kept, self.jref, self.ctl):
            if block is not None:
                block.close()

    # ------------------------------------------------------------------
    def _step(self) -> None:
        ctl = self.ctl.array
        # per-rank stopwatch in the worker process; the parent folds the
        # readings into its PhaseTimers
        t0 = time.perf_counter()
        if int(ctl[_BOX_EPOCH]) != self.box_epoch:
            # the cell changed (barostat, bind): a fresh list on the new
            # box, exactly like the serial engine's rebind
            self.box_epoch = int(ctl[_BOX_EPOCH])
            self.neighbors = self.neighbors.rebound(
                Box(lengths=self.boxl.array.copy(),
                    periodic=self.neighbors.box.periodic))
        builds = self.neighbors.nbuilds
        nbr = self.neighbors.get(self.pos.array)
        ref, keep = nbr.filtered_from
        t1 = time.perf_counter()
        if self.neighbors.nbuilds > builds:
            # new topology: agree on the ranks' offsets into the shared
            # reference pair space, then publish the neighbor ids
            ctl[self._slot(_F_REF)] = ref.npairs
            self.barrier.wait()
            counts = self._field(_F_REF).copy()
            total = int(counts.sum())
            if total > self.cap:
                # deterministic on every rank (same counts): all ranks
                # return together and the parent re-runs the step with
                # regrown pair blocks; an empty list makes that run
                # build, and so publish, again
                ctl[_NEED] = total
                self.neighbors = self.neighbors.rebound(self.neighbors.box)
                return
            self.ref_off = int(counts[:self.rank].sum())
            self.jref.array[self.ref_off:self.ref_off + ref.npairs] = ref.j_idx
            outside = (ref.j_idx < self.alo) | (ref.j_idx >= self.ahi)
            ctl[self._slot(_F_GHOST)] = int(np.unique(ref.j_idx[outside]).size)
            if self.rank == 0:
                ctl[_NBUILDS] += 1
            self.barrier.wait()
            # neighbor incidence of the owned window, grouped by owned
            # atom, ascending global pair index within each atom: the
            # gather order that equals the serial j-sorted slab
            jall = self.jref.array[:total]
            inc = np.nonzero((jall >= self.alo) & (jall < self.ahi))[0]
            order = np.argsort(jall[inc], kind="stable")
            self.inc = inc[order]
            self.incj = jall[self.inc]
            self.cross = ((self.inc < self.ref_off)
                          | (self.inc >= self.ref_off + ref.npairs))
        t2 = time.perf_counter()

        energy, dedr = self.potential.pair_gradients(nbr,
                                                     (self.alo, self.ahi))
        t3 = time.perf_counter()
        # publish the kept mask and the per-pair gradients (with a half
        # list's bond energies beside them) at their kept reference
        # slots (dropped slots are never gathered, so they can stay
        # stale) behind one barrier
        window = slice(self.ref_off, self.ref_off + ref.npairs)
        self.kept.array[window] = keep
        published = self.val.array[window]
        published[keep, :3] = dedr
        if nbr.half:
            published[keep, 3] = energy
        self.barrier.wait()
        # reverse pass: gather this window's neighbor incidence (kept
        # entries only) and run the serial assembly on the owned rows
        kmask = self.kept.array[self.inc]
        gathered = self.val.array[self.inc[kmask]]
        sides = (self.ahi - self.alo, nbr.i_idx - self.alo, dedr,
                 self.incj[kmask] - self.alo, gathered[:, :3])
        if nbr.half:
            f_own, pa_own = scatter_pair_forces(*sides, energy,
                                                gathered[:, 3])
        else:
            f_own, pa_own = scatter_pair_forces(*sides), energy
        virial = -(nbr.rij.T @ dedr)
        if self.check_finite:
            from ..core.sanitizers import check_finite

            check_finite("rank_force", where=f"proc{self.rank}",
                         peratom=pa_own, forces=f_own)
        ctl[self._slot(_F_REVERSE)] = int((kmask & self.cross).sum())
        self.frc.array[self.alo:self.ahi] = f_own
        self.pa.array[self.alo:self.ahi] = pa_own
        t4 = time.perf_counter()
        sc = self.scal.array
        sc[self.rank, _S_VIRIAL] = virial.ravel()
        sc[self.rank, _S_NEIGH] = t1 - t0
        sc[self.rank, _S_FORCE] = t3 - t2
        sc[self.rank, _S_COMM_FWD] = t2 - t1
        sc[self.rank, _S_COMM_REV] = t4 - t3
        sc[self.rank, _S_STAGE0:] = list(
            (self.potential.last_timings or {}).values())  # same key order


# ======================================================================
# parent side
# ======================================================================
class ProcessEngine(ForceEngine):
    """Row-slice multiprocess backend with persistent shared-memory ranks.

    Parameters
    ----------
    nprocs:
        Number of worker processes (= row-slice ranks).
    skin:
        Verlet skin, identical semantics to the serial backend.

    The pair-space capacity is estimated from the density with headroom
    and grown on the fly when a build exceeds it (the generation
    protocol); the ranks are :mod:`repro.parallel.workers` workers.

    Any :class:`~repro.potentials.Potential` runs here: the workers
    call its ``pair_gradients`` on their rows and nothing else.
    """

    def __init__(self, system, potential, nprocs: int, skin: float = 0.3,
                 check_finite: bool = False) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be positive")
        if skin < 0:
            raise ValueError("skin must be non-negative")
        self.system = system
        self.potential = potential
        self._width = _pair_width(potential)
        self.nprocs = int(nprocs)
        self.skin = float(skin)
        self.check_finite = bool(check_finite)
        self.timers = PhaseTimers()
        self.ledger = CommLedger()
        self.bounds = row_partition(system.natoms, self.nprocs)
        sizes = np.diff(self.bounds)
        self.ledger.max_rank_atoms = int(sizes.max())
        self.ledger.min_rank_atoms = int(sizes.min())

        n = system.natoms
        self._prefix = f"repro-pe-{os.getpid()}-{secrets.token_hex(3)}"
        self._blocks: dict[str, SharedBlock] = {}
        #: one :class:`~repro.parallel.workers.Worker` per rank
        self._workers: list = []
        self._closed = False
        self._finalizer = workers.finalizer(self, _cleanup, self._workers,
                                            self._blocks)
        self._blocks["pos"] = SharedBlock.create(
            f"{self._prefix}-pos", (n, 3), np.float64)
        self._blocks["frc"] = SharedBlock.create(
            f"{self._prefix}-frc", (n, 3), np.float64)
        self._blocks["pa"] = SharedBlock.create(
            f"{self._prefix}-pa", (n,), np.float64)
        self._blocks["boxl"] = SharedBlock.create(
            f"{self._prefix}-boxl", (3,), np.float64)
        self._blocks["ctl"] = SharedBlock.create(
            f"{self._prefix}-ctl", (_RANK0 + _NFIELDS * self.nprocs,),
            np.int64)
        #: stage names of the potential's ``last_timings`` (one "scal"
        #: slot each; the workers' copies fill in the seconds)
        self._stages = tuple(potential.last_timings or ())
        nscal = _S_STAGE0 + len(self._stages)
        self._blocks["scal"] = SharedBlock.create(
            f"{self._prefix}-scal", (self.nprocs, nscal), np.float64)
        self._create_pair_blocks(gen=0,
                                 cap=max(self._estimate_capacity(), 64))
        #: the box the workers' lists are on (they start on this one)
        self._box = system.box
        self._nbuilds_seen = 0
        #: raw positions of the last worker topology rebuild (workers
        #: rebuild in lockstep; the parent mirrors the build reference
        #: so MDLoop checkpoints can replay it on restore)
        self._ref_raw: np.ndarray | None = None

        # The parent MUST keep the barrier alive while the ranks run:
        # Process.start() drops its args, and a collected Barrier returns
        # its state block to the multiprocessing heap arena the forked
        # ranks share - the next engine's barrier would get the SAME block
        # and both engines' ranks would corrupt it and deadlock.
        self._barrier = workers.worker_context().Barrier(self.nprocs)
        for rank in range(self.nprocs):
            cfg = {
                "rank": rank, "nprocs": self.nprocs,
                "alo": int(self.bounds[rank]),
                "ahi": int(self.bounds[rank + 1]),
                "natoms": n, "nscal": nscal, "box": system.box,
                "potential": potential, "skin": self.skin,
                "check_finite": self.check_finite,
                "prefix": self._prefix, "barrier": self._barrier,
            }
            self._workers.append(workers.Worker(
                f"repro-pe-{rank}", _WorkerState, cfg, daemon=True))
        self._collect()  # every rank attached, or the engine fails

    # ------------------------------------------------------------------
    @property
    def _ctl(self) -> np.ndarray:
        return self._blocks["ctl"].array

    def _estimate_capacity(self) -> int:
        """Reference pair count estimate with headroom (grow covers misses)."""
        rc = self.potential.cutoff + self.skin
        density = self.system.natoms / max(self.system.box.volume, 1e-300)
        per_atom = 4.0 / 3.0 * np.pi * rc ** 3 * density
        if self.potential.pairwise:  # a half list: each bond once
            per_atom /= 2
        return int(self.system.natoms * per_atom * 1.6) + 1024

    def _create_pair_blocks(self, gen: int, cap: int) -> None:
        names = _pair_blocks(self._prefix, gen)
        self._blocks["val"] = SharedBlock.create(names["val"],
                                                 (cap, self._width),
                                                 np.float64)
        self._blocks["kept"] = SharedBlock.create(names["kept"], (cap,),
                                                  np.bool_)
        self._blocks["jref"] = SharedBlock.create(names["jref"], (cap,),
                                                  np.int64)
        self._ctl[_GEN] = gen
        self._ctl[_CAP] = cap

    def _grow(self) -> None:
        """Service a capacity request: new pair blocks, next generation.

        Workers still hold mappings of the old generation; unlinking
        only removes the name, the mappings stay valid until each worker
        re-attaches (same semantics as an unlinked open file).
        """
        ctl = self._ctl
        need = int(ctl[_NEED])
        gen = int(ctl[_GEN]) + 1
        for key in ("val", "kept", "jref"):
            self._blocks[key].close()
        self._create_pair_blocks(gen=gen, cap=int(need * 1.3) + 64)
        ctl[_NEED] = 0

    def _publish_box(self, box) -> None:
        """Hand the workers a new cell: each builds a fresh list on it."""
        self._box = box
        self._blocks["boxl"].array[:] = box.lengths
        self._ctl[_BOX_EPOCH] += 1

    # ------------------------------------------------------------------
    def _collect(self) -> None:
        """Take one reply from every rank.  The first rank that failed
        or died closes the engine and raises, naming the rank, from the
        rank's own error - peers it left in a barrier are not waited
        for."""
        pending = {worker: rank for rank, worker in enumerate(self._workers)}
        while pending:
            for worker in workers.wait(pending):
                rank = pending.pop(worker, None)
                if rank is None:
                    continue  # a dead rank's pipe and sentinel, both ready
                try:
                    worker.reply()
                except Exception as err:
                    self.close()
                    raise RuntimeError(
                        f"process backend worker rank {rank} failed") from err

    # ------------------------------------------------------------------
    def evaluate(self, positions: np.ndarray | None = None) -> EnergyForces:
        if self._closed:
            raise RuntimeError("ProcessEngine is closed")
        system = self.system
        if positions is None:
            positions = system.positions
        ctl = self._ctl
        if self._box is not system.box:
            # the barostat rescaled the cell (Box is frozen: a changed
            # cell is a new object)
            self._publish_box(system.box)
        self._blocks["pos"].array[:] = positions
        while True:
            for worker in self._workers:
                worker.send(_STEP)
            self._collect()
            if int(ctl[_NEED]) > int(ctl[_CAP]):
                self._grow()
                continue
            break

        # fold the per-rank stopwatches and the comm ledger
        scal = self._blocks["scal"].array
        rebuilt = int(ctl[_NBUILDS]) != self._nbuilds_seen
        self._nbuilds_seen = int(ctl[_NBUILDS])
        self.ledger.rebuilds = self._nbuilds_seen
        if rebuilt:
            self._ref_raw = np.array(positions)
        lo = _RANK0 + _F_GHOST * self.nprocs
        ghosts = int(self._ctl[lo:lo + self.nprocs].sum())
        lo = _RANK0 + _F_REVERSE * self.nprocs
        reverse_entries = int(self._ctl[lo:lo + self.nprocs].sum())
        ledger = self.ledger
        ledger.steps += 1
        ledger.ghost_atoms += ghosts
        ledger.ghost_bytes += ghosts * (BYTES_PER_GHOST if rebuilt
                                        else BYTES_PER_POSITION)
        ledger.reverse_bytes += reverse_entries * 8 * self._width
        t_neigh = float(scal[:, _S_NEIGH].sum())
        t_force = float(scal[:, _S_FORCE].sum())
        t_fwd = float(scal[:, _S_COMM_FWD].sum())
        t_rev = float(scal[:, _S_COMM_REV].sum())
        self.timers.add("neigh", t_neigh)
        self.timers.add("neigh.rebuild" if rebuilt else "neigh.refresh",
                        t_neigh)
        self.timers.add("force", t_force)
        for slot, key in enumerate(self._stages, start=_S_STAGE0):
            self.timers.add(f"force.{key}", float(scal[:, slot].sum()))
        self.timers.add("comm", t_fwd + t_rev)
        self.timers.add("comm.halo_build" if rebuilt else "comm.forward",
                        t_fwd)
        self.timers.add("comm.reverse", t_rev)

        peratom = self._blocks["pa"].array.copy()
        forces = self._blocks["frc"].array.copy()
        virial = np.zeros((3, 3))
        for rank in range(self.nprocs):  # fixed rank order
            virial += scal[rank, _S_VIRIAL].reshape(3, 3)
        return EnergyForces(energy=float(peratom.sum()), peratom=peratom,
                            forces=forces, virial=virial)

    # ------------------------------------------------------------------
    def bind(self, system) -> None:
        """Rebind to ``system``, keeping workers and shared blocks alive.

        The shared blocks and the row partition are sized at
        construction, so the new system must have the same atom count;
        the potential was pickled into the workers, so the type array
        must match too.  The box epoch is bumped unconditionally -
        coordinates within the old Verlet skin must not silently reuse
        the stale pair order, or the bitwise fresh-vs-rebound contract
        breaks.
        """
        if self._closed:
            raise RuntimeError("ProcessEngine is closed")
        if system.natoms != self.system.natoms:
            raise ValueError(
                f"cannot bind {system.natoms} atoms to a ProcessEngine "
                f"sized for {self.system.natoms}: the shared blocks and "
                "row partition are fixed at construction")
        if not np.array_equal(system.types, self.system.types):
            raise ValueError(
                "cannot change atom types on a bound ProcessEngine: the "
                "potential was pickled into the workers at construction")
        super().bind(system)
        self._publish_box(system.box)
        self._ref_raw = None

    @property
    def neighbor_builds(self) -> int:
        return self.ledger.rebuilds

    @property
    def topology_reference(self) -> np.ndarray | None:
        return None if self._ref_raw is None else self._ref_raw.copy()

    def summary_extras(self) -> dict:
        return {
            "nprocs": self.nprocs,
            "skin": self.skin,
            "rebuilds": self.ledger.rebuilds,
            "ghost_bytes_per_step": self.ledger.ghost_bytes_per_step,
            "reverse_bytes_per_step": self.ledger.reverse_bytes_per_step,
        }

    def close(self) -> None:
        """Stop the workers and unlink every shared block (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()
        self._barrier = None  # the ranks are gone: free its heap block
        super().close()

    @property
    def block_names(self) -> list[str]:
        """Names of the live shared blocks (leak-test introspection)."""
        return sorted(block.name for block in self._blocks.values())
