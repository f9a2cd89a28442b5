"""Persistent-worker multiprocess force backend over shared memory.

:class:`ProcessEngine` is the parallel :class:`~repro.md.engine.ForceEngine`:
ranks are long-lived **worker processes** (one fork per run, not per
step) that share their bulk data through named
``multiprocessing.shared_memory`` blocks and pass everything else in
one small message each way per step - the persistent-worker /
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

Ranks are :mod:`repro.parallel.workers` workers.  Bulk data moves
through shared blocks (positions, forces, per-atom energies and the
pair space); everything else rides in the step's messages.  A step is
one request out per rank over its pipe - ``(pair-block generation,
capacity, new cell or None)`` - and one reply back: the capacity need,
whether the list rebuilt, the ghost and reverse-entry counts, the
rank's virial and its stopwatch readings keyed by phase name.  The
parent folds the replies in rank order.  Among themselves the ranks
wait at one barrier per step (the kept mask and the per-pair values
are published together behind it) and at one more on a rebuild step,
where they exchange their reference pair counts through the one
control block; a rank publishes its neighbor ids before the values
barrier and reads the others' only after it.  A new generation or a
new cell resets a rank's list, which then rebuilds: pair-capacity
growth re-runs the step on pair blocks of the next generation, and
``bind()`` to a denser state starts that generation before the step.  The
parent owns every block and unlinks them all on ``close()``; the kit's
finalizer covers abandoned engines.  The parent waits on the ranks'
pipes and sentinels together, so a rank's exception (re-raised with its
traceback as the cause) or death fails the step at once, named with
the rank; a rank whose parent died reads end-of-file and exits.
"""

from __future__ import annotations

import os
import secrets
import time
from typing import NamedTuple

import numpy as np

from ..core.snap import EnergyForces, scatter_pair_forces
from ..md.box import Box
from ..md.engine import CommLedger, ForceEngine
from ..md.neighbor import NeighborList
from ..md.timers import PhaseTimers
from . import workers
from .decomposition import row_partition
from .halo import forward_bytes
from .shm import SharedBlock

__all__ = ["ProcessEngine"]

#: seconds the ranks get to act on stop before they are terminated (a
#: rank wedged in a barrier after a peer failed never reads it)
_REAP_GRACE_S = 0.5


class _Reply(NamedTuple):
    """What a rank sends back from one step."""

    #: reference pairs of all ranks on a rebuild step (0 on a refresh);
    #: above the capacity, the rank stopped before publishing
    need: int
    rebuilt: bool
    #: distinct out-of-window neighbor atoms of the rank's topology
    ghosts: int
    #: kept cross-rank reverse-pass entries
    reverse: int
    virial: np.ndarray | None
    #: the rank's stopwatch, seconds per phase name
    readings: dict[str, float]


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
        self.counts = SharedBlock.attach(f"{self.prefix}-counts",
                                         (self.nprocs,), np.int64)
        #: pair blocks: attached by the first request's generation
        self.gen = -1
        self.cap = 0
        self.val: SharedBlock | None = None
        self.kept: SharedBlock | None = None
        self.jref: SharedBlock | None = None

        self.neighbors = NeighborList.for_potential(
            self.potential, cfg["box"], skin=cfg["skin"],
            rows=(self.alo, self.ahi))
        self.ref_off = 0
        self.ghosts = 0
        self.inc = np.zeros(0, dtype=np.intp)
        self.incj = np.zeros(0, dtype=np.intp)
        self.cross = np.zeros(0, dtype=bool)

    def _attach_pair_blocks(self, gen: int, cap: int) -> None:
        for block in (self.val, self.kept, self.jref):
            if block is not None:
                block.close()
        self.gen, self.cap = gen, cap
        names = _pair_blocks(self.prefix, gen)
        self.val = SharedBlock.attach(names["val"], (cap, self.width),
                                      np.float64)
        self.kept = SharedBlock.attach(names["kept"], (cap,), np.bool_)
        self.jref = SharedBlock.attach(names["jref"], (cap,), np.int64)

    # ------------------------------------------------------------------
    def __call__(self, request: tuple) -> _Reply:
        """Run one step; ``request`` is ``(generation, capacity, cell)``."""
        gen, cap, box = request
        if gen != self.gen:
            # new pair blocks: the list rebuilds to publish into them
            self._attach_pair_blocks(gen, cap)
            if box is None:
                box = self.neighbors.box
        if box is not None:
            # a new cell (bind, restore, ``system.box =``) or new pair
            # blocks: a reset list, exactly like the serial engine's rebind
            self.neighbors.reset(box)
        return self._step()

    def close(self) -> None:
        for block in (self.pos, self.frc, self.pa, self.val, self.kept,
                      self.jref, self.counts):
            if block is not None:
                block.close()

    # ------------------------------------------------------------------
    def _step(self) -> _Reply:
        # per-rank stopwatch in the worker process; the parent folds the
        # readings into its PhaseTimers
        t0 = time.perf_counter()
        builds = self.neighbors.nbuilds
        nbr = self.neighbors.get(self.pos.array)
        ref, keep = nbr.filtered_from
        t1 = time.perf_counter()
        rebuilt = self.neighbors.nbuilds > builds
        need = 0
        if rebuilt:
            # new topology: agree on the ranks' offsets into the shared
            # reference pair space, then publish the neighbor ids (read
            # only behind the values barrier below)
            counts = self.counts.array
            counts[self.rank] = ref.npairs
            self.barrier.wait()
            need = int(counts.sum())
            if need > self.cap:
                # deterministic on every rank (same counts): all ranks
                # return together and the parent re-runs the step on
                # regrown pair blocks, whose generation resets the list
                return _Reply(need, rebuilt, 0, 0, None, {})
            self.ref_off = int(counts[:self.rank].sum())
            self.jref.array[self.ref_off:self.ref_off + ref.npairs] = ref.j_idx
            outside = (ref.j_idx < self.alo) | (ref.j_idx >= self.ahi)
            self.ghosts = int(np.unique(ref.j_idx[outside]).size)
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
        t4 = time.perf_counter()
        if rebuilt:
            # neighbor incidence of the owned window, grouped by owned
            # atom, ascending global pair index within each atom: the
            # gather order that equals the serial j-sorted slab
            jall = self.jref.array[:need]
            inc = np.nonzero((jall >= self.alo) & (jall < self.ahi))[0]
            order = np.argsort(jall[inc], kind="stable")
            self.inc = inc[order]
            self.incj = jall[self.inc]
            self.cross = ((self.inc < self.ref_off)
                          | (self.inc >= self.ref_off + ref.npairs))
        t5 = time.perf_counter()
        # reverse pass: gather this window's neighbor incidence (kept
        # entries only) and run the serial assembly on the owned rows
        kmask = self.kept.array[self.inc]
        gathered = self.val.array[self.inc[kmask]]
        sides = (self.ahi - self.alo, nbr.i_idx - self.alo, dedr,
                 self.incj[kmask] - self.alo, gathered[:, :3])
        if nbr.half:
            f_own, pa_own = scatter_pair_forces(*sides, energy,
                                                gathered[:, 3],
                                                scratch=nbr.scratch)
        else:
            f_own = scatter_pair_forces(*sides, scratch=nbr.scratch)
            pa_own = energy
        virial = -(nbr.rij.T @ dedr)
        if self.check_finite:
            from ..core.sanitizers import check_finite

            check_finite("rank_force", where=f"proc{self.rank}",
                         peratom=pa_own, forces=f_own)
        reverse = int((kmask & self.cross).sum())
        self.frc.array[self.alo:self.ahi] = f_own
        self.pa.array[self.alo:self.ahi] = pa_own
        t6 = time.perf_counter()
        fwd, rev = (t2 - t1) + (t5 - t4), (t4 - t3) + (t6 - t5)
        readings = {"neigh": t1 - t0,
                    "neigh.rebuild" if rebuilt else "neigh.refresh": t1 - t0,
                    "force": t3 - t2}
        for key, seconds in (self.potential.last_timings or {}).items():
            readings[f"force.{key}"] = seconds
        readings["comm"] = fwd + rev
        readings["comm.halo_build" if rebuilt else "comm.forward"] = fwd
        readings["comm.reverse"] = rev
        return _Reply(need, rebuilt, self.ghosts, reverse, virial, readings)


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
        #: each rank's reference pair count, exchanged on rebuild steps
        self._blocks["counts"] = SharedBlock.create(
            f"{self._prefix}-counts", (self.nprocs,), np.int64)
        self._create_pair_blocks(gen=0,
                                 cap=max(self._estimate_capacity(), 64))
        #: the cell the ranks' lists are on (None after ``bind()``: the
        #: next request hands them the new one, whatever it is)
        self._box: Box | None = system.box
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
                "natoms": n, "box": system.box,
                "potential": potential, "skin": self.skin,
                "check_finite": self.check_finite,
                "prefix": self._prefix, "barrier": self._barrier,
            }
            self._workers.append(workers.Worker(
                f"repro-pe-{rank}", _WorkerState, cfg, daemon=True))
        self._collect()  # every rank attached, or the engine fails

    # ------------------------------------------------------------------
    def _estimate_capacity(self) -> int:
        """Reference pair count estimate with headroom (grow covers misses)."""
        rc = self.potential.cutoff + self.skin
        density = self.system.natoms / max(self.system.box.volume, 1e-300)
        per_atom = 4.0 / 3.0 * np.pi * rc ** 3 * density
        if self.potential.pairwise:  # a half list: each bond once
            per_atom /= 2
        return int(self.system.natoms * per_atom * 1.6) + 1024

    def _create_pair_blocks(self, gen: int, cap: int) -> None:
        """The generation-``gen`` pair blocks, ``cap`` pairs long; ranks
        attach them when a request names the new generation."""
        names = _pair_blocks(self._prefix, gen)
        self._blocks["val"] = SharedBlock.create(names["val"],
                                                 (cap, self._width),
                                                 np.float64)
        self._blocks["kept"] = SharedBlock.create(names["kept"], (cap,),
                                                  np.bool_)
        self._blocks["jref"] = SharedBlock.create(names["jref"], (cap,),
                                                  np.int64)
        self._gen, self._cap = gen, cap

    def _grow_pair_blocks(self, cap: int) -> None:
        """Move to generation ``gen + 1`` with ``cap``-pair blocks.  Ranks
        keep mapping the old blocks until they attach the new ones -
        unlinking only removes the names."""
        for key in ("val", "kept", "jref"):
            self._blocks[key].close()
        self._create_pair_blocks(gen=self._gen + 1, cap=cap)

    # ------------------------------------------------------------------
    def _collect(self) -> list:
        """Take one reply from every rank, in rank order.  The first rank
        that failed or died closes the engine and raises, naming the
        rank, from the rank's own error - peers it left in a barrier are
        not waited for."""
        replies = [None] * len(self._workers)
        pending = {worker: rank for rank, worker in enumerate(self._workers)}
        while pending:
            for worker in workers.wait(pending):
                rank = pending.pop(worker, None)
                if rank is None:
                    continue  # a dead rank's pipe and sentinel, both ready
                try:
                    replies[rank] = worker.reply()
                except Exception as err:
                    self.close()
                    raise RuntimeError(
                        f"process backend worker rank {rank} failed") from err
        return replies

    # ------------------------------------------------------------------
    def evaluate(self, positions: np.ndarray | None = None) -> EnergyForces:
        if self._closed:
            raise RuntimeError("ProcessEngine is closed")
        system = self.system
        if positions is None:
            positions = system.positions
        # a new cell - from bind(), restore() or ``system.box =`` (Box
        # is frozen: a changed cell is a new object) - resets the ranks'
        # lists
        cell = None if system.box is self._box else system.box
        self._box = system.box
        self._blocks["pos"].array[:] = positions
        while True:
            request = (self._gen, self._cap, cell)
            for worker in self._workers:
                worker.send(request)
            replies = self._collect()
            need = replies[0].need
            if need <= self._cap:
                break
            # a build overflowed the pair blocks: the ranks stopped
            # before publishing; run the step again on the next generation
            self._grow_pair_blocks(int(need * 1.3) + 64)

        # fold the replies in rank order: the comm ledger, the per-rank
        # stopwatches and the virial
        rebuilt = replies[0].rebuilt
        if rebuilt:
            self._ref_raw = np.array(positions)
        ghosts = sum(reply.ghosts for reply in replies)
        ledger = self.ledger
        ledger.rebuilds += rebuilt
        ledger.steps += 1
        ledger.ghost_atoms += ghosts
        ledger.ghost_bytes += forward_bytes(ghosts, rebuilt)
        ledger.reverse_bytes += (sum(reply.reverse for reply in replies)
                                 * 8 * self._width)
        virial = np.zeros((3, 3))
        for rank in range(self.nprocs):  # fixed rank order
            virial += replies[rank].virial
            for name, seconds in replies[rank].readings.items():
                self.timers.add(name, seconds)

        peratom = self._blocks["pa"].array.copy()
        forces = self._blocks["frc"].array.copy()
        return EnergyForces(energy=float(peratom.sum()), peratom=peratom,
                            forces=forces, virial=virial)

    # ------------------------------------------------------------------
    def bind(self, system) -> None:
        """Rebind to ``system``, keeping workers and shared blocks alive.

        The shared blocks and the row partition are sized at
        construction, so the new system must have the same atom count;
        the potential was pickled into the workers, so the type array
        must match too.  The next request hands the ranks the cell
        unconditionally, which resets their lists - coordinates within
        the old Verlet skin must not silently reuse the stale pair
        order, or the bitwise fresh-vs-rebound contract breaks.  The
        pair blocks grow (never shrink) to the bound state's estimate,
        so a denser state does not build every rank's list twice in its
        first step.
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
        self._box = None
        self._ref_raw = None
        cap = self._estimate_capacity()
        if cap > self._cap:
            self._grow_pair_blocks(cap)

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
