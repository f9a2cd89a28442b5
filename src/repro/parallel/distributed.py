"""Domain-decomposed force backend: the in-process MPI model.

:class:`DistributedEngine` partitions atoms over a 3D grid of virtual
ranks and evaluates them one after another on the calling thread.  It
buys no speed on one host (:class:`~repro.parallel.ProcessEngine` is the
parallel mechanism); it exists to *account* for what a real MPI run
would communicate, so the Fig. 4 SNAP / MPI / Other split can be
measured: every run carries ``comm.halo_build`` / ``comm.forward`` /
``comm.reverse`` sub-phases, the per-kernel ``force.<stage>`` split and
a :class:`~repro.md.engine.CommLedger` of halo traffic.

The communication scheme is LAMMPS "newton on": ghost shells one
(skinned) cutoff wide.  Each rank evaluates only the pairs whose
*central* atom it owns, accumulates the partial forces that land on its
ghost rows, and reverse-communicates them back to the owner ranks
(:func:`repro.parallel.comm.reverse_scatter_add`).  Every
cross-boundary pair is computed exactly once.  Exact for all bundled
potentials because their energies decompose into per-central-atom terms
whose force contributions touch only the central atom's own cutoff ball
(SNAP adjoint, SW triplets, FS embedding, radial pairs).  The
accumulated global virial is exact, so pressure and the barostat work
on this backend like on the others.

Halos and per-rank neighbor lists are **persistent**: built with a
Verlet skin and reused across steps, with only the ghost-position
refresh (forward communication) and an O(npairs) distance filter per
step; a rebuild happens when any atom has moved more than half the skin
since the last build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.snap import EnergyForces, NeighborBatch
from ..md.box import Box
from ..md.engine import CommLedger, ForceEngine
from ..md.neighbor import build_pairs, filter_pairs, refresh_pairs
from ..md.system import ParticleSystem
from ..md.timers import PhaseTimers
from ..potentials.base import Potential
from .comm import CommStats, reverse_scatter_add
from .decomposition import DomainGrid
from .halo import BYTES_PER_GHOST, BYTES_PER_POSITION, build_halos

__all__ = ["DistributedEngine"]


@dataclass
class _RankState:
    """Persistent per-rank halo + neighbor state between rebuilds."""

    #: global indices of owned atoms
    owned: np.ndarray
    #: global indices of ghost atoms (one entry per periodic image)
    ghost_idx: np.ndarray
    #: owned followed by ghost global indices (displacement gather)
    local_idx: np.ndarray
    #: skin-extended pair topology on the local cluster (may be empty)
    pairs: NeighborBatch
    #: pairs whose central atom is owned (None on an empty rank)
    central_mask: np.ndarray | None

    @property
    def nowned(self) -> int:
        return self.owned.shape[0]

    @property
    def nlocal(self) -> int:
        return self.local_idx.shape[0]


def _cluster_pairs(local_pos: np.ndarray, cutoff: float) -> NeighborBatch:
    """Free-space pair search on a local atom cluster (ghosts included).

    Degenerate clusters (zero or one atom) yield an empty batch without
    constructing a box - a single-atom rank must not trip on a
    zero-extent bounding box.
    """
    if local_pos.shape[0] < 2:
        z = np.zeros(0, dtype=np.intp)
        return NeighborBatch(i_idx=z, rij=np.zeros((0, 3)), r=np.zeros(0),
                             j_idx=z)
    lo = local_pos.min(axis=0) - 1.5 * cutoff
    hi = local_pos.max(axis=0) + 1.5 * cutoff
    open_box = Box(lengths=hi - lo, periodic=(False, False, False))
    return build_pairs(local_pos - lo, open_box, cutoff)


class DistributedEngine(ForceEngine):
    """Domain-decomposed backend over a grid of virtual MPI ranks.

    Implements the paper's parallelization scheme in-process: atoms are
    partitioned over a 3D rank grid, each rank computes forces on the
    atoms it owns using owned + ghost atoms, and halo traffic is
    accounted per evaluation in the :class:`CommLedger`.  Ranks run in
    rank order on the calling thread and their results are accumulated
    in that same order.  The global virial is exact: every ordered pair
    is evaluated exactly once across ranks.

    Parameters
    ----------
    nranks:
        Virtual MPI ranks (3D grid chosen by :func:`best_grid`).
    skin:
        Verlet skin [A] added to the halo width and the per-rank pair
        lists; halos and neighbor lists persist until an atom moves more
        than ``skin/2``.
    check_finite:
        Debug sanitizer (default off): validate every per-rank kernel
        output and the globally accumulated forces for NaN/Inf, raising
        :class:`repro.lint.sanitizers.NumericsError` with rank and phase
        attribution.
    """

    def __init__(self, system: ParticleSystem, potential: Potential,
                 nranks: int, skin: float = 0.3,
                 check_finite: bool = False) -> None:
        if skin < 0:
            raise ValueError("skin must be non-negative")
        self.system = system
        self.potential = potential
        self.grid = DomainGrid.for_ranks(system.box, nranks)
        self.timers = PhaseTimers()
        self.ledger = CommLedger()
        self.comm_stats = CommStats()
        self.skin = float(skin)
        #: halo width and per-rank pair-list reach
        self._skinned_cutoff = potential.cutoff + self.skin
        self._ranks: list[_RankState] | None = None
        self._ref_pos: np.ndarray | None = None
        #: raw (pre-wrap) positions of the last rebuild; wrap() is
        #: deterministic, so re-evaluating at these replays the build
        self._ref_raw: np.ndarray | None = None
        self._ghost_count = 0
        self.check_finite = bool(check_finite)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def neighbor_builds(self) -> int:
        return self.ledger.rebuilds

    @property
    def topology_reference(self) -> np.ndarray | None:
        return None if self._ref_raw is None else self._ref_raw.copy()

    def bind(self, system: ParticleSystem) -> None:
        """Rebind to ``system``.

        Dropping the rank states forces the next :meth:`evaluate` to
        reassign owners and rebuild halos/pair lists at the bound
        coordinates; the grid is recomputed for the (possibly different)
        box at the same rank count.
        """
        super().bind(system)
        self.grid = DomainGrid.for_ranks(system.box, self.grid.nranks)
        self._ranks = None
        self._ref_pos = None
        self._ref_raw = None

    def summary_extras(self) -> dict:
        return {
            "nranks": self.grid.nranks,
            "grid": self.grid.dims,
            "skin": self.skin,
            "rebuilds": self.ledger.rebuilds,
            "ghost_bytes_per_step": self.ledger.ghost_bytes_per_step,
            "reverse_bytes_per_step": self.ledger.reverse_bytes_per_step,
        }

    # ------------------------------------------------------------------
    # persistent halo / neighbor maintenance
    # ------------------------------------------------------------------
    def _rebuild(self, pos: np.ndarray) -> None:
        """Reassign owners, rebuild skinned halos and per-rank pair lists."""
        grid = self.grid
        owner = grid.assign_atoms(pos)
        halos = build_halos(grid, pos, owner, self._skinned_cutoff)
        states: list[_RankState] = []
        for rank in range(grid.nranks):
            owned = np.nonzero(owner == rank)[0]
            halo = halos[rank]
            if owned.size == 0:
                z = np.zeros(0, dtype=np.intp)
                states.append(_RankState(
                    owned=owned, ghost_idx=z, local_idx=z,
                    pairs=_cluster_pairs(np.zeros((0, 3)), 0.0),
                    central_mask=None))
                continue
            local_pos = np.concatenate([pos[owned], halo.positions])
            pairs = _cluster_pairs(local_pos, self._skinned_cutoff)
            states.append(_RankState(
                owned=owned, ghost_idx=halo.indices,
                local_idx=np.concatenate([owned, halo.indices]),
                pairs=pairs, central_mask=pairs.i_idx < owned.size))
        self._ranks = states
        self._ref_pos = pos.copy()
        self._ghost_count = sum(h.count for h in halos)
        counts = np.bincount(owner, minlength=grid.nranks)
        self.ledger.rebuilds += 1
        self.ledger.max_rank_atoms = max(self.ledger.max_rank_atoms,
                                         int(counts.max()))
        # 0 is a real minimum (an empty rank), so the rebuild count, not
        # the value, says whether there is an earlier minimum to keep
        fewest = int(counts.min())
        self.ledger.min_rank_atoms = fewest if self.ledger.rebuilds == 1 \
            else min(self.ledger.min_rank_atoms, fewest)

    # ------------------------------------------------------------------
    # per-rank evaluation
    # ------------------------------------------------------------------
    def _eval_rank(self, rank: int, state: _RankState,
                   disp: np.ndarray | None, rebuilt: bool):
        """One rank's force evaluation against the persistent lists.

        Returns ``(energy, owned_peratom, owned_forces, ghost_forces,
        virial)``; ``ghost_forces`` is ``None`` for a rank that owns no
        atoms.  With ``check_finite`` on, kernel outputs are validated
        here so a NaN is attributed to the rank that produced it.
        """
        if state.nowned == 0:
            return 0.0, np.zeros(0), np.zeros((0, 3)), None, np.zeros((3, 3))
        with self.timers.phase("neigh"), self.timers.phase(
                "neigh.rebuild" if rebuilt else "neigh.refresh"):
            ref = state.pairs
            if disp is None:
                rij, r = ref.rij, ref.r
            else:
                rij, r = refresh_pairs(ref, disp[state.local_idx])
            keep = r < self.potential.cutoff
            keep &= state.central_mask
            nbr = filter_pairs(ref, rij, r, keep)
        with self.timers.phase("force"):
            result: EnergyForces = self.potential.compute(state.nlocal, nbr)
        # kernel-stage split (SNAP-backed potentials expose last_timings)
        for k, v in (getattr(self.potential, "last_timings", None) or {}).items():
            self.timers.add(f"force.{k}", v)
        nown = state.nowned
        # only owned-central pairs were evaluated, so owned rows hold
        # this rank's full central contributions and ghost rows the
        # partial forces owed to other ranks
        if self.check_finite:
            from ..lint.sanitizers import check_finite

            check_finite("rank_force", where=f"rank{rank}",
                         peratom=result.peratom[:nown],
                         forces=result.forces)
        peratom = result.peratom[:nown]
        energy = float(peratom.sum())
        return energy, peratom, result.forces[:nown], result.forces[nown:], \
            result.virial

    # ------------------------------------------------------------------
    def evaluate(self, positions: np.ndarray | None = None) -> EnergyForces:
        """One decomposed force evaluation; returns global EnergyForces."""
        system = self.system
        if self.grid.box is not system.box:
            # the barostat rescaled the cell: rebuild the rank grid
            # around the new box and force a halo rebuild
            self.grid = DomainGrid.for_ranks(system.box, self.grid.nranks)
            self._ranks = None
        if positions is None:
            positions = system.positions
        pos = system.box.wrap(positions)
        n = system.natoms
        ledger = self.ledger

        disp: np.ndarray | None = None
        if self._ranks is None:
            rebuild = True
        else:
            disp = system.box.minimum_image(pos - self._ref_pos)
            rebuild = bool(np.max(np.sum(disp * disp, axis=1))
                           > (0.5 * self.skin) ** 2)
        if rebuild:
            with self.timers.phase("comm"), \
                    self.timers.phase("comm.halo_build"):
                self._rebuild(pos)
            self._ref_raw = np.array(positions)
            disp = None
            ledger.ghost_bytes += self._ghost_count * BYTES_PER_GHOST
        else:
            # forward communication: refresh ghost positions in place
            with self.timers.phase("comm"), self.timers.phase("comm.forward"):
                ledger.ghost_bytes += self._ghost_count * BYTES_PER_POSITION
        ledger.steps += 1
        ledger.ghost_atoms += self._ghost_count

        energy = 0.0
        peratom = np.zeros(n)
        forces = np.zeros((n, 3))
        virial = np.zeros((3, 3))
        ghost_blocks: list[np.ndarray] = []
        ghost_values: list[np.ndarray] = []
        for rank, state in enumerate(self._ranks):
            e, pa, owned_f, ghost_f, vir = self._eval_rank(rank, state, disp,
                                                           rebuild)
            energy += e
            peratom[state.owned] = pa
            forces[state.owned] += owned_f
            virial += vir
            if ghost_f is not None:
                ghost_blocks.append(state.ghost_idx)
                ghost_values.append(ghost_f)

        if ghost_blocks:
            with self.timers.phase("comm"), self.timers.phase("comm.reverse"):
                before = self.comm_stats.bytes
                reverse_scatter_add(forces, ghost_blocks, ghost_values,
                                    stats=self.comm_stats)
                ledger.reverse_bytes += self.comm_stats.bytes - before
        if self.check_finite:
            from ..lint.sanitizers import check_finite

            check_finite("accumulate", where="distributed",
                         energy=np.array(energy), forces=forces)
        return EnergyForces(energy=energy, peratom=peratom, forces=forces,
                            virial=virial)
