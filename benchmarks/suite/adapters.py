"""The one file through which the benchmark suite touches the repo.

Everything the suite calls in ``repro`` is imported (or wrapped) here, so
this import list *is* the API surface the benchmark depends on.  A change
that renames or removes one of these names breaks the benchmark here and
nowhere else.  Nothing below reaches into private attributes.

Kernel policy is pinned in :func:`snap_potential`: ``chunk`` and
``y_mode`` are passed at their non-``"auto"`` defaults so a host tuning DB
cannot change what is measured (``store_u`` keeps its dataclass default,
whose pair-count budget heuristic does not consult the DB; the decision
taken is reported as ``core.snap.store_u``).
"""

from __future__ import annotations

from repro.analysis import RDFObserver, ThermoObserver
from repro.core import SNAPParams
from repro.core.flops import flops_per_atom_step
from repro.core.indexing import SNAPIndex
from repro.md import (AsyncTrajectoryWriter, EngineSession, LangevinThermostat,
                      MDLoop, NeighborList, TrajectoryReader, VelocityVerlet,
                      build_engine)
from repro.md.trajectory import Frame, scan_trajectory
from repro.parsplice import SegmentScheduler, TransitionOracle
from repro.potentials import LennardJones, SNAPPotential
from repro.structures import lattice_system, random_packed, replicate

__all__ = [
    "AsyncTrajectoryWriter", "EngineSession", "Frame", "LangevinThermostat",
    "LennardJones", "MDLoop", "NeighborList", "RDFObserver", "SNAPIndex",
    "SegmentScheduler", "ThermoObserver", "TrajectoryReader",
    "TransitionOracle", "VelocityVerlet", "build_engine",
    "flops_per_atom_step", "lattice_system", "random_packed", "replicate",
    "scan_trajectory", "snap_potential",
]

#: pinned SNAP kernel policy (the SNAPParams non-"auto" defaults)
SNAP_CHUNK = 4096
SNAP_Y_MODE = "dense"


def snap_potential(twojmax: int, rcut: float, beta) -> SNAPPotential:
    """Linear SNAP with the kernel policy pinned (see module docstring)."""
    params = SNAPParams(twojmax=twojmax, rcut=rcut, chunk=SNAP_CHUNK,
                        y_mode=SNAP_Y_MODE)
    return SNAPPotential(params, beta=beta)
