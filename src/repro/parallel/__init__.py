"""Simulated-MPI domain decomposition substrate."""

from .comm import CommStats, reverse_scatter_add
from .decomposition import DomainGrid, best_grid, row_partition
from .distributed import DistributedEngine
from .halo import BYTES_PER_GHOST, BYTES_PER_POSITION, Halo, build_halos
from .process_engine import ProcessEngine
from .shm import SharedBlock

__all__ = [
    "CommStats",
    "reverse_scatter_add",
    "best_grid",
    "DomainGrid",
    "row_partition",
    "Halo",
    "build_halos",
    "BYTES_PER_GHOST",
    "BYTES_PER_POSITION",
    "DistributedEngine",
    "ProcessEngine",
    "SharedBlock",
]
