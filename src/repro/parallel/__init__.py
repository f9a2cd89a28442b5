"""Domain decomposition: the halo census and the multiprocess engine."""

from .decomposition import DomainGrid, best_grid, row_partition
from .halo import (BYTES_PER_GHOST, BYTES_PER_POSITION, Halo, build_halos,
                   forward_bytes, halo_census)
from .process_engine import ProcessEngine
from .shm import SharedBlock

__all__ = [
    "best_grid",
    "DomainGrid",
    "row_partition",
    "Halo",
    "build_halos",
    "BYTES_PER_GHOST",
    "BYTES_PER_POSITION",
    "forward_bytes",
    "halo_census",
    "ProcessEngine",
    "SharedBlock",
]
