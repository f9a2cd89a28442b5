"""The paper's primary contribution: the SNAP force kernel.

Public entry points:

* :class:`~repro.core.snap.SNAP` - optimized adjoint-refactorized kernel.
* :mod:`~repro.core.baseline` - Listing-1 reference implementation.
* :mod:`~repro.core.variants` - the TestSNAP optimization ladder (E2/E3).
* :mod:`~repro.core.flops` - FLOP model used by the performance model.
"""

from .indexing import SNAPIndex, num_bispectrum
from .io import read_snap_files, write_snap_files
from .rng import SeedStream
from .snap import SNAP, EnergyForces, NeighborBatch, SNAPParams

__all__ = [
    "SeedStream",
    "SNAP",
    "SNAPParams",
    "SNAPIndex",
    "NeighborBatch",
    "EnergyForces",
    "num_bispectrum",
    "write_snap_files",
    "read_snap_files",
]
