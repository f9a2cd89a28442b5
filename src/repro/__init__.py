"""repro: reproduction of "Billion atom molecular dynamics simulations of
carbon at extreme conditions and experimental time and length scales"
(SC '21, Gordon Bell finalist).

Subpackages
-----------
core
    SNAP machine-learning interatomic potential: bispectrum descriptors,
    the adjoint-refactorized force kernel, reference implementation and
    the TestSNAP optimization-variant ladder.
md
    Molecular-dynamics substrate: boxes/PBC, neighbor lists, integrators,
    thermostats, the instrumented simulation driver.
parallel
    Simulated-MPI domain decomposition: 3D grid, halo exchange with
    reverse communication, the distributed comm-model engine and the
    shared-memory multiprocess engine.
potentials
    Classical potentials used as substrates/baselines (LJ, EAM,
    bond-order carbon).
train
    FitSNAP-style linear training of SNAP coefficients.
structures
    Lattice builders (diamond, BC8, ...) and amorphous-carbon generation.
analysis
    RDF, Steinhardt order parameters, phase classification, thermo.
perfmodel
    Machine/communication performance model regenerating the paper's
    scaling tables and figures.
parsplice, exaalt
    Extensions covered by the source lecture: Parallel Trajectory
    Splicing and the EXAALT task-management framework (simulators).
"""

from . import constants
from .core import SNAP, NeighborBatch, SNAPIndex, SNAPParams

__version__ = "1.0.0"

__all__ = ["SNAP", "SNAPParams", "SNAPIndex", "NeighborBatch", "constants", "__version__"]
