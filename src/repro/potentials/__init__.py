"""Interatomic potentials: SNAP adapter plus classical substrates."""

from .base import Potential
from .eam import FinnisSinclair
from .lj import LennardJones
from .snap_potential import SNAPPotential
from .sw import StillingerWeber
from .table import TablePotential

__all__ = [
    "Potential",
    "LennardJones",
    "FinnisSinclair",
    "StillingerWeber",
    "TablePotential",
    "SNAPPotential",
]
