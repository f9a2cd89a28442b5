"""Molecular-dynamics substrate: boxes, neighbor lists, integrators, driver."""

from .box import Box
from .dump import Checkpoint, load_checkpoint, write_checkpoint
from .engine import (EngineSession, ForceEngine, MDLoop, RunSummary,
                     SerialEngine, build_engine)
from .integrators import (BerendsenBarostat, BerendsenThermostat,
                          LangevinThermostat, VelocityVerlet)
from .minimize import FireResult, fire_minimize, relax_volume
from .neighbor import NeighborList, build_pairs, filter_pairs
from .system import ParticleSystem
from .timers import PhaseTimers
from .trajectory import (AsyncTrajectoryWriter, Frame, TrajectoryFile,
                         TrajectoryReader, WriterLedger)

__all__ = [
    "Box",
    "ParticleSystem",
    "NeighborList",
    "fire_minimize",
    "FireResult",
    "relax_volume",
    "build_pairs",
    "filter_pairs",
    "VelocityVerlet",
    "LangevinThermostat",
    "BerendsenThermostat",
    "BerendsenBarostat",
    "ForceEngine",
    "SerialEngine",
    "MDLoop",
    "EngineSession",
    "RunSummary",
    "build_engine",
    "PhaseTimers",
    "write_checkpoint",
    "load_checkpoint",
    "Checkpoint",
    "Frame",
    "TrajectoryFile",
    "TrajectoryReader",
    "WriterLedger",
]
