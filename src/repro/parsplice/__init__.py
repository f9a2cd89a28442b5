"""Parallel Trajectory Splicing (extension; see DESIGN.md)."""

from .model import MarkovStateModel, arrhenius_msm, nanoparticle_landscape
from .oracle import TransitionOracle, measured_md_rate
from .qsd import (DoubleWell, evolve, exponentiality, first_escape_times,
                  qsd_sample)
from .scheduler import ParSpliceRun, run_parsplice
from .segments import MDSegment, Segment, SegmentGenerator, run_md_segment
from .service import SegmentScheduler, ServiceStats
from .splicer import SpliceEngine

__all__ = [
    "MarkovStateModel",
    "arrhenius_msm",
    "nanoparticle_landscape",
    "Segment",
    "SegmentGenerator",
    "MDSegment",
    "run_md_segment",
    "SpliceEngine",
    "TransitionOracle",
    "measured_md_rate",
    "DoubleWell",
    "evolve",
    "qsd_sample",
    "first_escape_times",
    "exponentiality",
    "run_parsplice",
    "ParSpliceRun",
    "SegmentScheduler",
    "ServiceStats",
]
