"""Parallel-filesystem write model for checkpoint / trajectory I/O.

The paper's Fig. 7 production trace shows periodic performance dips
when ~56 GB binary checkpoints hit Summit's Alpine GPFS.  A single
streaming write is well described by a latency + bandwidth model::

    t(n) = latency + nbytes / bandwidth

which also fits the measured throughput of this repo's own chunked
trajectory writer (the suite's ``md.trajectory.write_mb_per_s`` and
``md.trajectory.bytes_per_frame`` on ``lj4k_nvt_io``): per-frame
latency covers syscall + header overhead, bandwidth the payload burst.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FileSystemModel"]


@dataclass(frozen=True)
class FileSystemModel:
    """First-order write-cost model ``t = latency + nbytes / bandwidth``.

    Parameters
    ----------
    bandwidth:
        Sustained streaming write bandwidth [bytes/s].
    latency:
        Fixed per-write overhead [s]; 0 recovers the pure-bandwidth
        model the production trace used historically.
    """

    bandwidth: float
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")

    def write_seconds(self, nbytes) -> float | np.ndarray:
        """Wall seconds to write ``nbytes`` (scalar or array)."""
        nbytes = np.asarray(nbytes, dtype=float)
        if np.any(nbytes < 0):
            raise ValueError("nbytes must be non-negative")
        out = self.latency + nbytes / self.bandwidth
        return float(out) if out.ndim == 0 else out

    def bytes_per_s(self, nbytes: float) -> float:
        """Effective throughput for a write of ``nbytes``."""
        return float(nbytes) / self.write_seconds(nbytes)

    @classmethod
    def from_measurement(cls, nbytes, seconds) -> "FileSystemModel":
        """Fit the model to measured ``(nbytes, seconds)`` samples.

        One sample pins bandwidth with zero latency; two or more fit
        both by least squares (latency clamped at zero - a negative
        intercept just means the samples are bandwidth-dominated).
        """
        nbytes = np.atleast_1d(np.asarray(nbytes, dtype=float))
        seconds = np.atleast_1d(np.asarray(seconds, dtype=float))
        if nbytes.shape != seconds.shape or nbytes.size == 0:
            raise ValueError("need matching, non-empty samples")
        if np.any(seconds <= 0):
            raise ValueError("seconds must be positive")
        if nbytes.size == 1:
            return cls(bandwidth=float(nbytes[0] / seconds[0]))
        design = np.column_stack([np.ones_like(nbytes), nbytes])
        (latency, slope), *_ = np.linalg.lstsq(design, seconds, rcond=None)
        if slope <= 0:  # pathological samples: fall back to mean rate
            return cls(bandwidth=float(nbytes.sum() / seconds.sum()))
        return cls(bandwidth=float(1.0 / slope),
                   latency=float(max(latency, 0.0)))
