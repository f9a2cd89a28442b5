"""Checkpoint I/O.

The paper's production runs wrote binary checkpoint files whose cost is
visible as the large dips of Fig. 7; our driver reproduces the behavior
(and accounts the time under the "io" phase) with uncompressed
``.npz`` checkpoints: deflate cost about 20 ms per 4 000-atom archive
for an 11 % smaller file.

Two restart-correctness guarantees live here:

* **suffix normalization** - ``np.savez`` silently appends
  ``.npz`` when the path lacks it, which historically made
  ``write_checkpoint("ckpt")`` land at ``ckpt.npz`` while
  ``load_checkpoint("ckpt")`` raised FileNotFoundError.  Both ends now
  normalize through :func:`checkpoint_path`.
* **atomic replace** - the archive is written to a temporary file in
  the target directory and moved onto the final path with
  ``os.replace``, so a crash mid-write can never leave a truncated
  checkpoint where a good one (or nothing) should be.

Streaming per-frame output lives in :mod:`repro.md.trajectory`; these
two modules are the only ones that open checkpoint/trajectory paths
for writing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .box import Box
from .system import ParticleSystem

__all__ = ["write_checkpoint", "load_checkpoint", "Checkpoint",
           "checkpoint_path"]

#: keys every checkpoint carries; anything else is loop/engine extras
_CORE_KEYS = frozenset({"positions", "velocities", "masses", "types",
                        "box_lengths", "periodic", "step"})


def checkpoint_path(path: str | Path) -> Path:
    """Normalize a checkpoint path to the ``.npz`` suffix savez uses."""
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    return path


def write_checkpoint(path: str | Path, system: ParticleSystem,
                     step: int = 0,
                     extra: dict[str, np.ndarray] | None = None) -> Path:
    """Atomically write a binary restart file; returns the actual path.

    ``extra`` arrays (thermostat RNG state, neighbor-topology reference,
    trajectory offsets, ...) are stored alongside the core keys and come
    back via :func:`load_checkpoint`; their names must not collide with
    the core keys.
    """
    path = checkpoint_path(path)
    arrays: dict[str, np.ndarray] = dict(
        positions=system.positions,
        velocities=system.velocities,
        masses=system.masses,
        types=system.types,
        box_lengths=system.box.lengths,
        periodic=np.array(system.box.periodic, dtype=bool),
        step=np.array(step),
    )
    if extra:
        overlap = _CORE_KEYS.intersection(extra)
        if overlap:
            raise ValueError(f"extra keys collide with core checkpoint "
                             f"keys: {sorted(overlap)}")
        arrays.update(extra)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


@dataclass
class Checkpoint:
    """Decoded restart file: the system plus whatever extras rode along."""

    system: ParticleSystem
    step: int
    extras: dict[str, np.ndarray] = field(default_factory=dict)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint including its extra arrays."""
    with np.load(checkpoint_path(path)) as data:
        box = Box(lengths=data["box_lengths"],
                  periodic=tuple(data["periodic"]))
        system = ParticleSystem(
            positions=data["positions"], box=box, masses=data["masses"],
            velocities=data["velocities"], types=data["types"])
        extras = {k: np.array(data[k]) for k in data.files
                  if k not in _CORE_KEYS}
        return Checkpoint(system=system, step=int(data["step"]),
                          extras=extras)
