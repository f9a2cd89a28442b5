"""Kernel-policy resolution: pin ``"auto"`` SNAPParams fields to values.

:class:`repro.core.SNAPParams` accepts ``"auto"`` for ``chunk``,
``y_mode`` and ``store_u``.  The first evaluation resolves those fields
*once* (sticky, see :meth:`repro.core.SNAP.resolve_tuning`) through
:func:`resolve_params`: the problem shape is bucketed into a
:func:`shape_key`, a persisted :class:`repro.tuning.TuningDB` entry for
that key wins if one exists, and conservative defaults apply otherwise.
The decision is recorded as a :class:`TunedConfig` so drivers and run
summaries can name the configuration that actually ran.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

__all__ = ["TunedConfig", "shape_key", "resolve_params",
           "DEFAULT_CHUNK", "DEFAULT_Y_MODE"]

#: shape-key namespace; bump together with the bucketing scheme.
KEY_TAG = "v1"

#: conservative fallbacks when no tuning-DB entry matches the shape.
DEFAULT_CHUNK = 4096
DEFAULT_Y_MODE = "dense"

_STORE_U_MODES = ("auto", "always", "never")
_Y_MODES = ("dense", "sparse")


def _pow2_bucket(value: float) -> int:
    """Smallest power of two >= ``value`` (minimum 1).

    Shapes whose neighbor density / atom count land in the same bucket
    share one tuning-DB entry - kernel timings vary smoothly with both,
    so a factor-of-two granularity is plenty.
    """
    n = max(1, math.ceil(value))
    return 1 << (n - 1).bit_length()


def shape_key(twojmax: int, natoms: int, npairs: int, nprocs: int = 1) -> str:
    """Bucketed problem-shape key for tuning-DB lookups.

    ``twojmax`` and ``nprocs`` enter exactly (they change the kernel,
    not just its size); atom count and neighbor density are bucketed to
    the next power of two.
    """
    density = npairs / natoms if natoms > 0 else 0.0
    return (f"{KEY_TAG}:2j{twojmax}:nbr{_pow2_bucket(density)}"
            f":na{_pow2_bucket(natoms)}:np{int(nprocs)}")


@dataclass(frozen=True)
class TunedConfig:
    """The kernel-policy decision taken for one evaluator.

    ``source`` is ``"db"`` when a tuning-DB entry matched the shape key
    and ``"default"`` otherwise; ``seconds`` carries the winning probe
    time when the entry came from a measurement.
    """

    key: str
    source: str
    chunk: int
    store_u: str
    y_mode: str
    seconds: float | None = None

    def describe(self) -> str:
        """One-line human summary for run summaries / CLI output."""
        tail = f"[{self.source}:{self.key}"
        if self.seconds is not None:
            tail += f", probe {self.seconds * 1e3:.1f} ms"
        return (f"chunk={self.chunk} store_u={self.store_u} "
                f"y_mode={self.y_mode} " + tail + "]")


def _entry_is_sane(entry) -> bool:
    """Validate a DB entry before letting it steer the kernel.

    The DB file is user-editable JSON; a malformed entry must degrade
    to defaults (with a warning), never crash the evaluation.
    """
    if not isinstance(entry, dict):
        return False
    chunk = entry.get("chunk")
    if not isinstance(chunk, int) or isinstance(chunk, bool) or chunk < 1:
        return False
    if entry.get("y_mode") not in _Y_MODES:
        return False
    return entry.get("store_u") in _STORE_U_MODES


def resolve_params(params, *, natoms: int = 0, npairs: int = 0,
                   nprocs: int = 1, db=None):
    """Resolve ``"auto"`` fields of a ``SNAPParams`` record.

    Returns ``(resolved_params, TunedConfig)``.  Explicitly-set fields
    are never overridden - only fields left at ``"auto"`` are filled in,
    from a matching (and sane) tuning-DB entry when one exists, else
    from the conservative defaults.  ``db=None`` opens the default DB
    (:func:`repro.tuning.default_db_path`), so a previously-run
    ``repro tune`` is picked up without any wiring.
    """
    if db is None:
        from .db import TuningDB
        db = TuningDB()
    key = shape_key(params.twojmax, natoms, npairs, nprocs)
    entry = db.lookup(key)
    if entry is not None and not _entry_is_sane(entry):
        warnings.warn(
            f"tuning DB entry for {key!r} is malformed; "
            "falling back to default kernel policy",
            RuntimeWarning, stacklevel=2)
        entry = None

    chunk = params.chunk
    if chunk == "auto":
        chunk = entry["chunk"] if entry else DEFAULT_CHUNK
    y_mode = params.y_mode
    if y_mode == "auto":
        y_mode = entry["y_mode"] if entry else DEFAULT_Y_MODE
    store_u = params.store_u
    if store_u == "auto" and entry:
        store_u = entry["store_u"]

    if (chunk, y_mode, store_u) != (params.chunk, params.y_mode,
                                    params.store_u):
        params = replace(params, chunk=chunk, y_mode=y_mode,
                         store_u=store_u)
    decision = TunedConfig(
        key=key, source="db" if entry else "default", chunk=chunk,
        store_u=store_u, y_mode=y_mode,
        seconds=entry.get("seconds") if entry else None)
    return params, decision
