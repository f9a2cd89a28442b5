"""Machine-readable benchmark records (``BENCH_*.json``).

The benchmark suite prints human tables; this module writes the same
numbers as one JSON document so performance can be tracked across
commits and hosts.  A record carries the problem definition, per-variant
wall time / atoms-per-second / speedup, optional per-variant extras
(kernel stage splits, ghost bytes per step, ...), and enough host
metadata to make a number comparable (or visibly not) with another
machine's.  ``BENCH_snap.json`` (force kernel), ``BENCH_distributed.json``
(domain-decomposed driver) and ``BENCH_weak_scaling.json`` (Fig. 5
model) all share this format.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np

__all__ = ["host_metadata", "make_record", "write_record",
           "make_snap_record"]


def _usable_cpu_count() -> int | None:
    """CPUs this process may actually schedule on.

    ``os.cpu_count()`` reports the machine, not the cgroup/affinity
    mask; in a pinned container the two differ and the mask is what
    bounds any multiprocess speedup claim.  Falls back to the machine
    count where ``sched_getaffinity`` does not exist (macOS, Windows).
    """
    import os

    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        return len(getaffinity(0))
    return os.cpu_count()


def host_metadata() -> dict:
    """Identify the machine and software stack behind a measurement."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": _usable_cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def make_record(benchmark: str, problem: dict, seconds: dict[str, float],
                natoms: int, reference: str | None = None,
                extras: dict[str, dict] | None = None) -> dict:
    """Assemble a benchmark record.

    Parameters
    ----------
    benchmark:
        Record type tag (``"snap_force_kernel"``, ``"distributed_md"``,
        ...).
    problem:
        Free-form description of the workload (twojmax, natoms, nranks,
        neighbors per atom, ...).
    seconds:
        Wall time per variant for one measured unit of work.
    natoms:
        Atom count, for the atoms-per-second figure of merit.
    reference:
        Variant name speedups are quoted against (defaults to the
        slowest variant).
    extras:
        Optional per-variant metric dicts merged into each entry
        (stage splits, ghost bytes per step, ...).
    """
    if not seconds:
        raise ValueError("seconds must contain at least one variant")
    if reference is None:
        reference = max(seconds, key=seconds.get)
    if reference not in seconds:
        raise ValueError(f"reference variant {reference!r} not measured")
    ref_t = seconds[reference]
    variants = {}
    for name, t in seconds.items():
        entry = {
            "seconds": t,
            "atoms_per_s": natoms / t if t > 0 else float("inf"),
            "speedup_vs_" + reference: ref_t / t if t > 0 else float("inf"),
        }
        if extras and name in extras:
            entry.update(extras[name])
        variants[name] = entry
    return {
        "benchmark": benchmark,
        "problem": dict(problem),
        "reference": reference,
        "variants": variants,
        "host": host_metadata(),
    }


def write_record(path: str | Path, record: dict) -> Path:
    """Write a record produced by :func:`make_record` as JSON."""
    path = Path(path)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def make_snap_record(problem: dict, seconds: dict[str, float],
                     natoms: int, reference: str | None = None,
                     stage_timings: dict[str, dict[str, float]] | None = None,
                     ) -> dict:
    """SNAP force-kernel record (:func:`make_record` specialization)."""
    extras = None
    if stage_timings:
        extras = {name: {"stages": dict(st)} for name, st in stage_timings.items()}
    return make_record("snap_force_kernel", problem, seconds, natoms,
                       reference=reference, extras=extras)
