"""Auto-tuner: measure candidate kernel configs on a synthetic probe.

The tuner builds one seeded, shape-matched probe problem (same
random-packed generator the benchmarks use), runs every candidate
configuration through short best-of-N probes timed by
:class:`repro.md.timers.PhaseTimers` (the ``grind_times`` discipline:
interleave-free best-of-N per candidate, min over repeats), and persists
the winner to the :class:`repro.tuning.TuningDB` under the problem's
:func:`repro.tuning.policy.shape_key`.  A DB hit skips measurement
entirely unless ``force=True`` - tuning is paid once per shape bucket
per host.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..md.timers import PhaseTimers
from .db import TuningDB
from .policy import shape_key

__all__ = ["tune", "TuneResult", "CHUNK_CANDIDATES",
           "STORE_U_CANDIDATES", "Y_MODE_CANDIDATES"]

#: default candidate grid (the issue's tuning axes).
CHUNK_CANDIDATES = (2048, 4096, 8192)
STORE_U_CANDIDATES = ("always", "never")
Y_MODE_CANDIDATES = ("dense", "sparse")


@dataclass
class TuneResult:
    """Outcome of one :func:`tune` call.

    ``cached`` is True when an existing DB entry matched the shape key
    and no probes ran; ``measurements`` maps candidate name to its
    best-of-N probe seconds (empty on a cache hit).
    """

    key: str
    entry: dict
    cached: bool
    db_path: str = ""
    measurements: dict[str, float] = field(default_factory=dict)


def _probe_problem(twojmax: int, natoms: int, neighbors: float, seed: int):
    """Seeded random-packed problem with a target neighbor density."""
    import numpy as np

    from ..md.neighbor import build_pairs
    from ..structures import random_packed

    density = 0.1
    s = random_packed(natoms, density=density, seed=seed)
    rcut = (neighbors / (4 / 3 * np.pi * density)) ** (1 / 3)
    return rcut, build_pairs(s.positions, s.box, rcut)


def tune(db: TuningDB | None = None, *, twojmax: int = 8, natoms: int = 256,
         neighbors: float = 26.0, nprocs: int = 1,
         chunks=CHUNK_CANDIDATES, store_u_modes=STORE_U_CANDIDATES,
         y_modes=Y_MODE_CANDIDATES,
         repeats: int = 2, seed: int = 7, force: bool = False,
         log=None) -> TuneResult:
    """Measure the candidate grid for one problem shape; persist the winner.

    Parameters mirror the shape key: ``twojmax``/``natoms``/``neighbors``
    pick the probe problem, ``nprocs`` tags the key for multiprocess
    engines (the probe itself runs the serial evaluator).
    ``log`` is an optional ``print``-like callable for progress lines.
    """
    import numpy as np

    from ..core.snap import SNAP, SNAPParams
    from ..core.variants import with_params

    if db is None:
        db = TuningDB()
    say = log if log is not None else (lambda msg: None)

    rcut, nbr = _probe_problem(twojmax, natoms, neighbors, seed)
    key = shape_key(twojmax, natoms, nbr.npairs, nprocs)
    existing = db.lookup(key)
    if existing is not None and not force:
        say(f"tuning DB hit for {key} - skipping measurement")
        return TuneResult(key=key, entry=dict(existing), cached=True,
                          db_path=str(db.path))

    base = SNAP(SNAPParams(twojmax=twojmax, rcut=rcut))
    beta = np.random.default_rng(seed).normal(size=base.index.ncoeff)
    base = SNAP(SNAPParams(twojmax=twojmax, rcut=rcut), beta=beta)

    measurements: dict[str, float] = {}
    best_name = None
    best_cfg: dict | None = None
    for chunk in chunks:
        for su in store_u_modes:
            for ym in y_modes:
                name = f"chunk{chunk}:store_u={su}:y={ym}"
                snap = with_params(base, chunk=chunk, store_u=su, y_mode=ym)
                best = float("inf")
                for _ in range(max(1, repeats)):
                    t = PhaseTimers()
                    with t.phase("probe"):
                        snap.compute(natoms, nbr)
                    best = min(best, t.total)
                measurements[name] = best
                say(f"  {name:44s} {best * 1e3:9.2f} ms")
                if best_name is None or best < measurements[best_name]:
                    best_name = name
                    best_cfg = {"chunk": chunk, "store_u": su, "y_mode": ym}
    if best_cfg is None:
        raise ValueError("empty candidate grid - nothing to tune")

    entry = dict(best_cfg)
    entry.update({
        "seconds": measurements[best_name],
        "twojmax": twojmax, "natoms": natoms,
        "npairs": int(nbr.npairs), "nprocs": nprocs,
        "repeats": max(1, repeats),
    })
    db.record(key, entry)
    say(f"winner {best_name} -> {db.path} [{key}]")
    return TuneResult(key=key, entry=entry, cached=False,
                      db_path=str(db.path), measurements=measurements)
