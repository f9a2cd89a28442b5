"""Opt-in runtime sanitizer for the force hot path.

One debug instrument, off by default and wired through
``SNAPParams.check_finite`` and the ``check_finite`` argument of
:func:`repro.md.build_engine`: :func:`check_finite` validates kernel
outputs at every force/energy stage exit and raises
:class:`NumericsError` naming the offending *phase* (and rank, in the
distributed and process drivers) plus the first bad index - so a
poisoned value is caught where it is produced, not thousands of steps
later in a drifting thermostat.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NumericsError", "check_finite"]


class NumericsError(FloatingPointError):
    """A kernel produced NaN/Inf; the message names phase and location."""


def check_finite(phase: str, where: str = "", **arrays: np.ndarray) -> None:
    """Raise :class:`NumericsError` if any named array holds NaN/Inf.

    ``phase`` is the kernel stage that just produced the arrays (e.g.
    ``"compute_yi"``); ``where`` optionally adds rank/driver context.
    Scalars are accepted.  The error message carries the array name, the
    non-finite count and the first offending flat index, which is what
    makes an injected NaN attributable to the stage that created it.
    """
    for name, arr in arrays.items():
        if arr is None:
            continue
        a = np.asarray(arr)
        finite = np.isfinite(a) if a.dtype.kind in "fc" else None
        if finite is None or bool(finite.all()):
            continue
        bad = np.flatnonzero(~finite.ravel())
        ctx = f" [{where}]" if where else ""
        raise NumericsError(
            f"non-finite values after phase '{phase}'{ctx}: "
            f"{name} has {bad.size}/{a.size} bad entries "
            f"(first at flat index {int(bad[0])})")
