"""Deterministic seed streams for distributed / replicated sampling.

ParSplice-style campaigns spawn thousands of independently seeded MD
segments, possibly resubmitted after worker death, possibly generated on
different backends.  Ad-hoc ``seed + k`` offset seeding makes streams
collide (two components that both add 1) and ties the realized stream to
submission *order*.  :class:`SeedStream` fixes both: every consumer
derives its generator from a ``(root entropy, key path)`` pair via
:class:`numpy.random.SeedSequence`, so

* the same key path always yields the bitwise-identical stream, no
  matter which worker runs it or how many times it is resubmitted, and
* sibling streams are statistically independent by SeedSequence's
  hashing guarantees rather than by hoping offsets don't collide.

A root stream with an empty path is bitwise-compatible with
``np.random.default_rng(entropy)`` (``SeedSequence([e])`` and
``SeedSequence(e)`` hash identically), so migrating legacy call sites
does not change realized trajectories.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

__all__ = ["SeedStream"]

_MASK64 = (1 << 64) - 1


def _key_word(part: Any) -> int:
    """Map one key component to a 64-bit entropy word.

    Integers are masked to 64 bits (negative values wrap); strings are
    hashed through SHA-256 so textual keys ("velocities", "thermostat")
    land far apart in entropy space regardless of length.
    """
    if isinstance(part, (bool, np.bool_)):
        raise TypeError("bool keys are ambiguous; use an int or str")
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"seed key components must be int or str, got {type(part).__name__}")


class SeedStream:
    """A position in a deterministic tree of random streams.

    A stream is the value ``(entropy, path)`` - no hidden state, and no
    method changes it - so it ships to a worker as it is.
    Its one derivation, :meth:`child`, is keyed and stateless:
    ``root.child("segment", 3, 7)`` is the same stream every time it is
    derived, so an idempotent work item (a ParSplice segment keyed by
    ``(state, seed)``) replays bitwise on resubmission.
    """

    __slots__ = ("entropy", "path")

    def __init__(self, entropy: int = 0, path: tuple = ()):
        self.entropy = int(entropy) & _MASK64
        self.path = tuple(_key_word(p) for p in path)

    # -- derivation ----------------------------------------------------
    def child(self, *key: Any) -> "SeedStream":
        """Derive the keyed child stream; same key -> same stream, always."""
        if not key:
            raise ValueError("child() needs at least one key component")
        return SeedStream(self.entropy, self.path + key)

    # -- realization ---------------------------------------------------
    def sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence([self.entropy, *self.path])

    def generator(self) -> np.random.Generator:
        """A fresh PCG64 generator at this stream position.

        For a root stream (empty path) this is bitwise-identical to
        ``np.random.default_rng(entropy)``.
        """
        return np.random.Generator(np.random.PCG64(self.sequence()))

    def integer(self, bits: int = 63) -> int:
        """A stable derived integer, for legacy ``seed=`` parameters."""
        if not 1 <= bits <= 64:
            raise ValueError("bits must be in [1, 64]")
        word = int(self.sequence().generate_state(1, np.uint64)[0])
        return word >> (64 - bits)

    # -- ergonomics ----------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeedStream):
            return NotImplemented
        return (self.entropy, self.path) == (other.entropy, other.path)

    def __hash__(self) -> int:
        return hash((self.entropy, self.path))

    def __repr__(self) -> str:
        return f"SeedStream(entropy={self.entropy}, path={self.path})"
