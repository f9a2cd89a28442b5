"""Traffic accounting and reverse communication for the in-process ranks.

:class:`~repro.parallel.distributed.DistributedEngine` exchanges halos
through direct array access, so there is no message-passing object here:
:func:`reverse_scatter_add` returns ghost-row forces to their owners in
fixed rank order and :class:`CommStats` counts the messages and bytes
that move, feeding the same communication model the paper's scaling
analysis relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CommStats", "reverse_scatter_add"]


@dataclass
class CommStats:
    """Traffic accounting for the reverse (ghost -> owner) exchange."""

    messages: int = 0
    bytes: int = 0

    def reset(self) -> None:
        self.messages = 0
        self.bytes = 0


def reverse_scatter_add(out: np.ndarray, index_blocks: list[np.ndarray],
                        value_blocks: list[np.ndarray],
                        stats: CommStats | None = None) -> np.ndarray:
    """LAMMPS-style reverse communication: ghost rows back to owners.

    ``index_blocks[r]`` holds the global atom ids of rank ``r``'s ghost
    rows and ``value_blocks[r]`` the partial per-ghost vectors (forces)
    that rank accumulated; each block is scatter-added into ``out`` in
    **fixed rank order**, so the result is bitwise independent of how
    concurrently the blocks were produced.  Duplicate ids within a block
    (several periodic images of one atom) accumulate correctly.  When
    ``stats`` is given, each non-empty block is accounted as one message
    carrying its payload bytes.
    """
    if len(index_blocks) != len(value_blocks):
        raise ValueError("need one value block per index block")
    for idx, val in zip(index_blocks, value_blocks):
        if idx.shape[0] != val.shape[0]:
            raise ValueError("index/value block lengths differ")
        if idx.size == 0:
            continue
        np.add.at(out, idx, val)
        if stats is not None:
            stats.messages += 1
            stats.bytes += val.nbytes
    return out

