"""Shared-memory blocks for the multiprocess backend.

:class:`SharedBlock` wraps a named ``multiprocessing.shared_memory``
block with a typed ndarray view.  Each block has one resource-tracker
record, made by its creator and removed by the creator's unlink: forked
workers share the creator's tracker, so an attaching worker's own
registration lands in the same record, and a block whose owner was
killed is unlinked by the tracker once the last of its workers exits.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

__all__ = ["SharedBlock"]


class SharedBlock:
    """A named shared-memory block viewed as one typed ndarray.

    The creating side calls :meth:`create`, attaching sides call
    :meth:`attach`; :meth:`close` unmaps the block and, on the creating
    side, unlinks it.
    """

    def __init__(self, shm: shared_memory.SharedMemory, shape: tuple,
                 dtype, owner: bool) -> None:
        self.shm = shm
        self.name = shm.name
        self.owner = owner
        self.array = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        self._closed = False

    @classmethod
    def create(cls, name: str, shape: tuple, dtype) -> "SharedBlock":
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        shm = shared_memory.SharedMemory(create=True, size=max(nbytes, 1),
                                         name=name)
        block = cls(shm, shape, dtype, owner=True)
        block.array[...] = 0
        return block

    @classmethod
    def attach(cls, name: str, shape: tuple, dtype) -> "SharedBlock":
        return cls(shared_memory.SharedMemory(name=name), shape, dtype,
                   owner=False)

    def close(self) -> None:
        """Idempotent, and tolerates a block another exit path already
        unlinked (e.g. after a worker died mid-step)."""
        if self._closed:
            return
        self._closed = True
        # drop the view first so shm.close() does not see a live buffer
        self.array = None
        try:
            self.shm.close()
        except BufferError:
            # a live ndarray view still references the mapping; the unlink
            # below still removes the name, and the mapping dies with the
            # last view (same semantics as an unlinked file)
            pass
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SharedBlock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
