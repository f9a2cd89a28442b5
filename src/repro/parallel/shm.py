"""Shared-memory block plumbing for the multiprocess backends.

``multiprocessing.shared_memory`` has two sharp edges every user in this
repo kept re-implementing:

* a child process that merely *attaches* to a parent-owned segment must
  tell its resource tracker to forget the segment, or the tracker
  "cleans it up" (and warns) at child shutdown while the parent still
  owns it;
* teardown must be idempotent and tolerate a segment that is already
  gone (e.g. the parent unlinked it after a worker died mid-step).

This module owns that dance once - :func:`create_shm` / :func:`attach_shm`
/ :func:`close_shm` are the sanctioned ways to touch ``SharedMemory``
inside ``repro.parallel``, and :class:`SharedBlock` wraps a named block
with a typed ndarray view for the persistent-worker engine.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

__all__ = ["create_shm", "attach_shm", "close_shm", "SharedBlock"]


def create_shm(size: int, name: str | None = None) -> shared_memory.SharedMemory:
    """Create (and own) a shared-memory segment of at least ``size`` bytes.

    The caller is responsible for eventually passing the segment to
    :func:`close_shm` with ``unlink=True`` on every exit path.
    """
    return shared_memory.SharedMemory(create=True, size=max(int(size), 1),
                                      name=name)


def attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment owned by another process.

    The attaching process's resource tracker is told to forget the
    segment: the creator owns (and unlinks) it, and a tracker that also
    claims it would destroy it under the owner at interpreter shutdown.
    Narrow exception types only: ImportError/AttributeError cover
    platforms without the tracker (or its private API moving), KeyError
    an untracked segment - anything else should surface, not be
    swallowed.
    """
    shm = shared_memory.SharedMemory(name=name)
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except (ImportError, AttributeError, KeyError):
        pass
    return shm


def close_shm(shm: shared_memory.SharedMemory | None,
              unlink: bool = False) -> None:
    """Close (and optionally unlink) a segment; idempotent and race-safe.

    ``FileNotFoundError`` on unlink means another exit path got there
    first - exactly the situation teardown code must tolerate.
    """
    if shm is None:
        return
    try:
        shm.close()
    except BufferError:
        # a live ndarray view still references the mapping; the unlink
        # below still removes the name, and the mapping dies with the
        # last view (same semantics as an unlinked file)
        pass
    if unlink:
        # re-arm the owner's tracker entry first: under fork/spawn all
        # processes share one resource tracker, so an attacher's
        # :func:`attach_shm` unregister also dropped the owner's entry
        # and the implicit unregister inside ``unlink()`` would make the
        # tracker log a spurious KeyError at shutdown
        try:
            from multiprocessing import resource_tracker

            resource_tracker.register(shm._name, "shared_memory")
        except (ImportError, AttributeError):
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


class SharedBlock:
    """A named shared-memory block viewed as one typed ndarray.

    The creating side calls :meth:`create` and must :meth:`close` with
    ``unlink=True``; attaching sides call :meth:`attach` and plain
    :meth:`close`.  Both are idempotent.
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
        block = cls(create_shm(nbytes, name=name), shape, dtype, owner=True)
        block.array[...] = 0
        return block

    @classmethod
    def attach(cls, name: str, shape: tuple, dtype) -> "SharedBlock":
        return cls(attach_shm(name), shape, dtype, owner=False)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # drop the view first so shm.close() does not see a live buffer
        self.array = None
        close_shm(self.shm, unlink=self.owner)

    def __enter__(self) -> "SharedBlock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
