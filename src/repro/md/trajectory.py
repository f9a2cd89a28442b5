"""Chunked append-only binary trajectory format + asynchronous writer.

The paper's production runs hit the IO wall long before the FLOP wall:
Fig. 7's throughput dips are checkpoint writes.  This module is the
streaming side of that story - a compact binary trajectory a billion-atom
run could actually afford to write, designed after hoomd's GSD/``dump``
layering: fixed-size self-describing records, append-only, crash
tolerant, with the writer off the integration critical path.

Format (all little-endian)
--------------------------
File header, 32 bytes::

    offset  size  field
    0       8     magic  b"REPROTRJ"
    8       4     format version (u32, currently 1)
    12      8     natoms (u64)
    20      8     reserved (u64, zero)
    28      4     padding

Frame record, 96-byte fixed header followed by the payload::

    0       4     frame magic (u32, b"FRME")
    4       4     flags (u32): bit 0 positions, bit 1 velocities
    8       8     step (u64)
    16      8     payload nbytes (u64)
    24      4     crc32 of the payload (u32)
    28      4     reserved (u32)
    32      24    box lengths, 3 x f64 [A]
    56      3     periodic flags, 3 x u8 (+5 pad)
    64      32    thermo scalars, 4 x f64: temperature [K],
                  potential / kinetic / total energy [eV]
    96      ...   payload: positions (natoms x 3 f64) if bit 0 is set,
                  then velocities (natoms x 3 f64) if bit 1 is set

Crash tolerance: the payload size is fully determined by ``(flags,
natoms)``, so a reader can always decide whether the final record is
complete.  A torn tail - short header, wrong magic, inconsistent
payload length, short payload or CRC mismatch - is detected by
:func:`scan_trajectory` and truncated away when the file is reopened
for append; every complete frame before it survives.

Writers
-------
:class:`TrajectoryFile` writes synchronously (and is the single place
frame bytes hit the file).  :class:`AsyncTrajectoryWriter` wraps it
with a double buffer drained by a background thread, so the MDLoop pays
only the encode+enqueue cost per frame; both account frames, bytes and
wall seconds in a :class:`WriterLedger` that :class:`~repro.md.engine.
RunSummary` surfaces and :mod:`repro.perfmodel.filesystem` calibrates
against.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .box import Box
from .system import ParticleSystem

__all__ = ["Frame", "WriterLedger", "TrajectoryFile", "TrajectoryReader",
           "AsyncTrajectoryWriter", "scan_trajectory", "FORMAT_VERSION",
           "HAS_POSITIONS", "HAS_VELOCITIES"]

FORMAT_VERSION = 1
MAGIC = b"REPROTRJ"
FRAME_MAGIC = int.from_bytes(b"FRME", "little")
#: file header: magic, version, natoms, reserved (+4 pad) = 32 bytes
HEADER = struct.Struct("<8sIQQ4x")
#: frame header: magic, flags, step, payload nbytes, crc32, reserved,
#: box lengths, periodic (+5 pad), thermo scalars = 96 bytes
FRAME_HEADER = struct.Struct("<IIQQII3d3B5x4d")
HAS_POSITIONS = 1
HAS_VELOCITIES = 2

_BYTES_PER_BLOCK = 3 * 8  # one f64 triplet per atom per block


def payload_nbytes(flags: int, natoms: int) -> int:
    """Exact payload size implied by the header - the torn-frame oracle."""
    blocks = bool(flags & HAS_POSITIONS) + bool(flags & HAS_VELOCITIES)
    return blocks * natoms * _BYTES_PER_BLOCK


# ======================================================================
# frames
# ======================================================================
@dataclass
class Frame:
    """One decoded (or to-be-encoded) trajectory record."""

    step: int
    box_lengths: np.ndarray
    periodic: tuple[bool, bool, bool] = (True, True, True)
    temperature: float = 0.0
    potential_energy: float = 0.0
    kinetic_energy: float = 0.0
    total_energy: float = 0.0
    positions: np.ndarray | None = None
    velocities: np.ndarray | None = None

    @property
    def flags(self) -> int:
        return ((HAS_POSITIONS if self.positions is not None else 0)
                | (HAS_VELOCITIES if self.velocities is not None else 0))

    @property
    def box(self) -> Box:
        return Box(lengths=np.asarray(self.box_lengths, dtype=float),
                   periodic=tuple(self.periodic))

    @classmethod
    def from_state(cls, step: int, system: ParticleSystem, result=None,
                   positions: bool = True, velocities: bool = False
                   ) -> "Frame":
        """Snapshot the running system (``result`` supplies the energy)."""
        pe = float(result.energy) if result is not None else 0.0
        ke = float(system.kinetic_energy())
        return cls(
            step=int(step),
            box_lengths=np.asarray(system.box.lengths, dtype=float).copy(),
            periodic=tuple(bool(p) for p in system.box.periodic),
            temperature=float(system.temperature()),
            potential_energy=pe, kinetic_energy=ke, total_energy=pe + ke,
            positions=system.positions.copy() if positions else None,
            velocities=system.velocities.copy() if velocities else None)


def _block_bytes(arr: np.ndarray, natoms: int, what: str) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    if arr.shape != (natoms, 3):
        raise ValueError(f"{what} must have shape ({natoms}, 3), "
                         f"got {arr.shape}")
    return arr.tobytes()


def encode_frame(frame: Frame, natoms: int) -> bytes:
    """Encode one frame to its on-disk bytes (header + payload)."""
    parts: list[bytes] = []
    if frame.positions is not None:
        parts.append(_block_bytes(frame.positions, natoms, "positions"))
    if frame.velocities is not None:
        parts.append(_block_bytes(frame.velocities, natoms, "velocities"))
    payload = b"".join(parts)
    lengths = np.asarray(frame.box_lengths, dtype=float).reshape(3)
    header = FRAME_HEADER.pack(
        FRAME_MAGIC, frame.flags, int(frame.step), len(payload),
        zlib.crc32(payload), 0,
        float(lengths[0]), float(lengths[1]), float(lengths[2]),
        *(1 if p else 0 for p in frame.periodic),
        float(frame.temperature), float(frame.potential_energy),
        float(frame.kinetic_energy), float(frame.total_energy))
    return header + payload


def decode_frame(header: bytes, payload: bytes, natoms: int) -> Frame:
    """Inverse of :func:`encode_frame` (assumes a validated record)."""
    (_magic, flags, step, _nbytes, _crc, _res, bx, by, bz, px, py, pz,
     temp, pe, ke, te) = FRAME_HEADER.unpack(header)
    off = 0
    positions = velocities = None
    block = natoms * _BYTES_PER_BLOCK
    if flags & HAS_POSITIONS:
        positions = np.frombuffer(payload, dtype="<f8", count=natoms * 3,
                                  offset=off).reshape(natoms, 3).copy()
        off += block
    if flags & HAS_VELOCITIES:
        velocities = np.frombuffer(payload, dtype="<f8", count=natoms * 3,
                                   offset=off).reshape(natoms, 3).copy()
    return Frame(step=int(step), box_lengths=np.array([bx, by, bz]),
                 periodic=(bool(px), bool(py), bool(pz)),
                 temperature=temp, potential_energy=pe, kinetic_energy=ke,
                 total_energy=te, positions=positions, velocities=velocities)


# ======================================================================
# scanning / torn-tail recovery
# ======================================================================
@dataclass
class ScanResult:
    """What :func:`scan_trajectory` recovered from a file."""

    natoms: int
    nframes: int
    #: byte offset one past the last *complete* frame
    valid_end: int
    #: True when torn/garbage bytes existed past ``valid_end``
    truncated: bool
    #: byte offset of every complete frame header
    offsets: list[int]


def scan_trajectory(path: str | Path) -> ScanResult:
    """Walk a trajectory file and locate every complete frame.

    Raises ``ValueError`` for files that are not repro trajectories at
    all (bad file magic or a short file header); a torn *tail* is not an
    error - the scan stops at the last complete frame and reports the
    remainder via ``truncated``.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(HEADER.size)
        if len(head) < HEADER.size:
            raise ValueError(f"{path}: not a repro trajectory (short header)")
        magic, version, natoms, _reserved = HEADER.unpack(head)
        if magic != MAGIC:
            raise ValueError(f"{path}: not a repro trajectory (bad magic)")
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported trajectory version "
                             f"{version} (writer supports {FORMAT_VERSION})")
        natoms = int(natoms)
        offsets: list[int] = []
        pos = HEADER.size
        while True:
            header = fh.read(FRAME_HEADER.size)
            if len(header) < FRAME_HEADER.size:
                break
            fmagic, flags, _step, nbytes = FRAME_HEADER.unpack_from(header)[:4]
            crc = FRAME_HEADER.unpack_from(header)[4]
            if fmagic != FRAME_MAGIC:
                break
            if nbytes != payload_nbytes(flags, natoms):
                break
            payload = fh.read(nbytes)
            if len(payload) < nbytes:
                break
            if zlib.crc32(payload) != crc:
                break
            offsets.append(pos)
            pos += FRAME_HEADER.size + nbytes
    return ScanResult(natoms=natoms, nframes=len(offsets), valid_end=pos,
                      truncated=pos < size, offsets=offsets)


# ======================================================================
# writer ledger
# ======================================================================
@dataclass
class WriterLedger:
    """Byte/time accounting for a trajectory writer (cf. CommLedger).

    ``write_s`` is wall time spent inside file writes - on the
    background thread for the async writer, so it does *not* tax the
    step loop; ``submit_s`` is the caller-side encode+enqueue cost that
    does.  ``bytes_per_s`` is the measured sustained write bandwidth
    that calibrates :class:`repro.perfmodel.filesystem.FileSystemModel`.
    """

    frames: int = 0
    nbytes: int = 0
    write_s: float = 0.0
    submit_s: float = 0.0

    @property
    def bytes_per_s(self) -> float:
        return self.nbytes / self.write_s if self.write_s > 0 else 0.0

    def as_dict(self) -> dict:
        return {"frames": self.frames, "bytes": self.nbytes,
                "write_s": self.write_s, "submit_s": self.submit_s,
                "bytes_per_s": self.bytes_per_s}


# ======================================================================
# synchronous file writer
# ======================================================================
class TrajectoryFile:
    """Synchronous chunked-trajectory writer (and append-opener).

    ``mode="w"`` starts a fresh file (``natoms`` required); ``mode="a"``
    scans an existing file, truncates any torn final frame and positions
    the write head after the last complete one.
    """

    def __init__(self, path: str | Path, natoms: int | None = None,
                 mode: str = "w") -> None:
        if mode not in ("w", "a"):
            raise ValueError(f"mode must be 'w' or 'a', got {mode!r}")
        self.path = Path(path)
        self.ledger = WriterLedger()
        self.recovered_truncation = False
        if mode == "w":
            if natoms is None:
                raise ValueError("natoms is required for mode='w'")
            self.natoms = int(natoms)
            self.nframes = 0
            self._fh = open(self.path, "w+b")
            self._fh.write(HEADER.pack(MAGIC, FORMAT_VERSION, self.natoms, 0))
            self._fh.flush()
        else:
            scan = scan_trajectory(self.path)
            if natoms is not None and int(natoms) != scan.natoms:
                raise ValueError(
                    f"{self.path}: trajectory holds {scan.natoms} atoms, "
                    f"writer expects {natoms}")
            self.natoms = scan.natoms
            self.nframes = scan.nframes
            self._fh = open(self.path, "r+b")
            if scan.truncated:
                # torn final frame from a crashed writer: drop it so the
                # append stream stays a clean sequence of complete frames
                self._fh.truncate(scan.valid_end)
                self.recovered_truncation = True
            self._fh.seek(scan.valid_end)
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def offset(self) -> int:
        """Current end-of-stream byte offset."""
        return self._fh.tell()

    def write_frame(self, frame: Frame) -> int:
        """Encode and append one frame; returns the bytes written."""
        return self.write_encoded(encode_frame(frame, self.natoms))

    def write_encoded(self, buf: bytes) -> int:
        """Append pre-encoded frame bytes (the async writer's fast path)."""
        if self._closed:
            raise RuntimeError(f"{self.path}: trajectory writer is closed")
        t0 = time.perf_counter()
        self._fh.write(buf)
        self._fh.flush()
        self.ledger.write_s += time.perf_counter() - t0
        self.ledger.frames += 1
        self.ledger.nbytes += len(buf)
        self.nframes += 1
        return len(buf)

    def flush(self) -> None:
        if not self._closed:
            self._fh.flush()

    def checkpoint_state(self) -> tuple[int, int]:
        """``(byte offset, nframes)`` to embed in a restart checkpoint."""
        self.flush()
        return self.offset, self.nframes

    def truncate_to(self, offset: int, nframes: int) -> None:
        """Roll the stream back to a checkpointed ``(offset, nframes)``.

        Used by :meth:`MDLoop.restore`: frames written after the
        checkpoint being resumed from are lost work and must not remain,
        or the resumed stream would hold duplicate steps.
        """
        if self._closed:
            raise RuntimeError(f"{self.path}: trajectory writer is closed")
        if offset < HEADER.size:
            raise ValueError(f"offset {offset} precedes the file header")
        self._fh.truncate(offset)
        self._fh.seek(offset)
        self.nframes = int(nframes)

    def close(self) -> None:
        if not self._closed:
            self._fh.flush()
            self._fh.close()
            self._closed = True

    def __enter__(self) -> "TrajectoryFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ======================================================================
# reader
# ======================================================================
class TrajectoryReader:
    """Random-access reader; a torn final frame is silently dropped
    (``truncated`` reports that it existed)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        scan = scan_trajectory(self.path)
        self.natoms = scan.natoms
        self.nframes = scan.nframes
        self.truncated = scan.truncated
        self.valid_end = scan.valid_end
        self._offsets = scan.offsets
        self._fh = open(self.path, "rb")

    def __len__(self) -> int:
        return self.nframes

    def read(self, index: int) -> Frame:
        if index < 0:
            index += self.nframes
        if not 0 <= index < self.nframes:
            raise IndexError(f"frame {index} out of range "
                             f"(have {self.nframes})")
        self._fh.seek(self._offsets[index])
        header = self._fh.read(FRAME_HEADER.size)
        nbytes = FRAME_HEADER.unpack_from(header)[3]
        return decode_frame(header, self._fh.read(nbytes), self.natoms)

    def __iter__(self):
        for i in range(self.nframes):
            yield self.read(i)

    def steps(self) -> np.ndarray:
        """Step number of every complete frame (header-only walk)."""
        out = np.empty(self.nframes, dtype=np.int64)
        for i, off in enumerate(self._offsets):
            self._fh.seek(off)
            out[i] = FRAME_HEADER.unpack_from(
                self._fh.read(FRAME_HEADER.size))[2]
        return out

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TrajectoryReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ======================================================================
# asynchronous writer
# ======================================================================
class AsyncTrajectoryWriter:
    """Double-buffered trajectory writer with a background drain thread.

    ``write_frame`` encodes on the caller thread (cheap, bounded) and
    enqueues the bytes; the drain thread swaps the buffer and performs
    the actual file writes, so the MDLoop's "io" phase sees only the
    submit cost.  ``max_pending`` bounds the queue - a slow disk
    back-pressures the producer instead of growing memory without
    limit.  A write error on the drain thread is parked and re-raised
    on the next ``write_frame``/``flush``/``close`` call.

    The public surface mirrors :class:`TrajectoryFile` (``write_frame``,
    ``flush``, ``checkpoint_state``, ``truncate_to``, ``close``), so
    :class:`~repro.md.engine.MDLoop` accepts either interchangeably.
    """

    def __init__(self, path: str | Path, natoms: int | None = None,
                 mode: str = "w", max_pending: int = 64) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        self._file = TrajectoryFile(path, natoms=natoms, mode=mode)
        self.ledger = self._file.ledger
        self.max_pending = int(max_pending)
        self._lock = threading.Condition()
        self._front: list[bytes] = []       # guarded-by: _lock
        self._draining = False              # guarded-by: _lock
        self._draining_count = 0            # guarded-by: _lock
        self._error: BaseException | None = None  # guarded-by: _lock
        self._stop = False                  # guarded-by: _lock
        self._thread = threading.Thread(target=self._drain_loop,
                                        name="repro-traj-writer", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._file.path

    @property
    def natoms(self) -> int:
        return self._file.natoms

    @property
    def recovered_truncation(self) -> bool:
        return self._file.recovered_truncation

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._stop

    @property
    def nframes(self) -> int:
        """Frames accepted so far (queued frames included)."""
        with self._lock:
            return self._file.nframes + len(self._front) + self._draining_count

    # ------------------------------------------------------------------
    def _raise_pending(self) -> None:
        """Surface a parked drain-thread failure (call holding _lock)."""
        if self._error is not None:
            raise RuntimeError(
                f"{self.path}: asynchronous trajectory write failed"
            ) from self._error

    def write_frame(self, frame: Frame) -> int:
        t0 = time.perf_counter()
        buf = encode_frame(frame, self._file.natoms)
        with self._lock:
            self._raise_pending()
            if self._stop:
                raise RuntimeError(f"{self.path}: trajectory writer is "
                                   "closed")
            while len(self._front) >= self.max_pending \
                    and self._error is None:
                self._lock.wait()
            self._raise_pending()
            self._front.append(buf)
            self._lock.notify_all()
        self.ledger.submit_s += time.perf_counter() - t0
        return len(buf)

    def _drain_loop(self) -> None:
        while True:
            with self._lock:
                while not self._front and not self._stop \
                        and self._error is None:
                    self._lock.wait()
                if self._error is not None or (self._stop
                                               and not self._front):
                    return
                batch = self._front
                self._front = []
                self._draining = True
                self._draining_count = len(batch)
                self._lock.notify_all()
            err: BaseException | None = None
            try:
                for buf in batch:
                    self._file.write_encoded(buf)
            except Exception as exc:
                # any drain-thread failure is parked and re-raised on the
                # submitting thread
                err = exc
            with self._lock:
                self._draining = False
                self._draining_count = 0
                if err is not None:
                    self._error = err
                self._lock.notify_all()
                if err is not None:
                    return

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Block until every queued frame is on disk (errors re-raised)."""
        with self._lock:
            self._raise_pending()
            while self._front or self._draining:
                if self._error is not None:
                    break
                self._lock.wait()
            self._raise_pending()
        self._file.flush()

    def checkpoint_state(self) -> tuple[int, int]:
        self.flush()
        return self._file.checkpoint_state()

    def truncate_to(self, offset: int, nframes: int) -> None:
        self.flush()
        self._file.truncate_to(offset, nframes)

    def close(self) -> None:
        """Drain, stop the background thread and close the file."""
        with self._lock:
            already = self._stop
            self._stop = True
            self._lock.notify_all()
        if already:
            return
        self._thread.join(timeout=60.0)
        self._file.close()
        with self._lock:
            self._raise_pending()

    def __enter__(self) -> "AsyncTrajectoryWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
