"""Streaming trajectory format: round-trip, crash recovery, the writer.

The format's headline guarantee is crash safety: a frame is either
completely on disk (header + payload with a matching CRC) or it does
not exist.  The torn-tail sweep truncates a valid file at *every*
possible byte length and demands the reader recover exactly the frames
whose final byte survived - no exception, no partial frame.
"""

import numpy as np
import pytest

from repro.md import Frame, TrajectoryFile, TrajectoryReader
from repro.md.trajectory import (FRAME_HEADER, HEADER, encode_frame,
                                 payload_nbytes, scan_trajectory)
from repro.structures import lattice_system

NATOMS = 32


def _system(seed=3):
    s = lattice_system("fcc", a=2.5, reps=(2, 2, 2))
    s.seed_velocities(80.0, rng=np.random.default_rng(seed))
    return s


def _frames(n, velocities=True, seed=3):
    s = _system(seed)
    rng = np.random.default_rng(seed + 1)
    out = []
    for i in range(n):
        s.positions = s.positions + rng.normal(scale=0.01,
                                               size=s.positions.shape)
        f = Frame.from_state(10 * i, s, None, velocities=velocities)
        f.potential_energy = float(i) - 1.5
        f.total_energy = f.potential_energy + f.kinetic_energy
        out.append(f)
    return out


def _write(path, frames, natoms=NATOMS):
    with TrajectoryFile(path, natoms=natoms) as tf:
        for f in frames:
            tf.write_frame(f)
    return path


def assert_frames_equal(a: Frame, b: Frame):
    assert a.step == b.step
    assert np.array_equal(a.box_lengths, b.box_lengths)
    assert a.periodic == b.periodic
    for attr in ("temperature", "potential_energy", "kinetic_energy",
                 "total_energy"):
        assert getattr(a, attr) == getattr(b, attr)
    for attr in ("positions", "velocities"):
        av, bv = getattr(a, attr), getattr(b, attr)
        assert (av is None) == (bv is None)
        if av is not None:
            assert np.array_equal(av, bv)


# ======================================================================
# format round-trip
# ======================================================================
class TestRoundTrip:
    def test_frames_round_trip_bitwise(self, tmp_path):
        frames = _frames(4)
        path = _write(tmp_path / "t.trj", frames)
        with TrajectoryReader(path) as r:
            assert len(r) == 4
            assert not r.truncated
            for want, got in zip(frames, r):
                assert_frames_equal(want, got)

    def test_positions_only_and_negative_index(self, tmp_path):
        frames = _frames(3, velocities=False)
        path = _write(tmp_path / "t.trj", frames)
        with TrajectoryReader(path) as r:
            last = r.read(-1)
            assert last.velocities is None
            assert_frames_equal(frames[-1], last)
            with pytest.raises(IndexError):
                r.read(3)

    def test_steps_header_only_walk(self, tmp_path):
        path = _write(tmp_path / "t.trj", _frames(5))
        with TrajectoryReader(path) as r:
            assert np.array_equal(r.steps(), [0, 10, 20, 30, 40])

    def test_natoms_mismatch_rejected(self, tmp_path):
        path = _write(tmp_path / "t.trj", _frames(1))
        with TrajectoryFile(path, mode="a") as tf:
            big = _frames(1)[0]
            big.positions = np.zeros((NATOMS + 1, 3))
            with pytest.raises(ValueError):
                tf.write_frame(big)

    def test_not_a_trajectory_rejected(self, tmp_path):
        junk = tmp_path / "junk.trj"
        junk.write_bytes(b"definitely not a trajectory header")
        with pytest.raises(ValueError):
            scan_trajectory(junk)
        junk.write_bytes(b"\x01\x02")
        with pytest.raises(ValueError):
            scan_trajectory(junk)


# ======================================================================
# crash recovery
# ======================================================================
class TestCrashRecovery:
    def test_torn_tail_sweep_every_byte_offset(self, tmp_path):
        """Truncate at every length: reader recovers complete frames."""
        frames = _frames(3)
        path = _write(tmp_path / "t.trj", frames)
        blob = path.read_bytes()
        frame_nbytes = FRAME_HEADER.size + payload_nbytes(3, NATOMS)
        torn = tmp_path / "torn.trj"
        for cut in range(HEADER.size, len(blob)):
            torn.write_bytes(blob[:cut])
            scan = scan_trajectory(torn)
            whole = (cut - HEADER.size) // frame_nbytes
            assert scan.nframes == whole, f"cut at byte {cut}"
            assert scan.truncated == (cut > HEADER.size + whole * frame_nbytes)

    def test_append_mode_truncates_torn_tail(self, tmp_path):
        frames = _frames(3)
        path = _write(tmp_path / "t.trj", frames)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])  # tear the last frame
        with TrajectoryFile(path, mode="a") as tf:
            assert tf.recovered_truncation
            assert tf.checkpoint_state()[1] == 2
            tf.write_frame(frames[2])
        with TrajectoryReader(path) as r:
            assert len(r) == 3
            assert not r.truncated
            assert_frames_equal(frames[2], r.read(2))

    def test_crc_corruption_hides_frame(self, tmp_path):
        path = _write(tmp_path / "t.trj", _frames(2))
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF  # flip a payload byte of the last frame
        path.write_bytes(bytes(blob))
        scan = scan_trajectory(path)
        assert scan.nframes == 1
        assert scan.truncated

    def test_truncate_to_rolls_back_frames(self, tmp_path):
        frames = _frames(4)
        with TrajectoryFile(tmp_path / "t.trj", natoms=NATOMS) as tf:
            for f in frames[:2]:
                tf.write_frame(f)
            offset, nframes = tf.checkpoint_state()
            for f in frames[2:]:
                tf.write_frame(f)
            tf.truncate_to(offset, nframes)
            tf.write_frame(frames[2])
        with TrajectoryReader(tmp_path / "t.trj") as r:
            assert np.array_equal(r.steps(), [0, 10, 20])


# ======================================================================
# writer
# ======================================================================
class TestWriter:
    def test_flush_makes_frames_visible(self, tmp_path):
        frames = _frames(2)
        with TrajectoryFile(tmp_path / "t.trj", natoms=NATOMS) as tf:
            for f in frames:
                tf.write_frame(f)
            tf.flush()
            assert tf.nframes == 2
            assert scan_trajectory(tmp_path / "t.trj").nframes == 2

    def test_append_after_crash(self, tmp_path):
        frames = _frames(3)
        path = _write(tmp_path / "t.trj", frames[:2])
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x00garbage")
        with TrajectoryFile(path, natoms=NATOMS, mode="a") as tf:
            assert tf.recovered_truncation
            tf.write_frame(frames[2])
        with TrajectoryReader(path) as r:
            assert len(r) == 3

    def test_ledger_counts_bytes_and_frames(self, tmp_path):
        frames = _frames(3)
        nbytes = len(encode_frame(frames[0], NATOMS))
        with TrajectoryFile(tmp_path / "t.trj", natoms=NATOMS) as tf:
            for f in frames:
                tf.write_frame(f)
            assert tf.ledger.frames == 3
            assert tf.ledger.nbytes == 3 * nbytes

    def test_write_after_close_raises(self, tmp_path):
        tf = TrajectoryFile(tmp_path / "t.trj", natoms=NATOMS)
        tf.close()
        tf.close()  # idempotent
        with pytest.raises(RuntimeError):
            tf.write_frame(_frames(1)[0])
