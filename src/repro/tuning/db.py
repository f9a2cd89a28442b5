"""Persistent tuning DB: measured kernel-policy winners, keyed on shape.

One small JSON document holds the winning kernel configuration per
:func:`repro.tuning.policy.shape_key` bucket::

    {
      "schema": 1,
      "host": { ... repro.core.benchrecord.host_metadata() ... },
      "entries": {
        "v1:2j8:nbr32:na2048:np1": {
          "chunk": 4096, "store_u": "never", "y_mode": "sparse",
          "seconds": 0.45, ...
        }
      }
    }

Writes are atomic (tmp + ``os.replace`` + fsync, the same discipline as
``write_checkpoint``) so a crashed tuner can never leave a torn file.
Reads are corrupt-tolerant: an unreadable, truncated, schema-mismatched
or foreign-host file degrades to an empty DB with a warning - a bad
tuning DB must never fail a run, only lose its speedup.

This module is the sole owner of tuning-DB file writes (lint rule
R7-tuning-db-owner).
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from pathlib import Path

from ..core.benchrecord import host_metadata

__all__ = ["TuningDB", "default_db_path", "SCHEMA_VERSION", "DB_ENV_VAR"]

SCHEMA_VERSION = 1

#: environment override for the default DB location.
DB_ENV_VAR = "REPRO_TUNING_DB"


def default_db_path() -> Path:
    """Default on-disk location (``$REPRO_TUNING_DB`` else ``~/.cache``)."""
    env = os.environ.get(DB_ENV_VAR)
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro/tuning.json").expanduser()


def _fingerprint(meta: dict) -> tuple:
    """Coarse hardware identity a timing measurement is only valid on.

    Deliberately excludes volatile fields (kernel build in ``platform``,
    affinity-dependent ``cpu_count``) so a reboot does not invalidate
    the DB, while a different architecture does.
    """
    return (meta.get("machine"), meta.get("processor"))


class TuningDB:
    """Read/write view of one tuning-DB file (thread-safe, cached).

    The file is read lazily on first access and the parsed entries are
    cached; :meth:`record` updates the cache and rewrites the file
    atomically.  All failure modes on the read side degrade to an empty
    DB with a :class:`RuntimeWarning`.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else default_db_path()
        self._lock = threading.Lock()
        self._entries: dict[str, dict] | None = None  # guarded-by: _lock

    # ------------------------------------------------------------------
    def _warn(self, why: str) -> None:
        warnings.warn(
            f"tuning DB {self.path}: {why}; continuing with default "
            "kernel policy", RuntimeWarning, stacklevel=4)

    def _read(self) -> dict[str, dict]:
        """Parse the file; any defect degrades to an empty entry map."""
        try:
            raw = json.loads(self.path.read_text())
        except FileNotFoundError:
            return {}
        except (OSError, ValueError) as exc:
            # ValueError covers json.JSONDecodeError and bad encodings
            self._warn(f"unreadable ({type(exc).__name__}: {exc})")
            return {}
        if not isinstance(raw, dict) or raw.get("schema") != SCHEMA_VERSION:
            self._warn("unrecognized schema")
            return {}
        host = raw.get("host")
        if isinstance(host, dict) and \
                _fingerprint(host) != _fingerprint(host_metadata()):
            self._warn("recorded on different hardware; ignoring entries")
            return {}
        entries = raw.get("entries")
        if not isinstance(entries, dict):
            self._warn("entries table missing")
            return {}
        return {k: v for k, v in entries.items() if isinstance(v, dict)}

    def entries(self) -> dict[str, dict]:
        """All entries (cached after the first read)."""
        with self._lock:
            if self._entries is None:
                self._entries = self._read()
            return dict(self._entries)

    def lookup(self, key: str) -> dict | None:
        """Entry for one shape key, or ``None`` on a miss."""
        return self.entries().get(key)

    # ------------------------------------------------------------------
    def record(self, key: str, entry: dict) -> Path:
        """Insert/replace one entry and persist the DB atomically."""
        with self._lock:
            if self._entries is None:
                self._entries = self._read()
            self._entries[key] = dict(entry)
            self._write(self._entries)
        return self.path

    def _write(self, entries: dict[str, dict]) -> None:  # guarded-by: _lock
        payload = {"schema": SCHEMA_VERSION, "host": host_metadata(),
                   "entries": entries}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f".{self.path.name}.tmp.{os.getpid()}")
        try:
            with open(tmp, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        finally:
            tmp.unlink(missing_ok=True)
