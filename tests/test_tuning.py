"""Self-tuning kernel policy: DB round-trip, corruption, resolution, CLI."""

import json
import warnings

import numpy as np
import pytest

from repro.core import SNAP, SNAPParams
from repro.core.indexing import SNAPIndex
from repro.tuning import (SCHEMA_VERSION, TunedConfig, TuningDB,
                          default_db_path, resolve_params, shape_key, tune)

GOOD_ENTRY = {"chunk": 2048, "store_u": "never", "y_mode": "sparse",
              "seconds": 0.01}


class TestShapeKey:
    def test_buckets(self):
        # exact twojmax/nprocs, pow2-bucketed density and atom count
        assert shape_key(8, 2000, 52000, 1) == "v1:2j8:nbr32:na2048:np1"
        assert shape_key(8, 2048, 2048 * 26, 1) == \
            shape_key(8, 1025, 1025 * 26, 1)
        assert shape_key(8, 100, 2600) != shape_key(6, 100, 2600)
        assert shape_key(8, 100, 2600, 1) != shape_key(8, 100, 2600, 4)
        assert shape_key(4, 0, 0) == "v1:2j4:nbr1:na1:np1"

    def test_density_buckets_separate(self):
        dense = shape_key(8, 1000, 1000 * 60)
        sparse = shape_key(8, 1000, 1000 * 10)
        assert dense != sparse


class TestResolveParams:
    def _params(self, **kw):
        return SNAPParams(twojmax=4, rcut=3.0, **kw)

    def test_defaults_on_miss(self, tmp_path):
        db = TuningDB(tmp_path / "none.json")
        p = self._params(chunk="auto", y_mode="auto")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a missing file is not a defect
            out, dec = resolve_params(p, natoms=10, npairs=100, db=db)
        assert out.chunk == 4096 and out.y_mode == "dense"
        assert out.store_u == "auto"  # untouched without a DB entry
        assert dec.source == "default" and dec.seconds is None
        assert isinstance(dec, TunedConfig)

    def test_db_entry_wins_for_auto_fields(self, tmp_path):
        db = TuningDB(tmp_path / "t.json")
        key = shape_key(4, 10, 100, 1)
        db.record(key, GOOD_ENTRY)
        p = self._params(chunk="auto", y_mode="auto", store_u="auto")
        out, dec = resolve_params(p, natoms=10, npairs=100, db=db)
        assert (out.chunk, out.y_mode, out.store_u) == (2048, "sparse", "never")
        assert dec.source == "db" and dec.key == key
        assert dec.seconds == pytest.approx(0.01)
        assert "db:" in dec.describe() and "chunk=2048" in dec.describe()

    def test_explicit_fields_never_overridden(self, tmp_path):
        db = TuningDB(tmp_path / "t.json")
        db.record(shape_key(4, 10, 100, 1), GOOD_ENTRY)
        p = self._params(chunk=512, y_mode="dense", store_u="always")
        out, dec = resolve_params(p, natoms=10, npairs=100, db=db)
        assert (out.chunk, out.y_mode, out.store_u) == (512, "dense", "always")
        assert out is p  # nothing to replace

    def test_malformed_entry_degrades_with_warning(self, tmp_path):
        db = TuningDB(tmp_path / "t.json")
        db.record(shape_key(4, 10, 100, 1), {"chunk": "huge", "y_mode": "??"})
        p = self._params(chunk="auto", y_mode="auto")
        with pytest.warns(RuntimeWarning, match="malformed"):
            out, dec = resolve_params(p, natoms=10, npairs=100, db=db)
        assert out.chunk == 4096 and dec.source == "default"


class TestTuningDB:
    def test_round_trip_across_instances(self, tmp_path):
        path = tmp_path / "db.json"
        TuningDB(path).record("k1", GOOD_ENTRY)
        fresh = TuningDB(path)
        assert fresh.lookup("k1") == GOOD_ENTRY
        assert fresh.lookup("k2") is None

        # a DB written before the shard pool was removed carries a
        # "shard_workers" field per entry: it must still load and steer
        # the surviving policy fields
        key = shape_key(4, 10, 100, 1)
        TuningDB(path).record(key, dict(GOOD_ENTRY, shard_workers=2))
        params = SNAPParams(twojmax=4, rcut=3.0, chunk="auto",
                            y_mode="auto", store_u="auto")
        out, dec = resolve_params(params, natoms=10, npairs=100,
                                  db=TuningDB(path))
        assert dec.source == "db"
        assert (out.chunk, out.y_mode, out.store_u) == (2048, "sparse", "never")

    def test_atomic_write_schema_envelope(self, tmp_path):
        path = tmp_path / "db.json"
        db = TuningDB(path)
        db.record("k1", GOOD_ENTRY)
        db.record("k2", dict(GOOD_ENTRY, chunk=8192))
        raw = json.loads(path.read_text())
        assert raw["schema"] == SCHEMA_VERSION
        assert raw["host"]["machine"]  # fingerprint stamped
        assert set(raw["entries"]) == {"k1", "k2"}
        # no stray temp files once the replace landed
        assert [p.name for p in tmp_path.iterdir()] == ["db.json"]

    @pytest.mark.parametrize("content", [
        "{not json", "", '{"schema": 1, "entries": ',  # torn/corrupt
        '[1, 2, 3]',                                    # wrong shape
        '{"schema": 99, "entries": {}}',                # future schema
        '{"schema": 1, "entries": 7}',                  # bad entry table
    ])
    def test_corrupt_file_degrades_with_warning(self, tmp_path, content):
        path = tmp_path / "db.json"
        path.write_text(content)
        with pytest.warns(RuntimeWarning):
            assert TuningDB(path).lookup("k") is None

    def test_missing_file_is_silent(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert TuningDB(tmp_path / "absent.json").entries() == {}

    def test_foreign_host_entries_ignored(self, tmp_path):
        path = tmp_path / "db.json"
        TuningDB(path).record("k1", GOOD_ENTRY)
        raw = json.loads(path.read_text())
        raw["host"]["machine"] = "pdp11"
        path.write_text(json.dumps(raw))
        with pytest.warns(RuntimeWarning, match="different hardware"):
            assert TuningDB(path).lookup("k1") is None

    def test_default_path_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNING_DB", str(tmp_path / "env.json"))
        assert default_db_path() == tmp_path / "env.json"
        assert TuningDB().path == tmp_path / "env.json"
        monkeypatch.delenv("REPRO_TUNING_DB")
        assert default_db_path().name == "tuning.json"


class TestTune:
    def test_measures_and_persists_winner(self, tmp_path):
        db = TuningDB(tmp_path / "db.json")
        res = tune(db, twojmax=4, natoms=32, neighbors=10.0,
                   chunks=(1024,), repeats=1)
        assert not res.cached
        assert len(res.measurements) == 4  # 1 chunk x 2 store_u x 2 y_mode
        assert res.entry["chunk"] == 1024
        assert res.entry["seconds"] == min(res.measurements.values())
        assert TuningDB(tmp_path / "db.json").lookup(res.key) is not None

    def test_cache_hit_skips_measurement(self, tmp_path):
        db = TuningDB(tmp_path / "db.json")
        first = tune(db, twojmax=4, natoms=32, neighbors=10.0,
                     chunks=(1024,), repeats=1)
        again = tune(db, twojmax=4, natoms=32, neighbors=10.0,
                     chunks=(1024,), repeats=1)
        assert again.cached and again.measurements == {}
        assert again.entry == first.entry
        forced = tune(db, twojmax=4, natoms=32, neighbors=10.0,
                      chunks=(1024,), repeats=1, force=True)
        assert not forced.cached and forced.measurements

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="candidate grid"):
            tune(TuningDB(tmp_path / "db.json"), twojmax=4, natoms=16,
                 neighbors=8.0, chunks=())


class TestEngineBinding:
    def _auto_snap(self, rng, twojmax=4):
        params = SNAPParams(twojmax=twojmax, rcut=3.0, chunk="auto",
                            y_mode="auto")
        return SNAP(params, beta=rng.normal(size=SNAPIndex(twojmax).ncoeff))

    def test_sticky_one_shot_resolution(self, rng, tmp_path, monkeypatch):
        from conftest import free_cluster_pairs, random_cluster

        # isolate lazy (db=None) resolution from any real user-level DB
        monkeypatch.setenv("REPRO_TUNING_DB", str(tmp_path / "iso.json"))
        db = TuningDB(tmp_path / "db.json")
        pos = random_cluster(rng, natoms=5, span=4.0)
        nbr = free_cluster_pairs(pos, 3.0)
        snap = self._auto_snap(rng)
        assert snap.params.has_auto and snap.tuning_decision is None
        snap.compute(pos.shape[0], nbr)
        dec = snap.tuning_decision
        assert dec is not None and not snap.params.has_auto
        # second resolution attempt is a no-op (first caller won)
        assert snap.resolve_tuning(natoms=99, npairs=99, db=db) is dec

    def test_build_engine_eager_binding(self, rng, tmp_path):
        from repro.md import build_engine
        from repro.potentials import SNAPPotential
        from repro.structures import random_packed

        db = TuningDB(tmp_path / "db.json")
        db.record(shape_key(4, 64, 64 * 26, 1), GOOD_ENTRY)
        s = random_packed(64, density=0.1, seed=3)
        params = SNAPParams(
            twojmax=4, rcut=(26 / (4 / 3 * np.pi * 0.1)) ** (1 / 3),
            chunk="auto", y_mode="auto", store_u="auto")
        pot = SNAPPotential(params, beta=rng.normal(
            size=SNAPIndex(4).ncoeff))
        with build_engine(s, pot, tuning_db=db.path):
            pass  # bound at construction, before any evaluation
        dec = pot.tuning_decision
        assert dec is not None and dec.source == "db"
        assert pot.params.chunk == GOOD_ENTRY["chunk"]
        assert pot.params.y_mode == GOOD_ENTRY["y_mode"]


class TestCLI:
    def _tune_args(self, db_path):
        return ["tune", "--twojmax", "4", "--natoms", "64",
                "--repeats", "1", "--db", str(db_path)]

    def test_tune_then_run_md_reads_db(self, tmp_path, capsys):
        from repro.cli import main

        db_path = tmp_path / "db.json"
        assert main(self._tune_args(db_path)) == 0
        out = capsys.readouterr().out
        assert "measured winner" in out and str(db_path) in out
        assert db_path.exists()

        assert main(["run-md", "--potential", "snap", "--twojmax", "4",
                     "--natoms", "64", "--steps", "1",
                     "--tuning-db", str(db_path)]) == 0
        out = capsys.readouterr().out
        # the summary provably names the tuned config read from the DB
        assert "tuned:" in out and "[db:v1:2j4:" in out

        # a second tune is a cache hit
        assert main(self._tune_args(db_path)) == 0
        assert "cached winner" in capsys.readouterr().out

    def test_run_md_corrupt_db_degrades(self, tmp_path, capsys):
        from repro.cli import main

        db_path = tmp_path / "db.json"
        db_path.write_text("{torn mid-write")
        with pytest.warns(RuntimeWarning):
            rc = main(["run-md", "--potential", "snap", "--twojmax", "4",
                       "--natoms", "64", "--steps", "1",
                       "--tuning-db", str(db_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tuned:" in out and "[default:" in out

    def test_tune_flags_require_snap(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["run-md", "--potential", "lj", "--steps", "1",
                   "--tuning-db", str(tmp_path / "db.json")])
        assert rc == 2
