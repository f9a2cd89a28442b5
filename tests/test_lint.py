"""The `repro.lint` static pass: rule fixtures, pragmas, CLI, tier-1 gate.

Each per-file rule gets a *bad* fixture proving it detects its target
pattern and a *fixed* fixture proving the repaired form stays silent
(the whole-program rules R8-R10 are covered in test_lint_flow.py).
The tier-1 "lint session" lives here too: the shipped tree under src/
must produce zero findings through the cached :func:`run_lint` path
inside a wall-time budget, and (when installed) ruff must pass with the
curated rule set from pyproject.toml.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (RULES, findings_to_json, findings_to_sarif,
                        lint_paths, lint_source, run_lint, write_baseline)
from repro.lint.__main__ import main as lint_main

REPO = Path(__file__).resolve().parents[1]

#: a path inside the determinism scope (R1) and the guarded-by scope (R3)
HOT = "repro/parallel/process_engine.py"
#: a path outside every restricted scope
COLD = "repro/analysis/thermo.py"


def rule_ids(findings):
    return {f.rule for f in findings}


def assert_fires(rule, source, path=COLD):
    found = rule_ids(lint_source(source, path=path))
    assert rule in found, f"{rule} did not fire; got {found or 'nothing'}"


def assert_silent(rule, source, path=COLD):
    found = rule_ids(lint_source(source, path=path))
    assert rule not in found, f"{rule} fired on the fixed form"


# ======================================================================
# R1 - determinism
# ======================================================================
class TestR1Determinism:
    def test_set_iteration_fires(self):
        assert_fires("R1-set-iter", (
            "def collect(ids):\n"
            "    pending = set(ids)\n"
            "    out = []\n"
            "    for i in pending:\n"
            "        out.append(i)\n"
            "    return out\n"), path=HOT)

    def test_sorted_iteration_is_silent(self):
        assert_silent("R1-set-iter", (
            "def collect(ids):\n"
            "    pending = set(ids)\n"
            "    out = []\n"
            "    for i in sorted(pending):\n"
            "        out.append(i)\n"
            "    return out\n"), path=HOT)

    def test_comprehension_over_set_fires(self):
        assert_fires("R1-set-iter",
                     "ranks = {3, 1, 2}\nrows = [r * 2 for r in ranks]\n",
                     path=HOT)

    def test_list_materialization_fires(self):
        assert_fires("R1-set-iter",
                     "order = list({'b', 'a'})\n", path=HOT)

    def test_unordered_reduction_fires(self):
        assert_fires("R1-unordered-reduce", (
            "weights = {0.1, 0.2, 0.7}\n"
            "total = sum(weights)\n"), path=HOT)

    def test_sorted_reduction_is_silent(self):
        assert_silent("R1-unordered-reduce", (
            "weights = {0.1, 0.2, 0.7}\n"
            "total = sum(sorted(weights))\n"), path=HOT)

    def test_scope_excludes_cold_paths(self):
        # same pattern outside repro/parallel//snap.py: not a finding
        assert_silent("R1-set-iter",
                      "for i in {1, 2}:\n    print(i)\n", path=COLD)


# ======================================================================
# R2 - dtype discipline
# ======================================================================
class TestR2Dtype:
    def test_complex_store_into_real_buffer_fires(self):
        assert_fires("R2-complex-narrowing", (
            "import numpy as np\n"
            "def fold(u):\n"
            "    out = np.zeros(4)\n"
            "    c = u * np.exp(1j * 0.5)\n"
            "    out[0] = c\n"
            "    return out\n"))

    def test_explicit_real_is_silent(self):
        assert_silent("R2-complex-narrowing", (
            "import numpy as np\n"
            "def fold(u):\n"
            "    out = np.zeros(4)\n"
            "    c = u * np.exp(1j * 0.5)\n"
            "    out[0] = c.real\n"
            "    return out\n"))

    def test_complex_astype_real_fires(self):
        assert_fires("R2-complex-narrowing", (
            "import numpy as np\n"
            "def g():\n"
            "    z = np.zeros(3, dtype=np.complex128)\n"
            "    return z.astype(np.float64)\n"))

    def test_float32_accumulator_fires(self):
        assert_fires("R2-mixed-accumulator", (
            "import numpy as np\n"
            "def acc(chunks):\n"
            "    total = np.zeros(8, dtype=np.float32)\n"
            "    total += np.ones(8)\n"
            "    return total\n"))

    def test_wide_accumulator_is_silent(self):
        assert_silent("R2-mixed-accumulator", (
            "import numpy as np\n"
            "def acc(chunks):\n"
            "    total = np.zeros(8, dtype=np.float64)\n"
            "    total += np.ones(8)\n"
            "    return total\n"))

    def test_empty_escape_fires(self):
        assert_fires("R2-empty-escape", (
            "import numpy as np\n"
            "def scratch(n):\n"
            "    buf = np.empty(n)\n"
            "    return buf\n"))

    def test_filled_empty_is_silent(self):
        assert_silent("R2-empty-escape", (
            "import numpy as np\n"
            "def scratch(n):\n"
            "    buf = np.empty(n)\n"
            "    buf[:] = 0.0\n"
            "    return buf\n"))

    def test_view_alias_escape_fires(self):
        # escaping through a reshaped view of the raw buffer still counts
        assert_fires("R2-empty-escape", (
            "import numpy as np\n"
            "def scratch(n):\n"
            "    buf = np.empty(2 * n)\n"
            "    flat = buf.reshape(2, -1)\n"
            "    return flat\n"))


# ======================================================================
# R3 - guarded-by convention
# ======================================================================
class TestR3GuardedBy:
    def test_unguarded_pool_reachable_write_fires(self):
        assert_fires("R3-pool-write", (
            "class Evaluator:\n"
            "    def __init__(self):\n"
            "        self.hits = 0\n"
            "    def work(self):\n"
            "        self.hits += 1\n"
            "    def run(self, pool):\n"
            "        pool.submit(self.work)\n"), path=HOT)

    def test_locked_pool_reachable_write_is_silent(self):
        assert_silent("R3-pool-write", (
            "import threading\n"
            "class Evaluator:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.hits = 0\n"
            "    def work(self):\n"
            "        with self._lock:\n"
            "            self.hits += 1\n"
            "    def run(self, pool):\n"
            "        pool.submit(self.work)\n"), path=HOT)

    def test_lock_owner_unguarded_write_fires(self):
        assert_fires("R3-guarded-by", (
            "import threading\n"
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.data = {}\n"
            "    def put(self, k, v):\n"
            "        self.data[k] = v\n"), path=HOT)

    def test_annotated_and_locked_is_silent(self):
        assert_silent("R3-guarded-by", (
            "import threading\n"
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.data = {}  # guarded-by: _lock\n"
            "    def put(self, k, v):\n"
            "        with self._lock:\n"
            "            self.data[k] = v\n"), path=HOT)

    def test_declaration_without_annotation_fires(self):
        # write sites are locked, but the __init__ declaration does not
        # carry the guarded-by annotation: the convention check fires
        assert_fires("R3-guarded-by", (
            "import threading\n"
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.data = {}\n"
            "    def put(self, k, v):\n"
            "        with self._lock:\n"
            "            self.data[k] = v\n"), path=HOT)

    def test_scope_excludes_cold_paths(self):
        assert_silent("R3-pool-write", (
            "class Evaluator:\n"
            "    def __init__(self):\n"
            "        self.hits = 0\n"
            "    def work(self):\n"
            "        self.hits += 1\n"
            "    def run(self, pool):\n"
            "        pool.submit(self.work)\n"), path=COLD)


# ======================================================================
# R4 - hygiene
# ======================================================================
class TestR4Hygiene:
    def test_broad_except_fires(self):
        assert_fires("R4-bare-except", (
            "try:\n"
            "    risky()\n"
            "except Exception:\n"
            "    pass\n"))

    def test_narrow_except_is_silent(self):
        assert_silent("R4-bare-except", (
            "try:\n"
            "    risky()\n"
            "except (OSError, ValueError):\n"
            "    pass\n"))

    def test_broad_except_that_reraises_is_silent(self):
        assert_silent("R4-bare-except", (
            "try:\n"
            "    risky()\n"
            "except Exception:\n"
            "    cleanup()\n"
            "    raise\n"))

    def test_mutable_default_fires(self):
        assert_fires("R4-mutable-default",
                     "def push(x, acc=[]):\n    acc.append(x)\n    return acc\n")

    def test_none_default_is_silent(self):
        assert_silent("R4-mutable-default", (
            "def push(x, acc=None):\n"
            "    acc = [] if acc is None else acc\n"
            "    acc.append(x)\n"
            "    return acc\n"))

    def test_numpy_shadow_fires(self):
        assert_fires("R4-shadow-numpy",
                     "def total(values):\n"
                     "    sum = 0.0\n"
                     "    return sum\n")

    def test_shadow_parameter_fires(self):
        assert_fires("R4-shadow-numpy", "def f(abs):\n    return abs\n")

    def test_plain_name_is_silent(self):
        assert_silent("R4-shadow-numpy",
                      "def total(values):\n"
                      "    acc = 0.0\n"
                      "    return acc\n")


# ======================================================================
# R4-raw-timer - private timing paths in the drivers
# ======================================================================
class TestR4RawTimer:
    #: a path inside the driver/engine timing scope
    DRIVER = "repro/md/engine.py"

    def test_raw_perf_counter_in_driver_fires(self):
        assert_fires("R4-raw-timer", (
            "import time\n"
            "def run(nsteps):\n"
            "    t0 = time.perf_counter()\n"
            "    return time.perf_counter() - t0\n"), path=self.DRIVER)

    def test_perf_counter_inside_mdloop_is_silent(self):
        assert_silent("R4-raw-timer", (
            "import time\n"
            "class MDLoop:\n"
            "    def run(self, nsteps):\n"
            "        t0 = time.perf_counter()\n"
            "        return time.perf_counter() - t0\n"), path=self.DRIVER)

    def test_perf_counter_inside_phasetimers_is_silent(self):
        assert_silent("R4-raw-timer", (
            "import time\n"
            "class PhaseTimers:\n"
            "    def tick(self):\n"
            "        return time.perf_counter()\n"),
            path=self.DRIVER)

    def test_scope_excludes_cold_paths(self):
        assert_silent("R4-raw-timer", (
            "import time\n"
            "t0 = time.perf_counter()\n"), path=COLD)

    def test_pragma_suppresses_with_justification(self):
        src = ("import time\n"
               "def stopwatch():\n"
               "    return time.perf_counter()  "
               "# repro-lint: disable=R4-raw-timer -- pool-thread stopwatch\n")
        assert_silent("R4-raw-timer", src, path=self.DRIVER)


# ======================================================================
# R5 - shared-memory lifecycle
# ======================================================================
class TestR5SharedMemory:
    #: a path inside the shared-memory scope, but not the helper module
    PAR = "repro/parallel/process_engine.py"

    def test_raw_shared_memory_fires(self):
        assert_fires("R5-shm-helper", (
            "from multiprocessing import shared_memory\n"
            "def grab(name):\n"
            "    return shared_memory.SharedMemory(name=name)\n"),
            path=self.PAR)

    def test_helper_module_itself_is_exempt(self):
        assert_silent("R5-shm-helper", (
            "from multiprocessing import shared_memory\n"
            "def create_shm(size):\n"
            "    return shared_memory.SharedMemory(create=True, size=size)\n"),
            path="repro/parallel/shm.py")

    def test_helper_calls_are_silent(self):
        assert_silent("R5-shm-helper", (
            "from repro.parallel.shm import attach_shm\n"
            "def grab(name):\n"
            "    return attach_shm(name)\n"), path=self.PAR)

    def test_scope_excludes_cold_paths(self):
        assert_silent("R5-shm-helper", (
            "from multiprocessing import shared_memory\n"
            "def grab(name):\n"
            "    return shared_memory.SharedMemory(name=name)\n"), path=COLD)

    def test_create_without_cleanup_fires(self):
        assert_fires("R5-shm-lifecycle", (
            "from repro.parallel.shm import create_shm\n"
            "def scratch(n):\n"
            "    shm = create_shm(n)\n"
            "    return shm.buf[:n]\n"), path=self.PAR)

    def test_create_with_try_finally_is_silent(self):
        assert_silent("R5-shm-lifecycle", (
            "from repro.parallel.shm import close_shm, create_shm\n"
            "def scratch(n):\n"
            "    shm = create_shm(n)\n"
            "    try:\n"
            "        return bytes(shm.buf[:n])\n"
            "    finally:\n"
            "        close_shm(shm, unlink=True)\n"), path=self.PAR)

    def test_sharedblock_with_statement_is_silent(self):
        assert_silent("R5-shm-lifecycle", (
            "from repro.parallel.shm import SharedBlock\n"
            "def scratch(n):\n"
            "    block = SharedBlock.create('x', (n,), float)\n"
            "    with block:\n"
            "        return block.array.sum()\n"), path=self.PAR)

    def test_self_owned_block_without_close_method_fires(self):
        assert_fires("R5-shm-lifecycle", (
            "from repro.parallel.shm import SharedBlock\n"
            "class Engine:\n"
            "    def __init__(self, n):\n"
            "        self.pos = SharedBlock.create('pos', (n, 3), float)\n"),
            path=self.PAR)

    def test_self_owned_block_with_close_method_is_silent(self):
        assert_silent("R5-shm-lifecycle", (
            "from repro.parallel.shm import SharedBlock\n"
            "class Engine:\n"
            "    def __init__(self, n):\n"
            "        self.pos = SharedBlock.create('pos', (n, 3), float)\n"
            "    def close(self):\n"
            "        self.pos.close()\n"), path=self.PAR)


# ======================================================================
# R6 - io ownership
# ======================================================================
class TestR6IoOwner:
    def test_raw_open_write_of_checkpoint_fires(self):
        assert_fires("R6-io-owner", (
            "def save(ckpt_path, data):\n"
            "    with open(ckpt_path, 'wb') as fh:\n"
            "        fh.write(data)\n"))

    def test_savez_of_trajectory_fires(self):
        assert_fires("R6-io-owner", (
            "import numpy as np\n"
            "def save(traj_file, arr):\n"
            "    np.savez(traj_file, arr=arr)\n"))

    def test_string_literal_path_fires(self):
        assert_fires("R6-io-owner", (
            "def save(data):\n"
            "    with open('out/restart.bin', mode='w') as fh:\n"
            "        fh.write(data)\n"))

    def test_path_write_bytes_fires(self):
        assert_fires("R6-io-owner", (
            "def save(checkpoint, payload):\n"
            "    checkpoint.write_bytes(payload)\n"))

    def test_read_of_checkpoint_is_silent(self):
        assert_silent("R6-io-owner", (
            "def load(ckpt_path):\n"
            "    with open(ckpt_path, 'rb') as fh:\n"
            "        return fh.read()\n"))

    def test_unrelated_write_is_silent(self):
        assert_silent("R6-io-owner", (
            "def save(log_path, text):\n"
            "    with open(log_path, 'w') as fh:\n"
            "        fh.write(text)\n"))

    def test_owner_modules_are_exempt(self):
        src = (
            "def save(ckpt_path, data):\n"
            "    with open(ckpt_path, 'wb') as fh:\n"
            "        fh.write(data)\n")
        assert_silent("R6-io-owner", src, path="repro/md/dump.py")
        assert_silent("R6-io-owner", src, path="repro/md/trajectory.py")

    def test_outside_package_is_silent(self):
        assert_silent("R6-io-owner", (
            "def save(traj, data):\n"
            "    open(traj, 'wb').write(data)\n"), path="tools/convert.py")


# ======================================================================
# R7 - tuning-DB ownership
# ======================================================================
class TestR7TuningDbOwner:
    def test_raw_open_write_of_tuning_db_fires(self):
        assert_fires("R7-tuning-db-owner", (
            "import json\n"
            "def save(tuning_path, entries):\n"
            "    with open(tuning_path, 'w') as fh:\n"
            "        json.dump(entries, fh)\n"))

    def test_write_text_of_tuning_file_fires(self):
        assert_fires("R7-tuning-db-owner", (
            "def save(tuning_db, payload):\n"
            "    tuning_db.write_text(payload)\n"))

    def test_string_literal_path_fires(self):
        assert_fires("R7-tuning-db-owner", (
            "def save(payload):\n"
            "    with open('cache/tuning.json', mode='w') as fh:\n"
            "        fh.write(payload)\n"))

    def test_owner_module_is_exempt(self):
        assert_silent("R7-tuning-db-owner", (
            "import json\n"
            "def save(tuning_path, entries):\n"
            "    with open(tuning_path, 'w') as fh:\n"
            "        json.dump(entries, fh)\n"), path="repro/tuning/db.py")

    def test_read_of_tuning_db_is_silent(self):
        assert_silent("R7-tuning-db-owner", (
            "import json\n"
            "def load(tuning_path):\n"
            "    with open(tuning_path) as fh:\n"
            "        return json.load(fh)\n"))

    def test_unrelated_write_is_silent(self):
        assert_silent("R7-tuning-db-owner", (
            "def save(log_path, text):\n"
            "    with open(log_path, 'w') as fh:\n"
            "        fh.write(text)\n"))

    def test_pragma_suppresses(self):
        src = (
            "def save(tuning_path, payload):\n"
            "    # repro-lint: disable=R7-tuning-db-owner -- fixture\n"
            "    with open(tuning_path, 'w') as fh:\n"
            "        fh.write(payload)\n")
        assert_silent("R7-tuning-db-owner", src)


# ======================================================================
# suppression pragmas
# ======================================================================
class TestPragmas:
    BAD = "sum = 0.0\n"

    def test_inline_pragma_suppresses(self):
        src = "sum = 0.0  # repro-lint: disable=R4-shadow-numpy -- fixture\n"
        assert lint_source(src) == []

    def test_standalone_pragma_covers_next_line(self):
        src = ("# repro-lint: disable=R4-shadow-numpy -- fixture\n"
               "sum = 0.0\n")
        assert lint_source(src) == []

    def test_disable_all(self):
        src = "sum = 0.0  # repro-lint: disable=all -- fixture\n"
        assert lint_source(src) == []

    def test_wrong_rule_does_not_suppress(self):
        src = "sum = 0.0  # repro-lint: disable=R4-bare-except -- fixture\n"
        assert "R4-shadow-numpy" in rule_ids(lint_source(src))

    def test_unjustified_pragma_is_reported(self):
        src = "sum = 0.0  # repro-lint: disable=R4-shadow-numpy\n"
        assert "P0-unjustified-pragma" in rule_ids(lint_source(src))

    def test_pragma_inside_string_is_ignored(self):
        src = 's = "# repro-lint: disable=all -- nope"\nsum = 0.0\n'
        assert "R4-shadow-numpy" in rule_ids(lint_source(src))


# ======================================================================
# engine / CLI behavior
# ======================================================================
class TestEngine:
    def test_syntax_error_is_a_finding(self):
        assert "E0-syntax" in rule_ids(lint_source("def broken(:\n"))

    def test_select_restricts_rules(self):
        src = ("def push(x, acc=[]):\n"
               "    sum = 0.0\n"
               "    return acc\n")
        only_r4md = lint_source(src, select=["R4-mutable-default"])
        assert rule_ids(only_r4md) == {"R4-mutable-default"}

    def test_ignore_drops_rules(self):
        src = "sum = 0.0\n"
        assert lint_source(src, ignore=["R4"]) == []

    def test_findings_sorted_by_position(self):
        src = ("def push(x, acc=[]):\n"
               "    sum = 0.0\n"
               "    return acc\n")
        found = lint_source(src)
        assert [f.line for f in found] == sorted(f.line for f in found)

    def test_cli_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("sum = 0.0\n")
        good = tmp_path / "good.py"
        good.write_text("total = 0.0\n")
        assert lint_main([str(bad)]) == 1
        assert "R4-shadow-numpy" in capsys.readouterr().out
        assert lint_main([str(good)]) == 0

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_every_rule_has_summary_and_check(self):
        for rule in RULES.values():
            assert rule.summary
            if rule.project:
                # whole-program rules run via repro.lint.flow, not a
                # per-file check function
                assert rule.check is None
            else:
                assert callable(rule.check)


# ======================================================================
# the result cache, baseline files and output formats
# ======================================================================
#: fixture module placed under a repro/parallel/ tmp dir so the
#: determinism scope applies; CLEAN lints silent, DIRTY trips R1
_CLEAN_MOD = ("def collect(ids):\n"
              "    out = []\n"
              "    for i in sorted(set(ids)):\n"
              "        out.append(i)\n"
              "    return out\n")
_DIRTY_MOD = ("def collect(ids):\n"
              "    out = []\n"
              "    for i in set(ids):\n"
              "        out.append(i)\n"
              "    return out\n")


def _fixture_module(root, body):
    mod_dir = root / "src" / "repro" / "parallel"
    mod_dir.mkdir(parents=True, exist_ok=True)
    target = mod_dir / "mod.py"
    target.write_text(body)
    return target


class TestCacheCorrectness:
    def test_hit_then_invalidation_on_edit(self, tmp_path):
        cache = tmp_path / "cache.json"
        target = _fixture_module(tmp_path, _CLEAN_MOD)

        cold = run_lint([target], cache_path=cache)
        assert cold.findings == []
        assert cold.stats.cache_misses == 1

        warm = run_lint([target], cache_path=cache)
        assert warm.findings == []
        assert warm.stats.cache_hits == 1
        assert warm.stats.cache_misses == 0
        assert warm.stats.project_cache_hit

        # editing the file must invalidate its entry AND the
        # whole-program pass (keyed on the full file-set hash)
        target.write_text(_DIRTY_MOD)
        dirty = run_lint([target], cache_path=cache)
        assert dirty.stats.cache_misses == 1
        assert not dirty.stats.project_cache_hit
        assert [f.rule for f in dirty.findings] == ["R1-set-iter"]

        # and reverting restores the clean verdict
        target.write_text(_CLEAN_MOD)
        assert run_lint([target], cache_path=cache).findings == []

    def test_cached_findings_replay_identically(self, tmp_path):
        cache = tmp_path / "cache.json"
        target = _fixture_module(tmp_path, _DIRTY_MOD)
        cold = run_lint([target], cache_path=cache)
        warm = run_lint([target], cache_path=cache)
        assert warm.stats.cache_hits == 1
        assert ([(f.rule, f.line, f.col, f.message)
                 for f in cold.findings]
                == [(f.rule, f.line, f.col, f.message)
                    for f in warm.findings])

    def test_corrupt_cache_is_tolerated(self, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text("{ not json !")
        target = _fixture_module(tmp_path, _CLEAN_MOD)
        result = run_lint([target], cache_path=cache)
        assert result.findings == []
        # and the cache was rewritten into a usable state
        assert run_lint([target],
                        cache_path=cache).stats.cache_hits == 1


class TestBaseline:
    def test_known_findings_subtracted_new_ones_surface(self, tmp_path):
        target = _fixture_module(tmp_path, _DIRTY_MOD)
        baseline = tmp_path / "baseline.json"

        before = run_lint([target], cache_path=None)
        assert before.findings
        write_baseline(baseline, before.findings)

        after = run_lint([target], cache_path=None,
                         baseline_path=baseline)
        assert after.findings == []
        assert after.stats.baseline_dropped == len(before.findings)

        # a second violation exceeds the baselined count and surfaces
        target.write_text(_DIRTY_MOD +
                          "\n\ndef collect_more(ids):\n"
                          "    for i in set(ids):\n"
                          "        print(i)\n")
        grown = run_lint([target], cache_path=None,
                         baseline_path=baseline)
        assert grown.findings


class TestFormatsAndStats:
    def test_json_format_carries_findings_and_stats(self, tmp_path):
        target = _fixture_module(tmp_path, _DIRTY_MOD)
        result = run_lint([target], cache_path=None)
        doc = json.loads(findings_to_json(result.findings, result.stats))
        assert [f["rule"] for f in doc["findings"]] == ["R1-set-iter"]
        assert doc["stats"]["files"] == 1
        assert doc["stats"]["findings_per_rule"] == {"R1-set-iter": 1}

    def test_sarif_format(self, tmp_path):
        target = _fixture_module(tmp_path, _DIRTY_MOD)
        result = run_lint([target], cache_path=None)
        doc = json.loads(findings_to_sarif(result.findings))
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["R1-set-iter"]

    def test_cli_stats_flag(self, tmp_path, capsys):
        target = _fixture_module(tmp_path, _CLEAN_MOD)
        code = lint_main([str(target), "--no-cache", "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "files:" in out and "cache:" in out


# ======================================================================
# the tier-1 lint session: the shipped tree is clean
# ======================================================================
class TestTreeIsClean:
    def test_src_tree_lints_clean(self):
        findings = lint_paths([REPO / "src"])
        rendered = "\n".join(f.render() for f in findings)
        assert findings == [], f"repro.lint found new issues:\n{rendered}"

    def test_tests_and_benchmarks_lint_clean(self):
        findings = lint_paths([REPO / "tests", REPO / "benchmarks"])
        rendered = "\n".join(f.render() for f in findings)
        assert findings == [], f"repro.lint found new issues:\n{rendered}"

    def test_full_tree_clean_through_cache_inside_budget(self, tmp_path):
        # the tier-1 gate: per-file rules AND the whole-program pass
        # over src+tests+benchmarks, cold then cached, with the cached
        # run asserted inside the wall-time budget from the issue
        cache = tmp_path / "lint-cache.json"
        paths = [REPO / "src", REPO / "tests", REPO / "benchmarks"]

        cold = run_lint(paths, cache_path=cache)
        rendered = "\n".join(f.render() for f in cold.findings)
        assert cold.findings == [], \
            f"repro.lint found new issues:\n{rendered}"
        assert cold.stats.files > 50
        assert cold.stats.cache_misses == cold.stats.files

        warm = run_lint(paths, cache_path=cache)
        assert warm.findings == []
        assert warm.stats.cache_hits == warm.stats.files
        assert warm.stats.cache_misses == 0
        assert warm.stats.project_cache_hit
        assert warm.stats.cache_hit_rate == 1.0
        assert warm.stats.wall_s < 2.0, \
            f"cached full-tree lint took {warm.stats.wall_s:.3f}s"

    def test_cli_module_entrypoint(self, tmp_path):
        # the tier-1 lint session covers benchmarks/ alongside src/;
        # point the cache at a tmp file so the repo stays pristine
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(REPO / "src"),
             str(REPO / "benchmarks"),
             "--cache-file", str(tmp_path / "cache.json")],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @pytest.mark.skipif(shutil.which("ruff") is None,
                        reason="ruff not installed (pip install -e .[lint])")
    def test_ruff_session(self):
        proc = subprocess.run(
            ["ruff", "check", "src", "tests", "benchmarks"],
            capture_output=True, text=True, cwd=REPO)
        assert proc.returncode == 0, proc.stdout + proc.stderr
