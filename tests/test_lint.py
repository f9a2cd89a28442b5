"""The `repro.lint` static pass: rule fixtures, pragmas, CLI, tier-1 gate.

Each per-file rule gets a *bad* fixture proving it detects its target
pattern and a *fixed* fixture proving the repaired form stays silent
(the whole-program lock rule R8 is covered in test_lint_flow.py).  The tier-1 lint gate lives here too: one
:func:`run_lint` over src + tests + benchmarks must produce zero
findings, and (when installed) ruff must pass with the curated rule set
from pyproject.toml.
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.lint import RULES, engine, findings_to_json, lint_source, run_lint
from repro.lint import rules as lint_rules
from repro.lint.__main__ import build_parser, main as lint_main

REPO = Path(__file__).resolve().parents[1]

#: a path inside the determinism scope (R1) and the shared-memory scope
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
# complex narrowing: convicted at run time, no lint rule
# ======================================================================
#: the two shapes the deleted R2-complex-narrowing rule convicted, and
#: the repaired form; executed, not linted
_NARROW_STORE = (
    "import numpy as np\n"
    "def fold(u):\n"
    "    out = np.zeros(4)\n"
    "    c = u * np.exp(1j * 0.5)\n"
    "    out[0] = c\n"
    "    return out\n"
    "fold(2.0)\n")
_NARROW_ASTYPE = (
    "import numpy as np\n"
    "z = np.zeros(3, dtype=np.complex128)\n"
    "z.astype(np.float64)\n")


class TestR2Dtype:
    # implicit complex->real narrowing is convicted by NumPy itself: the
    # project pytest config (filterwarnings) turns ComplexWarning into an
    # error on every tested path, which these two executed fixtures pin
    def test_complex_store_into_real_buffer_fires(self):
        with pytest.raises(np.exceptions.ComplexWarning):
            exec(_NARROW_STORE, {})

    def test_complex_astype_real_fires(self):
        with pytest.raises(np.exceptions.ComplexWarning):
            exec(_NARROW_ASTYPE, {})

    def test_explicit_real_is_silent(self):
        exec(_NARROW_STORE.replace("out[0] = c\n", "out[0] = c.real\n"), {})



# ======================================================================
# R5 - shared-memory lifecycle
# ======================================================================
class TestR5SharedMemory:
    #: a path inside the shared-memory scope, but not the helper module
    PAR = "repro/parallel/process_engine.py"

    #: a creation with no cleanup path: the shape the rule convicts
    LEAKY = ("from repro.parallel.shm import create_shm\n"
             "def scratch(n):\n"
             "    shm = create_shm(n)\n"
             "    return shm.buf[:n]\n")

    def test_helper_module_itself_is_exempt(self):
        # the helper hands its blocks to callers that own the teardown
        assert_silent("R5-shm-lifecycle", self.LEAKY,
                      path="repro/parallel/shm.py")

    def test_scope_excludes_cold_paths(self):
        assert_silent("R5-shm-lifecycle", self.LEAKY, path=COLD)

    def test_create_without_cleanup_fires(self):
        assert_fires("R5-shm-lifecycle", self.LEAKY, path=self.PAR)

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
# suppression pragmas
# ======================================================================
class TestPragmas:
    #: R6-io-owner fires on the last line (a raw checkpoint write)
    BAD = ("import numpy as np\n"
           "def save(ckpt_path, arrays):\n"
           "    np.savez(ckpt_path, **arrays)")

    def test_inline_pragma_suppresses(self):
        src = self.BAD + "  # repro-lint: disable=R6-io-owner -- fixture\n"
        assert lint_source(src, path=COLD) == []

    def test_standalone_pragma_covers_next_line(self):
        src = self.BAD.replace(
            "    np.savez(",
            "    # repro-lint: disable=R6-io-owner -- fixture\n"
            "    np.savez(") + "\n"
        assert lint_source(src, path=COLD) == []

    def test_disable_all(self):
        src = self.BAD + "  # repro-lint: disable=all -- fixture\n"
        assert lint_source(src, path=COLD) == []

    def test_wrong_rule_does_not_suppress(self):
        src = self.BAD + "  # repro-lint: disable=R1-set-iter -- fixture\n"
        assert rule_ids(lint_source(src, path=COLD)) == {"R6-io-owner"}

    def test_unjustified_pragma_is_reported(self):
        src = self.BAD + "  # repro-lint: disable=R6-io-owner\n"
        assert rule_ids(lint_source(src, path=COLD)) == {"P0-unjustified-pragma"}

    def test_pragma_inside_string_is_ignored(self):
        src = ('s = "# repro-lint: disable=all -- nope"\n' + self.BAD + "\n")
        assert rule_ids(lint_source(src, path=COLD)) == {"R6-io-owner"}

    def test_unknown_rule_id_is_reported(self):
        # a typo, or a pragma left behind by a deleted rule, suppresses
        # nothing and is itself a finding; a known id and `all` are not
        src = self.BAD + "  # repro-lint: disable=R99-retired -- stale\n"
        assert rule_ids(lint_source(src, path=COLD)) == {"P0-unknown-rule",
                                              "R6-io-owner"}
        mixed = self.BAD + ("  # repro-lint: disable=R6-io-owner,"
                            "R6-io-ownr -- typo\n")
        assert rule_ids(lint_source(mixed, path=COLD)) == {"P0-unknown-rule"}



# ======================================================================
# engine / CLI behavior
# ======================================================================
#: trips R1-set-iter (line 3) and R6-io-owner (line 6) at a HOT path
_TWO_RULES = ("import numpy as np\n"
              "def collect(ids, ckpt):\n"
              "    for i in set(ids):\n"
              "        print(i)\n"
              "    arr = np.zeros(3)\n"
              "    np.save(ckpt, arr)\n")

#: a cross-file lock violation only the whole-program pass can see: the
#: guard is declared in base.py, the lock-free write sits in kid.py
_BASE_MOD = ("import threading\n"
             "class Base:\n"
             "    def __init__(self):\n"
             "        self._lock = threading.Lock()\n"
             "        self.state = {}  # guarded-by: _lock\n")
_KID_MOD = ("from .base import Base\n"
            "class Kid(Base):\n"
            "    def update(self):\n"
            "        self.state = {'ok': True}\n")


class TestEngine:
    def test_syntax_error_is_a_finding(self):
        assert "E0-syntax" in rule_ids(lint_source("def broken(:\n"))

    def test_select_restricts_rules(self):
        assert rule_ids(lint_source(_TWO_RULES, path=HOT)) == {
            "R1-set-iter", "R6-io-owner"}
        only = lint_source(_TWO_RULES, path=HOT, select=["R6-io-owner"])
        assert rule_ids(only) == {"R6-io-owner"}

    def test_ignore_drops_rules(self):
        assert rule_ids(lint_source(_TWO_RULES, path=HOT,
                                    ignore=["R6"])) == {"R1-set-iter"}

    def test_findings_sorted_by_position(self):
        found = lint_source(_TWO_RULES, path=HOT)
        assert [f.line for f in found] == [3, 6]

    def test_cli_exit_codes(self, tmp_path, capsys):
        (tmp_path / "repro").mkdir()  # inside the io ownership scope
        bad = tmp_path / "repro" / "bad.py"
        bad.write_text(TestPragmas.BAD + "\n")
        good = tmp_path / "good.py"
        good.write_text("total = 0.0\n")
        assert lint_main([str(bad)]) == 1
        assert "R6-io-owner" in capsys.readouterr().out
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

    def test_surface_census(self):
        """The lint surface is reviewed, not accreted: exactly these
        rule ids, CLI flags, scope tables and entry points."""
        assert sorted(RULES) == sorted([
            "R1-set-iter", "R1-unordered-reduce", "R5-shm-lifecycle",
            "R6-io-owner", "R8-lockset"])
        flags = {opt for action in build_parser()._actions
                 for opt in action.option_strings} - {"-h", "--help"}
        assert flags == {"--select", "--ignore", "--format", "--stats",
                         "--list-rules"}
        fmt = next(a for a in build_parser()._actions
                   if "--format" in a.option_strings)
        assert list(fmt.choices) == ["text", "json"]
        assert {n for n in dir(lint_rules) if n.endswith("_SCOPE")} == {
            "HOT_PATH_SCOPE", "SHM_SCOPE", "IO_SCOPE"}
        assert {n for n in engine.__all__
                if inspect.isfunction(getattr(engine, n))} == {
            "run_lint", "lint_source", "format_findings", "findings_to_json"}


# ======================================================================
# output formats
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


class TestFormatsAndStats:
    def test_json_format_carries_findings_and_stats(self, tmp_path):
        target = _fixture_module(tmp_path, _DIRTY_MOD)
        result = run_lint([target])
        doc = json.loads(findings_to_json(result.findings, result.stats))
        assert [f["rule"] for f in doc["findings"]] == ["R1-set-iter"]
        assert doc["stats"]["files"] == 1
        assert doc["stats"]["findings_per_rule"] == {"R1-set-iter": 1}

    def test_cli_stats_flag(self, tmp_path, capsys):
        target = _fixture_module(tmp_path, _CLEAN_MOD)
        code = lint_main([str(target), "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "files:" in out and "wall:" in out


# ======================================================================
# the tier-1 lint gate: the shipped tree is clean
# ======================================================================
class TestTreeIsClean:
    def test_full_tree_clean(self):
        # THE gate: the one pass - per-file rules and the whole-program
        # analyses - over src + tests + benchmarks
        result = run_lint([REPO / "src", REPO / "tests",
                           REPO / "benchmarks"])
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.findings == [], \
            f"repro.lint found new issues:\n{rendered}"
        assert result.stats.files > 50
        # the whole-program pass ran on the real call graph: the known
        # pool/thread entry points are discovered; SNAP owns no lock since
        # its plan is built in __init__, so nothing in the tree is
        # suppressed any more
        project = result.project
        assert len(project.modules) > 50
        assert "repro.parallel.distributed.DistributedEngine.evaluate" \
            in project.functions
        assert "repro.parallel.process_engine._worker_main" \
            in project.pool_entries
        assert "repro.md.trajectory.AsyncTrajectoryWriter._drain_loop" \
            in project.pool_entries
        assert "repro.parsplice.service._segment_worker_main" \
            in project.pool_entries
        assert result.stats.suppressed_per_rule == {}

    def test_cli_module_entrypoint(self, tmp_path):
        # `python -m repro.lint` on a two-file fixture: the cross-file
        # R8 finding proves the one entry point runs the whole-program
        # pass; nothing is left behind in the working directory
        pkg = tmp_path / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "base.py").write_text(_BASE_MOD)
        (pkg / "kid.py").write_text(_KID_MOD)
        before = sorted(p.name for p in tmp_path.iterdir())

        def cli():
            return subprocess.run(
                [sys.executable, "-m", "repro.lint", "src"],
                capture_output=True, text=True, cwd=tmp_path,
                env={"PYTHONPATH": str(REPO / "src"),
                     "PATH": "/usr/bin:/bin"})

        proc = cli()
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "kid.py:4" in proc.stdout and "R8-lockset" in proc.stdout
        (pkg / "kid.py").write_text(_KID_MOD.replace(
            "        self.state", "        with self._lock:\n"
            "            self.state"))
        proc = cli()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.skipif(shutil.which("ruff") is None,
                        reason="ruff not installed (pip install -e .[lint])")
    def test_ruff_session(self):
        proc = subprocess.run(
            ["ruff", "check", "src", "tests", "benchmarks"],
            capture_output=True, text=True, cwd=REPO)
        assert proc.returncode == 0, proc.stdout + proc.stderr
