"""Apply the seeded-bug ledger to a scratch copy and record who convicts.

    python tests/mutants/drive.py --work DIR [--rows ID,ID,...] [--out FILE]

Copies the files git tracks (or would track) into ``DIR/tree`` - the
checkout itself is never modified - and checks that the unmutated copy
passes both nets.  Then, for each row of :data:`ledger.ROWS` in order,
it swaps the row's old text for its new text and records who convicts:

1. tier-1: the whole ``pytest -q`` run (no ``-x``, no hypothesis
   example database) under a wall-clock limit, every failing test id
   (or ``timeout``).  The ledger's own applicability test is ignored: it
   fails on any applied row;
2. suite: ``benchmarks/suite/run.py --quick``, its failed checks; run
   only on rows tier-1 does not convict.

Prints one markdown row per mutant, then the test x mutant kill matrix
(each failing test with the rows it convicts, a row no other test
convicts starred) and the wall time; ``--out`` also writes the results
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from ledger import ROWS

ROOT = Path(__file__).resolve().parents[2]
TIER1 = ["-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--ignore", "tests/test_mutant_ledger.py"]
SUITE = ["benchmarks/suite/run.py", "--quick"]
TIER1_TIMEOUT_S = 600.0
SUITE_TIMEOUT_S = 900.0
SHM = Path("/dev/shm")


def shm_blocks() -> set[str]:
    """Names of this repo's shared-memory blocks (Linux; empty elsewhere)."""
    return {p.name for p in SHM.glob("repro-*")} if SHM.is_dir() else set()


def run(args: list[str], cwd: Path, pythonpath: Path,
        timeout: float) -> tuple[int | None, str]:
    """``(exit status or None on timeout, stdout+stderr)``; the whole
    process group (engine and segment workers included) dies on timeout."""
    env = {**os.environ, "PYTHONPATH": str(pythonpath),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return None, out


def copy_tree(dest: Path) -> None:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=ROOT,
        capture_output=True, check=True).stdout.decode().split("\0")
    shutil.rmtree(dest, ignore_errors=True)
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def tier1(tree: Path) -> list[str]:
    """Every failing test id, ``["timeout"]``, or ``[]`` when all pass."""
    # each run starts without the example database, as a fresh checkout
    # does: an example shrunk under one row must not replay in the next
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    code, out = run(TIER1, tree, tree / "src", TIER1_TIMEOUT_S)
    if code is None:
        return ["timeout"]
    if code == 0:
        return []
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", out, re.MULTILINE)
    return list(dict.fromkeys(failed)) or [f"exit {code}"]


def suite(tree: Path, work: Path) -> list[str]:
    """Names of the failed suite checks (empty when all hold)."""
    out_file = work / "suite.json"
    out_file.unlink(missing_ok=True)
    code, out = run([*SUITE, "--out", str(out_file)], tree, tree / "src",
                    SUITE_TIMEOUT_S)
    if code is None:
        return ["timeout"]
    failed = [f"{r['workload']}:{c['name']}"
              for r in (json.loads(out_file.read_text())["runs"]
                        if out_file.exists() else [])
              for c in r["checks"] if not c["ok"]]
    failed += [f"cross-row:{name}" for name in re.findall(
        r"cross-row check (\w+) .*FAILED", out)]
    if code != 0 and not failed:
        failed = [f"exit {code}: {out.strip().splitlines()[-1]}"]
    return failed


def verdict(row, t1: list[str], checks: list[str]) -> str:
    if row.contract == "none":
        return "not a bug"
    if t1:
        return "tier-1"
    if checks:
        return "suite"
    return "SURVIVOR"


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--work", type=Path, required=True,
                        help="scratch directory (emptied first)")
    parser.add_argument("--rows", help="comma-separated row ids")
    parser.add_argument("--out", type=Path, help="JSON results file")
    args = parser.parse_args()

    rows = ROWS
    if args.rows:
        wanted = args.rows.split(",")
        rows = [r for r in ROWS if r.id in wanted]
        if len(rows) != len(wanted):
            parser.error(f"unknown row ids in {args.rows!r}")
    t_start = time.monotonic()
    work = args.work.resolve()
    tree = work / "tree"
    copy_tree(tree)

    clean = tier1(tree)
    checks = suite(tree, work)
    if clean or checks:
        print(f"the unmutated copy fails: tier-1 {clean}, suite {checks}",
              file=sys.stderr)
        return 1
    print(f"baseline clean ({time.monotonic() - t_start:.0f} s)", flush=True)

    results = []
    print("| row | contract | tier-1 failures | suite | verdict |\n"
          "|---|---|---|---|---|", flush=True)
    for row in rows:
        t0 = time.monotonic()
        target = tree / row.path
        text = target.read_text()
        if text.count(row.old) != 1:
            raise SystemExit(f"{row.id}: old text not found once in "
                             f"{row.path}")
        target.write_text(text.replace(row.old, row.new))
        shm_before = shm_blocks()
        try:
            t1 = tier1(tree)
            checks = [] if t1 else suite(tree, work)
        finally:
            target.write_text(text)
            # a mutant that leaks shared memory must not starve the next
            for name in shm_blocks() - shm_before:
                (SHM / name).unlink(missing_ok=True)
        result = {"id": row.id, "path": row.path, "shape": row.shape,
                  "contract": row.contract, "tier1": t1, "suite": checks,
                  "verdict": verdict(row, t1, checks),
                  "seconds": round(time.monotonic() - t0, 1)}
        results.append(result)
        print(f"| `{row.id}` | {row.contract} | {len(t1)} | "
              f"{', '.join(checks) or '-'} | {result['verdict']} |",
              flush=True)

    # the kill matrix: a test's unique kill is a row no other test
    # convicts
    print("\ntest x mutant kill matrix (unique kills starred):")
    for test in sorted({t for res in results for t in res["tier1"]}):
        kills = [f"{res['id']}*" if res["tier1"] == [test] else res["id"]
                 for res in results if test in res["tier1"]]
        print(f"  {test}: {', '.join(kills)}")
    wall = time.monotonic() - t_start
    print(f"\n{len(results)} rows, wall {wall:.0f} s")
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"wall_s": round(wall, 1), "rows": results}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
