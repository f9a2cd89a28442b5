"""Smoke test of the benchmark suite (``--quick`` shape, ~20 s).

Not collected by tier-1 (``testpaths = tests``); run it directly::

    python -m pytest benchmarks/suite/test_suite_smoke.py

It asserts that the one command prints every metric named in
``BENCHMARK.json`` with its unit on every workload, that every output
check passes and that no operation failed.  Quick numbers are never
results of record.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
SPEC = json.loads((SUITE.parents[1] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace,section",
                         [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(tmp_path, trace, section):
    out = tmp_path / "quick.json"
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--quick", "--seed", "3",
         "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    runs = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in runs] == \
        [w["name"] for w in SPEC["workloads"]]
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    for run in runs:
        assert run["quick"] and run["correct"], run["checks"]
        assert run["failed"] == 0 and run["attempted"] >= 1
        assert {name: m["unit"] for name, m in run["metrics"].items()} \
            == wanted
        for name, unit in wanted.items():
            line = [ln for ln in proc.stdout.splitlines()
                    if ln.split()[:2] == [run["workload"], name]]
            assert line and line[0].split()[-1] == unit, name
    if trace:
        for run in runs:
            assert run["metrics"]["parallel.shm.leaked_blocks"]["value"] == 0
