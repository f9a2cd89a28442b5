"""The repo benchmark: one command, four workloads, every metric by name.

    python3 benchmarks/suite/run.py                      all workloads
    python3 benchmarks/suite/run.py --trace              their per-layer run
    python3 benchmarks/suite/run.py --workload NAME --seed N \
        --seconds S --trace 0|1                          one run, driver form

Each workload runs in fresh ``worker.py`` subprocesses whose environment
pins BLAS to one thread before NumPy is imported and points the tuning
DB at a file that does not exist.  With ``--workload`` the last line of
stdout is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  Exit status: 0 ok, 1 a check failed, 2 the repo is not
there, 3 a worker died or ran out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
OUT = SUITE / "out"

#: unpinned OpenBLAS ran ProcessEngine(nprocs=2) at 0.43x serial on this
#: 2-CPU host (4.0 s/step); pinned it runs at 1.6x.  See README.md.
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}
#: extra fresh-process set-ups per untraced run; setup_s is the median
#: over these and the measuring process itself
SETUP_PROBES = 2
#: one workload (probes, window, checks, replay) must end inside this
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def run_worker(argv: list[str], env: dict, deadline: float) -> None:
    """Run one worker to completion in its own process group, and leave
    nothing of that group behind (engine workers included)."""
    proc = subprocess.Popen([sys.executable, str(SUITE / "worker.py"), *argv],
                            env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        reap_group(proc)
    if code != 0:
        raise WorkerFailed("worker timed out" if code is None
                           else f"worker exited with status {code}")


def reap_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the worker's process group and wait until
    it is gone."""
    for _ in range(50):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            break
        proc.poll()
        time.sleep(0.1)
    proc.wait()


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 quick: bool) -> dict:
    """Set-up probes plus the measuring run of one workload."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT / f"tmp-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = {**os.environ, **PINS,
           "PYTHONPATH": str(ROOT / "src"),
           "REPRO_TUNING_DB": str(workdir / "no-tuning-db.json")}
    common = ["--workload", name, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", str(trace),
              "--quick", str(int(quick)), "--spec", str(SPEC),
              "--workdir", str(workdir),
              "--trace-file", str(OUT / f"trace-{name}.jsonl")]
    try:
        setups = []
        probes = 0 if (trace or quick) else SETUP_PROBES
        for index in range(probes):
            path = workdir / f"setup-{index}.json"
            run_worker([*common, "--phase", "setup", "--result", str(path)],
                       env, deadline)
            setups.append(json.loads(path.read_text())["setup_s"])
        path = workdir / "result.json"
        run_worker([*common, "--phase", "run", "--result", str(path)], env,
                   deadline)
        result = json.loads(path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup["value"] = statistics.median(setups)
        result["setup_samples_s"] = setups
        print(f"{name:16s} setup_s = median of {len(setups)} fresh "
              f"processes: {setup['value']:.4f} s")
    return result


def cross_backend_check(results: list[dict]) -> bool:
    """snap2j8_proc2 must reproduce snap2j8_serial's digests bitwise
    (same seed, separate processes)."""
    by_key = {(r["workload"], r["seed"]): r for r in results}
    ok = True
    for (name, seed), serial in by_key.items():
        other = by_key.get(("snap2j8_proc2", seed))
        if name != "snap2j8_serial" or other is None:
            continue
        same = serial["digests"] == other["digests"]
        ok &= same
        print(f"cross-row check backend_bitwise (seed {seed}): "
              f"{'ok' if same else 'FAILED'} "
              f"(warm-up forces and step-4 state sha256, serial vs proc2)")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="timed window (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test shape; never a result of record")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on seeds seed..seed+N-1")
    parser.add_argument("--out", type=Path, help="write every result here")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'} not found: the benchmark drives "
              "the repo's public API and cannot run without it",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    OUT.mkdir(exist_ok=True)

    results = []
    try:
        for name in names if args.workload is None else [args.workload]:
            for seed in range(args.seed, args.seed + args.repeat):
                results.append(run_workload(name, seed, seconds, args.trace,
                                            args.quick))
    except WorkerFailed as err:
        print(f"benchmark aborted: {err}", file=sys.stderr)
        return 3
    ok = all(r["correct"] for r in results)
    if not args.trace:
        ok &= cross_backend_check(results)
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"run_seconds": seconds, "quick": args.quick, "runs": results},
            indent=1))
    if args.workload is not None:
        last = results[-1]
        print(json.dumps({key: last[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
