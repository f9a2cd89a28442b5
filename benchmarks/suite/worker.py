"""One workload in one process (spawned by ``run.py`` with BLAS pinned).

``--phase setup`` stops after set-up and reports only ``setup_s``: run.py
spawns it a few times so ``setup_s`` is a median over fresh processes
(cold imports, cold caches), not a single shot.  ``--phase run`` goes on
to the timed window, the output checks and, with ``--trace 1``, the
layer replay.  Human-readable lines go to stdout, the machine-readable
result to ``--result``.
"""

from __future__ import annotations

import time

#: set-up is timed from here, before NumPy and the repo are imported
T0 = time.perf_counter()


def main() -> int:
    import argparse
    import json
    from pathlib import Path

    import host
    import workloads
    from measure import HostSpeed, Spans

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.ROWS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "run"), default="run")
    parser.add_argument("--spec", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads(args.spec.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    shape = workloads.QUICK if args.quick else workloads.FULL
    spans = Spans(args.workload, shape.reps) if args.trace else None
    load_before = host.load_record()

    row = workloads.ROWS[args.workload](args.seed, shape, args.workdir, spans)
    generate_s = row.generate()
    row.setup()
    raw_setup_s = time.perf_counter() - T0 - generate_s
    # set-up seconds at the reference host speed, like the window's rate
    host_now = HostSpeed()
    for _ in range(5):
        host_now.sample()
    setup_s = raw_setup_s / host_now.to_reference(1.0)
    try:
        if args.phase == "setup":
            args.result.write_text(json.dumps({"setup_s": setup_s}))
            return 0
        metrics = row.measure(args.seconds)
        metrics["setup_s"] = setup_s
        row.raw["setup_s"] = raw_setup_s
        if not args.trace:
            metrics["peak_rss_mb"] = row.finish()
        row.check()
        stream_sizes = None
        if args.trace:
            gemm = host.gemm_gflops()
            stream, stream_sizes = host.stream_gbps(bool(args.quick))
            print(f"# host.stream_gbps: arrays of {stream_sizes['array_bytes']}"
                  f" B against a {stream_sizes['llc_bytes']} B last-level "
                  f"cache (capped={stream_sizes['capped']})")
            metrics = workloads.replay(row, gemm)
            metrics["host.gemm_gflops"] = gemm
            metrics["host.stream_gbps"] = stream
            spans.write(args.trace_file)
    finally:
        row.close()

    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        print(f"metric names drifted from {args.spec.name}: "
              f"missing {missing}, unlisted {extra}")
        return 4
    for name in units:
        print(f"{args.workload:16s} {name:40s} {metrics[name]:14.6g} "
              f"{units[name]}")
    for name, value in row.raw.items():
        print(f"{args.workload:16s} raw {name} = {value:.6g}")
    for name, ok, detail in row.checks:
        print(f"{args.workload:16s} check {name}: "
              f"{'ok' if ok else 'FAILED'} ({detail})")
    for name, digest in row.digests.items():
        print(f"{args.workload:16s} digest {name} = {digest}")
    correct = all(ok for _, ok, _ in row.checks) and row.failed == 0
    args.result.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "quick": bool(args.quick), "trace": args.trace,
        "correct": correct, "attempted": row.attempted,
        "failed": row.failed,
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]} for name in units},
        "raw": row.raw,
        "checks": [{"name": n, "ok": ok, "detail": d}
                   for n, ok, d in row.checks],
        "digests": row.digests,
        "host": {**host.host_record(), "load_before": load_before,
                 "load_after": host.load_record(),
                 "stream_sizes": stream_sizes},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
