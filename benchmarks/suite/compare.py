"""Compare two result files of ``run.py --out`` against the bounds.

    python3 benchmarks/suite/compare.py A.json B.json

A is the base (the parent commit, or the first of two sets of runs of one
commit), B the candidate.  For every (workload, end-to-end metric) it
prints both medians, each side's spread (quartile distance over median,
as ``statistics.quantiles(values, n=4)`` gives it), the ratio B/A and a
verdict from the metric's ``bound`` in ``BENCHMARK.json``:

regressed    B's median is worse than A's by more than the bound
unresolved   a side's spread is wider than the bound, so the bound cannot
             be judged - unless every run of one side beats every run of
             the other, which decides it
improved     B is better by more than A's own spread
unchanged    none of the above

Exit status 1 when any pairing regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path: Path) -> dict:
    """``{(workload, metric): [values]}`` of a file's untraced runs."""
    values = defaultdict(list)
    for run in json.loads(path.read_text())["runs"]:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            values[run["workload"], name].append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: list[float], b: list[float], higher: bool,
            bound: float) -> tuple[str, float]:
    """Returns the verdict and by how much B's median is worse (as a
    share of A's median; negative when B is better)."""
    a_med, b_med = statistics.median(a), statistics.median(b)
    worse = (a_med - b_med) / a_med if higher else (b_med - a_med) / a_med
    if higher:
        b_wins, a_wins = min(b) > max(a), min(a) > max(b)
    else:
        b_wins, a_wins = max(b) < min(a), max(a) < min(b)
    if max(spread(a), spread(b)) > bound:
        if b_wins:
            return "improved", worse
        if a_wins and worse > bound:
            return "regressed", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if -worse > spread(a) and b_wins:
        return "improved", worse
    return "unchanged", worse


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("a", type=Path, help="base result file")
    parser.add_argument("b", type=Path, help="candidate result file")
    args = parser.parse_args()
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    side_a, side_b = load(args.a), load(args.b)
    regressed = False
    print(f"{'workload':16s} {'metric':18s} {'A median':>12s} {'(spread)':>9s}"
          f" {'B median':>12s} {'(spread)':>9s} {'B/A':>7s} {'bound':>6s}"
          "  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            a, b = side_a.get(key), side_b.get(key)
            if not a or not b:
                print(f"{workload:16s} {metric['name']:18s} missing on "
                      f"{'A' if not a else 'B'}")
                continue
            what, worse = verdict(a, b, metric["better"] == "higher",
                                  metric["bound"])
            regressed |= what == "regressed"
            a_med, b_med = statistics.median(a), statistics.median(b)
            print(f"{workload:16s} {metric['name']:18s} {a_med:12.5g} "
                  f"{100 * spread(a):8.2f}% {b_med:12.5g} "
                  f"{100 * spread(b):8.2f}% {b_med / a_med:7.4f} "
                  f"{100 * metric['bound']:5.1f}%  {what} "
                  f"(B {'worse' if worse > 0 else 'better'} by "
                  f"{100 * abs(worse):.2f}% of A's {a_med:.5g} "
                  f"{metric['unit']}; n={len(a)}/{len(b)})")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
