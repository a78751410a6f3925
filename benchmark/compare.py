"""Compare two benchmark result files, workload by workload.

    python3 benchmark/compare.py A.json B.json

``A.json`` (the parent) and ``B.json`` (the change) are ``run.py --out``
files; ``--repeat`` gives each side several runs.  For every workload
and end-to-end metric the report shows each side's median and
quartiles and a verdict:

* ``worse`` / ``better`` -- the medians differ by more than the
  metric's bound from ``BENCHMARK.json``;
* ``unchanged`` -- they differ by less;
* ``unresolved`` -- either side's spread (quartile distance over median)
  exceeds the bound, unless every run of B beats every run of A.

Per-layer medians follow, with their change.  The exit status is 1
when any metric is worse, or when B failed operations A did not.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """``{(workload, trace): [record, ...]}`` of one result file."""
    with open(path) as handle:
        records = json.load(handle)["records"]
    grouped: dict = {}
    for record in records:
        grouped.setdefault((record["workload"], record["trace"]), []).append(record)
    return grouped


def values(records: list[dict], metric: str) -> list[float]:
    return [record["metrics"][metric]["value"] for record in records]


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    low, median, high = statistics.quantiles(samples, n=4)
    return low, statistics.median(samples), high


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    a_low, a_mid, a_high = quartiles(a)
    b_low, b_mid, b_high = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b_mid - a_mid) / a_mid  # > 0: B is worse
    spread = max((a_high - a_low) / a_mid, (b_high - b_low) / b_mid)
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def compare(a: dict, b: dict, decl: dict) -> tuple[list[str], bool]:
    """Report lines, and whether B regressed."""
    lines: list[str] = []
    regressed = False
    for workload in [w["name"] for w in decl["workloads"]]:
        a_runs, b_runs = a.get((workload, 0)), b.get((workload, 0))
        if not a_runs or not b_runs:
            lines.append(f"[{workload}] missing from one side")
            continue
        a_failed = sum(r["failed"] for r in a_runs)
        b_failed = sum(r["failed"] for r in b_runs)
        lines.append(
            f"[{workload}] runs {len(a_runs)} vs {len(b_runs)}, "
            f"failed ops {a_failed} vs {b_failed}"
        )
        if b_failed > a_failed:
            regressed = True
        for metric in decl["end_to_end"]:
            name = metric["name"]
            a_vals, b_vals = values(a_runs, name), values(b_runs, name)
            result = verdict(a_vals, b_vals, metric["better"], metric["bound"])
            regressed |= result == "worse"
            a_q, b_q = quartiles(a_vals), quartiles(b_vals)
            lines.append(
                f"  {name:<14} A {a_q[1]:.6g} [{a_q[0]:.6g}, {a_q[2]:.6g}]  "
                f"B {b_q[1]:.6g} [{b_q[0]:.6g}, {b_q[2]:.6g}] "
                f"{metric['unit']}  {(b_q[1] - a_q[1]) / a_q[1]:+.1%}  "
                f"bound {metric['bound']:.0%}  {result}"
            )
        a_traced, b_traced = a.get((workload, 1)), b.get((workload, 1))
        if not a_traced or not b_traced:
            continue
        for metric in decl["per_layer"]:
            name = metric["name"]
            a_mid = statistics.median(values(a_traced, name))
            b_mid = statistics.median(values(b_traced, name))
            if a_mid == b_mid == 0:
                continue
            change = f"{(b_mid - a_mid) / a_mid:+.1%}" if a_mid else "new"
            lines.append(
                f"    {name:<32} {a_mid:>12.6g} -> {b_mid:<12.6g} "
                f"{metric['unit']:<7} {change}"
            )
    return lines, regressed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        decl = json.load(handle)
    lines, regressed = compare(load(argv[0]), load(argv[1]), decl)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
