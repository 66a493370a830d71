#!/usr/bin/env python3
"""Compare two sets of gredbench runs (A/A or A/B).

    python3 benchmarks/gredbench/compare.py A_DIR B_DIR

Each directory holds the ``<workload>.json`` files of N untraced runs
(``run.py -o``), at any depth; runs are paired in path order, so give
both sides the same seeds in the same order.  For every workload x
end-to-end metric it prints each side's median and quartiles, the ratio
B/A with its base, and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``unresolved`` — the run-to-run spread (quartile distance / median,
  the wider side) exceeds the bound, unless every B run beats every A
  run;
* ``regressed``  — B's median is worse than A's by more than the bound;
* ``improved``   — at least ten pairs were run, B wins at least nine
  tenths of them (ties count for neither) and the medians differ by more
  than A's own quartile distance;
* ``identical``  — every pair reads exactly the same (the exact metrics
  and counts must, for one commit and one seed list);
* ``unchanged``  — otherwise.

Exits 1 when any row is ``regressed`` or ``unresolved``, or when the
exact counts of paired runs differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]


def load(directory: str) -> Dict[str, List[dict]]:
    """Untraced run outputs under ``directory``, by workload, in path
    order."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    for path in sorted(Path(directory).rglob("*.json")):
        with open(path, encoding="utf-8") as handle:
            run = json.load(handle)
        if isinstance(run, dict) and "metrics" in run \
                and not run.get("traced"):
            runs[run["workload"]].append(run)
    return runs


def quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    if len(a) == len(b) and all(x == y for x, y in zip(a, b)):
        return "identical"
    sign = 1.0 if better == "lower" else -1.0     # > 0 means worse
    med_a, med_b = statistics.median(a), statistics.median(b)
    (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
    spread = max((a3 - a1) / med_a, (b3 - b1) / med_b)
    always_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not always_better:
        return "unresolved"
    if sign * (med_b - med_a) / med_a > bound:
        return "regressed"
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (med_b - med_a) < 0
            and abs(med_b - med_a) > a3 - a1):
        return "improved"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    side_a, side_b = load(argv[0]), load(argv[1])
    bad = 0
    print(f"A = {argv[0]}   B = {argv[1]}   (ratio = B median / A "
          f"median, base A)")
    header = (f"{'metric':<20}{'unit':>6} {'A median [q1, q3]':>38} "
              f"{'B median [q1, q3]':>38} {'ratio':>7} {'bound':>6}  "
              f"verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a, runs_b = side_a.get(workload, []), side_b.get(workload,
                                                              [])
        if not runs_a or not runs_b:
            continue
        print(f"\n== {workload}   A: {len(runs_a)} runs, "
              f"B: {len(runs_b)} runs\n{header}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            bad += outcome in ("regressed", "unresolved")
            (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(f"{name:<20}{metric['unit']:>6} "
                  f"{med_a:>12.4f} [{a1:>10.4f}, {a3:>10.4f}] "
                  f"{med_b:>12.4f} [{b1:>10.4f}, {b3:>10.4f}] "
                  f"{med_b / med_a:>7.3f} {metric['bound']:>6.0%}  "
                  f"{outcome}")
        same = [ra["counts"] == rb["counts"]
                for ra, rb in zip(runs_a, runs_b)
                if (ra["seed"], ra["seconds"]) == (rb["seed"],
                                                   rb["seconds"])]
        if same:
            print(f"exact counts of {len(same)} same-seed pairs: "
                  f"{'identical' if all(same) else 'DIFFER'}")
            bad += not all(same)
    print(f"\n{bad} row(s) regressed, unresolved or differing"
          if bad else "\nno row regressed or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
