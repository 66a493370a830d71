"""The line-budget report: the numbers simplicity work is judged by.

Run from anywhere in a git checkout with its parent commit fetched
(``fetch-depth: 2`` on CI)::

    python tools/line_budget.py

It prints, in order: the line budget (``core + dataplane + resilience
+ cli.py``) against the ROADMAP target, the facade's length, the five
longest function bodies on the request path and the two grouped batch
bodies, the reference engine's and the per-source BFS's call sites,
what this commit did to the request path, to ``src + benchmarks`` and
to ``tests/``, the CI workflow's length, the route memo's bytes a
route, and the fault-attached posture's peak RSS.  It gates nothing:
``tests/test_budgets.py`` asserts the budgets that gate.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_budgets import function_bodies, route_memo_footprint  # noqa: E402

#: The budget's files, and the ROADMAP target: -25 % against the 7,844
#: lines they held when the item was opened (commit ab91f4e).
BUDGET = ("core/*.py", "dataplane/*.py", "resilience/*.py", "cli.py")
TARGET, OPENED = 5883, 7844


def lines(path):
    return path.read_bytes().count(b"\n")


def call_sites(name, paths, skip=None):
    """Lines calling ``name(`` outside backquoted prose, as ``grep``."""
    call = re.compile(rf"(^|[^`]){name}\(")
    return sum(1 for path in paths if path != skip
               for line in path.read_text().splitlines() if call.search(line))


def vs_parent(label, *paths):
    numstat = subprocess.run(
        ["git", "diff", "--numstat", "HEAD~1", "--", *paths], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout.split("\n")
    added = deleted = 0
    for row in filter(None, numstat):
        a, d, _ = row.split("\t", 2)
        added += int(a) if a != "-" else 0
        deleted += int(d) if d != "-" else 0
    print(f"{label} vs parent: {added - deleted:+d} lines "
          f"(+{added} -{deleted})")


def main():
    src = ROOT / "src" / "repro"
    budget = [p for g in BUDGET for p in sorted(src.glob(g))]
    for path in budget:
        print(f"{lines(path):7d} {path.relative_to(ROOT)}")
    total = sum(map(lines, budget))
    print(f"{total:7d} total")
    print(f"ROADMAP target <= {TARGET} ({OPENED} -25%), now {total}")
    network = src / "core" / "network.py"
    print(f"{lines(network):7d} {network.relative_to(ROOT)}")

    bodies = function_bodies(str(p.relative_to(ROOT)) for p in budget)
    for length, where in sorted(bodies, reverse=True)[:5]:
        print(f"{length:5d} {where}")
    for length, where in bodies:
        if where.endswith((" _grouped_store", " _grouped_probe")):
            print(f"{length:5d} {where}")

    everywhere = sorted(src.rglob("*.py"))
    print("route_packet( call sites outside dataplane/forwarding.py: "
          + str(call_sites("route_packet", everywhere,
                           skip=src / "dataplane" / "forwarding.py")))
    print("bfs_distances( call sites under core + dataplane: "
          + str(call_sites("bfs_distances", sorted(
              p for package in ("core", "dataplane")
              for p in (src / package).rglob("*.py")))))

    vs_parent("core + dataplane", "src/repro/core", "src/repro/dataplane")
    vs_parent("src + benchmarks", "src", "benchmarks",
              ":!benchmarks/gredbench")
    vs_parent("tests", "tests")
    ci = ROOT / ".github" / "workflows" / "ci.yml"
    print(f"{lines(ci):7d} {ci.relative_to(ROOT)}")

    for routes, nbytes in route_memo_footprint():
        print(f"route memo: {nbytes / routes:.1f} B/route "
              f"at {routes} routes ({nbytes} B allocated)")
    bench = subprocess.run(
        [sys.executable, "benchmarks/gredbench/run.py", "--workload",
         "faulted", "--quick"], cwd=ROOT, check=True, capture_output=True,
        text=True).stdout
    print(next(line for line in bench.splitlines() if "peak_rss_mb" in line))


if __name__ == "__main__":
    main()
