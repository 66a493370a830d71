"""The line-budget report: the numbers simplicity work is judged by.

Run from anywhere in a git checkout with its parent commit fetched
(``fetch-depth: 2`` on CI)::

    python tools/line_budget.py

It prints, in order: the line budget (``core + dataplane + resilience
+ cli.py``) against the ROADMAP target, the facade's length, the five
longest function bodies on the request path and the two grouped batch
bodies, the reference engine's and the per-source BFS's call sites,
what this change did to the request path, to ``src + benchmarks`` and
to ``tests/`` (the uncommitted change where there is one, else the
last commit), the ``src/repro`` total and the count of public symbols
nothing in src or benchmarks names (the allowlist of
``tests/data/unreferenced_symbols.json``), each against the same
parent, the CI workflow's length, the route memo's bytes a
route, the breaker feeds and key derivations of a resilient batch of
1,000 ids (quiet board, loud board, one breaker forced open), the
sampler batches C-regulation draws (a build, a direct run, its first
``energy_history`` read), and the fault-attached posture's peak RSS.
It gates nothing: ``tests/test_budgets.py`` asserts the budgets that
gate.
"""

import io
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_budgets import (allowlist, function_bodies,  # noqa: E402
                          resilient_feeds, route_memo_footprint,
                          sampler_batches, unreferenced_symbols)

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


def git(*args, text=True):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=text)


def parent(*paths):
    """``HEAD`` while ``paths`` hold an uncommitted change, else
    ``HEAD~1``."""
    dirty = git("diff", "--quiet", "HEAD", "--", *paths).returncode
    return "HEAD" if dirty else "HEAD~1"


def vs_parent(label, *paths):
    """One change's lines under ``paths``: the uncommitted one against
    ``HEAD`` while the paths are dirty, else the last commit's against
    ``HEAD~1``."""
    base = parent(*paths)
    numstat = git("diff", "--numstat", base, "--", *paths)
    numstat.check_returncode()
    added = deleted = 0
    for row in filter(None, numstat.stdout.split("\n")):
        a, d, _ = row.split("\t", 2)
        added += int(a) if a != "-" else 0
        deleted += int(d) if d != "-" else 0
    print(f"{label} vs {base}: {added - deleted:+d} lines "
          f"(+{added} -{deleted})")


def src_and_symbols(src):
    """The ``src/repro`` total and the unreferenced public symbols, in
    the working tree and at its parent."""
    base = parent("src", "benchmarks", "tests/data")
    with tempfile.TemporaryDirectory() as tree:
        archive = git("archive", base, "src/repro", "benchmarks",
                      text=False)
        archive.check_returncode()
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tree, filter="data")
        before = sum(map(lines, Path(tree, "src", "repro").rglob("*.py")))
        symbols_before = len(unreferenced_symbols(Path(tree)))
    now = sum(map(lines, src.rglob("*.py")))
    print(f"{now:7d} src/repro total vs {base}: {now - before:+d} lines")
    print(f"unreferenced public symbols: {len(unreferenced_symbols())} "
          f"(allowlist {len(allowlist())}) "
          f"vs {base}: {symbols_before}")


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

    bodies = [(length, where.removeprefix(f"{ROOT}/"))
              for length, where in function_bodies(budget)]
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
    src_and_symbols(src)
    ci = ROOT / ".github" / "workflows" / "ci.yml"
    print(f"{lines(ci):7d} {ci.relative_to(ROOT)}")

    for routes, nbytes in route_memo_footprint():
        print(f"route memo: {nbytes / routes:.1f} B/route "
              f"at {routes} routes ({nbytes} B allocated)")
    for board, successes, failures, keys, handed in resilient_feeds():
        print(f"resilient batch of 1000, {board} board: {successes} "
              f"breaker successes, {failures} failures, {keys} breaker "
              f"keys derived, validated ids handed on: {handed}")
    build, run, read = sampler_batches()
    print(f"C-regulation, T=8: {build} sampler batches a build, {run} a "
          f"direct run, {read} more on its first energy_history read")
    bench = subprocess.run(
        [sys.executable, "benchmarks/gredbench/run.py", "--workload",
         "faulted", "--quick"], cwd=ROOT, check=True, capture_output=True,
        text=True).stdout
    print(next(line for line in bench.splitlines() if "peak_rss_mb" in line))


if __name__ == "__main__":
    main()
