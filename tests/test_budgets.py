"""Budgets the code keeps, checked on every run.

* No function body under ``core/``, ``dataplane/``, ``resilience/``,
  ``controlplane/`` or ``geometry/`` exceeds 200 lines, so the bodies
  simplicity work shrinks cannot regrow unnoticed (``cli._build_parser``
  is argparse declarations and not scanned).
* ``import repro`` leaves ``scipy.stats`` unloaded: it costs ~70 MB RSS
  and ~0.7 s, and only ``metrics.confidence_interval`` needs it, at
  call time.
* The route memo holds a route in at most 80 bytes (DESIGN.md §5d,
  docs/api.md), from ``nbytes``: the same on every run.

``tools/line_budget.py`` prints the same measurements as a report.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro
from repro import GredNetwork, brite_waxman_graph

SRC = Path(repro.__file__).resolve().parent
#: The ratchet: packages scanned and the longest body allowed.
PACKAGES = ("core", "dataplane", "resilience", "controlplane", "geometry")
LIMIT = 200


def function_bodies(paths):
    """``(lines, "path:line name")`` of every function in ``paths``."""
    return [(n.end_lineno - n.lineno + 1, f"{path}:{n.lineno} {n.name}")
            for path in paths
            for n in ast.walk(ast.parse(Path(path).read_text()))
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def route_memo_footprint(counts=(10_000, 65_536)):
    """``(routes, bytes allocated)`` of the route memo after one batch
    of ``count`` fresh ids from sticky entries, per count, on a
    100-switch plane."""
    topology, _ = brite_waxman_graph(100, min_degree=3,
                                     rng=np.random.default_rng(0))
    net = GredNetwork(topology, servers_per_switch=4, cvt_iterations=5,
                      seed=0)
    switches = net.switch_ids()
    footprint = []
    for count in counts:
        net._fastpath = None
        net.retrieve_many(
            [f"budget/{i}" for i in range(count)],
            entry_switches=[switches[i % 100] for i in range(count)])
        memo = net._fastpath.routes
        footprint.append((len(memo), memo.nbytes))
    return footprint


def test_no_function_body_over_the_limit():
    long = [(lines, where) for lines, where in function_bodies(sorted(
        str(path) for package in PACKAGES
        for path in (SRC / package).glob("*.py"))) if lines > LIMIT]
    assert long == [], f"function bodies over {LIMIT} lines"


def test_import_keeps_scipy_stats_lazy():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent),
           "PYTHONHASHSEED": "0"}
    subprocess.run(
        [sys.executable, "-c",
         "import repro, sys; assert 'scipy.stats' not in sys.modules"],
        check=True, env=env)


def test_route_memo_stays_under_80_bytes_a_route():
    footprint = route_memo_footprint()
    assert [routes for routes, _ in footprint] == [10_000, 65_536]
    assert all(nbytes <= 80 * routes for routes, nbytes in footprint), \
        footprint
