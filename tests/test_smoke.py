"""Report-level smoke checks, at seconds each: every committed report
regenerates, and the benchmark's quick preset attributes its layers.

Marked ``smoke``: tier-1 deselects them and ``pytest -m smoke`` runs
them.  Each child Python runs with ``PYTHONHASHSEED=0``, so every
machine gets the same answer.  With ``--basetemp DIR`` the regenerated
reports stay in ``DIR/test_reports_regenerate0/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.smoke

ROOT = Path(__file__).resolve().parents[1]
#: Per committed report: its documented command, and the only fields
#: that may differ (wall-clock seconds, the interpreter and numpy
#: versions).
REPORTS = {
    "DURABILITY_report.json": (["scrub", "--max-divergence", "0"], set()),
    "CONVERGENCE_report.json": (["reconcile", "--max-divergence", "0"],
                                set()),
    "SLO_report.json": (["loadtest"], {"environment"}),
    "CHURN_report.json": (["churn", "--regions", "4"], set()),
    "FEDERATION_report.json": (["federate"], {
        "avg_join_seconds", "max_shard_recompute_s",
        "mean_shard_recompute_s"}),
}
WORKLOADS = ("batch-fresh", "batch-hot", "faulted", "resilient-batch",
             "federated-batch", "churn")


def run(*args):
    """A child Python on this checkout's source, hash seed pinned."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "PYTHONHASHSEED": "0"}
    subprocess.run([sys.executable, *args], check=True, cwd=ROOT, env=env,
                   stdout=subprocess.DEVNULL)


def without(node, drop):
    if isinstance(node, dict):
        return {key: without(value, drop) for key, value in node.items()
                if key not in drop}
    if isinstance(node, list):
        return [without(value, drop) for value in node]
    return node


def test_reports_regenerate(tmp_path):
    """Every committed ``*_report.json`` comes out of its documented
    command byte for byte, less its volatile fields."""
    for name, (command, volatile) in REPORTS.items():
        run("-m", "repro.cli", *command, "-o", str(tmp_path / name))
        fresh = (tmp_path / name).read_text()
        committed = (ROOT / name).read_text()
        assert fresh.endswith("}\n") and committed.endswith("}\n")
        if volatile:
            fresh, committed = (without(json.loads(text), volatile)
                                for text in (fresh, committed))
        assert fresh == committed, f"{name} does not regenerate"


def test_gredbench_layers(tmp_path):
    """Every workload of the quick preset runs correct and on the
    compiled plane; each layer shows up where its workload puts it."""
    run("benchmarks/gredbench/run.py", "--quick", "--trace", "1",
        "--seconds", "10", "-o", str(tmp_path))

    def layer(workload, name):
        result = json.loads((tmp_path / f"{workload}.json").read_text())
        assert result["correct"] and result["failed"] == 0, result["errors"]
        return result["metrics"][name]["value"]

    for workload in WORKLOADS:
        assert layer(workload, "dataplane.fastpath_standdown_frac") == 0
    assert layer("faulted", "dataplane.compile_ms") > 0
    assert layer("faulted", "faults.absorb_ms") > 0
    assert layer("faulted", "faults.failover_attempts_per_get") >= 1
    assert layer("batch-hot", "core.route_cache_hit_frac") > 0.5
    assert layer("batch-fresh", "core.route_cache_hit_frac") < 0.05
    assert layer("resilient-batch", "resilience.overhead_us_per_req") > 0
    assert layer("federated-batch", "federation.overhead_us_per_req") > 0
    assert layer("federated-batch", "federation.cross_region_frac") > 0
    assert layer("churn", "dataplane.patch_ms") > 0
