"""Self-test of gredbench (not part of tier-1):

    python -m pytest benchmarks/gredbench

Runs all six workloads on the ``--quick`` preset, untraced and traced,
and checks the benchmark against its own contract in ``BENCHMARK.json``.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def quick(workload, seed=0, traced=False):
    return harness.run_workload(workload, seed, 10, traced, quick=True)


@pytest.fixture(scope="module")
def runs():
    return {(w, traced): quick(w, traced=traced)
            for w in WORKLOADS for traced in (False, True)}


def test_contract_file():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("traced", (False, True))
def test_every_declared_metric_and_nothing_else(runs, traced):
    declared = {m["name"]: m["unit"] for m in
                SPEC["per_layer" if traced else "end_to_end"]}
    for workload in WORKLOADS:
        result = runs[workload, traced]
        assert result["correct"], result["errors"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        assert got == declared
        for name, metric in result["metrics"].items():
            value = metric["value"]
            assert isinstance(value, float) and value == value
            if not traced:
                assert value > 0, (workload, name)


def test_layers_separate_the_workloads(runs):
    def layer(workload, name):
        return runs[workload, True]["metrics"][name]["value"]

    for workload in WORKLOADS:
        standdown = layer(workload, "dataplane.fastpath_standdown_frac")
        assert standdown == (1.0 if workload == "faulted" else 0.0)
    # (> 0.9 on the full preset; on 24 switches the join/leave cycles
    # before the traced round evict a large part of the route cache)
    assert layer("batch-hot", "core.route_cache_hit_frac") > 0.5
    assert layer("batch-fresh", "core.route_cache_hit_frac") < 0.05
    assert layer("resilient-batch", "resilience.overhead_us_per_req") > 0
    assert layer("federated-batch", "federation.overhead_us_per_req") > 0
    assert layer("federated-batch", "federation.cross_region_frac") > 0
    assert layer("faulted", "faults.absorb_ms") > 0
    assert layer("faulted", "faults.failover_attempts_per_get") >= 1.0
    assert layer("churn", "dataplane.patch_ms") > 0
    assert layer("faulted", "dataplane.compile_ms") == 0


def test_spans_are_well_formed(runs):
    for workload in WORKLOADS:
        spans = runs[workload, True]["tracer"].spans
        by_id = {s.span_id: s for s in spans}
        assert len(by_id) == len(spans) > 0
        for s in spans:
            assert s.end_ns >= s.start_ns and s.n >= 0
            if s.parent_id is None:
                assert s.trace_id == s.span_id
            else:
                assert by_id[s.parent_id].trace_id == s.trace_id
        totals = tracing.Totals(spans)
        assert all(ns >= 0 for ns in totals.self_ns.values())
        for group in tracing.GROUPS:
            for layer in tracing.LAYERS:
                assert 0.0 <= totals.share(group, layer) <= 1.0
        assert 0.0 < totals.events_share() < 1.0


def test_counts_follow_the_seed(runs):
    for workload in WORKLOADS:
        again = quick(workload)
        assert again["counts"] == runs[workload, False]["counts"]
    other = quick("batch-hot", seed=1)
    assert other["counts"] != runs["batch-hot", False]["counts"]


def _cli(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)


def test_command_line_contract(tmp_path):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = _cli("--workload", "churn", "--seed", "3", "--seconds", "1",
                    "--trace", trace, "--quick", "-o", str(tmp_path))
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert set(line["metrics"]) == {m["name"] for m in SPEC[section]}
    stored = json.loads((tmp_path / "churn.json").read_text())
    assert stored["environment"]["blas_threads"] == {
        v: "1" for v in harness.THREAD_ENV}
    assert {"nproc", "python", "numpy", "seed", "harness.calib_ms"} <= \
        set(stored["environment"])
    spans = tracing.load_trace(str(tmp_path / "churn.trace.jsonl"))
    assert spans and set(spans[0]) == {
        "name", "trace_id", "span_id", "parent_id", "start_ns", "end_ns",
        "workload", "n"}
    assert _cli("--workload", "nope").returncode == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bare = tmp_path / "benchmarks" / "gredbench"
    shutil.copytree(HERE, bare, ignore=shutil.ignore_patterns(
        "__pycache__", ".pytest_cache"))
    done = _cli("--workload", "batch-hot", "--seed", "0", "--seconds",
                "1", "--trace", "0", cwd=tmp_path, script=bare / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_compare_verdicts(tmp_path, capsys):
    for side in ("a", "b"):
        for run in range(3):
            out = tmp_path / side / str(run)
            out.mkdir(parents=True)
            result = quick("batch-hot", seed=run)
            result.pop("tracer")
            (out / "batch-hot.json").write_text(json.dumps(result))
    compare.main([str(tmp_path / "a"), str(tmp_path / "b")])
    report = capsys.readouterr().out
    assert "exact counts of 3 same-seed pairs: identical" in report
    for exact in ("stretch_mean", "load_max_over_mean"):
        row = next(r for r in report.splitlines() if r.startswith(exact))
        assert row.endswith("identical")
    lower, higher = [1.0] * 10, [2.0] * 10
    assert compare.verdict(lower, higher, "lower", 0.1) == "regressed"
    assert compare.verdict(higher, lower, "lower", 0.1) == "improved"
    assert compare.verdict(lower, higher, "higher", 0.1) == "improved"
    assert compare.verdict(lower, lower, "lower", 0.1) == "identical"
    noisy = [1.0, 1.5, 0.7, 1.3, 0.6, 1.4, 0.8, 1.2, 0.9, 1.1]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1) == \
        "unresolved"
    close = [1.0 + 0.001 * i for i in range(10)]
    assert compare.verdict(close, close[::-1], "lower", 0.1) == \
        "unchanged"
