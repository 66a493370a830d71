#!/usr/bin/env python3
"""gredbench: the benchmark every GRED performance claim is measured with.

    python3 benchmarks/gredbench/run.py [--workload NAME] [--seed S]
        [--seconds N] [--trace [0|1]] [--quick] [-o DIR]

With ``--workload`` the named workload runs in this process and the last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): every end-to-end metric of ``BENCHMARK.json``
for an untraced run, every per-layer metric with ``--trace 1``.  Without
it, each of the six workloads runs in a fresh subprocess of this script
and a summary across workloads is printed.  ``-o DIR`` also writes
``<workload>.json`` (metrics, counts, environment) and, traced,
``<workload>.trace.jsonl``.  Any failed output check exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# One process, one thread: pin the BLAS pools before numpy is imported
# (unpinned, the first recompute takes 3x longer on a 2-core box and
# the difference is scheduler noise, not the program).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phases (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1,
                        default=0, choices=(0, 1),
                        help="traced run: per-layer metrics and spans")
    parser.add_argument("--quick", action="store_true",
                        help="tiny preset for the self-test")
    parser.add_argument("-o", "--out", metavar="DIR",
                        help="write result JSON (and trace) here")
    parser.add_argument("--update-expected", action="store_true",
                        help="store this run's exact counts in "
                             "expected_counts.json")
    return parser.parse_args(argv)


def render(result: dict) -> str:
    """Every metric by name with its unit, plus the share table of a
    traced run."""
    env = result["environment"]
    lines = [
        f"== {result['workload']}  seed={result['seed']} "
        f"seconds={result['seconds']:g} preset={result['preset']} "
        f"{'traced' if result['traced'] else 'untraced'}",
        f"   nproc={env['nproc']} python={env['python']} "
        f"numpy={env['numpy']} blas_threads="
        f"{env['blas_threads']['OPENBLAS_NUM_THREADS']} "
        f"calib={env['harness.calib_ms']:.1f}ms "
        + (f"machine_speed={result['machine_speed']:.2f} "
           if result["machine_speed"] else "") +
        f"generator={result['generator_frac']:.1%} "
        f"wall={result['wall_s']:.1f}s",
    ]
    for name, metric in result["metrics"].items():
        if not name.startswith("share."):
            lines.append(f"   {name:<40} {metric['value']:>14.4f} "
                         f"{metric['unit']}")
    shares = {n[6:]: m["value"] for n, m in result["metrics"].items()
              if n.startswith("share.")}
    if shares:
        lines.append("   where the time went (layer self time / root "
                     "span time)        batch calls   scalar calls")
        layers = [n[6:] for n in shares if n.startswith("batch.")]
        lines.extend(f"     {layer:<52}{shares['batch.' + layer]:>12.1%}"
                     f"{shares['scalar.' + layer]:>15.1%}"
                     for layer in layers)
        lines.append(f"     join/leave events (controlplane), share of "
                     f"all traced time: {shares['events']:.1%}")
    lines.append(f"   attempted={result['attempted']} "
                 f"failed={result['failed']} "
                 f"correct={result['correct']}")
    lines.extend(f"   CHECK FAILED: {e}" for e in result["errors"])
    return "\n".join(lines)


def run_one(args: argparse.Namespace, seconds: float) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = harness.run_workload(
        args.workload, args.seed, seconds, bool(args.trace), args.quick,
        check_counts=not args.update_expected)
    tracer = result.pop("tracer")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"{args.workload}.json", "w",
                  encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        if tracer is not None:
            tracer.write(str(out / f"{args.workload}.trace.jsonl"))
    if args.update_expected and not args.trace:
        path = HERE / "expected_counts.json"
        stored = json.loads(path.read_text())
        stored["counts"][result["counts_key"]] = result["counts"]
        path.write_text(json.dumps(stored, indent=2, sort_keys=True)
                        + "\n")
    print(render(result))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace, seconds: float) -> int:
    """Each workload in a fresh subprocess, then one table across
    workloads (the share table, for a traced run)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        command = [sys.executable, str(HERE / "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
        if args.quick:
            command.append("--quick")
        if args.out:
            command += ["-o", args.out]
        if args.update_expected:
            command.append("--update-expected")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        *report, last = done.stdout.rstrip("\n").split("\n")
        print("\n".join(report), flush=True)
        if done.returncode not in (0, 1):
            return done.returncode
        status |= done.returncode
        results[workload] = json.loads(last)
    names = list(results)
    print("\n" + " " * 36 + "".join(f"{n:>17}" for n in names))
    for metric in next(iter(results.values()))["metrics"]:
        row = [results[n]["metrics"][metric] for n in names]
        print(f"{metric:<30}{row[0]['unit']:>6}"
              + "".join(f"{m['value']:>17.4f}" for m in row))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results}))
    return status


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; gredbench "
              f"measures the repro package of its own checkout",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload:
        return run_one(args, seconds)
    return run_all(args, seconds)


if __name__ == "__main__":
    sys.exit(main())
