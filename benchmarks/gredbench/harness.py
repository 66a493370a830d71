"""Run one gredbench workload: set-up, output checks, timed phases,
metrics.

Load model: closed loop, one client, one process, one thread — callers
of this library wait for each reply.  Every input is generated before
anything is timed; the timed region of a call is exactly the call.  GC
stays enabled while timing (users pay for it) after ``gc.collect();
gc.freeze()`` at the end of set-up.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.hashing import data_position, replica_id, server_index
from repro.metrics import max_avg_ratio
from repro.topology import region_members

import tracing
from deployments import Deployment, build, make_topology
from workloads import (FULL, QUICK, ROUNDS, TRACED_ROUNDS, BatchOp, Cycle,
                       Inputs, ScalarBlock, ScalarOp, Step, generate)

perf_ns = time.perf_counter_ns
HERE = Path(__file__).resolve().parent
#: Set-ups per run; ``setup_s`` is their median, and the last two builds
#: serve as twin and primary.
SETUP_REPEATS = 3
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS")


def spec() -> Dict[str, Any]:
    """The metric contract (``BENCHMARK.json`` at the repository root)."""
    path = HERE.parents[1] / "BENCHMARK.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def calibrate() -> float:
    """Milliseconds of a fixed numpy kernel (50 x [200x200 float64
    matmul + argsort], median of 3): the machine-drift reference
    recorded with every run."""
    rng = np.random.default_rng(0)
    a, b = rng.random((200, 200)), rng.random((200, 200))
    times = []
    for _ in range(3):
        start = perf_ns()
        for _ in range(50):
            np.argsort(a @ b, axis=None)
        times.append(perf_ns() - start)
    return statistics.median(times) / 1e6


def environment(seed: int, calib_ms: float) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_ENV},
        "seed": seed,
        "harness.calib_ms": calib_ms,
    }


class Tally:
    """Exact counts of what the requests did (deterministic per seed)."""

    def __init__(self, repeats: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.gets = 0
        self.found = 0
        #: Keys already counted toward the stretch, when the workload
        #: re-reads keys: a key keeps its access switch, so a repeat is
        #: the same route, and counting it once keeps a few hot keys
        #: from deciding ``stretch_mean``.
        self.counted: Optional[set] = set() if repeats else None
        self.request_hops = 0
        self.response_hops = 0
        self.get_attempts = 0
        self.shed = 0
        self.retries = 0
        self.hedged = 0
        self.resilient_requests = 0
        self.joins = 0
        self.migrated = 0
        self.cross_region = 0

    def requests(self, dep: Deployment, kind: str,
                 outcomes: Sequence[Any]) -> None:
        self.attempted += len(outcomes)
        if dep.kind == "resilient":
            self.resilient_requests += len(outcomes)
            for o in outcomes:
                self.shed += not o.admitted
                self.retries += o.retries
                self.hedged += o.hedged
                # shed, failed, or late: all miss the caller's limit
                self.failed += (not o.ok) or o.deadline_missed
        if kind != "retrieve":
            return
        fed = dep.fed
        for r in dep.results(outcomes):
            if r is None:
                continue
            self.gets += 1
            self.get_attempts += r.attempts
            if r.found:
                self.found += 1
                if self.counted is None or r.data_id not in self.counted:
                    if self.counted is not None:
                        self.counted.add(r.data_id)
                    self.request_hops += r.request_hops
                    self.response_hops += r.response_hops
                if fed is not None and (
                        fed.region_of(r.entry_switch)
                        != fed.region_of(r.destination_switch)):
                    self.cross_region += 1
            elif dep.kind != "resilient":
                self.failed += 1

    def event(self, moved: int, join: bool) -> None:
        self.attempted += 1
        self.joins += join
        self.migrated += moved


class _Probe:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c) -> None:
        self.a, self.b, self.c = a, b, c


class Pace:
    """Converts wall time to *reference speed*.

    The speed of this shared machine moves by 15-25% for seconds to
    minutes at a time, all interpreter-bound work moving together.  A
    fixed pure-Python kernel (calls, attribute access, small containers,
    float math; ~2 ms) is timed between the timed calls, and each
    call's wall time is multiplied by ``REF_NS / kernel time`` (mean of
    the samples before and after it) — what the call would have taken
    on a machine that runs the kernel in exactly ``REF_NS``.  Only the
    untraced run (end-to-end metrics) is paced; spans are raw.
    """

    REF_NS = 2_000_000

    def __init__(self) -> None:
        self.samples: List[int] = []
        self.mark = self.sample()

    def sample(self) -> int:
        start = perf_ns()
        total = 0.0
        for i in range(6000):
            probe = _Probe(i, (i, i + 1), [i])
            total += math.hypot(probe.a * 0.5, probe.b[1]) + len(probe.c)
        taken = perf_ns() - start
        self.samples.append(taken)
        return taken

    def restart(self) -> None:
        self.mark = self.sample()

    def scale(self) -> float:
        """The factor for wall time measured since the last sample."""
        before, self.mark = self.mark, self.sample()
        return 2 * self.REF_NS / (before + self.mark)

    def machine_speed(self) -> float:
        """Median speed of the machine relative to the reference."""
        return self.REF_NS / statistics.median(self.samples)


class RoundStats:
    """Time of one round's calls, by operation type (at reference
    speed when the driver is paced)."""

    def __init__(self) -> None:
        #: requests/second of each batch call
        self.batch_rps: Dict[str, List[float]] = {"place": [],
                                                  "retrieve": []}
        self.scalar_ns: Dict[str, List[float]] = {"place": [],
                                                  "retrieve": []}
        self.join_ns: List[float] = []
        self.leave_ns: List[float] = []
        self.wall_ns = 0


class Driver:
    """Issues the generated operations and times each call."""

    def __init__(self, dep: Deployment, tally: Tally,
                 pace: Optional[Pace] = None) -> None:
        self.dep = dep
        self.tally = tally
        self.pace = pace

    def _scale(self) -> float:
        return self.pace.scale() if self.pace is not None else 1.0

    def batch(self, op: BatchOp, stats: RoundStats):
        call = (self.dep.place_many if op.kind == "place"
                else self.dep.retrieve_many)
        start = perf_ns()
        out = call(op)
        end = perf_ns()
        stats.batch_rps[op.kind].append(
            len(op.ids) / ((end - start) * self._scale()) * 1e9)
        self.tally.requests(self.dep, op.kind, out)
        return out, start, end

    def scalar(self, op: ScalarOp, stats: RoundStats):
        call = (self.dep.place if op.kind == "place"
                else self.dep.retrieve)
        start = perf_ns()
        out = call(op)
        end = perf_ns()
        stats.scalar_ns[op.kind].append(end - start)
        self.tally.requests(self.dep, op.kind, [out])
        return out, start, end

    def join(self, cycle: Cycle, stats: RoundStats):
        start = perf_ns()
        moved = self.dep.add_switch(cycle)
        end = perf_ns()
        stats.join_ns.append((end - start) * self._scale())
        self.tally.event(moved, join=True)
        return start, end

    def leave(self, cycle: Cycle, stats: RoundStats):
        start = perf_ns()
        moved = self.dep.remove_switch(cycle)
        end = perf_ns()
        stats.leave_ns.append((end - start) * self._scale())
        self.tally.event(moved, join=False)
        return start, end

    def step(self, step: Step, stats: RoundStats) -> None:
        if isinstance(step, BatchOp):
            self.batch(step, stats)
        elif isinstance(step, ScalarBlock):
            first = {k: len(v) for k, v in stats.scalar_ns.items()}
            for op in step.ops:
                self.scalar(op, stats)
            scale = self._scale()
            for kind, start in first.items():
                block = stats.scalar_ns[kind]
                block[start:] = [ns * scale for ns in block[start:]]
        else:
            self.join(step, stats)
            for op in step.after_join:
                self.batch(op, stats)
            self.leave(step, stats)
            for op in step.after_leave:
                self.batch(op, stats)


class TracedDriver(Driver):
    """A :class:`Driver` that also records a root span per call and
    replays the call's layers on the twin (see ``tracing.py``)."""

    def __init__(self, dep: Deployment, tally: Tally,
                 tracer: tracing.Tracer,
                 replayer: tracing.Replayer) -> None:
        super().__init__(dep, tally)
        self.tracer = tracer
        self.replayer = replayer
        self.twin = replayer.twin

    def _home_requests(self, results, entries):
        """``(result, entry into the home shard, destination)`` of every
        request that reached a destination."""
        pairs = []
        for result, entry in zip(results, entries):
            if result is None:
                continue
            if hasattr(result, "records"):
                rec = result.records[0]
                dest, trace = rec.destination_switch, rec.trace
            elif result.found:
                dest, trace = result.destination_switch, result.trace
            else:
                continue
            pairs.append((result,
                          self.dep.local_entry(entry, dest, trace), dest))
        return pairs

    def batch(self, op: BatchOp, stats: RoundStats):
        rp, twin, kind = self.replayer, self.twin, op.kind
        blocked = self.dep.fastpath_blocked()
        before = rp.misses()
        out, start, end = super().batch(op, stats)
        missed = int(rp.misses() - before)
        rp.batch_calls += 1
        rp.standdown_calls += blocked
        root = self.tracer.record(f"{self.dep.layer}.{kind}_many", start,
                                  end, n=len(op.ids))
        results = self.dep.results(out)
        if self.dep.kind == "raw":
            if blocked:
                rp.scalar_routes(root, kind, [
                    (r, e) for r, e in zip(results, op.entries)])
            else:
                rp.core_batch(root, twin.nets[0], kind, op.ids,
                              op.entries, results, missed)
            return out, start, end
        if self.dep.kind == "resilient":
            groups = {0: (op.ids, op.entries)}
        else:
            homed = self._home_requests(results, op.entries)
            rp.count_regions(op.entries, [d for _, _, d in homed])
            groups = {}
            for result, entry, dest in homed:
                ids, entries = groups.setdefault(
                    twin.fed.region_of(dest), ([], []))
                ids.append(result.data_id)
                entries.append(entry)
        for region in sorted(groups):
            ids, entries = groups[region]
            net = twin.nets[region]
            call = net.place_many if kind == "place" else net.retrieve_many
            before = rp.misses()
            twin_out, child = self.tracer.timed(
                f"core.{kind}_many",
                lambda: call(ids, entry_switches=entries), root, len(ids))
            rp.core_batch(child, net, kind, ids, entries, twin_out,
                          int(rp.misses() - before))
        return out, start, end

    def scalar(self, op: ScalarOp, stats: RoundStats):
        twin, kind = self.twin, op.kind
        out, start, end = super().scalar(op, stats)
        root = self.tracer.record(f"{self.dep.layer}.{kind}", start, end)
        homed = self._home_requests(self.dep.results([out]), [op.entry])
        if not homed:
            return out, start, end
        result, entry, dest = homed[0]
        if self.dep.kind == "raw":
            self.replayer.scalar_routes(root, kind, [(result, entry)])
            return out, start, end
        if self.dep.kind == "federated":
            self.replayer.count_regions([op.entry], [dest])
        net = twin.net_for(dest)
        call = net.place if kind == "place" else net.retrieve
        twin_out, child = self.tracer.timed(
            f"core.{kind}",
            lambda: call(op.data_id, entry_switch=entry), root)
        self.replayer.scalar_routes(child, kind, [(twin_out, entry)])
        return out, start, end

    def _event(self, name: str, cycle: Cycle, start: int, end: int,
               twin_call) -> None:
        self.tracer.record(f"controlplane.{name}", start, end)
        controller = self.twin.net_for(cycle.links[0]).controller
        version = controller.version
        twin_call(cycle)
        self.replayer.touched.append(
            len(controller.changes_since(version)))

    def join(self, cycle: Cycle, stats: RoundStats):
        start, end = super().join(cycle, stats)
        self._event("add_switch", cycle, start, end, self.twin.add_switch)
        return start, end

    def leave(self, cycle: Cycle, stats: RoundStats):
        start, end = super().leave(cycle, stats)
        self._event("remove_switch", cycle, start, end,
                    self.twin.remove_switch)
        return start, end


def run_rounds(drivers: Sequence[Driver], inputs: Inputs,
               twin: Optional[Deployment] = None) -> List[RoundStats]:
    """The timed region; ``drivers[r]`` issues round ``r``: its main
    steps, then its churn steps.  ``twin`` is the replay target of a
    traced run."""
    stats = [RoundStats() for _ in drivers]
    churn = inputs.churn or [[] for _ in drivers]
    for driver, main, cycles, st in zip(drivers, inputs.main, churn,
                                        stats):
        replayer = getattr(driver, "replayer", None)
        previous = (obs.set_default_registry(replayer.registry)
                    if replayer is not None else None)
        if driver.pace is not None:
            driver.pace.restart()
        start = perf_ns()
        for step in main + cycles:
            driver.step(step, st)
        st.wall_ns = perf_ns() - start
        if previous is not None:
            obs.set_default_registry(previous)
        elif twin is not None:
            # A plain round of a traced run: bring the twin through the
            # same events, outside the round's wall time.
            for step in main + cycles:
                if isinstance(step, Cycle):
                    twin.add_switch(step)
                    twin.remove_switch(step)
    return stats


def check_outputs(primary: Deployment, twin: Deployment, inputs: Inputs,
                  errors: List[str]) -> None:
    """The paper's guarantee and batch == scalar, on a fresh sample:
    the primary serves it through the batch calls, the twin through the
    scalar calls, and every retrieve must land on the switch closest to
    ``H(d)`` and on its ``H(d) mod s`` server."""
    put = inputs.check
    get = put._replace(kind="retrieve", now=inputs.check_retrieve_now)
    placed = primary.results(primary.place_many(put))
    got = primary.results(primary.retrieve_many(get))
    scalar_placed = twin.results([
        twin.place(ScalarOp("place", d, e, put.now))
        for d, e in zip(put.ids, put.entries)])
    scalar_got = twin.results([
        twin.retrieve(ScalarOp("retrieve", d, e, get.now))
        for d, e in zip(get.ids, get.entries)])
    if placed != scalar_placed:
        errors.append("place_many differs from scalar place on the twin")
    if got != scalar_got:
        errors.append("retrieve_many differs from scalar retrieve on "
                      "the twin")
    for r in got:
        if r is None or not r.found:
            errors.append(f"sample key not found: {r}")
            continue
        copy_id = replica_id(r.data_id, r.copy_used)
        position = data_position(copy_id)
        controller = primary.net_for(r.destination_switch).controller
        want = controller.closest_switch(position)
        serial = server_index(copy_id, len(controller.server_map[want]))
        if primary.fed is not None and (
                primary.fed.controller.home_region(position)
                != primary.fed.region_of(r.destination_switch)):
            errors.append(f"{copy_id!r} served outside its home region")
        if (r.destination_switch, r.server_id) != (want, (want, serial)):
            errors.append(
                f"{copy_id!r} served by {r.server_id} via switch "
                f"{r.destination_switch}; H(d) is closest to {want}, "
                f"server {serial}")


def _percentile(samples_ns: Sequence[int], q: float, scale: float
                ) -> float:
    return float(np.percentile(np.asarray(samples_ns), q)) / scale


def end_to_end(stats: List[RoundStats], tally: Tally,
               setup_s: List[float], dep: Deployment
               ) -> Dict[str, float]:
    """Rates are the median over the run's batch calls, latencies the
    quantiles of all its scalar calls, join/leave the median event; all
    times at reference speed (see :class:`Pace`)."""
    def rate(kind):
        return statistics.median(
            r for st in stats for r in st.batch_rps[kind])

    def latency(kind, q):
        return _percentile(
            [t for st in stats for t in st.scalar_ns[kind]], q, 1e3)

    return {
        "setup_s": statistics.median(setup_s),
        "place_rps": rate("place"),
        "retrieve_rps": rate("retrieve"),
        "place_p50_us": latency("place", 50),
        "place_p90_us": latency("place", 90),
        "retrieve_p50_us": latency("retrieve", 50),
        "retrieve_p90_us": latency("retrieve", 90),
        "join_p50_ms": _percentile(
            [t for st in stats for t in st.join_ns], 50, 1e6),
        "leave_p50_ms": _percentile(
            [t for st in stats for t in st.leave_ns], 50, 1e6),
        "stretch_mean": tally.request_hops / tally.response_hops,
        "load_max_over_mean": max_avg_ratio(dep.load_vector()),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def telemetry_overhead(tracer: tracing.Tracer, twin: Deployment,
                       pairs: Sequence[Sequence[BatchOp]]) -> None:
    """Fresh place/retrieve chunks on the twin with the metrics
    registry off, then on, four times over: what an operator who turns
    telemetry on pays.  Recorded as ``obs.<op>_<on|off>`` spans; the
    metric is the median ratio of adjacent on/off calls."""
    root = tracer.record("harness.telemetry", perf_ns(), perf_ns())
    twin.place_many(pairs[0][0])
    twin.retrieve_many(pairs[0][1])
    for i, (put, get) in enumerate(pairs[1:]):
        mode = "on" if i % 2 else "off"
        previous = obs.set_default_registry(
            obs.MetricsRegistry(enabled=mode == "on"))
        try:
            tracer.timed(f"obs.place_{mode}",
                         lambda: twin.place_many(put), root, len(put.ids))
            tracer.timed(f"obs.retrieve_{mode}",
                         lambda: twin.retrieve_many(get), root,
                         len(put.ids))
        finally:
            obs.set_default_registry(previous)
    root.end_ns = perf_ns()


def per_layer(tracer: tracing.Tracer, replayer: tracing.Replayer,
              stats: List[RoundStats], tally: Tally, calib_ms: float,
              generator_frac: float) -> Dict[str, float]:
    t = tracing.Totals(tracer.spans)
    rp = replayer

    def ratio(a, b):
        return a / b if b else 0.0

    def overhead(op):
        return statistics.median(
            on / off for on, off in zip(t.each[f"obs.{op}_on"],
                                        t.each[f"obs.{op}_off"])) - 1.0

    values = {
        "hashing.digest_us_per_id": t.us_per("hashing.digest"),
        "dataplane.compile_ms": t.mean_ms("dataplane.compile"),
        "dataplane.waves_us_per_req": t.us_per("dataplane.waves"),
        "dataplane.waves_per_batch": ratio(rp.waves, rp.wave_batches),
        "dataplane.materialize_us_per_req":
            t.us_per("dataplane.materialize"),
        "dataplane.patch_ms": t.mean_ms("dataplane.patch"),
        "dataplane.scalar_route_us": t.us_per("dataplane.scalar_route"),
        "dataplane.fastpath_standdown_frac":
            ratio(rp.standdown_calls, rp.batch_calls),
        "edge.store_us_per_item": t.us_per("edge.store"),
        "edge.lookup_us_per_item": t.us_per("edge.lookup"),
        "core.place_self_us_per_req":
            t.us_per("core.place_many", self_time=True),
        "core.retrieve_self_us_per_req":
            t.us_per("core.retrieve_many", self_time=True),
        "core.route_cache_hit_frac":
            1.0 - rp.missed / rp.routed if rp.routed else 0.0,
        "resilience.overhead_us_per_req": ratio(
            t.self_ns["resilience.place_many"]
            + t.self_ns["resilience.retrieve_many"],
            (t.n["resilience.place_many"]
             + t.n["resilience.retrieve_many"]) * 1e3),
        "resilience.shed_frac": ratio(tally.shed,
                                      tally.resilient_requests),
        "resilience.retries_per_req": ratio(tally.retries,
                                            tally.resilient_requests),
        "resilience.hedges_per_req": ratio(tally.hedged,
                                           tally.resilient_requests),
        "federation.overhead_us_per_req": ratio(
            t.self_ns["federation.place_many"]
            + t.self_ns["federation.retrieve_many"],
            (t.n["federation.place_many"]
             + t.n["federation.retrieve_many"]) * 1e3),
        "federation.cross_region_frac": ratio(rp.cross_region,
                                              rp.federated_requests),
        "federation.overlay_hops_mean": ratio(rp.overlay_hops,
                                              rp.federated_requests),
        "controlplane.closest_switch_us":
            t.us_per("controlplane.closest_switch"),
        "controlplane.join_touched_switches":
            ratio(sum(rp.touched), len(rp.touched)),
        "controlplane.migrated_items_per_join":
            ratio(tally.migrated, 2 * tally.joins),
        "faults.absorb_ms": t.mean_ms("faults.absorb"),
        "faults.failover_attempts_per_get": ratio(tally.get_attempts,
                                                  tally.gets),
        "obs.place_overhead_frac": overhead("place"),
        "obs.retrieve_overhead_frac": overhead("retrieve"),
        "obs.trace_overhead_frac": ratio(
            stats[-1].wall_ns - stats[0].wall_ns, stats[0].wall_ns),
        "harness.calib_ms": calib_ms,
        "harness.generator_frac": generator_frac,
    }
    for stage in ("apsp", "mds", "cvt", "dt", "compile_plan", "diff",
                  "apply", "recompute"):
        values[f"controlplane.{stage}_ms"] = t.total_ms(
            f"controlplane.{stage}")
    for kind in ("place", "retrieve"):
        # Too few samples beyond p99 for a steady end-to-end metric on
        # a shared box; kept here, from both rounds of the traced run.
        values[f"scalar.{kind}_p99_us"] = _percentile(
            [ns for st in stats for ns in st.scalar_ns[kind]], 99, 1e3)
    for group in tracing.GROUPS:
        for layer in tracing.LAYERS:
            values[f"share.{group}.{layer}"] = t.share(group, layer)
    values["share.events"] = t.events_share()
    return values


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 quick: bool, check_counts: bool = True) -> Dict[str, Any]:
    """One full run of ``workload``; returns the result record (the
    driver-facing line is its ``correct`` / ``attempted`` / ``failed``
    / ``metrics`` keys)."""
    wall_start = time.perf_counter()
    preset = QUICK if quick else FULL
    contract = spec()
    calib_ms = calibrate()

    start = time.perf_counter()
    graph, assignment = make_topology(workload, preset)
    inputs = generate(
        workload, seed, seconds, preset, graph.nodes(),
        {s: list(graph.neighbors(s)) for s in graph.nodes()},
        region_members(assignment),
        rounds=TRACED_ROUNDS if traced else ROUNDS, telemetry=traced)
    generator_s = time.perf_counter() - start

    pace = None if traced else Pace()
    setup_s: List[float] = []
    primary = twin = None
    for _ in range(SETUP_REPEATS):
        twin = primary
        if pace is not None:
            pace.restart()
        start = time.perf_counter()
        primary = build(workload, preset, inputs)
        taken = time.perf_counter() - start
        setup_s.append(taken * (pace.scale() if pace is not None else 1))

    errors: List[str] = []
    check_outputs(primary, twin, inputs, errors)
    warm = Driver(primary, Tally())
    for step in inputs.warm:
        warm.step(step, RoundStats())

    tally = Tally(repeats=bool(inputs.universe))
    tracer = replayer = None
    drivers: List[Driver] = [Driver(primary, tally, pace)] * len(
        inputs.main)
    if traced:
        tracer = tracing.Tracer(workload)
        replayer = tracing.Replayer(tracer, twin, inputs.check.ids)
        drivers[-1] = TracedDriver(primary, tally, tracer, replayer)
    gc.collect()
    gc.freeze()
    stats = run_rounds(drivers, inputs, twin if traced else None)
    gc.unfreeze()

    violations = primary.violations()
    if violations:
        errors.append(f"{len(violations)} verifier violations, first: "
                      f"{violations[0]}")
    if tally.failed and not inputs.crash_waves:
        errors.append(f"{tally.failed} requests failed on a healthy "
                      f"deployment")
    loads = primary.load_vector()
    counts = {
        "attempted": tally.attempted, "failed": tally.failed,
        "found": tally.found, "request_hops": tally.request_hops,
        "response_hops": tally.response_hops,
        "failover_attempts": tally.get_attempts,
        "migrated_items": tally.migrated,
        "cross_region": tally.cross_region,
        "stored_items": sum(loads), "max_load": max(loads),
    }
    key = (f"{'quick' if quick else 'full'}/{workload}/seed{seed}/"
           f"seconds{seconds:g}")
    expected = json.loads(
        (HERE / "expected_counts.json").read_text())["counts"]
    if (check_counts and not traced and key in expected
            and expected[key] != counts):
        errors.append(f"counts {counts} != expected {expected[key]}")

    if traced:
        for shard_graph in ([graph] if primary.fed is None else
                            [net.topology for net in twin.nets]):
            tracing.replay_controlplane(tracer, shard_graph, preset)
        if twin.absorbs:
            root = tracer.record("setup.faults", twin.absorbs[0][0],
                                 twin.absorbs[-1][1])
            for begin, end in twin.absorbs:
                tracer.record("faults.absorb", begin, end, root)
        tracing.sample_closest_switch(tracer, twin, inputs.check.ids)
        telemetry_overhead(tracer, twin, inputs.telemetry)
        wall = time.perf_counter() - wall_start
        values = per_layer(tracer, replayer, stats, tally, calib_ms,
                           generator_s / wall)
        declared = contract["per_layer"]
    else:
        values = end_to_end(stats, tally, setup_s, primary)
        declared = contract["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise RuntimeError(
            f"metrics out of step with BENCHMARK.json: "
            f"{sorted(set(units) ^ set(values))}")
    wall = time.perf_counter() - wall_start
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "preset": "quick" if quick else "full", "traced": traced,
        "scale": inputs.scale,
        "correct": not errors, "errors": errors[:10],
        "attempted": tally.attempted, "failed": int(tally.failed),
        "metrics": {name: {"value": float(values[name]),
                           "unit": units[name]} for name in units},
        "counts": counts, "counts_key": key,
        "environment": environment(seed, calib_ms),
        "generator_frac": generator_s / wall, "wall_s": wall,
        "machine_speed": pace.machine_speed() if pace else None,
        "tracer": tracer,
    }
