"""Harness-side tracing: spans around the calls into each layer.

Nothing inside the program is instrumented.  A traced run wraps each
end-to-end call on the *primary* deployment in a root span, then
replays the public layer functions that call is built from —
``hashing`` digests, ``dataplane`` wave routing / materialisation /
router patch / scalar routing, ``edge`` store and lookup, and the raw
``core`` call under a ``resilience`` or ``federation`` root — on the
same inputs against a *twin* deployment built from the same seed, so
the primary's route cache and storage are never perturbed.  Replayed
calls become child spans; a span's self time is its duration minus its
children's durations, which is how ``core`` (the largest share) is
measured without touching ``core/network.py``.

Spans stay in memory and are written as ``trace.jsonl`` when the run
ends.  Each is ``name, trace_id, span_id, parent_id, start_ns, end_ns,
workload, n`` (``n`` = requests / items the span covers).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.controlplane import (Controller, ControllerConfig, apply_delta,
                                compile_plan, diff_plans, snapshot_plan)
from repro.dataplane import CompiledRouter, GredSwitch
from repro.edge import attach_uniform
from repro.embedding import c_regulation, m_position
from repro.geometry import DelaunayTriangulation
from repro.graph import all_pairs_hop_matrix
from repro.hashing import (data_position, positions_from_digests,
                           replica_id, replica_ids_flat,
                           serials_from_digests, sha256_digests)

from deployments import TOPOLOGY_SEED, Deployment

perf_ns = time.perf_counter_ns

#: Root spans of these layers are measurements the harness makes on the
#: side; they are kept out of the share table.
SIDE_LAYERS = ("setup", "harness")
#: The share table has one column per kind of root span: ``batch``
#: (``*_many`` calls) and ``scalar`` (single requests); join/leave
#: events are all ``controlplane`` and get one number, ``share.events``.
LAYERS = ("hashing", "dataplane", "edge", "core", "resilience",
          "federation")
GROUPS = ("batch", "scalar")


def group_of(root_name: str) -> Optional[str]:
    layer, _, call = root_name.partition(".")
    if layer in SIDE_LAYERS:
        return None
    if layer == "controlplane":
        return "events"
    return "batch" if call.endswith("_many") else "scalar"


class Span:
    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_ns",
                 "end_ns", "n")

    def __init__(self, name, trace_id, span_id, parent_id, start_ns,
                 end_ns, n):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.n = n


class Tracer:
    """In-memory span store."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []

    def record(self, name: str, start_ns: int, end_ns: int,
               parent: Optional[Span] = None, n: int = 1) -> Span:
        span_id = len(self.spans) + 1
        span = Span(name, parent.trace_id if parent else span_id,
                    span_id, parent.span_id if parent else None,
                    start_ns, end_ns, n)
        self.spans.append(span)
        return span

    def timed(self, name: str, fn, parent: Optional[Span] = None,
              n: int = 1):
        """Run ``fn()`` inside a span; returns ``(result, span)``."""
        start = perf_ns()
        result = fn()
        return result, self.record(name, start, perf_ns(), parent, n)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "name": s.name, "trace_id": s.trace_id,
                    "span_id": s.span_id, "parent_id": s.parent_id,
                    "start_ns": s.start_ns, "end_ns": s.end_ns,
                    "workload": self.workload, "n": s.n}) + "\n")


def load_trace(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class Totals:
    """Per-span-name durations, self time, ``n`` and count, and the
    per-layer self time behind the share table."""

    def __init__(self, spans: Iterable[Span]) -> None:
        spans = list(spans)
        child_ns: Dict[int, int] = defaultdict(int)
        for s in spans:
            if s.parent_id is not None:
                child_ns[s.parent_id] += s.end_ns - s.start_ns
        roots = {s.span_id: s for s in spans if s.parent_id is None}
        self.each: Dict[str, List[int]] = defaultdict(list)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.n: Dict[str, int] = defaultdict(int)
        #: (group, layer) -> self time; group -> root span time.
        self.layer_self: Dict[Tuple[str, str], int] = defaultdict(int)
        self.root_ns: Dict[str, int] = defaultdict(int)
        for s in spans:
            dur = s.end_ns - s.start_ns
            # A replayed child can outlast the slice of the parent it
            # stands for (noise, or a cold twin); clamp rather than
            # report negative self time.
            own = max(0, dur - child_ns[s.span_id])
            self.each[s.name].append(dur)
            self.self_ns[s.name] += own
            self.n[s.name] += s.n
            group = group_of(roots[s.trace_id].name)
            if group is None:
                continue
            self.layer_self[group, s.name.split(".")[0]] += own
            if s.parent_id is None:
                self.root_ns[group] += dur

    def us_per(self, name: str, self_time: bool = False) -> float:
        ns = self.self_ns[name] if self_time else sum(self.each[name])
        return ns / self.n[name] / 1e3 if self.n[name] else 0.0

    def mean_ms(self, name: str) -> float:
        each = self.each[name]
        return sum(each) / len(each) / 1e6 if each else 0.0

    def total_ms(self, name: str) -> float:
        return sum(self.each[name]) / 1e6

    def share(self, group: str, layer: str) -> float:
        """Self time of ``layer`` as a share of the root span time of
        its group of traces."""
        return (self.layer_self[group, layer] / self.root_ns[group]
                if self.root_ns[group] else 0.0)

    def events_share(self) -> float:
        """Join/leave time as a share of all traced root span time."""
        total = sum(self.root_ns.values())
        return self.root_ns["events"] / total if total else 0.0


def hop_bound(switches) -> int:
    """The router's default hop budget (``4 n + 16``)."""
    return 4 * len(switches) + 16


class Replayer:
    """Replays the layer functions of each primary call on the twin."""

    def __init__(self, tracer: Tracer, twin: Deployment,
                 sample_ids: Sequence[str]) -> None:
        self.tracer = tracer
        self.twin = twin
        self.registry = obs.MetricsRegistry(enabled=True)
        self.waves = 0
        self.wave_batches = 0
        self.routed = 0           # requests offered to the fast path
        self.missed = 0           # ... that missed the route cache
        self.batch_calls = 0
        self.standdown_calls = 0
        self.touched: List[int] = []
        self.cross_region = 0
        self.overlay_hops = 0
        self.federated_requests = 0
        # The primary compiled its routers during warm-up (unless its
        # fast path stands down), so the twin's are compiled up front
        # as well, as a measurement on the side:
        # id(net) -> [CompiledRouter, controller version it reflects].
        self._routers: Dict[int, List[Any]] = {}
        digests = sha256_digests(list(sample_ids))
        positions = positions_from_digests(digests)
        serials = serials_from_digests(digests)
        root = tracer.record("setup.dataplane", perf_ns(), perf_ns())
        for net in ([] if twin.fastpath_blocked() else twin.nets):
            switches = net.controller.switches
            entries = np.full(len(sample_ids), net.switch_ids()[0],
                              dtype=np.int64)

            def compile_and_route():
                router = CompiledRouter(switches)
                router.route_batch_packed(
                    entries, positions[:, 0], positions[:, 1], serials,
                    hop_bound(switches))
                return router

            router, _ = tracer.timed("dataplane.compile",
                                     compile_and_route, root)
            self._routers[id(net)] = [router, net.controller.version]
        root.end_ns = perf_ns()

    # -- route-cache misses (metrics registry, traced run only) ---------
    def misses(self) -> float:
        return self.registry.counter("dataplane.batch.requests").value

    # -- dataplane ------------------------------------------------------
    def _router(self, parent: Span, net) -> CompiledRouter:
        """The twin's compiled router, kept in step with its controller
        the way ``GredNetwork`` does: patched with ``changes_since``
        on the first batch after scoped events."""
        controller = net.controller
        slot = self._routers[id(net)]
        router, version = slot
        if version != controller.version:
            touched = controller.changes_since(version)
            switches = controller.switches
            present = frozenset(s for s in touched if s in switches)
            removed = frozenset(touched) - present
            self.tracer.timed(
                "dataplane.patch",
                lambda: router.patch(switches, present, removed), parent)
            slot[1] = controller.version
        return router

    def core_batch(self, parent: Span, net, kind: str,
                   ids: Sequence[str], entries: Sequence[int],
                   results: Sequence[Any], missed: int) -> None:
        """Children of one fast-path ``place_many`` / ``retrieve_many``
        (``copies == 1`` on every fast-path workload)."""
        timed = self.tracer.timed

        def digest():
            flat = replica_ids_flat(ids, 1)
            digests = sha256_digests(flat)
            return (flat, positions_from_digests(digests),
                    serials_from_digests(digests))

        (flat, positions, serials), _ = timed(
            "hashing.digest", digest, parent, len(ids))
        self.routed += len(ids)
        self.missed += missed
        router = self._router(parent, net)
        if missed:
            bound = hop_bound(net.controller.switches)
            args = (np.asarray(entries[:missed], dtype=np.int64),
                    positions[:missed, 0], positions[:missed, 1],
                    serials[:missed], bound)
            packed, _ = timed(
                "dataplane.waves",
                lambda: router.route_batch_packed(*args), parent, missed)
            self.waves += packed.waves
            self.wave_batches += 1
            timed("dataplane.materialize",
                  lambda: packed.materialize(flat[:missed], bound),
                  parent, missed)
        self._edge(parent, kind, results, bulk=True)

    def scalar_routes(self, parent: Span, kind: str,
                      requests: Sequence[Tuple[Any, int]]) -> None:
        """Children of scalar-path work: ``requests`` pairs each result
        with the switch where it entered its home shard."""
        routes = []
        for result, entry in requests:
            if kind == "place":
                routes.extend((self.twin.net_for(rec.destination_switch),
                               rec.data_id, entry)
                              for rec in result.records)
            elif result.found:
                routes.append((
                    self.twin.net_for(result.destination_switch),
                    replica_id(result.data_id, result.copy_used), entry))

        def walk():
            for net, copy_id, entry in routes:
                net.route_for(copy_id, entry)

        self.tracer.timed("dataplane.scalar_route", walk, parent,
                          len(routes))
        self._edge(parent, kind, [r for r, _ in requests], bulk=False)

    # -- edge -----------------------------------------------------------
    def _edge(self, parent: Span, kind: str, results: Sequence[Any],
              bulk: bool) -> None:
        twin = self.twin
        if kind == "retrieve":
            pairs = [(twin.net_for(r.server_id[0]).server(*r.server_id),
                      replica_id(r.data_id, r.copy_used))
                     for r in results if r.found]

            def lookup():
                for server, copy_id in pairs:
                    if server.has(copy_id):
                        server.retrieve(copy_id)

            self.tracer.timed("edge.lookup", lookup, parent, len(pairs))
            return
        groups: Dict[Any, List[str]] = defaultdict(list)
        for result in results:
            for rec in result.records:
                groups[rec.server_id].append(rec.data_id)
        stores = [(twin.net_for(sid[0]).server(*sid), copy_ids)
                  for sid, copy_ids in groups.items()]

        def store():
            for server, copy_ids in stores:
                if bulk:
                    server.store_many(copy_ids)
                else:
                    for copy_id in copy_ids:
                        server.store(copy_id, None)

        self.tracer.timed("edge.store", store, parent,
                          sum(len(c) for _, c in stores))

    # -- federation counts ----------------------------------------------
    def count_regions(self, entries: Sequence[int],
                      destinations: Sequence[int]) -> None:
        fed = self.twin.fed
        for entry, dest in zip(entries, destinations):
            src, home = fed.region_of(entry), fed.region_of(dest)
            self.federated_requests += 1
            if src != home:
                self.cross_region += 1
                self.overlay_hops += fed.controller.overlay_hops(src,
                                                                 home)


def replay_controlplane(tracer: Tracer, topology, preset) -> None:
    """Time each control-plane stage standalone on ``topology`` (one
    shard's, for a federation), beside a full ``Controller`` build."""
    servers = attach_uniform(topology.nodes(),
                             servers_per_switch=preset.servers_per_switch)
    config = ControllerConfig(cvt_iterations=preset.cvt_iterations,
                              seed=TOPOLOGY_SEED)
    root = tracer.record("setup.controlplane", perf_ns(), perf_ns())
    controller, _ = tracer.timed(
        "controlplane.recompute",
        lambda: Controller(topology, servers, config=config), root)
    nodes = topology.nodes()
    timed = tracer.timed
    (matrix, order), _ = timed(
        "controlplane.apsp",
        lambda: all_pairs_hop_matrix(topology, order=nodes), root)
    sites, _ = timed("controlplane.mds",
                     lambda: m_position(matrix, margin=config.margin),
                     root)
    timed("controlplane.cvt", lambda: c_regulation(
        sites, iterations=config.cvt_iterations,
        samples_per_iteration=config.samples_per_iteration,
        relaxation=config.relaxation,
        rng=np.random.default_rng(config.seed + 1)), root)
    participants = controller.dt_participants()
    final_sites = [controller.positions[s] for s in participants]
    timed("controlplane.dt", lambda: DelaunayTriangulation(
        final_sites, rng=np.random.default_rng(config.seed + 2)), root)
    desired, _ = timed("controlplane.compile_plan", lambda: compile_plan(
        controller.topology, controller.positions,
        controller.dt_adjacency(),
        server_counts={s: len(controller.server_map[s]) for s in nodes}),
        root)
    blank = {s: GredSwitch(switch_id=s, position=controller.positions[s],
                           num_servers=len(controller.server_map[s]))
             for s in nodes}
    delta, _ = timed(
        "controlplane.diff",
        lambda: diff_plans(snapshot_plan(blank), desired), root)
    timed("controlplane.apply", lambda: apply_delta(blank, delta), root)
    root.end_ns = perf_ns()


def sample_closest_switch(tracer: Tracer, twin: Deployment,
                          ids: Sequence[str]) -> None:
    """Time the nearest-site resolve on a sample of positions: the
    region resolve of a federation, ``closest_switch`` elsewhere."""
    positions = [data_position(d) for d in ids]
    resolve = (twin.fed.controller.home_region if twin.fed is not None
               else twin.nets[0].controller.closest_switch)
    root = tracer.record("harness.sample", perf_ns(), perf_ns())

    def run():
        for position in positions:
            resolve(position)

    tracer.timed("controlplane.closest_switch", run, root, len(ids))
    root.end_ns = perf_ns()
