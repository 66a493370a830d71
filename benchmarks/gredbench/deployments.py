"""The serving stacks gredbench drives, one uniform call surface.

``GredNetwork``, ``ResilientNetwork`` and ``FederatedNetwork`` take the
same requests through different signatures and return different result
envelopes; :class:`Deployment` hides exactly that difference so the
timed loops in ``harness.py`` are identical for every workload.  Only
public functions of the program are called.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (FaultInjector, GredNetwork, ResilienceConfig,
                   ResilientNetwork, attach_uniform, brite_waxman_graph)
from repro.controlplane import FederatedNetwork, verify_installed_state
from repro.dataplane import batch_fastpath_blockers
from repro.hashing import parse_replica_id
from repro.topology import federated_topology, region_members

from workloads import ADMISSION_RATE, Cycle, Inputs, Preset

#: The deployment is fixed; ``--seed`` varies the traffic, not the
#: network (timings depend strongly on the topology's diameter).
TOPOLOGY_SEED = 0


def make_topology(workload: str, preset: Preset):
    """``(graph, switch -> region)`` of the workload's deployment (one
    region for the monolithic stacks)."""
    if workload == "federated-batch":
        return federated_topology(
            preset.regions, preset.region_switches,
            min_degree=preset.min_degree, seed=TOPOLOGY_SEED)
    graph, _ = brite_waxman_graph(
        preset.switches, min_degree=preset.min_degree,
        rng=np.random.default_rng(TOPOLOGY_SEED))
    return graph, dict.fromkeys(graph.nodes(), 0)


class Deployment:
    """One built stack plus the adapters the harness calls."""

    def __init__(self, kind: str, target: Any, nets: Sequence[Any],
                 inputs: Inputs, preset: Preset) -> None:
        self.kind = kind                  # raw | resilient | federated
        #: Module that serves the end-to-end calls (names root spans).
        self.layer = {"raw": "core", "resilient": "resilience",
                      "federated": "federation"}[kind]
        self.target = target              # what requests are sent to
        self.nets = list(nets)            # underlying GredNetworks
        self.copies = inputs.copies
        self.servers_per_switch = preset.servers_per_switch
        self.fed = target if kind == "federated" else None
        #: Where join/leave events go (the wrapper has no churn API).
        self.fabric = target.net if kind == "resilient" else target
        #: ``(start_ns, end_ns)`` of every ``absorb_failures`` call.
        self.absorbs: List[Tuple[int, int]] = []

    # -- requests -------------------------------------------------------
    def _paced(self, op) -> Dict[str, float]:
        """Only the resilient wrapper takes a virtual arrival time."""
        return {"now": op.now} if self.kind == "resilient" else {}

    def place_many(self, op):
        return self.target.place_many(
            op.ids, entry_switches=op.entries, copies=self.copies,
            **self._paced(op))

    def retrieve_many(self, op):
        return self.target.retrieve_many(
            op.ids, entry_switches=op.entries, copies=self.copies,
            **self._paced(op))

    def place(self, op):
        return self.target.place(
            op.data_id, entry_switch=op.entry, copies=self.copies,
            **self._paced(op))

    def retrieve(self, op):
        return self.target.retrieve(
            op.data_id, entry_switch=op.entry, copies=self.copies,
            **self._paced(op))

    def add_switch(self, cycle: Cycle) -> int:
        return self.fabric.add_switch(
            cycle.switch, cycle.links,
            servers_per_switch=self.servers_per_switch)

    def remove_switch(self, cycle: Cycle) -> int:
        return self.fabric.remove_switch(cycle.switch)

    # -- views ----------------------------------------------------------
    def results(self, outcomes) -> List[Any]:
        """The raw ``PlacementResult`` / ``RetrievalResult`` of every
        outcome (``None`` for a shed request)."""
        if self.kind == "resilient":
            return [o.result for o in outcomes]
        return outcomes

    def net_for(self, switch: int):
        """The ``GredNetwork`` that manages ``switch``."""
        if self.fed is None:
            return self.nets[0]
        return self.fed.shard(self.fed.region_of(switch)).net

    def local_entry(self, entry: int, destination: int,
                    trace: Sequence[int]) -> int:
        """Where a request entered its home shard: the entry itself,
        or the ingress gateway a cross-region request was stitched
        through (the first switch of the home region on its trace)."""
        if self.fed is None:
            return entry
        home = self.fed.region_of(destination)
        if self.fed.region_of(entry) == home:
            return entry
        return next(s for s in trace if self.fed.region_of(s) == home)

    def fastpath_blocked(self) -> bool:
        return any(batch_fastpath_blockers(net) for net in self.nets)

    def load_vector(self) -> List[int]:
        return self.fabric.load_vector()

    def violations(self) -> List[Any]:
        found: List[Any] = []
        for net in self.nets:
            found.extend(verify_installed_state(
                net.controller, fault_state=net.fault_state))
        return found


def _crash_wave(dep: Deployment, injector: FaultInjector,
                victims: Sequence[int]) -> List[str]:
    """Crash ``victims`` and let the controller absorb the failure.

    Returns the keys whose *every* replica sat on a victim: those are
    gone for good, and the caller re-uploads them so that no timed
    request can fail (single-replica keys stay degraded — failover is
    what the workload measures)."""
    net = dep.nets[0]
    held: Dict[str, int] = {}
    for victim in victims:
        for server in net.server_map[victim]:
            for copy_id in server.stored_ids():
                base = parse_replica_id(copy_id)[0]
                held[base] = held.get(base, 0) + 1
    for victim in victims:
        injector.crash_switch(victim)
    start = time.perf_counter_ns()
    stranded = net.controller.absorb_failures(dead_switches=victims)
    end = time.perf_counter_ns()
    if stranded:
        raise RuntimeError(f"crash wave stranded switches {stranded}")
    dep.absorbs.append((start, end))
    return [key for key, count in held.items() if count == dep.copies]


def build(workload: str, preset: Preset, inputs: Inputs) -> Deployment:
    """Set up the workload's deployment: topology, network build, fault
    injection and the load phase — everything ``setup_s`` covers."""
    graph, assignment = make_topology(workload, preset)
    if workload == "federated-batch":
        fed = FederatedNetwork(
            graph, assignment=assignment,
            servers_per_switch=preset.servers_per_switch,
            cvt_iterations=preset.cvt_iterations, seed=TOPOLOGY_SEED)
        nets = [fed.shard(r).net for r in sorted(fed.shards)]
        return Deployment("federated", fed, nets, inputs, preset)

    net = GredNetwork(
        graph,
        attach_uniform(graph.nodes(),
                       servers_per_switch=preset.servers_per_switch),
        cvt_iterations=preset.cvt_iterations, seed=TOPOLOGY_SEED)
    if workload == "resilient-batch":
        target = ResilientNetwork(net, ResilienceConfig(
            enabled=True, rate_per_switch=ADMISSION_RATE))
        return Deployment("resilient", target, [net], inputs, preset)

    dep = Deployment("raw", net, [net], inputs, preset)
    injector: Optional[FaultInjector] = None
    if inputs.crash_waves:
        injector = FaultInjector(net, seed=TOPOLOGY_SEED)
        _crash_wave(dep, injector, inputs.crash_waves[0])
    if inputs.universe:
        net.place_many(inputs.universe,
                       entry_switches=inputs.universe_entries,
                       copies=inputs.copies)
    if injector is not None:
        lost = _crash_wave(dep, injector, inputs.crash_waves[1])
        entry_of = dict(zip(inputs.universe, inputs.universe_entries))
        for key in lost:
            net.place(key, entry_switch=entry_of[key],
                      copies=inputs.copies)
    return dep
