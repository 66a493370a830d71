"""Extension experiments beyond the paper's figures.

The paper motivates GRED with user mobility (Section I, Section VIII-A)
and sketches replication (Section VI) but does not evaluate them; these
experiments complete the picture:

* **Mobility** — a user walks across access points retrieving a working
  set; replica count vs. retrieval cost (the paper's "which copy is
  closest to the access point" mechanism).
* **Failure availability** — fraction of items still locatable after a
  random set of switches fails simultaneously, vs. replica count.
* **State/stretch trade-off** — per-node routing state and stretch of
  GRED vs Chord vs one-hop consistent hashing (full membership), the
  design space the introduction argues about.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..baselines import ConsistentHashingNetwork
from ..controlplane import average_table_entries
from ..edge import attach_uniform
from ..graph import bfs_distances, hop_count
from ..hashing import replica_id
from ..metrics import (
    measure_chord_stretch,
    measure_gred_stretch,
    summarize,
)
from .common import build_chord, build_gred, build_topology


def run_mobility(
    copies_list: Sequence[int] = (1, 2, 3, 5),
    num_switches: int = 50,
    walk_length: int = 30,
    working_set: int = 20,
    seed: int = 0,
) -> List[Dict]:
    """Mean retrieval hops along a mobile user's walk vs replica count."""
    topology = build_topology(num_switches, 3, seed)
    rows = []
    for copies in copies_list:
        net = build_gred(topology, 4, cvt_iterations=50, seed=seed)
        rng = np.random.default_rng(seed + copies)
        items = [f"mob-{i}" for i in range(working_set)]
        for item in items:
            net.place(item, payload=b"x", entry_switch=0, copies=copies)
        # Random walk over physically adjacent switches.
        position = int(rng.integers(0, num_switches))
        hops = []
        for _ in range(walk_length):
            neighbors = sorted(topology.neighbors(position))
            position = neighbors[int(rng.integers(0, len(neighbors)))]
            for item in items:
                result = net.retrieve(item, entry_switch=position,
                                      copies=copies)
                assert result.found
                hops.append(float(result.request_hops))
        summary = summarize(hops)
        rows.append({
            "copies": copies,
            "mean_request_hops": summary.mean,
            "p_max": summary.maximum,
        })
    return rows


def run_failure_availability(
    copies_list: Sequence[int] = (1, 2, 3),
    failure_fractions: Sequence[float] = (0.05, 0.1, 0.2, 0.3),
    num_switches: int = 60,
    num_items: int = 2000,
    seed: int = 0,
) -> List[Dict]:
    """Item availability after simultaneous switch failures.

    An item is available when at least one replica's destination switch
    survives and remains reachable from the (surviving) probe switch.
    Uses the closed-form destination mapping so no state is mutated.
    """
    topology = build_topology(num_switches, 3, seed)
    net = build_gred(topology, 4, cvt_iterations=50, seed=seed)
    items = [f"fa-{i}" for i in range(num_items)]
    max_copies = max(copies_list)
    destinations = {
        item: [net.destination_switch(replica_id(item, c))
               for c in range(max_copies)]
        for item in items
    }
    rows = []
    rng = np.random.default_rng(seed + 1)
    switch_ids = net.switch_ids()
    for fraction in failure_fractions:
        kill_count = max(1, int(round(fraction * num_switches)))
        killed = set(
            int(i) for i in rng.choice(len(switch_ids), size=kill_count,
                                       replace=False)
        )
        killed = {switch_ids[i] for i in killed}
        survivors = [s for s in switch_ids if s not in killed]
        probe = survivors[0]
        reachable = set(_reachable_excluding(topology, probe, killed))
        for copies in copies_list:
            available = sum(
                1 for item in items
                if any(dest in reachable
                       for dest in destinations[item][:copies])
            )
            rows.append({
                "failed_fraction": fraction,
                "copies": copies,
                "availability": available / num_items,
            })
    return rows


def _reachable_excluding(topology, source, excluded):
    """Switches reachable from ``source`` avoiding ``excluded``."""
    keep = [n for n in topology.nodes() if n not in excluded]
    sub = topology.subgraph(keep)
    return bfs_distances(sub, source).keys()


def run_state_stretch_tradeoff(
    sizes: Sequence[int] = (20, 60, 100),
    num_items: int = 100,
    seed: int = 0,
) -> List[Dict]:
    """Per-node routing state vs routing stretch across designs."""
    rows = []
    for size in sizes:
        topology = build_topology(size, 3, seed + size)
        gred = build_gred(topology, 10, cvt_iterations=50, seed=seed)
        chord = build_chord(topology, 10)
        onehop = ConsistentHashingNetwork(
            topology, attach_uniform(topology.nodes(), 10))
        gred_stretch = summarize(measure_gred_stretch(
            gred, num_items, np.random.default_rng(seed + 1))).mean
        chord_stretch = summarize(measure_chord_stretch(
            chord, num_items, np.random.default_rng(seed + 1))).mean
        onehop_stretch = _onehop_stretch(onehop, num_items,
                                         np.random.default_rng(seed + 1))
        rows.extend([
            {
                "switches": size,
                "protocol": "GRED",
                "state_per_node": average_table_entries(
                    gred.controller.switches.values()),
                "stretch_mean": gred_stretch,
            },
            {
                "switches": size,
                "protocol": "Chord",
                "state_per_node": chord.average_finger_table_size(),
                "stretch_mean": chord_stretch,
            },
            {
                "switches": size,
                "protocol": "OneHop-CH",
                "state_per_node": float(
                    onehop.routing_state_per_node()),
                "stretch_mean": onehop_stretch,
            },
        ])
    return rows


def _onehop_stretch(onehop, num_items, rng) -> float:
    """One-hop CH routes on shortest paths: stretch is 1 by
    construction; measured anyway for the table."""
    switches = onehop.topology.nodes()
    values = []
    for i in range(num_items):
        entry = switches[int(rng.integers(0, len(switches)))]
        result = onehop.route_for(f"item-{i}", entry)
        shortest = hop_count(onehop.topology, entry,
                             result.destination_switch)
        if shortest > 0:
            values.append(result.physical_hops / shortest)
    return sum(values) / len(values) if values else 1.0


def run_link_utilization(
    num_switches: int = 60,
    num_requests: int = 500,
    seed: int = 0,
) -> List[Dict]:
    """X4: bandwidth cost and link congestion, GRED vs Chord.

    The paper argues "shorter routing path indicates less bandwidth
    consumption"; this experiment quantifies it: per-link traversal
    counts for the same retrieval workload, reporting the total
    traversals (bandwidth cost) and the most-loaded link (congestion
    hot spot).
    """
    from ..graph import bfs_path

    topology = build_topology(num_switches, 3, seed)
    gred = build_gred(topology, 5, cvt_iterations=50, seed=seed)
    chord = build_chord(topology, 5)
    rng = np.random.default_rng(seed + 1)
    switches = gred.switch_ids()
    requests = [
        (f"bw-{i}", switches[int(rng.integers(0, len(switches)))])
        for i in range(num_requests)
    ]

    def link_loads_gred():
        loads: Dict[frozenset, int] = {}
        for data_id, entry in requests:
            trace = gred.route_for(data_id, entry).trace
            for a, b in zip(trace, trace[1:]):
                key = frozenset((a, b))
                loads[key] = loads.get(key, 0) + 1
        return loads

    def link_loads_chord():
        loads: Dict[frozenset, int] = {}
        for data_id, entry in requests:
            result = chord.route_for(data_id, entry)
            overlay = result.overlay_path
            hosts = [chord.ring.node_of_owner(o).host_switch
                     for o in overlay]
            for a, b in zip(hosts, hosts[1:]):
                path = bfs_path(topology, a, b)
                for u, v in zip(path, path[1:]):
                    key = frozenset((u, v))
                    loads[key] = loads.get(key, 0) + 1
        return loads

    rows = []
    num_links = topology.num_edges()
    for label, loads in (("GRED", link_loads_gred()),
                         ("Chord", link_loads_chord())):
        total = sum(loads.values())
        rows.append({
            "protocol": label,
            "total_link_traversals": total,
            "max_link_load": max(loads.values()) if loads else 0,
            "mean_link_load": total / num_links,
            "links_used": len(loads),
        })
    return rows


def run_saturation(
    rates_per_s: Sequence[int] = (500, 1000, 2000, 4000, 8000),
    num_switches: int = 40,
    num_items: int = 100,
    window: float = 0.2,
    seed: int = 0,
) -> List[Dict]:
    """X5: response delay vs offered load (packet-level simulation).

    GRED's shorter paths consume less aggregate link bandwidth per
    request than Chord's O(log n)-overlay-hop routes, so under the same
    physical network it sustains a higher request rate before queueing
    delay takes off.
    """
    from ..simulation import LatencyModel, PacketLevelSimulator
    from ..workloads import sequential_ids, uniform_retrieval_trace

    topology = build_topology(num_switches, 3, seed)
    gred = build_gred(topology, 5, cvt_iterations=50, seed=seed)
    chord = build_chord(topology, 5)
    items = sequential_ids(num_items, prefix="sat")
    # A deliberately constrained network so saturation is visible at
    # simulation-friendly rates: 1 Gbps links, 100 KB responses.
    model = LatencyModel(link_delay=5e-6, switch_delay=2e-6,
                         server_service_time=50e-6)
    rows = []
    for rate in rates_per_s:
        count = max(1, int(rate * window))
        trace = uniform_retrieval_trace(
            items, topology.nodes(), count, window,
            np.random.default_rng(seed + rate),
        )
        for label, net in (("GRED", gred), ("Chord", chord)):
            sim = PacketLevelSimulator(
                net, model, bandwidth_bytes_per_s=1.25e8)
            sim.run(trace, request_size=256, response_size=100_000)
            rows.append({
                "rate_per_s": rate,
                "protocol": label,
                "avg_delay_ms": sim.average_response_delay() * 1e3,
                "p99_delay_ms": sim.p99_response_delay() * 1e3,
            })
    return rows


def run_adaptive_replication(
    zipf_exponents: Sequence[float] = (0.0, 0.8, 1.2),
    num_switches: int = 40,
    num_items: int = 200,
    num_requests: int = 4000,
    promote_threshold: int = 20,
    max_copies: int = 4,
    seed: int = 0,
) -> List[Dict]:
    """X7: adaptive replication under skewed workloads.

    Drives a Zipf retrieval workload through the adaptive-replication
    service and compares mean request hops and storage overhead against
    the static single-copy deployment.  The more skewed the workload,
    the more the hot head earns copies and the larger the hop saving.
    """
    from ..services import AdaptiveReplicationService
    from ..workloads import sequential_ids, zipf_choices
    from .common import build_gred

    topology = build_topology(num_switches, 3, seed)
    items = sequential_ids(num_items, prefix="zipf")
    rows = []
    for exponent in zipf_exponents:
        rng = np.random.default_rng(seed + int(exponent * 10))
        requests = zipf_choices(items, num_requests, exponent, rng)
        entries = rng.integers(0, num_switches, size=num_requests)

        static_net = build_gred(topology, 4, cvt_iterations=30,
                                seed=seed)
        adaptive_net = build_gred(topology, 4, cvt_iterations=30,
                                  seed=seed)
        adaptive = AdaptiveReplicationService(
            adaptive_net, promote_threshold=promote_threshold,
            max_copies=max_copies,
        )
        for item in items:
            static_net.place(item, payload=b"x", entry_switch=0)
            adaptive.put(item, payload=b"x", entry_switch=0)

        static_hops = 0
        adaptive_hops = 0
        for data_id, entry in zip(requests, entries):
            entry = int(entry)
            static_hops += static_net.retrieve(
                data_id, entry_switch=entry).request_hops
            adaptive_hops += adaptive.get(
                data_id, entry_switch=entry).request_hops
        stats = adaptive.stats()
        rows.append({
            "zipf": exponent,
            "static_mean_hops": static_hops / num_requests,
            "adaptive_mean_hops": adaptive_hops / num_requests,
            "storage_overhead": stats.storage_overhead,
            "promotions": stats.promotions,
        })
    return rows


def run_ght_comparison(
    num_switches: int = 50,
    num_items: int = 300,
    seed: int = 0,
) -> List[Dict]:
    """X8: GHT/GPSR vs GRED across topology families.

    The paper's related work dismisses GHT because GPSR "requires the
    network topology to be a planar graph in 2D to avoid routing
    failures".  This experiment measures it: on a unit-disk graph
    (GHT's intended setting) and on a Waxman edge network (the paper's
    setting), report delivery rate, mean stretch of successful routes,
    and load balance for GHT vs GRED on the identical topology.
    """
    from ..core import GredNetwork
    from ..edge import attach_uniform
    from ..ght import GhtNetwork
    from ..metrics import max_avg_ratio
    from ..topology import random_geometric_graph, waxman_graph

    rows = []
    rng = np.random.default_rng(seed)
    scenarios = []
    udg, udg_coords = random_geometric_graph(
        num_switches, 0.25, rng=np.random.default_rng(seed + 1))
    scenarios.append(("unit-disk", udg, udg_coords))
    wax, wax_coords = waxman_graph(
        num_switches, rng=np.random.default_rng(seed + 2))
    scenarios.append(("waxman", wax, wax_coords))

    for label, topology, coords in scenarios:
        ght = GhtNetwork(topology, coords,
                         attach_uniform(topology.nodes(), 2))
        gred = GredNetwork(topology,
                           attach_uniform(topology.nodes(), 2),
                           cvt_iterations=50, seed=seed)
        ght_delivered = 0
        ght_stretch: List[float] = []
        gred_stretch: List[float] = []
        ght_loads: Dict[int, int] = {}
        gred_loads: Dict[int, int] = {}
        switches = topology.nodes()
        for i in range(num_items):
            data_id = f"ghtcmp-{i}"
            entry = switches[int(rng.integers(0, len(switches)))]
            result = ght.route_for(data_id, entry)
            if result.delivered:
                ght_delivered += 1
                ght_loads[result.home_switch] = \
                    ght_loads.get(result.home_switch, 0) + 1
                shortest = hop_count(topology, entry,
                                     result.home_switch)
                if shortest > 0:
                    ght_stretch.append(result.physical_hops / shortest)
            route = gred.route_for(data_id, entry)
            gred_loads[route.destination_switch] = \
                gred_loads.get(route.destination_switch, 0) + 1
            shortest = hop_count(topology, entry,
                                 route.destination_switch)
            if shortest > 0:
                gred_stretch.append(route.physical_hops / shortest)

        def ratio(loads):
            vec = [loads.get(s, 0) for s in switches]
            return max_avg_ratio(vec)

        rows.append({
            "topology": label,
            "protocol": "GHT",
            "delivery_rate": ght_delivered / num_items,
            "stretch_mean": (sum(ght_stretch) / len(ght_stretch))
            if ght_stretch else float("nan"),
            "max_avg": ratio(ght_loads) if ght_loads else float("nan"),
        })
        rows.append({
            "topology": label,
            "protocol": "GRED",
            "delivery_rate": 1.0,
            "stretch_mean": sum(gred_stretch) / len(gred_stretch),
            "max_avg": ratio(gred_loads),
        })
    return rows


def run_overflow_protection(
    small_fractions: Sequence[float] = (0.2, 0.4),
    small_capacity: int = 10,
    large_capacity: int = 200,
    num_switches: int = 30,
    num_items: int = 600,
    seed: int = 0,
) -> List[Dict]:
    """X9: how much data loss range extension prevents.

    The paper's §V-B scenario exactly: "some edge servers with low
    storage capacity would be overloaded when switches connect to
    ... servers with heterogeneous capacity".  A fraction of switches
    host tiny servers among well-provisioned neighbors.  Without
    management, placements hashed to a full tiny server are rejected
    (data loss); with the overload manager driving range extensions,
    the load spills to the neighbors' headroom.
    """
    from ..edge import EdgeServer, StorageFull
    from ..core import GredNetwork
    from ..services import OverloadManager

    topology = build_topology(num_switches, 3, seed)
    rows = []
    for fraction in small_fractions:
        rng = np.random.default_rng(seed + int(fraction * 100))
        small = set(
            int(i) for i in rng.choice(
                num_switches,
                size=max(1, int(round(fraction * num_switches))),
                replace=False)
        )
        results = {}
        extensions_used = 0
        for managed in (False, True):
            servers = {
                node: [EdgeServer(
                    node, 0,
                    capacity=(small_capacity if node in small
                              else large_capacity))]
                for node in topology.nodes()
            }
            net = GredNetwork(topology, servers, cvt_iterations=30,
                              seed=seed)
            manager = OverloadManager(net, high_watermark=0.7,
                                      low_watermark=0.2) \
                if managed else None
            rejected = 0
            for i in range(num_items):
                data_id = f"ovf-{i}"
                try:
                    net.place(data_id, payload=i,
                              entry_switch=i % num_switches)
                except StorageFull:
                    rejected += 1
                if manager is not None:
                    manager.sweep()
            results[managed] = rejected
            if managed:
                extensions_used = len(manager.active_extensions())
        rows.append({
            "small_fraction": fraction,
            "rejected_unmanaged": results[False],
            "rejected_managed": results[True],
            "extensions_used": extensions_used,
        })
    return rows
