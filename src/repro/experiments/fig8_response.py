"""Experiment E3 — average response delay on the testbed (Fig. 8).

The paper places data items on the prototype and measures the average
response delay of retrieval requests, finding that the delay is low and
changes only modestly with the number of requests, for both GRED and
GRED-NoCVT.  The reproduction substitutes a discrete-event simulation
with FIFO server queues (DESIGN.md Section 2): the packet-level
simulator at unbounded bandwidth, where no packet waits for a link and
every hop costs the latency model's link and switch delay.
"""

from __future__ import annotations

import math

from typing import Dict, List, Sequence

import numpy as np

from ..core import GredNetwork
from ..edge import attach_uniform
from ..simulation import LatencyModel, PacketLevelSimulator
from ..topology import TESTBED_SERVERS_PER_SWITCH, testbed_topology
from ..workloads import sequential_ids, uniform_retrieval_trace

#: The request counts on the paper's x-axis.
DEFAULT_REQUEST_COUNTS = (100, 200, 400, 600, 800, 1000)

#: Injection window for the trace (seconds).
TRACE_DURATION = 1.0


def run_fig8(
    request_counts: Sequence[int] = DEFAULT_REQUEST_COUNTS,
    num_items: int = 200,
    seed: int = 0,
    latency: LatencyModel = None,
) -> List[Dict]:
    """Average response delay vs number of retrieval requests."""
    latency = latency or LatencyModel()
    rows = []
    items = sequential_ids(num_items, prefix="testbed-data")
    for label, iterations in (("GRED-NoCVT", 0), ("GRED", 50)):
        topology = testbed_topology()
        servers = attach_uniform(
            topology.nodes(),
            servers_per_switch=TESTBED_SERVERS_PER_SWITCH,
        )
        net = GredNetwork(topology, servers,
                          cvt_iterations=iterations, seed=seed)
        rng = np.random.default_rng(seed + 20)
        for item in items:
            net.place(item, payload=b"x", rng=rng)
        for count in request_counts:
            trace = uniform_retrieval_trace(
                items, net.switch_ids(), count, TRACE_DURATION,
                np.random.default_rng(seed + count),
            )
            simulator = PacketLevelSimulator(
                net, latency, bandwidth_bytes_per_s=math.inf)
            simulator.run(trace)
            rows.append({
                "protocol": label,
                "requests": count,
                "avg_delay_ms": simulator.average_response_delay() * 1e3,
                "avg_request_hops": sum(
                    c.request_hops for c in simulator.completed
                ) / len(simulator.completed),
            })
    return rows
