"""Experiments E1/E2 — the paper's testbed results (Fig. 7).

Fig. 7(a): average routing stretch of GRED and GRED-NoCVT on the
6-switch / 12-server prototype is close to 1.

Fig. 7(b): GRED achieves a visibly lower ``max/avg`` than GRED-NoCVT on
the same prototype.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..core import GredNetwork
from ..edge import attach_uniform
from ..metrics import max_avg_ratio, measure_gred_stretch, summarize
from ..topology import (
    TESTBED_SERVERS_PER_SWITCH,
    testbed_topology,
)
from .common import gred_load_vector


def _testbed_network(cvt_iterations: int, seed: int = 0) -> GredNetwork:
    topology = testbed_topology()
    servers = attach_uniform(
        topology.nodes(),
        servers_per_switch=TESTBED_SERVERS_PER_SWITCH,
    )
    return GredNetwork(topology, servers,
                       cvt_iterations=cvt_iterations, seed=seed)


def run_fig7a(num_items: int = 100, seed: int = 0) -> List[Dict]:
    """Average routing stretch, testbed topology, GRED vs GRED-NoCVT."""
    rows = []
    for label, iterations in (("GRED-NoCVT", 0), ("GRED", 50)):
        net = _testbed_network(iterations, seed=seed)
        samples = measure_gred_stretch(
            net, num_items, np.random.default_rng(seed + 10)
        )
        summary = summarize(samples)
        rows.append({
            "protocol": label,
            "stretch_mean": summary.mean,
            "stretch_ci_low": summary.ci_low,
            "stretch_ci_high": summary.ci_high,
            "samples": summary.count,
        })
    return rows


def run_fig7b(num_items: int = 1000, seed: int = 0) -> List[Dict]:
    """Load balance (max/avg), testbed topology, GRED vs GRED-NoCVT."""
    rows = []
    for label, iterations in (("GRED-NoCVT", 0), ("GRED", 50)):
        net = _testbed_network(iterations, seed=seed)
        loads = gred_load_vector(net, num_items)
        rows.append({
            "protocol": label,
            "max_avg": max_avg_ratio(loads),
            "items": num_items,
            "servers": len(loads),
        })
    return rows
