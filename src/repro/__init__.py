"""GRED: Efficient Data Placement and Retrieval Services in Edge Computing.

A faithful Python reproduction of Xie et al., ICDCS 2019.  The package
implements the complete system — SDN control plane (M-position embedding,
C-regulation CVT refinement, multi-hop Delaunay triangulation, rule
compilation), a P4-style greedy-forwarding data plane, the edge server
plane, the Chord baseline, and the full evaluation harness.

Quickstart::

    import numpy as np
    from repro import GredNetwork, attach_uniform, brite_waxman_graph

    rng = np.random.default_rng(7)
    topology, _ = brite_waxman_graph(30, min_degree=3, rng=rng)
    servers = attach_uniform(topology.nodes(), servers_per_switch=4)
    net = GredNetwork(topology, servers, cvt_iterations=50)

    net.place("camera-3/frame-001", payload=b"jpeg-bytes")
    result = net.retrieve("camera-3/frame-001", entry_switch=12)
    assert result.found
"""

from .core import (
    GredError,
    GredNetwork,
    PlacementRecord,
    PlacementResult,
    RetrievalResult,
)
from .chord import ChordNetwork, ChordRing
from .controlplane import Controller, ControllerConfig
from .edge import EdgeServer, attach_heterogeneous, attach_uniform
from .faults import (
    FailureDetector,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from .graph import Graph
from .hashing import data_position, replica_id, server_index
from .resilience import (
    AdmissionController,
    BreakerBoard,
    CircuitBreaker,
    ResilienceConfig,
    ResilientNetwork,
    ResilientOutcome,
)
from .metrics import max_avg_ratio, routing_stretch, summarize
from .simulation import LatencyModel
from .topology import (
    brite_waxman_graph,
    grid_graph,
    ring_graph,
    testbed_topology,
    waxman_graph,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "GredNetwork",
    "GredError",
    "PlacementRecord",
    "PlacementResult",
    "RetrievalResult",
    "ChordNetwork",
    "ChordRing",
    "Controller",
    "ControllerConfig",
    "EdgeServer",
    "attach_uniform",
    "attach_heterogeneous",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "FailureDetector",
    "Graph",
    "AdmissionController",
    "BreakerBoard",
    "CircuitBreaker",
    "ResilienceConfig",
    "ResilientNetwork",
    "ResilientOutcome",
    "data_position",
    "server_index",
    "replica_id",
    "routing_stretch",
    "max_avg_ratio",
    "summarize",
    "LatencyModel",
    "brite_waxman_graph",
    "waxman_graph",
    "grid_graph",
    "ring_graph",
    "testbed_topology",
]
