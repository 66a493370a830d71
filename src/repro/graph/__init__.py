"""Graph substrate: the switch-level physical topology.

This package is self-contained (no third-party graph library) and provides
exactly what the GRED control plane and the evaluation harness need:

* :class:`Graph` — undirected, optionally weighted adjacency structure;
* shortest paths — BFS hop counts and paths, the many-source hop kernel
  (:class:`HopRows`), the all-pairs hop matrix;
* structure — connectivity, components, diameter, degrees.
"""

from .errors import (
    DisconnectedGraph,
    EdgeNotFound,
    GraphError,
    NodeNotFound,
    NoPath,
)
from .graph import Graph
from .shortest_paths import (
    HopRows,
    all_pairs_hop_matrix,
    bfs_distances,
    bfs_path,
    hop_count,
)
from .algorithms import (
    average_degree,
    connected_components,
    diameter,
    is_connected,
    largest_component_subgraph,
    min_degree,
)

__all__ = [
    "Graph",
    "GraphError",
    "NodeNotFound",
    "EdgeNotFound",
    "DisconnectedGraph",
    "NoPath",
    "bfs_distances",
    "bfs_path",
    "hop_count",
    "HopRows",
    "all_pairs_hop_matrix",
    "connected_components",
    "is_connected",
    "largest_component_subgraph",
    "diameter",
    "average_degree",
    "min_degree",
]
