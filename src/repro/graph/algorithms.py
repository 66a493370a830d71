"""Connectivity and structural algorithms for the topology substrate."""

from __future__ import annotations

from collections import deque
from typing import Hashable, List, Set

from .errors import DisconnectedGraph
from .graph import Graph
from .shortest_paths import HopRows

Node = Hashable


def connected_components(graph: Graph) -> List[Set[Node]]:
    """Connected components, each as a set of nodes."""
    remaining = set(graph.nodes())
    components = []
    while remaining:
        start = next(iter(remaining))
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        components.append(seen)
        remaining -= seen
    return components


def is_connected(graph: Graph) -> bool:
    """True when the graph is non-empty and has a single component."""
    if graph.num_nodes() == 0:
        return False
    return len(connected_components(graph)) == 1


def largest_component_subgraph(graph: Graph) -> Graph:
    """The induced subgraph on the largest connected component."""
    components = connected_components(graph)
    if not components:
        return Graph()
    largest = max(components, key=len)
    return graph.subgraph(largest)


def diameter(graph: Graph) -> int:
    """Longest shortest-path hop count over all node pairs.

    Raises
    ------
    DisconnectedGraph
        If the graph is not connected (the diameter would be infinite).
    """
    if not is_connected(graph):
        raise DisconnectedGraph("diameter is undefined on a disconnected graph")
    return int(HopRows(graph).rows(graph.nodes()).max())


def average_degree(graph: Graph) -> float:
    """Mean node degree; 0.0 for the empty graph."""
    n = graph.num_nodes()
    if n == 0:
        return 0.0
    return 2.0 * graph.num_edges() / n


def min_degree(graph: Graph) -> int:
    """Minimum node degree; 0 for the empty graph."""
    nodes = graph.nodes()
    if not nodes:
        return 0
    return min(graph.degree(node) for node in nodes)
