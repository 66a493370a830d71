"""Graph oracles: Dijkstra, weighted all-pairs distances and the
relative neighborhood graph.

The control plane measures paths in hops only; these weighted and
planarization references back the graph and GHT tests.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ght.planarize import Coordinates, _check_coords, _sq
from repro.graph import Graph, NodeNotFound, NoPath
from repro.graph.shortest_paths import Node, _reconstruct


def dijkstra(graph: Graph, source: Node) -> Tuple[Dict[Node, float],
                                                  Dict[Node, Node]]:
    """Weighted shortest-path distances and parents from ``source``.

    Returns ``(dist, parent)`` where ``parent[source] == source``.
    """
    if not graph.has_node(source):
        raise NodeNotFound(source)
    dist: Dict[Node, float] = {source: 0.0}
    parent: Dict[Node, Node] = {source: source}
    visited = set()
    heap: List[Tuple[float, int, Node]] = [(0.0, 0, source)]
    counter = 1  # tie-breaker so heapq never compares nodes directly
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in visited:
            continue
        visited.add(u)
        for v in graph.neighbors(u):
            nd = d + graph.edge_weight(u, v)
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, counter, v))
                counter += 1
    return dist, parent


def dijkstra_path(graph: Graph, source: Node, target: Node) -> List[Node]:
    """A minimum-weight path from ``source`` to ``target``."""
    dist, parent = dijkstra(graph, source)
    if target not in dist:
        if not graph.has_node(target):
            raise NodeNotFound(target)
        raise NoPath(source, target)
    return _reconstruct(parent, source, target)


def all_pairs_weighted_matrix(
    graph: Graph, order: Optional[Sequence[Node]] = None
) -> Tuple[np.ndarray, List[Node]]:
    """All-pairs weighted distance matrix via repeated Dijkstra."""
    nodes = list(order) if order is not None else graph.nodes()
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    matrix = np.full((n, n), np.inf)
    for node in nodes:
        i = index[node]
        dist, _ = dijkstra(graph, node)
        for other, d in dist.items():
            if other in index:
                matrix[i, index[other]] = d
    return matrix, nodes


def relative_neighborhood_graph(graph: Graph,
                                coords: Coordinates) -> Graph:
    """The RNG subgraph of ``graph`` under ``coords``: edge (u, v) stays
    unless a neighbour of either end is closer to both ends than they
    are to each other (the lune), so RNG ⊆ the Gabriel graph."""
    _check_coords(graph, coords)
    planar = Graph()
    for node in graph.nodes():
        planar.add_node(node)
    for u, v, w in graph.edges():
        duv = _sq(coords[u], coords[v])
        witnesses = set(graph.neighbors(u)) | set(graph.neighbors(v))
        blocked = any(
            x not in (u, v)
            and _sq(coords[u], coords[x]) < duv - 1e-15
            and _sq(coords[v], coords[x]) < duv - 1e-15
            for x in witnesses
        )
        if not blocked:
            planar.add_edge(u, v, weight=w)
    return planar
