"""Planarization subgraphs for geographic face routing.

GPSR's perimeter mode only works on a planar subgraph of the
connectivity graph; the classical distributed construction used here
is the Gabriel graph (GG), computed per edge from local information: it
keeps edge (u, v) unless some node w lies inside the circle with
diameter uv.

On unit-disk graphs it is a connected planar spanner; on arbitrary
edge networks (e.g. Waxman topologies with long links) it may
disconnect the graph or leave crossing edges — the very failure mode
the paper cites when dismissing GHT/GPSR for edge computing
(Section VIII-B).  The experiments measure exactly that.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..graph import Graph

Coordinates = Dict[int, Tuple[float, float]]


def _sq(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy


def gabriel_graph(graph: Graph, coords: Coordinates) -> Graph:
    """The Gabriel subgraph of ``graph`` under ``coords``.

    Witnesses are the endpoints' graph neighbors — the standard
    distributed construction (each node only knows its neighbors).  On
    unit-disk graphs this preserves connectivity; on non-geometric
    graphs it may not, which is part of what the GHT experiments
    measure.
    """
    _check_coords(graph, coords)
    planar = Graph()
    for node in graph.nodes():
        planar.add_node(node)
    for u, v, w in graph.edges():
        mid = ((coords[u][0] + coords[v][0]) / 2.0,
               (coords[u][1] + coords[v][1]) / 2.0)
        radius_sq = _sq(coords[u], coords[v]) / 4.0
        witnesses = set(graph.neighbors(u)) | set(graph.neighbors(v))
        blocked = any(
            x not in (u, v) and _sq(coords[x], mid) < radius_sq - 1e-15
            for x in witnesses
        )
        if not blocked:
            planar.add_edge(u, v, weight=w)
    return planar


def _check_coords(graph: Graph, coords: Coordinates) -> None:
    missing = [n for n in graph.nodes() if n not in coords]
    if missing:
        raise ValueError(f"coordinates missing for nodes: {missing}")
