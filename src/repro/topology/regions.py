"""Region partitioning for the federated control plane.

Two ways to obtain a regionalized topology:

* :func:`partition_regions` — metro-style auto-partition of an
  *existing* graph into ``num_regions`` balanced, connected regions
  (multi-source BFS growth from spread-out seeds).
* :func:`federated_topology` — generate a hierarchical edge topology
  directly: one BRITE-style Waxman metro graph per region plus a small
  backbone of inter-region gateway links (ring or line), the shape
  real telco edge deployments take.

Both return an *assignment* (``switch id -> region id``) that
:class:`repro.controlplane.RegionMap` validates and turns into shard
boundaries and designated gateway links.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

import numpy as np

from ..graph import Graph
from ..graph.shortest_paths import bfs_distances
from .waxman import brite_waxman_graph

__all__ = [
    "partition_regions",
    "federated_topology",
    "region_members",
]


def region_members(assignment: Dict[int, int]) -> Dict[int, List[int]]:
    """``region id -> sorted member switches`` view of an assignment."""
    regions: Dict[int, List[int]] = {}
    for node in sorted(assignment):
        regions.setdefault(assignment[node], []).append(node)
    return regions


def _spread_seeds(graph: Graph, num_regions: int) -> List[int]:
    """Greedy farthest-point seed selection (deterministic).

    The first seed is the lowest switch id; each next seed maximizes
    its hop distance to the already-chosen seeds (ties by id), which
    spreads the region cores across the graph.
    """
    nodes = sorted(graph.nodes())
    seeds = [nodes[0]]
    # min hop distance from any chosen seed
    dist = bfs_distances(graph, seeds[0])
    while len(seeds) < num_regions:
        best = max(nodes, key=lambda n: (dist.get(n, 0), -n))
        if best in seeds:  # pragma: no cover - defensive
            break
        seeds.append(best)
        for node, d in bfs_distances(graph, best).items():
            if d < dist.get(node, d + 1):
                dist[node] = d
    return seeds


def partition_regions(graph: Graph, num_regions: int,
                      seed: int = 0) -> Dict[int, int]:
    """Partition a connected graph into balanced connected regions.

    Seeds are chosen by greedy farthest-point selection, then regions
    grow one frontier switch at a time, smallest region first, so the
    sizes stay balanced while every region remains connected (each
    switch joins a region it is physically adjacent to).

    Parameters
    ----------
    graph:
        Connected switch topology.
    num_regions:
        Number of regions (``1 <= num_regions <= len(graph)``).
    seed:
        Reserved for tie-breaking variations; the default partition is
        fully deterministic in the graph alone.

    Returns
    -------
    Dict[int, int]
        ``switch id -> region id`` with region ids ``0..num_regions-1``.
    """
    nodes = graph.nodes()
    if num_regions < 1:
        raise ValueError(f"num_regions must be >= 1, got {num_regions}")
    if num_regions > len(nodes):
        raise ValueError(
            f"cannot split {len(nodes)} switches into {num_regions} "
            f"regions"
        )
    if num_regions == 1:
        return {node: 0 for node in nodes}
    seeds = _spread_seeds(graph, num_regions)
    assignment: Dict[int, int] = {}
    frontiers: List[deque] = []
    sizes = [0] * num_regions
    for rid, s in enumerate(seeds):
        assignment[s] = rid
        sizes[rid] = 1
        frontiers.append(deque(sorted(graph.neighbors(s))))
    remaining = len(nodes) - num_regions
    while remaining > 0:
        # Smallest region with a non-empty frontier claims next.
        order = sorted(range(num_regions), key=lambda r: (sizes[r], r))
        progressed = False
        for rid in order:
            frontier = frontiers[rid]
            claimed = None
            while frontier:
                candidate = frontier.popleft()
                if candidate not in assignment:
                    claimed = candidate
                    break
            if claimed is None:
                continue
            assignment[claimed] = rid
            sizes[rid] += 1
            remaining -= 1
            for neighbor in sorted(graph.neighbors(claimed)):
                if neighbor not in assignment:
                    frontier.append(neighbor)
            progressed = True
            break
        if not progressed:  # pragma: no cover - disconnected input
            raise ValueError(
                "partition_regions requires a connected graph"
            )
    return assignment


def federated_topology(
    num_regions: int,
    switches_per_region: int,
    min_degree: int = 2,
    backbone: str = "ring",
    seed: int = 0,
) -> Tuple[Graph, Dict[int, int]]:
    """Generate a metro/backbone edge topology with a known partition.

    Each region is an independent BRITE-style Waxman metro graph of
    ``switches_per_region`` switches; regions are then stitched by one
    gateway link per backbone edge (``ring`` — region ``r`` to region
    ``r+1 mod R`` — or ``line``, dropping the closing link).  Region
    ``r`` occupies the contiguous id block
    ``[r * switches_per_region, (r+1) * switches_per_region)``.

    Returns ``(topology, assignment)`` ready for
    :class:`repro.controlplane.FederatedNetwork`.
    """
    if num_regions < 1:
        raise ValueError(f"num_regions must be >= 1, got {num_regions}")
    if switches_per_region < min_degree + 1:
        raise ValueError(
            f"switches_per_region must be >= {min_degree + 1}, got "
            f"{switches_per_region}"
        )
    if backbone not in ("ring", "line"):
        raise ValueError(f"unknown backbone {backbone!r}")
    topology = Graph()
    assignment: Dict[int, int] = {}
    for rid in range(num_regions):
        metro, _ = brite_waxman_graph(
            switches_per_region, min_degree=min_degree,
            rng=np.random.default_rng(seed * 7919 + rid),
        )
        offset = rid * switches_per_region
        for node in metro.nodes():
            topology.add_node(node + offset)
            assignment[node + offset] = rid
        for u, v, w in metro.edges():
            topology.add_edge(u + offset, v + offset, w)
    # Backbone gateway links: the egress gateway of region r is its
    # highest id, the ingress gateway of region r+1 its lowest — one
    # designated physical link per backbone edge.
    pairs = []
    if num_regions >= 2:
        pairs = [(r, r + 1) for r in range(num_regions - 1)]
        if backbone == "ring" and num_regions > 2:
            pairs.append((num_regions - 1, 0))
    for a, b in pairs:
        u = a * switches_per_region + switches_per_region - 1
        v = b * switches_per_region
        topology.add_edge(u, v)
    return topology, assignment
