"""Region map: shard boundaries and gateway links of a federation.

A :class:`RegionMap` validates a ``switch id -> region id`` assignment
against the global topology and derives everything the federated
control plane needs:

* the per-region member sets and induced sub-topologies (intra-region
  links only — each shard controller sees exactly its own region);
* the cross-region physical links and, per region pair, one
  *designated* gateway link (deterministic lowest ``(u, v)``) whose
  endpoints are the regions' gateway switches;
* the region adjacency graph (one node per region, one edge per pair
  with at least one physical cross link), which must be connected for
  the federation to reach every region.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..graph import Graph
from ..graph.algorithms import is_connected

__all__ = ["RegionMap", "RegionError"]


class RegionError(ValueError):
    """An assignment that cannot form a valid federation."""


class RegionMap:
    """Validated shard boundaries over a global topology.

    Parameters
    ----------
    topology:
        The global switch graph (connected, cross-region links
        included).
    assignment:
        ``switch id -> region id`` covering every switch.
    """

    def __init__(self, topology: Graph,
                 assignment: Dict[int, int]) -> None:
        nodes = topology.nodes()
        missing = [n for n in nodes if n not in assignment]
        if missing:
            raise RegionError(
                f"{len(missing)} switches lack a region assignment "
                f"(e.g. {sorted(missing)[:3]})"
            )
        extra = [n for n in assignment if not topology.has_node(n)]
        if extra:
            raise RegionError(
                f"assignment names unknown switches {sorted(extra)[:3]}"
            )
        self._assignment: Dict[int, int] = {
            n: int(assignment[n]) for n in nodes
        }
        regions: Dict[int, List[int]] = {}
        for node in sorted(self._assignment):
            regions.setdefault(self._assignment[node], []).append(node)
        self._regions = {rid: regions[rid] for rid in sorted(regions)}
        # Induced per-region sub-topologies and the cross links.
        self._subtopologies: Dict[int, Graph] = {}
        for rid, members in self._regions.items():
            sub = Graph()
            for n in members:
                sub.add_node(n)
            self._subtopologies[rid] = sub
        self._cross_links: List[Tuple[int, int, float]] = []
        for u, v, w in topology.edges():
            ru, rv = self._assignment[u], self._assignment[v]
            if ru == rv:
                self._subtopologies[ru].add_edge(u, v, w)
            else:
                a, b = (u, v) if ru < rv else (v, u)
                self._cross_links.append((a, b, w))
        self._cross_links.sort(key=lambda e: (e[0], e[1]))
        for rid, sub in self._subtopologies.items():
            if sub.num_nodes() and not is_connected(sub):
                raise RegionError(
                    f"region {rid} is not internally connected — every "
                    f"region must be reachable without leaving it"
                )
        # Designated gateway link per region pair: lowest (u, v) with u
        # in the lower-numbered region.
        self._gateway_link: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for u, v, _ in self._cross_links:
            key = (self._assignment[u], self._assignment[v])
            if key not in self._gateway_link:
                self._gateway_link[key] = (u, v)
        self._region_graph = Graph()
        for rid in self._regions:
            self._region_graph.add_node(rid)
        for a, b in self._gateway_link:
            self._region_graph.add_edge(a, b)
        if len(self._regions) > 1 and not is_connected(self._region_graph):
            raise RegionError(
                "the region adjacency graph is disconnected — some "
                "regions have no gateway link path between them"
            )
        #: ``(src, dst, avoid) -> path`` of :meth:`overlay_path`.
        self._paths: Dict[Tuple[int, int, FrozenSet[int]],
                          Optional[Tuple[int, ...]]] = {}

    # ------------------------------------------------------------------
    @property
    def num_regions(self) -> int:
        return len(self._regions)

    @property
    def region_ids(self) -> List[int]:
        return list(self._regions)

    @property
    def assignment(self) -> Dict[int, int]:
        """``switch id -> region id`` (copy)."""
        return dict(self._assignment)

    @property
    def regions(self) -> Dict[int, List[int]]:
        """``region id -> sorted member switches`` (copies)."""
        return {rid: list(m) for rid, m in self._regions.items()}

    @property
    def cross_links(self) -> List[Tuple[int, int, float]]:
        """Every physical cross-region link (sorted, normalized so the
        first endpoint is in the lower-numbered region)."""
        return list(self._cross_links)

    @property
    def region_graph(self) -> Graph:
        """Region adjacency graph (one edge per designated gateway)."""
        return self._region_graph

    def region_of(self, switch: int) -> int:
        try:
            return self._assignment[switch]
        except KeyError:
            raise RegionError(f"unknown switch {switch}") from None

    def members(self, region: int) -> List[int]:
        try:
            return list(self._regions[region])
        except KeyError:
            raise RegionError(f"unknown region {region}") from None

    def subtopology(self, region: int) -> Graph:
        """The induced intra-region topology (the shard's graph)."""
        if region not in self._subtopologies:
            raise RegionError(f"unknown region {region}")
        return self._subtopologies[region]

    def gateway(self, src_region: int, dst_region: int
                ) -> Tuple[int, int]:
        """The designated gateway link crossing from ``src_region``
        into ``dst_region``: ``(egress switch in src, ingress switch
        in dst)``."""
        key = (min(src_region, dst_region), max(src_region, dst_region))
        link = self._gateway_link.get(key)
        if link is None:
            raise RegionError(
                f"regions {src_region} and {dst_region} share no "
                f"gateway link"
            )
        u, v = link
        return (u, v) if src_region < dst_region else (v, u)

    def gateways(self, region: int) -> List[int]:
        """This region's designated gateway switches (sorted)."""
        out = set()
        for (a, b), (u, v) in self._gateway_link.items():
            if a == region:
                out.add(u)
            if b == region:
                out.add(v)
        return sorted(out)

    # ------------------------------------------------------------------
    def overlay_path(self, src_region: int, dst_region: int,
                     avoid: FrozenSet[int] = frozenset()
                     ) -> Optional[List[int]]:
        """Shortest region-level path (BFS, lowest-id tie-break),
        skipping transit through regions in ``avoid`` (source and
        destination are never skipped).  ``None`` when unreachable.
        Memoized per ``(src, dst, avoid)``: the region graph is fixed
        at construction."""
        key = (src_region, dst_region, frozenset(avoid))
        try:
            path = self._paths[key]
        except KeyError:
            path = self._paths[key] = self._overlay_bfs(*key)
        return None if path is None else list(path)

    def _overlay_bfs(self, src_region: int, dst_region: int,
                     avoid: FrozenSet[int]) -> Optional[Tuple[int, ...]]:
        if src_region == dst_region:
            return (src_region,)
        parent: Dict[int, int] = {src_region: src_region}
        queue = deque([src_region])
        while queue:
            r = queue.popleft()
            for nxt in sorted(self._region_graph.neighbors(r)):
                if nxt in parent:
                    continue
                if nxt in avoid and nxt != dst_region:
                    continue
                parent[nxt] = r
                if nxt == dst_region:
                    path = [nxt]
                    while path[-1] != src_region:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                queue.append(nxt)
        return None

    def overlay_hops(self, src_region: int, dst_region: int) -> int:
        """Region hops of the unobstructed overlay path."""
        path = self.overlay_path(src_region, dst_region)
        if path is None:  # pragma: no cover - validated connected
            raise RegionError(
                f"regions {src_region} and {dst_region} are not "
                f"connected in the overlay"
            )
        return len(path) - 1

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-ready form (used by the federation snapshot)."""
        return {
            "assignment": {str(n): rid
                           for n, rid in sorted(self._assignment.items())},
            "cross_links": [[u, v, w] for u, v, w in self._cross_links],
        }
