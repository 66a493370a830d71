"""GPSR-style geographic routing: greedy + perimeter mode.

The baseline family the paper's related work discusses (GFG/GPSR,
Section VIII-B): packets are forwarded greedily toward a geographic
target over the *full* connectivity graph; at a local minimum they
switch to perimeter mode — a right-hand-rule walk over a planarized
subgraph — until they reach a node closer to the target than where they
got stuck.

On unit-disk-like graphs (grids, dense geometric graphs) this delivers;
on arbitrary edge networks planarization can disconnect or misbehave,
so routing reports explicit outcomes rather than pretending: the
experiments quantify the failure rate the paper alludes to.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..graph import Graph

Coordinates = Dict[int, Tuple[float, float]]
Point = Tuple[float, float]


class RouteStatus(enum.Enum):
    DELIVERED = "delivered"
    PERIMETER_LOOP = "perimeter_loop"
    DEAD_END = "dead_end"
    HOP_LIMIT = "hop_limit"


@dataclass
class GpsrOutcome:
    """Result of one geographic route."""

    status: RouteStatus
    path: List[int] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.status == RouteStatus.DELIVERED

    @property
    def physical_hops(self) -> int:
        return max(0, len(self.path) - 1)

    @property
    def final_node(self) -> Optional[int]:
        return self.path[-1] if self.path else None


def _dist(a: Point, b: Point) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _segment_intersection(a: Point, b: Point, c: Point,
                          d: Point) -> Optional[Point]:
    """Intersection point of segments (a, b) and (c, d), or None.

    Touching at endpoints counts as an intersection; collinear overlaps
    return None (no unique crossing).
    """
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if denom == 0.0:
        return None
    qp = (c[0] - a[0], c[1] - a[1])
    t = (qp[0] * s[1] - qp[1] * s[0]) / denom
    u = (qp[0] * r[1] - qp[1] * r[0]) / denom
    if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
        return (a[0] + t * r[0], a[1] + t * r[1])
    return None


class GpsrRouter:
    """Greedy + perimeter routing over a graph with coordinates.

    Parameters
    ----------
    graph:
        Full connectivity graph (greedy mode uses all links).
    planar:
        Planarized subgraph (perimeter mode walks only these links).
    coords:
        Node positions in the plane.
    """

    def __init__(self, graph: Graph, planar: Graph,
                 coords: Coordinates) -> None:
        self.graph = graph
        self.planar = planar
        self.coords = coords
        # Pre-sort planar neighbors by angle for the right-hand rule.
        self._angular: Dict[int, List[int]] = {}
        for node in planar.nodes():
            nbrs = list(planar.neighbors(node))
            origin = coords[node]
            nbrs.sort(key=lambda v: math.atan2(
                coords[v][1] - origin[1], coords[v][0] - origin[0]))
            self._angular[node] = nbrs

    # ------------------------------------------------------------------
    def route(self, source: int, target: Point,
              max_hops: Optional[int] = None) -> GpsrOutcome:
        """Route from ``source`` toward the geographic ``target``.

        Greedy over the full graph; at a local minimum, GPSR perimeter
        mode over the planar subgraph with the face-change rule: the
        walk follows the right-hand rule and, whenever the next edge
        crosses the (stuck-point -> target) segment closer to the
        target than any previous crossing, it enters the next face.
        Returning to the first edge of the current face without
        progress means the target region is enclosed — for GHT, the
        home perimeter (``PERIMETER_LOOP``); reaching a node strictly
        closer than the stuck point resumes greedy mode.
        """
        if max_hops is None:
            max_hops = 8 * self.graph.num_nodes() + 32
        path = [source]
        current = source
        mode = "greedy"
        # Perimeter state (GPSR packet fields).
        lp: Optional[Point] = None     # where greedy got stuck
        lf: Optional[Point] = None     # face entry point on (lp, D)
        first_edge: Optional[Tuple[int, int]] = None
        prev: Optional[int] = None
        for _ in range(max_hops):
            if mode == "greedy":
                if _dist(self.coords[current], target) == 0.0:
                    return GpsrOutcome(RouteStatus.DELIVERED, path)
                nxt = self._greedy_next(current, target)
                if nxt is not None:
                    path.append(nxt)
                    current = nxt
                    continue
                # Local minimum: enter perimeter mode.
                lp = self.coords[current]
                lf = lp
                start = self._perimeter_first(current, target)
                if start is None:
                    return GpsrOutcome(RouteStatus.DELIVERED, path)
                first_edge = (current, start)
                prev = current
                path.append(start)
                current = start
                mode = "perimeter"
                continue
            # Perimeter mode: resume greedy on real progress.
            if _dist(self.coords[current], target) < _dist(lp, target):
                mode = "greedy"
                prev = None
                continue
            nxt = self._right_hand_next(current, prev)
            if nxt is None:
                return GpsrOutcome(RouteStatus.DEAD_END, path)
            if (current, nxt) == first_edge:
                # Completed a face without progress or face change: the
                # target region is enclosed (GHT home perimeter).
                return GpsrOutcome(RouteStatus.PERIMETER_LOOP, path)
            # Face-change rule: does edge (current, nxt) cross the
            # (lp, target) segment closer to the target than lf?
            crossing = _segment_intersection(
                self.coords[current], self.coords[nxt], lp, target)
            if crossing is not None and \
                    _dist(crossing, target) < _dist(lf, target) - 1e-15:
                lf = crossing
                first_edge = (current, nxt)
            prev = current
            path.append(nxt)
            current = nxt
        return GpsrOutcome(RouteStatus.HOP_LIMIT, path)

    # ------------------------------------------------------------------
    def _greedy_next(self, node: int, target: Point) -> Optional[int]:
        best = None
        best_d = _dist(self.coords[node], target)
        for neighbor in self.graph.neighbors(node):
            d = _dist(self.coords[neighbor], target)
            if d < best_d:
                best_d = d
                best = neighbor
        return best

    def _perimeter_first(self, node: int,
                         target: Point) -> Optional[int]:
        """First perimeter edge: the planar neighbor that is the first
        counterclockwise from the direction toward the target."""
        nbrs = self._angular.get(node, [])
        if not nbrs:
            return None
        origin = self.coords[node]
        ref = math.atan2(target[1] - origin[1], target[0] - origin[0])

        def ccw_gap(v):
            angle = math.atan2(self.coords[v][1] - origin[1],
                               self.coords[v][0] - origin[0])
            return (angle - ref) % (2 * math.pi)

        return min(nbrs, key=ccw_gap)

    def _right_hand_next(self, node: int,
                         prev: Optional[int]) -> Optional[int]:
        """Next edge counterclockwise from the incoming edge."""
        nbrs = self._angular.get(node, [])
        if not nbrs:
            return None
        if prev is None or prev not in nbrs:
            return nbrs[0]
        origin = self.coords[node]
        ref = math.atan2(self.coords[prev][1] - origin[1],
                         self.coords[prev][0] - origin[0])

        def ccw_gap(v):
            angle = math.atan2(self.coords[v][1] - origin[1],
                               self.coords[v][0] - origin[0])
            gap = (angle - ref) % (2 * math.pi)
            return gap if gap > 1e-12 else 2 * math.pi

        return min(nbrs, key=ccw_gap)
