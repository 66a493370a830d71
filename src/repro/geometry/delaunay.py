"""Randomized-incremental Delaunay triangulation (paper Section IV-C).

The control plane of GRED builds a Delaunay triangulation (DT) of the
switch positions in the virtual space; greedy forwarding on a DT is
guaranteed to reach the node closest to any destination point.  The
construction follows the paper's description: points are inserted in
random order into a triangulation that starts from a large bounding
("super") triangle; each insertion splits the containing triangle and
restores the Delaunay property with edge *flips*; finally the bounding
triangle and all triangles touching it are removed.

Robustness comes from the exact predicates in
:mod:`repro.geometry.predicates`: orientation and in-circle tests fall
back to rational arithmetic near degeneracy, so cocircular and collinear
inputs are handled exactly (cocircular quadruples simply keep whichever
valid diagonal was constructed first).

The super-triangle vertices carry negative ids and are placed far enough
away (``1e6`` times the data span) that they act as points at infinity
for all practical inputs; edges incident to them are excluded from the
reported DT.

Resolution limit: a triangle flatter than roughly ``1 / 1e6`` of the
data span has a circumcircle larger than the super triangle, so such
near-collinear triples are triangulated as if collinear (a chain instead
of a sliver triangle).  This loses no greedy-routing guarantee — greedy
descent over the resulting chain still reaches the nearest site — and
only affects point sets that are collinear up to floating-point noise.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

import numpy as np

from .predicates import incircle, orient2d
from .primitives import Point, squared_distance

_SUPER_A = -1
_SUPER_B = -2
_SUPER_C = -3
_SUPER_IDS = (_SUPER_A, _SUPER_B, _SUPER_C)
_SUPER_SCALE = 1e6


class DelaunayError(Exception):
    """Raised when the triangulation cannot be built or queried."""


class DuplicatePointError(DelaunayError):
    """Raised when inserting a point that coincides with an existing
    vertex."""


class DelaunayTriangulation:
    """Incremental 2D Delaunay triangulation.

    Parameters
    ----------
    points:
        Initial sites.  Sites must be pairwise distinct (use
        :func:`repro.geometry.primitives.deduplicate_points` first when
        the input may contain coincident positions).
    rng:
        Generator controlling the random insertion order; defaults to a
        deterministic seed so repeated constructions agree.

    The triangulation is *live*: :meth:`insert_point` supports the
    network-dynamics case of a switch joining (paper Section VI).  Switch
    departure is handled by the controller rebuilding the triangulation.
    That is not free — at 200 switches the rebuild is about a third of
    a graceful leave, second only to rule compilation — but vertex
    deletion is parked because it is not rebuild-equal: for
    a cocircular quadruple "whichever valid diagonal was constructed
    first" wins, so deleting and re-triangulating the hole can keep a
    diagonal a fresh build would not, and the super triangle is derived
    from the bounding box, which a leaver on the hull changes.  The
    committed reports pin the rebuild's adjacency.
    """

    def __init__(self, points: Sequence[Point] = (),
                 rng: np.random.Generator = None) -> None:
        if rng is None:
            rng = np.random.default_rng(0)
        pts = [(float(p[0]), float(p[1])) for p in points]
        self._coords: Dict[int, Point] = {}
        self._triangles: Dict[int, Tuple[int, int, int]] = {}
        self._edge_tri: Dict[Tuple[int, int], int] = {}
        self._next_tri_id = 0
        self._last_tri_id = None  # walk start hint
        self._init_super_triangle(pts)
        order = list(range(len(pts)))
        rng.shuffle(order)
        for i in order:
            self._insert(i, pts[i])

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def insert_point(self, point: Point) -> int:
        """Insert a new site and return its vertex id.

        Used for incremental updates when a switch joins the network.

        Raises
        ------
        DuplicatePointError
            If the point coincides with an existing vertex.
        DelaunayError
            If the point falls outside the super triangle (far outside
            the original data extent).
        """
        point = (float(point[0]), float(point[1]))
        vid = max((v for v in self._coords if v >= 0), default=-1) + 1
        self._insert(vid, point)
        return vid

    def num_vertices(self) -> int:
        """Number of real (non-super) vertices."""
        return sum(1 for v in self._coords if v >= 0)

    def vertex_position(self, vid: int) -> Point:
        """Coordinates of vertex ``vid``."""
        if vid not in self._coords or vid < 0:
            raise DelaunayError(f"unknown vertex {vid}")
        return self._coords[vid]

    def edges(self) -> Set[FrozenSet[int]]:
        """DT edges between real vertices (super-triangle edges excluded)."""
        result: Set[FrozenSet[int]] = set()
        for a, b, c in self._triangles.values():
            for u, v in ((a, b), (b, c), (c, a)):
                if u >= 0 and v >= 0:
                    result.add(frozenset((u, v)))
        return result

    def neighbors(self, vid: int) -> Set[int]:
        """Real DT neighbors of a real vertex."""
        if vid not in self._coords or vid < 0:
            raise DelaunayError(f"unknown vertex {vid}")
        result: Set[int] = set()
        for edge in self.edges():
            if vid in edge:
                (other,) = edge - {vid}
                result.add(other)
        return result

    def neighbor_map(self) -> Dict[int, Set[int]]:
        """Adjacency map over real vertices (every vertex present)."""
        result: Dict[int, Set[int]] = {
            v: set() for v in self._coords if v >= 0
        }
        for edge in self.edges():
            u, v = tuple(edge)
            result[u].add(v)
            result[v].add(u)
        return result

    def triangles(self) -> List[Tuple[int, int, int]]:
        """Real triangles (all three vertices real), ccw-ordered."""
        return [
            tri for tri in self._triangles.values()
            if all(v >= 0 for v in tri)
        ]

    # ------------------------------------------------------------------
    # construction internals
    # ------------------------------------------------------------------
    def _init_super_triangle(self, pts: Sequence[Point]) -> None:
        if pts:
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            cx = (min(xs) + max(xs)) / 2.0
            cy = (min(ys) + max(ys)) / 2.0
            span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
        else:
            cx, cy, span = 0.5, 0.5, 1.0
        r = span * _SUPER_SCALE
        self._coords[_SUPER_A] = (cx, cy + 2.0 * r)
        self._coords[_SUPER_B] = (cx - 1.8 * r, cy - r)
        self._coords[_SUPER_C] = (cx + 1.8 * r, cy - r)
        self._make_triangle(_SUPER_A, _SUPER_B, _SUPER_C)

    def _make_triangle(self, a: int, b: int, c: int) -> int:
        """Register ccw triangle (a, b, c) and index its directed edges."""
        if orient2d(self._coords[a], self._coords[b], self._coords[c]) < 0:
            b, c = c, b
        tid = self._next_tri_id
        self._next_tri_id += 1
        self._triangles[tid] = (a, b, c)
        self._edge_tri[(a, b)] = tid
        self._edge_tri[(b, c)] = tid
        self._edge_tri[(c, a)] = tid
        self._last_tri_id = tid
        return tid

    def _delete_triangle(self, tid: int) -> None:
        a, b, c = self._triangles.pop(tid)
        for edge in ((a, b), (b, c), (c, a)):
            if self._edge_tri.get(edge) == tid:
                del self._edge_tri[edge]
        if self._last_tri_id == tid:
            self._last_tri_id = None

    def _locate(self, p: Point) -> int:
        """Walk to a triangle whose closure contains ``p``."""
        if self._last_tri_id in self._triangles:
            tid = self._last_tri_id
        else:
            tid = next(iter(self._triangles))
        visited = 0
        limit = 4 * len(self._triangles) + 16
        while True:
            a, b, c = self._triangles[tid]
            pa, pb, pc = (self._coords[a], self._coords[b], self._coords[c])
            moved = False
            for (u, v, pu, pv) in ((a, b, pa, pb), (b, c, pb, pc),
                                   (c, a, pc, pa)):
                if orient2d(pu, pv, p) < 0:
                    nxt = self._edge_tri.get((v, u))
                    if nxt is None:
                        raise DelaunayError(
                            "point lies outside the super triangle; "
                            "the insertion domain was exceeded"
                        )
                    tid = nxt
                    moved = True
                    break
            if not moved:
                return tid
            visited += 1
            if visited > limit:
                raise DelaunayError("point location failed to terminate")

    def _insert(self, vid: int, point: Point) -> None:
        if vid in self._coords:
            raise DelaunayError(f"vertex id {vid} already present")
        tid = self._locate(point)
        a, b, c = self._triangles[tid]
        for existing in (a, b, c):
            if squared_distance(self._coords[existing], point) == 0.0:
                raise DuplicatePointError(
                    f"point {point} coincides with vertex {existing}"
                )
        self._coords[vid] = point
        pa, pb, pc = (self._coords[a], self._coords[b], self._coords[c])
        on_edge = None
        for (u, v, pu, pv) in ((a, b, pa, pb), (b, c, pb, pc),
                               (c, a, pc, pa)):
            if orient2d(pu, pv, point) == 0:
                on_edge = (u, v)
                break
        if on_edge is None:
            self._split_triangle(tid, vid, (a, b, c))
        else:
            self._split_edge(tid, vid, on_edge)

    def _split_triangle(self, tid: int,
                        vid: int, tri: Tuple[int, int, int]) -> None:
        a, b, c = tri
        self._delete_triangle(tid)
        self._make_triangle(vid, a, b)
        self._make_triangle(vid, b, c)
        self._make_triangle(vid, c, a)
        self._legalize(vid, (a, b))
        self._legalize(vid, (b, c))
        self._legalize(vid, (c, a))

    def _split_edge(self, tid: int, vid: int,
                    edge: Tuple[int, int]) -> None:
        u, v = edge
        # Triangle on the other side of (u, v), if any.
        other_tid = self._edge_tri.get((v, u))
        a, b, c = self._triangles[tid]
        apex = next(x for x in (a, b, c) if x not in (u, v))
        self._delete_triangle(tid)
        self._make_triangle(vid, u, apex)
        self._make_triangle(vid, apex, v)
        outer = [(u, apex), (apex, v)]
        if other_tid is not None:
            oa, ob, oc = self._triangles[other_tid]
            other_apex = next(x for x in (oa, ob, oc) if x not in (u, v))
            self._delete_triangle(other_tid)
            self._make_triangle(vid, v, other_apex)
            self._make_triangle(vid, other_apex, u)
            outer.extend([(v, other_apex), (other_apex, u)])
        for e in outer:
            self._legalize(vid, e)

    def _legalize(self, vid: int, edge: Tuple[int, int]) -> None:
        """Flip ``edge`` if it violates the Delaunay condition w.r.t. the
        newly inserted vertex ``vid``; recurse on the exposed edges."""
        stack = [edge]
        while stack:
            u, v = stack.pop()
            inner = self._edge_tri.get((u, v))
            outer = self._edge_tri.get((v, u))
            if inner is None or outer is None:
                continue  # hull edge of the super triangle
            inner_tri = self._triangles[inner]
            if vid not in inner_tri:
                # The triangulation changed under us; find the side that
                # still has vid.
                outer_tri = self._triangles[outer]
                if vid in outer_tri:
                    u, v = v, u
                    inner, outer = outer, inner
                    inner_tri = outer_tri
                else:
                    continue
            apex = next(x for x in self._triangles[outer]
                        if x not in (u, v))
            # Delaunay test: apex inside circumcircle of (vid, u, v)?
            tri_pts = (self._coords[vid], self._coords[u], self._coords[v])
            if orient2d(*tri_pts) < 0:
                tri_pts = (tri_pts[0], tri_pts[2], tri_pts[1])
            if incircle(*tri_pts, self._coords[apex]) > 0:
                self._delete_triangle(inner)
                self._delete_triangle(outer)
                self._make_triangle(vid, u, apex)
                self._make_triangle(vid, apex, v)
                stack.append((u, apex))
                stack.append((apex, v))

    # ------------------------------------------------------------------
    # validation helpers (used by tests)
    # ------------------------------------------------------------------
    def is_delaunay(self) -> bool:
        """Exhaustively check the empty-circumcircle property over real
        triangles and real vertices.  O(T * V); for tests only."""
        real_vertices = [v for v in self._coords if v >= 0]
        for tri in self.triangles():
            a, b, c = tri
            pts = (self._coords[a], self._coords[b], self._coords[c])
            if orient2d(*pts) < 0:
                pts = (pts[0], pts[2], pts[1])
            for v in real_vertices:
                if v in tri:
                    continue
                if incircle(*pts, self._coords[v]) > 0:
                    return False
        return True
