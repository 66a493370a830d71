"""Randomized-incremental Delaunay triangulation (paper Section IV-C).

The control plane of GRED builds a Delaunay triangulation (DT) of the
switch positions in the virtual space; greedy forwarding on a DT is
guaranteed to reach the node closest to any destination point.  The
construction follows the paper's description: points are inserted in
random order into a triangulation that starts from a large bounding
("super") triangle; each insertion splits the containing triangle and
restores the Delaunay property with edge *flips*; finally the bounding
triangle and all triangles touching it are removed.  A deletion drops
the vertex's star and fills the hole with Delaunay ears (Devillers, "On
deletion in Delaunay triangulations", 1999).

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

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from .predicates import incircle, orient2d
from .primitives import Point, squared_distance

_SUPER_A = -1
_SUPER_B = -2
_SUPER_C = -3
_SUPER_IDS = (_SUPER_A, _SUPER_B, _SUPER_C)
_SUPER_SCALE = 1e6


def _super_coords(pts: Sequence[Point]) -> Tuple[Point, Point, Point]:
    """Corners of the super triangle for sites ``pts``: a function of
    their bounding box alone."""
    if pts:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        cx = (min(xs) + max(xs)) / 2.0
        cy = (min(ys) + max(ys)) / 2.0
        span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    else:
        cx, cy, span = 0.5, 0.5, 1.0
    r = span * _SUPER_SCALE
    return ((cx, cy + 2.0 * r), (cx - 1.8 * r, cy - r),
            (cx + 1.8 * r, cy - r))


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

    The triangulation is *live*: :meth:`insert_point` and
    :meth:`remove_point` support the network-dynamics cases of a switch
    joining and leaving (paper Section VI).  A deletion re-triangulates
    only the leaver's star polygon, so it is not by itself equal to a
    fresh build: for a cocircular quadruple "whichever valid diagonal
    was constructed first" wins, and the super triangle is derived from
    the bounding box, which a leaver on the hull may change.
    :meth:`why_not_canonical` says when it is: with the super triangle a
    fresh build would pick and no tied edge, the Delaunay triangulation
    is unique, so every build of the same vertices, in any insertion
    order, produces exactly these triangles.  The controller keeps a
    deletion only then and rebuilds otherwise.
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
        #: Ids are never reused: a removed vertex's id stays retired.
        self._next_vid = len(pts)
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
        vid = self._next_vid
        self._insert(vid, point)
        self._next_vid += 1
        return vid

    def remove_point(self, vid: int) -> None:
        """Delete vertex ``vid`` and restore the Delaunay property.

        Used for incremental updates when a switch leaves.  The star
        triangles of ``vid`` are dropped and the hole — its ccw link
        polygon, super-triangle corners included — is filled by Delaunay
        ears: a convex corner whose circumcircle holds no other polygon
        vertex.  Each new diagonal is then locally Delaunay against the
        triangle later cut on its other side, and each polygon edge
        against the untouched triangle outside, so the result is a
        Delaunay triangulation of the remaining sites.  The id is
        retired: :meth:`insert_point` never hands it out again.

        Raises
        ------
        DelaunayError
            If ``vid`` is not a real vertex (unknown or super-triangle).
        """
        if vid < 0 or vid not in self._coords:
            raise DelaunayError(f"unknown vertex {vid}")
        link = self._link(vid)
        for tid in [self._edge_tri[(vid, u)] for u in link]:
            self._delete_triangle(tid)
        del self._coords[vid]
        coords = self._coords
        while len(link) > 3:
            for i in range(len(link)):
                a, b, c = link[i - 1], link[i], link[(i + 1) % len(link)]
                pa, pb, pc = coords[a], coords[b], coords[c]
                if orient2d(pa, pb, pc) > 0 and all(
                        incircle(pa, pb, pc, coords[w]) <= 0
                        for w in link if w != a and w != b and w != c):
                    self._make_triangle(a, b, c)
                    del link[i]
                    break
            else:  # pragma: no cover - a deletion hole always has one
                raise DelaunayError(f"no Delaunay ear left removing {vid}")
        self._make_triangle(*link)

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
        return {u for u in self._link(vid) if u >= 0}

    def neighbor_map(self) -> Dict[int, Set[int]]:
        """Adjacency map over real vertices (every vertex present).

        Read off the directed-edge index: every real edge lies inside
        the super triangle, so it appears there in both directions.
        """
        result: Dict[int, Set[int]] = {
            v: set() for v in self._coords if v >= 0
        }
        for u, v in self._edge_tri:
            if u >= 0 and v >= 0:
                result[u].add(v)
        return result

    def triangles(self) -> List[Tuple[int, int, int]]:
        """Real triangles (all three vertices real), ccw-ordered."""
        return [
            tri for tri in self._triangles.values()
            if all(v >= 0 for v in tri)
        ]

    def why_not_canonical(self) -> Optional[str]:
        """``None`` when a from-scratch build over this triangulation's
        vertices — in any insertion order — yields exactly its
        triangles; otherwise why that is not certain.

        ``"bbox"``: a fresh build would pick another super triangle
        (the live one is that of an earlier vertex set).  ``"tie"``:
        some interior edge is not strictly locally Delaunay — its two
        triangles are cocircular — so another diagonal is as valid.
        Without either, every edge is strictly locally Delaunay over the
        same point set, super triangle included; that triangulation is
        the unique Delaunay one, and the incremental build produces it
        too.  O(edges); about a millisecond at 200 vertices.
        """
        coords, triangles = self._coords, self._triangles
        real = [p for v, p in coords.items() if v >= 0]
        if _super_coords(real) != tuple(coords[s] for s in _SUPER_IDS):
            return "bbox"
        edge_tri = self._edge_tri
        for (u, v), tid in edge_tri.items():
            other = edge_tri.get((v, u)) if u < v else None
            if other is None:
                continue  # seen from (v, u), or a super-triangle side
            a, b, c = triangles[tid]
            apex = sum(triangles[other]) - u - v  # its third vertex
            if incircle(coords[a], coords[b], coords[c],
                        coords[apex]) >= 0:
                return "tie"
        return None

    # ------------------------------------------------------------------
    # construction internals
    # ------------------------------------------------------------------
    def _init_super_triangle(self, pts: Sequence[Point]) -> None:
        for sid, corner in zip(_SUPER_IDS, _super_coords(pts)):
            self._coords[sid] = corner
        self._make_triangle(_SUPER_A, _SUPER_B, _SUPER_C)

    def _link(self, vid: int) -> List[int]:
        """The ccw polygon of ``vid``'s neighbours (super-triangle
        corners included): the triangle with directed edge ``(vid, u)``
        is ``(vid, u, w)``, and ``w`` follows ``u``."""
        tri = self._triangles[self._locate(self._coords[vid])]
        i = tri.index(vid)
        first, u = tri[(i + 1) % 3], tri[(i + 2) % 3]
        link = [first]
        while u != first:
            link.append(u)
            u = sum(self._triangles[self._edge_tri[(vid, u)]]) - vid - u
        return link

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
