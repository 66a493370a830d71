"""Randomized-incremental Delaunay triangulation (paper Section IV-C).

The control plane of GRED builds a Delaunay triangulation (DT) of the
switch positions in the virtual space; greedy forwarding on a DT is
guaranteed to reach the node closest to any destination point.  The
construction follows the paper's description: points are inserted in
random order into a triangulation that starts from a bounding ("super")
triangle; each insertion splits the containing triangle and restores
the Delaunay property with edge *flips*; edges incident to the super
triangle are not reported.  A deletion drops the vertex's star and
fills the hole with Delaunay ears (Devillers, "On deletion in Delaunay
triangulations", 1999).

The triangulation is a function of its sites: one per point set,
whatever the history of insertions and deletions.  Two rules make it so.

* The super vertices (ids -1, -2, -3) have no coordinates.  Each is a
  point at infinity, ``S(s) = s²·direction + s·tilt`` as ``s → ∞``, and
  a predicate involving one takes the sign its exact determinant has for
  all large ``s``: the leading nonzero coefficient of a polynomial in
  ``s``, never 0 for distinct sites.  The common cases have closed forms
  (cf. de Berg et al., *Computational Geometry*, §9.3): a site pair's
  orientation against ``S`` follows the direction, then the tilt; the
  circle through a hull edge and ``S`` is the open half-plane beyond the
  edge plus the open edge itself; ``S`` lies outside every real circle.
  So the result is the exact DT of the sites, convex hull included, at
  any extent of the data.
* A real in-circle tie (four cocircular sites) is broken by Simulation
  of Simplicity (Edelsbrunner & Mücke, 1990) on the lifting map: site
  ``p`` is lifted to ``|p|² + ε^rank(p)``, ranked in lexicographic order
  of the coordinates, so a live triangulation and a rebuild, whose
  vertex ids differ, break a tie alike.

Every in-circle test inside the triangulation is therefore strict, and
the Delaunay triangulation of points in this general position is
unique.  Tests among real sites use the float-filtered exact predicates
of :mod:`repro.geometry.predicates`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from .predicates import _integers, _sign, incircle, orient2d
from .primitives import Point

_SUPER_A = -1
_SUPER_B = -2
_SUPER_C = -3
#: The super vertices in ccw order: each maps to the next.
_SUCCESSOR = {_SUPER_A: _SUPER_B, _SUPER_B: _SUPER_C, _SUPER_C: _SUPER_A}
#: ``S(s) = s²·_DIRECTION + s·_TILT``.  The directions are pairwise
#: non-parallel and ccw, and no tilt is parallel to its direction; with
#: these vectors no predicate over distinct sites vanishes identically
#: in ``s``.
_DIRECTION = {_SUPER_A: (0, 1), _SUPER_B: (-1, -1), _SUPER_C: (1, -1)}
_TILT = {_SUPER_A: (1, 0), _SUPER_B: (1, -1), _SUPER_C: (1, 1)}


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
        Initial sites; vertex ``i`` is ``points[i]``.  Sites must be
        pairwise distinct (use
        :func:`repro.geometry.primitives.deduplicate_points` first when
        the input may contain coincident positions).
    rng:
        Generator of the random insertion order, which sets only the
        expected run time; defaults to a fixed seed.  The triangulation
        does not depend on it.

    The triangulation is *live*: :meth:`insert_point` and
    :meth:`remove_point` support the network-dynamics cases of a switch
    joining and leaving (paper Section VI).  Super vertices at infinity
    and a lexicographic tie rule (see the module docstring) make it
    canonical: after any sequence of insertions and deletions it has
    exactly the triangles of a fresh build over the same sites, in any
    input order.
    """

    def __init__(self, points: Sequence[Point] = (),
                 rng: np.random.Generator = None) -> None:
        if rng is None:
            rng = np.random.default_rng(0)
        pts = [(float(p[0]), float(p[1])) for p in points]
        #: Coordinates of the real vertices; super vertices have none.
        self._coords: Dict[int, Point] = {}
        self._triangles: Dict[int, Tuple[int, int, int]] = {}
        self._edge_tri: Dict[Tuple[int, int], int] = {}
        self._next_tri_id = 0
        self._last_tri_id = None  # walk start hint
        #: Ids are never reused: a removed vertex's id stays retired.
        self._next_vid = len(pts)
        self._make_triangle(_SUPER_A, _SUPER_B, _SUPER_C)
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
        polygon, super vertices included — is filled by Delaunay ears: a
        convex corner whose circumcircle holds no other polygon vertex.
        Each new diagonal is then locally Delaunay against the triangle
        later cut on its other side, and each polygon edge against the
        untouched triangle outside, so the result is the Delaunay
        triangulation of the remaining sites.  The id is retired:
        :meth:`insert_point` never hands it out again.

        Raises
        ------
        DelaunayError
            If ``vid`` is not a real vertex (unknown or super).
        """
        if vid not in self._coords:
            raise DelaunayError(f"unknown vertex {vid}")
        link = self._link(vid)
        for tid in [self._edge_tri[(vid, u)] for u in link]:
            self._delete_triangle(tid)
        del self._coords[vid]
        while len(link) > 3:
            for i in range(len(link)):
                a, b, c = link[i - 1], link[i], link[(i + 1) % len(link)]
                if self._orient(a, b, c) > 0 and all(
                        self._incircle(a, b, c, w) < 0
                        for w in link if w != a and w != b and w != c):
                    self._make_triangle(a, b, c)
                    del link[i]
                    break
            else:  # pragma: no cover - a deletion hole always has one
                raise DelaunayError(f"no Delaunay ear left removing {vid}")
        self._make_triangle(*link)

    def num_vertices(self) -> int:
        """Number of real (non-super) vertices."""
        return len(self._coords)

    def vertex_position(self, vid: int) -> Point:
        """Coordinates of vertex ``vid``."""
        if vid not in self._coords:
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

    def neighbors(self, vid: int, near: Optional[int] = None) -> Set[int]:
        """Real DT neighbors of a real vertex.  If ``near`` is one of
        them, the walk starts at their edge instead of locating
        ``vid``."""
        if vid not in self._coords:
            raise DelaunayError(f"unknown vertex {vid}")
        return {u for u in self._link(vid, near) if u >= 0}

    def neighbor_map(self) -> Dict[int, Set[int]]:
        """Adjacency map over real vertices (every vertex present).

        Read off the directed-edge index: every real edge lies inside
        the super triangle, so it appears there in both directions.
        """
        result: Dict[int, Set[int]] = {v: set() for v in self._coords}
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

    # ------------------------------------------------------------------
    # predicates over vertex ids
    # ------------------------------------------------------------------
    def _orient(self, a: int, b: int, c: int) -> int:
        """Orientation of vertices ``(a, b, c)``, super ones included;
        never 0 when one is super."""
        coords = self._coords
        if a >= 0 and b >= 0 and c >= 0:
            return orient2d(coords[a], coords[b], coords[c])
        if (a < 0) + (b < 0) + (c < 0) == 1:
            while c >= 0:
                a, b, c = b, c, a
            pa, pb = coords[a], coords[b]
            return (_cross_sign(pa, pb, _DIRECTION[c])
                    or _cross_sign(pa, pb, _TILT[c]))
        while a < 0 and (b >= 0 or c >= 0):
            a, b, c = b, c, a  # the one real vertex first
        # Two super vertices dominate: ccw when they follow each other.
        return 1 if _SUCCESSOR[b] == c else -1

    def _incircle(self, a: int, b: int, c: int, d: int) -> int:
        """In-circle test of vertex ``d`` against the ccw triangle
        ``(a, b, c)``, super vertices included; never 0."""
        coords = self._coords
        if d >= 0:
            if a >= 0 and b >= 0 and c >= 0:
                pa, pb, pc, pd = coords[a], coords[b], coords[c], coords[d]
                return incircle(pa, pb, pc, pd) or _tie(pa, pb, pc, pd)
            if (a < 0) + (b < 0) + (c < 0) == 1:
                while c >= 0:
                    a, b, c = b, c, a
                return _ghost(coords[a], coords[b], coords[d])
        elif a >= 0 and b >= 0 and c >= 0:
            return -1  # a point at infinity is outside every real circle
        return self._incircle_at_infinity((a, b, c, d))

    def _incircle_at_infinity(self, ids: Tuple[int, int, int, int]) -> int:
        """:meth:`_incircle` with two or more super vertices: the sign of
        the leading coefficient of the determinant, a polynomial in
        ``s`` over the sites' common power-of-two denominator."""
        ratios = [c.as_integer_ratio() for v in ids if v >= 0
                  for c in self._coords[v]]
        den = max(q for _, q in ratios)
        nums = iter([n * (den // q) for n, q in ratios])
        pts = []
        for v in ids:
            if v >= 0:
                pts.append(([next(nums)], [next(nums)]))
            else:
                (dx, dy), (tx, ty) = _DIRECTION[v], _TILT[v]
                pts.append(([0, den * tx, den * dx], [0, den * ty, den * dy]))
        qx, qy = pts[3]
        a, b, c = [(_padd(x, qx, -1), _padd(y, qy, -1)) for x, y in pts[:3]]
        det = _padd(_padd(_pmul(_norm(a), _cross(b, c)),
                          _pmul(_norm(b), _cross(a, c)), -1),
                    _pmul(_norm(c), _cross(a, b)))
        return next((_sign(x) for x in reversed(det) if x), 0)

    # ------------------------------------------------------------------
    # construction internals
    # ------------------------------------------------------------------
    def _link(self, vid: int, near: Optional[int] = None) -> List[int]:
        """The ccw polygon of ``vid``'s neighbours (super vertices
        included): the triangle with directed edge ``(vid, u)`` is
        ``(vid, u, w)``, and ``w`` follows ``u``."""
        tid = self._edge_tri.get((vid, near))
        tri = self._triangles[self._locate(vid) if tid is None else tid]
        i = tri.index(vid)
        first, u = tri[(i + 1) % 3], tri[(i + 2) % 3]
        link = [first]
        while u != first:
            link.append(u)
            u = sum(self._triangles[self._edge_tri[(vid, u)]]) - vid - u
        return link

    def _make_triangle(self, a: int, b: int, c: int) -> int:
        """Register the ccw triangle (a, b, c) and index its directed
        edges."""
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

    def _locate(self, vid: int) -> int:
        """Walk to a triangle whose closure contains vertex ``vid``'s
        point.  Every point lies inside the super triangle."""
        if self._last_tri_id in self._triangles:
            tid = self._last_tri_id
        else:
            tid = next(iter(self._triangles))
        visited = 0
        limit = 4 * len(self._triangles) + 16
        while True:
            a, b, c = self._triangles[tid]
            for u, v in ((a, b), (b, c), (c, a)):
                if self._orient(u, v, vid) < 0:
                    tid = self._edge_tri[(v, u)]
                    break
            else:
                return tid
            visited += 1
            if visited > limit:
                raise DelaunayError("point location failed to terminate")

    def _insert(self, vid: int, point: Point) -> None:
        self._coords[vid] = point
        tid = self._locate(vid)
        a, b, c = self._triangles[tid]
        for existing in (a, b, c):
            if existing >= 0 and self._coords[existing] == point:
                del self._coords[vid]
                raise DuplicatePointError(
                    f"point {point} coincides with vertex {existing}"
                )
        for u, v in ((a, b), (b, c), (c, a)):
            if self._orient(u, v, vid) == 0:
                self._split_edge(tid, vid, (u, v))
                return
        self._split_triangle(tid, vid, (a, b, c))

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
        """Split the ccw triangle ``tid`` = ``(u, v, apex)``, and the
        one across ``(u, v)`` if any, at ``vid`` on that edge."""
        u, v = edge
        # Triangle on the other side of (u, v), if any.
        other_tid = self._edge_tri.get((v, u))
        apex = sum(self._triangles[tid]) - u - v
        self._delete_triangle(tid)
        self._make_triangle(vid, apex, u)
        self._make_triangle(vid, v, apex)
        outer = [(u, apex), (apex, v)]
        if other_tid is not None:
            other_apex = sum(self._triangles[other_tid]) - u - v
            self._delete_triangle(other_tid)
            self._make_triangle(vid, other_apex, v)
            self._make_triangle(vid, u, other_apex)
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
                continue  # a side of the super triangle
            if vid not in self._triangles[inner]:
                # The triangulation changed under us; find the side that
                # still has vid.
                if vid in self._triangles[outer]:
                    u, v = v, u
                    inner, outer = outer, inner
                else:
                    continue
            apex = sum(self._triangles[outer]) - u - v
            # Delaunay test: apex inside the circumcircle of the ccw
            # triangle (vid, u, v)?
            if self._incircle(vid, u, v, apex) > 0:
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
        coords = self._coords
        for tri in self.triangles():
            pts = tuple(coords[v] for v in tri)
            if orient2d(*pts) < 0:
                pts = (pts[0], pts[2], pts[1])
            for v, p in coords.items():
                if v not in tri and incircle(*pts, p) > 0:
                    return False
        return True


def _cross_sign(a: Point, b: Point, d: Tuple[int, int]) -> int:
    """Exact sign of ``(b - a) × d`` for an integer vector ``d``."""
    ax, ay, bx, by = _integers(*a, *b)
    return _sign((bx - ax) * d[1] - (by - ay) * d[0])


def _ghost(a: Point, b: Point, w: Point) -> int:
    """``incircle(a, b, S, w)`` for a super vertex ``S`` left of ``a → b``:
    that circle has become the open half-plane left of the line ``ab``
    plus the open segment ``ab``."""
    side = orient2d(a, b, w)
    if side:
        return side
    i = 0 if a[0] != b[0] else 1
    return 1 if min(a[i], b[i]) < w[i] < max(a[i], b[i]) else -1


def _tie(a: Point, b: Point, c: Point, d: Point) -> int:
    """The sign of a zero ``incircle(a, b, c, d)`` once each point ``p``
    is lifted to ``|p|² + ε^rank(p)``.  The determinant is linear in
    the perturbations, so the lexicographically smallest point whose
    cofactor (the orientation of the other three) is nonzero decides."""
    for _, sign, rest in sorted(((a, 1, (b, c, d)), (b, -1, (a, c, d)),
                                 (c, 1, (a, b, d)), (d, -1, (a, b, c)))):
        side = orient2d(*rest)
        if side:
            return sign * side
    return 0  # pragma: no cover - (a, b, c) is a triangle


# Polynomials in ``s``: integer coefficient lists, lowest degree first.
def _padd(p: List[int], q: List[int], k: int = 1) -> List[int]:
    """``p + k·q``."""
    out = p + [0] * (len(q) - len(p))
    for i, x in enumerate(q):
        out[i] += k * x
    return out


def _pmul(p: List[int], q: List[int]) -> List[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _cross(u, w) -> List[int]:
    return _padd(_pmul(u[0], w[1]), _pmul(u[1], w[0]), -1)


def _norm(u) -> List[int]:
    return _padd(_pmul(u[0], u[0]), _pmul(u[1], u[1]))
