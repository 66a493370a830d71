"""Geometry oracles: convex hull, brute-force nearest site, exact
Voronoi cell areas, centroids and CVT energy.

The DT tests check that the union of the real Delaunay triangles covers
the convex hull of the sites, that every hull edge is a DT edge, and
that greedy forwarding ends at the brute-force nearest site; the CVT
tests check the Monte-Carlo estimators against the exact cells.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.geometry import Point, orient2d, squared_distance, voronoi_cell


def convex_hull(points: Sequence[Point]) -> List[Point]:
    """Convex hull vertices in counter-clockwise order.

    Collinear points on the hull boundary are dropped.  Degenerate inputs
    (all points equal or collinear) return the extreme points only.
    """
    pts = sorted(set((float(p[0]), float(p[1])) for p in points))
    if len(pts) <= 2:
        return pts

    def half(points_iter):
        chain: List[Point] = []
        for p in points_iter:
            while (len(chain) >= 2
                   and orient2d(chain[-2], chain[-1], p) <= 0):
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def point_in_hull(point: Point, hull: Sequence[Point]) -> bool:
    """True when ``point`` lies inside or on the convex polygon ``hull``
    (ccw order)."""
    if not hull:
        return False
    if len(hull) == 1:
        return point == hull[0]
    if len(hull) == 2:
        return (orient2d(hull[0], hull[1], point) == 0
                and min(hull[0][0], hull[1][0]) <= point[0]
                <= max(hull[0][0], hull[1][0])
                and min(hull[0][1], hull[1][1]) <= point[1]
                <= max(hull[0][1], hull[1][1]))
    n = len(hull)
    for i in range(n):
        if orient2d(hull[i], hull[(i + 1) % n], point) < 0:
            return False
    return True


def nearest_point_index(points: Sequence[Point], query: Point) -> int:
    """Index of the point nearest to ``query``.

    Ties are broken by lower x coordinate, then lower y coordinate, then
    lower index — the same deterministic rule the paper uses to break ties
    for data mapped onto a Voronoi edge (Section V-A).
    """
    if not points:
        raise ValueError("nearest point of an empty point set is undefined")
    best_idx = 0
    best_key = (squared_distance(points[0], query),
                points[0][0], points[0][1])
    for i in range(1, len(points)):
        key = (squared_distance(points[i], query),
               points[i][0], points[i][1])
        if key < best_key:
            best_key = key
            best_idx = i
    return best_idx


def polygon_area(polygon: Sequence[Point]) -> float:
    """Absolute area of a simple polygon (shoelace formula)."""
    n = len(polygon)
    if n < 3:
        return 0.0
    twice = 0.0
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        twice += x1 * y2 - x2 * y1
    return abs(twice) / 2.0


def polygon_centroid(polygon: Sequence[Point]) -> Point:
    """Centroid of a simple polygon (area-weighted)."""
    n = len(polygon)
    if n == 0:
        raise ValueError("centroid of an empty polygon is undefined")
    if n < 3:
        sx = sum(p[0] for p in polygon)
        sy = sum(p[1] for p in polygon)
        return (sx / n, sy / n)
    twice = 0.0
    cx = 0.0
    cy = 0.0
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        cross = x1 * y2 - x2 * y1
        twice += cross
        cx += (x1 + x2) * cross
        cy += (y1 + y2) * cross
    if twice == 0.0:
        sx = sum(p[0] for p in polygon)
        sy = sum(p[1] for p in polygon)
        return (sx / n, sy / n)
    return (cx / (3.0 * twice), cy / (3.0 * twice))


def exact_cell_areas(sites: Sequence[Point]) -> List[float]:
    """Exact area of every site's cell (sums to 1 when all sites are in
    the unit square)."""
    return [polygon_area(voronoi_cell(sites, i))
            for i in range(len(sites))]


def exact_cell_centroids(sites: Sequence[Point]) -> List[Point]:
    """Exact centroid of every site's cell (a site with an empty cell —
    only possible for coincident sites — keeps its own position)."""
    result: List[Point] = []
    for i in range(len(sites)):
        cell = voronoi_cell(sites, i)
        if polygon_area(cell) == 0.0:
            result.append(tuple(sites[i]))
        else:
            result.append(polygon_centroid(cell))
    return result


def exact_cvt_energy(sites: Sequence[Point]) -> float:
    """Exact CVT energy for uniform density over the unit square.

    Integrates ``|r - q_i|^2`` over each cell by fan-triangulating it
    and using the exact second-moment formula for a triangle with one
    vertex at the site.
    """
    total = 0.0
    for i, site in enumerate(sites):
        cell = voronoi_cell(sites, i)
        if len(cell) < 3:
            continue
        for k in range(1, len(cell) - 1):
            total += _triangle_second_moment(site, cell[0], cell[k],
                                             cell[k + 1])
    return total


def _triangle_second_moment(q: Point, a: Point, b: Point,
                            c: Point) -> float:
    """Integral of ``|r - q|^2`` over triangle (a, b, c).

    With u = a - q, v = b - q, w = c - q and A the triangle area:
    integral = A/6 * (|u|^2 + |v|^2 + |w|^2 + u.v + v.w + w.u).
    """
    ux, uy = a[0] - q[0], a[1] - q[1]
    vx, vy = b[0] - q[0], b[1] - q[1]
    wx, wy = c[0] - q[0], c[1] - q[1]
    area = abs((b[0] - a[0]) * (c[1] - a[1])
               - (b[1] - a[1]) * (c[0] - a[0])) / 2.0
    sq = (ux * ux + uy * uy + vx * vx + vy * vy + wx * wx + wy * wy)
    dots = (ux * vx + uy * vy + vx * wx + vy * wy + wx * ux + wy * uy)
    return area / 6.0 * (sq + dots)
