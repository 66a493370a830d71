"""Exact geometric predicates for the Delaunay construction.

Floating-point orientation and in-circle tests can misclassify nearly
degenerate configurations, which breaks the incremental flip algorithm
(it can loop forever or build an invalid triangulation).  Both predicates
here evaluate a fast float expression first and fall back to exact
arithmetic whenever the float result is within a conservative error
bound.  Binary floats are dyadic rationals, so the exact form brings
the coordinates to integers over their common power-of-two denominator
(:meth:`float.as_integer_ratio`) and takes the sign of the integer
determinant — the same rational a :class:`fractions.Fraction`
evaluation yields (the oracle in ``tests/test_predicates.py``), without
a gcd per operation.

This is the "design decision 1" called out in DESIGN.md.
"""

from __future__ import annotations

from typing import List, Tuple

Point = Tuple[float, float]

# Conservative relative rounding-error coefficients (cf. Shewchuk's robust
# predicates; these are loose upper bounds, enough to decide when the float
# filter is untrustworthy).
_ORIENT_ERR = 1e-12
_INCIRCLE_ERR = 1e-11


def orient2d(a: Point, b: Point, c: Point) -> int:
    """Orientation of the triple ``(a, b, c)``.

    Returns ``+1`` when the triple turns counter-clockwise, ``-1`` when
    clockwise, and ``0`` when exactly collinear.
    """
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    # Magnitude scale for the error filter.
    scale = (abs(b[0] - a[0]) + abs(b[1] - a[1])) * \
            (abs(c[0] - a[0]) + abs(c[1] - a[1]))
    if abs(det) > _ORIENT_ERR * scale:
        return 1 if det > 0 else -1
    return _orient2d_exact(a, b, c)


def _integers(*coords: float) -> List[int]:
    """``coords`` scaled to integers by their common denominator (the
    largest one: every denominator is a power of two)."""
    ratios = [c.as_integer_ratio() for c in coords]
    common = max(den for _, den in ratios)
    return [num * (common // den) for num, den in ratios]


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


def _orient2d_exact(a: Point, b: Point, c: Point) -> int:
    ax, ay, bx, by, cx, cy = _integers(*a, *b, *c)
    return _sign((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


def incircle(a: Point, b: Point, c: Point, d: Point) -> int:
    """In-circle test for the circumcircle of ccw triangle ``(a, b, c)``.

    Returns ``+1`` when ``d`` lies strictly inside the circumcircle,
    ``-1`` when strictly outside, and ``0`` when exactly on it.  The
    triangle ``(a, b, c)`` must be counter-clockwise; passing a clockwise
    triangle flips the sign.
    """
    adx = a[0] - d[0]
    ady = a[1] - d[1]
    bdx = b[0] - d[0]
    bdy = b[1] - d[1]
    cdx = c[0] - d[0]
    cdy = c[1] - d[1]

    ad_sq = adx * adx + ady * ady
    bd_sq = bdx * bdx + bdy * bdy
    cd_sq = cdx * cdx + cdy * cdy

    det = (adx * (bdy * cd_sq - cdy * bd_sq)
           - ady * (bdx * cd_sq - cdx * bd_sq)
           + ad_sq * (bdx * cdy - cdx * bdy))

    scale = ((abs(adx) + abs(ady))
             * (abs(bdx) + abs(bdy))
             * (abs(cdx) + abs(cdy))
             * (ad_sq + bd_sq + cd_sq + 1.0))
    if abs(det) > _INCIRCLE_ERR * scale:
        return 1 if det > 0 else -1
    return _incircle_exact(a, b, c, d)


def _incircle_exact(a: Point, b: Point, c: Point, d: Point) -> int:
    ax, ay, bx, by, cx, cy, dx, dy = _integers(*a, *b, *c, *d)
    ax, ay, bx, by, cx, cy = (ax - dx, ay - dy, bx - dx, by - dy,
                              cx - dx, cy - dy)
    a_sq = ax * ax + ay * ay
    b_sq = bx * bx + by * by
    c_sq = cx * cx + cy * cy
    return _sign(ax * (by * c_sq - cy * b_sq)
                 - ay * (bx * c_sq - cx * b_sq)
                 + a_sq * (bx * cy - cx * by))


def point_in_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    """True when ``p`` is inside or on the boundary of triangle
    ``(a, b, c)`` (any orientation)."""
    o1 = orient2d(a, b, p)
    o2 = orient2d(b, c, p)
    o3 = orient2d(c, a, p)
    has_neg = o1 < 0 or o2 < 0 or o3 < 0
    has_pos = o1 > 0 or o2 > 0 or o3 > 0
    return not (has_neg and has_pos)
