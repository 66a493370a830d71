"""Planar primitives shared by the geometry package.

Points are plain ``(x, y)`` float tuples throughout the library — the
virtual space of GRED is a 2D Euclidean unit square and a lightweight
representation keeps the hot paths (greedy forwarding distance tests)
cheap.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

Point = Tuple[float, float]

#: Two distances closer than this count as a tie for the vectorized
#: nearest-first rankings (``np.hypot`` may differ from
#: :func:`euclidean`'s ``math.hypot`` in the last bit, ~1e-16): the
#: band only decides which rows take the exact scalar path.
TIE_BAND = 1e-9


def euclidean(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def squared_distance(a: Point, b: Point) -> float:
    """Squared Euclidean distance (cheaper; order-preserving)."""
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy


def centroid(points: Sequence[Point]) -> Point:
    """Arithmetic mean of a non-empty point set."""
    if not points:
        raise ValueError("centroid of an empty point set is undefined")
    sx = sum(p[0] for p in points)
    sy = sum(p[1] for p in points)
    n = len(points)
    return (sx / n, sy / n)


def bounding_box(points: Iterable[Point]) -> Tuple[Point, Point]:
    """Axis-aligned bounding box ``((min_x, min_y), (max_x, max_y))``."""
    pts = list(points)
    if not pts:
        raise ValueError("bounding box of an empty point set is undefined")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return (min(xs), min(ys)), (max(xs), max(ys))


def clamp_to_unit_square(point: Point) -> Point:
    """Clamp a point into ``[0, 1] x [0, 1]``."""
    return (min(1.0, max(0.0, point[0])), min(1.0, max(0.0, point[1])))


def deduplicate_points(points: Sequence[Point],
                       min_separation: float = 1e-9) -> List[Point]:
    """Perturb coincident points so all pairwise distances exceed
    ``min_separation``.

    Graph-symmetric switches ("twins" with identical distance rows) can
    receive identical virtual coordinates from the M-position embedding;
    the Delaunay construction requires distinct sites.  Coincident points
    are separated by a small deterministic spiral offset, preserving the
    embedding up to a negligible displacement.
    """
    result: List[Point] = []
    seen = {}
    for p in points:
        key = (round(p[0] / min_separation), round(p[1] / min_separation))
        bump = seen.get(key, 0)
        if bump == 0:
            result.append(p)
        else:
            # Deterministic spiral: the k-th duplicate moves by
            # ~k * min_separation at an irrational angle so perturbed
            # points never collide with each other.
            angle = 2.399963229728653 * bump  # golden angle
            radius = min_separation * 4 * bump
            result.append((p[0] + radius * math.cos(angle),
                           p[1] + radius * math.sin(angle)))
        seen[key] = bump + 1
    return result
