"""Exact Voronoi cells clipped to the unit square.

The Monte-Carlo estimates in :mod:`repro.geometry.voronoi` are what the
paper's C-regulation uses; this module computes the cells *exactly* by
half-plane clipping (Sutherland–Hodgman against the perpendicular
bisectors), which ``gred render`` draws (:mod:`repro.viz.svg`).

For each site ``q_i`` the cell is::

    R_i = unit square  ∩  { r : |r - q_i| <= |r - q_j|  for all j }

i.e. the square clipped by the bisector half-plane of every other site.
O(n) half-planes per cell, O(n^2) total — fine at control-plane scale.
"""

from __future__ import annotations

from typing import List, Sequence

from .primitives import Point

_UNIT_SQUARE: List[Point] = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0),
                             (0.0, 1.0)]


def clip_polygon_halfplane(polygon: Sequence[Point], a: float, b: float,
                           c: float) -> List[Point]:
    """Clip a convex polygon to the half-plane ``a*x + b*y <= c``.

    Sutherland–Hodgman for one edge; returns the (possibly empty)
    clipped polygon in order.
    """
    result: List[Point] = []
    n = len(polygon)
    if n == 0:
        return result
    for i in range(n):
        current = polygon[i]
        nxt = polygon[(i + 1) % n]
        current_in = a * current[0] + b * current[1] <= c + 1e-15
        next_in = a * nxt[0] + b * nxt[1] <= c + 1e-15
        if current_in:
            result.append(current)
        if current_in != next_in:
            # Intersection of segment (current, nxt) with the line.
            dx = nxt[0] - current[0]
            dy = nxt[1] - current[1]
            denom = a * dx + b * dy
            if denom != 0.0:
                t = (c - a * current[0] - b * current[1]) / denom
                t = min(1.0, max(0.0, t))
                result.append((current[0] + t * dx,
                               current[1] + t * dy))
    return result


def voronoi_cell(sites: Sequence[Point], index: int) -> List[Point]:
    """The exact Voronoi cell of ``sites[index]`` within the unit
    square, as a convex polygon (ccw or cw depending on clipping)."""
    if not 0 <= index < len(sites):
        raise IndexError(f"site index {index} out of range")
    qx, qy = sites[index]
    cell: List[Point] = list(_UNIT_SQUARE)
    for j, (px, py) in enumerate(sites):
        if j == index:
            continue
        # Half-plane closer to q than to p:
        #   (p - q) . r  <=  (|p|^2 - |q|^2) / 2
        a = px - qx
        b = py - qy
        c = (px * px + py * py - qx * qx - qy * qy) / 2.0
        cell = clip_polygon_halfplane(cell, a, b, c)
        if not cell:
            break
    return cell
