"""Computational-geometry substrate for the GRED virtual space.

* exact-ish predicates (float filter + rational fallback);
* randomized-incremental Delaunay triangulation with flips;
* Monte-Carlo Voronoi/CVT estimates used by the C-regulation algorithm;
* exact Voronoi cells by half-plane clipping, for rendering.
"""

from .primitives import (
    TIE_BAND,
    Point,
    bounding_box,
    centroid,
    clamp_to_unit_square,
    deduplicate_points,
    euclidean,
    squared_distance,
)
from .predicates import incircle, orient2d, point_in_triangle
from .delaunay import (
    DelaunayError,
    DelaunayTriangulation,
    DuplicatePointError,
)
from .voronoi import (
    assign_to_sites,
    cell_load_distribution,
    cvt_energy,
    estimate_cell_areas,
    estimate_cell_centroids,
    sample_unit_square,
    squared_distance_block,
)
from .voronoi_exact import clip_polygon_halfplane, voronoi_cell

__all__ = [
    "Point",
    "TIE_BAND",
    "euclidean",
    "squared_distance",
    "centroid",
    "bounding_box",
    "clamp_to_unit_square",
    "deduplicate_points",
    "orient2d",
    "incircle",
    "point_in_triangle",
    "DelaunayTriangulation",
    "DelaunayError",
    "DuplicatePointError",
    "squared_distance_block",
    "assign_to_sites",
    "sample_unit_square",
    "estimate_cell_centroids",
    "estimate_cell_areas",
    "cvt_energy",
    "cell_load_distribution",
    "voronoi_cell",
    "clip_polygon_halfplane",
]
