"""Unit tests for the convex hull."""

import numpy as np

from oracles.geometry import convex_hull, point_in_hull
from repro.geometry import orient2d


class TestConvexHull:
    def test_square(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
        hull = convex_hull(pts)
        assert set(hull) == {(0, 0), (1, 0), (1, 1), (0, 1)}

    def test_ccw_order(self):
        pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]
        hull = convex_hull(pts)
        n = len(hull)
        for i in range(n):
            assert orient2d(hull[i], hull[(i + 1) % n],
                            hull[(i + 2) % n]) > 0

    def test_collinear_interior_points_dropped(self):
        pts = [(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)]
        hull = convex_hull(pts)
        assert (1, 0) not in hull

    def test_degenerate_all_collinear(self):
        pts = [(0, 0), (1, 1), (2, 2), (3, 3)]
        hull = convex_hull(pts)
        assert len(hull) == 2 or set(hull) <= set(pts)

    def test_single_point(self):
        assert convex_hull([(0.5, 0.5)]) == [(0.5, 0.5)]

    def test_duplicates_collapsed(self):
        pts = [(0, 0), (0, 0), (1, 0), (0, 1)]
        assert len(convex_hull(pts)) == 3

    def test_random_points_inside_hull(self):
        rng = np.random.default_rng(4)
        pts = [tuple(p) for p in rng.uniform(0, 1, size=(50, 2))]
        hull = convex_hull(pts)
        for p in pts:
            assert point_in_hull(p, hull)


class TestPointInHull:
    def test_inside(self):
        hull = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert point_in_hull((0.5, 0.5), hull)

    def test_outside(self):
        hull = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert not point_in_hull((1.5, 0.5), hull)

    def test_on_boundary(self):
        hull = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert point_in_hull((1.0, 0.5), hull)

    def test_segment_hull(self):
        hull = [(0, 0), (1, 1)]
        assert point_in_hull((0.5, 0.5), hull)
        assert not point_in_hull((0.5, 0.6), hull)
        assert not point_in_hull((2, 2), hull)

    def test_empty_hull(self):
        assert not point_in_hull((0, 0), [])
