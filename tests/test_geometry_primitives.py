"""Unit tests for repro.geometry.primitives."""

import math

import pytest

from repro.geometry import (
    bounding_box,
    centroid,
    clamp_to_unit_square,
    deduplicate_points,
    euclidean,
    squared_distance,
)
from oracles.geometry import nearest_point_index


class TestDistances:
    def test_euclidean_345(self):
        assert euclidean((0, 0), (3, 4)) == 5.0

    def test_euclidean_symmetric(self):
        assert euclidean((1, 2), (4, 6)) == euclidean((4, 6), (1, 2))

    def test_squared_distance_consistent(self):
        a, b = (0.2, 0.7), (0.9, 0.1)
        assert squared_distance(a, b) == pytest.approx(
            euclidean(a, b) ** 2)

    def test_zero_distance(self):
        assert euclidean((1, 1), (1, 1)) == 0.0


class TestCentroidBBox:
    def test_centroid(self):
        assert centroid([(0, 0), (2, 0), (0, 2), (2, 2)]) == (1.0, 1.0)

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])

    def test_bounding_box(self):
        (lo, hi) = bounding_box([(0.5, 0.2), (0.1, 0.9), (0.7, 0.4)])
        assert lo == (0.1, 0.2)
        assert hi == (0.7, 0.9)

    def test_bounding_box_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_box([])


class TestNearestPoint:
    def test_basic(self):
        pts = [(0, 0), (1, 0), (0, 1)]
        assert nearest_point_index(pts, (0.9, 0.1)) == 1

    def test_tie_broken_by_x_then_y(self):
        # Both points equidistant from the query; lower x wins.
        pts = [(1.0, 0.0), (0.0, 0.0)]
        assert nearest_point_index(pts, (0.5, 0.0)) == 1
        # Same x; lower y wins.
        pts = [(0.0, 1.0), (0.0, 0.0)]
        assert nearest_point_index(pts, (0.0, 0.5)) == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            nearest_point_index([], (0, 0))


class TestClamp:
    def test_inside_unchanged(self):
        assert clamp_to_unit_square((0.3, 0.8)) == (0.3, 0.8)

    def test_clamps_both_axes(self):
        assert clamp_to_unit_square((-1.0, 2.0)) == (0.0, 1.0)


class TestDeduplicate:
    def test_distinct_points_unchanged(self):
        pts = [(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)]
        assert deduplicate_points(pts) == pts

    def test_duplicates_separated(self):
        pts = [(0.5, 0.5), (0.5, 0.5), (0.5, 0.5)]
        out = deduplicate_points(pts)
        assert len(out) == 3
        assert len({(round(x, 15), round(y, 15)) for x, y in out}) == 3

    def test_separation_is_small(self):
        pts = [(0.5, 0.5)] * 4
        out = deduplicate_points(pts, min_separation=1e-9)
        for x, y in out:
            assert math.hypot(x - 0.5, y - 0.5) < 1e-6

    def test_first_occurrence_untouched(self):
        pts = [(0.25, 0.75), (0.25, 0.75)]
        out = deduplicate_points(pts)
        assert out[0] == (0.25, 0.75)
        assert out[1] != (0.25, 0.75)

    def test_pairwise_distinct_after_dedup(self):
        pts = [(0.5, 0.5)] * 10 + [(0.2, 0.2)] * 5
        out = deduplicate_points(pts)
        assert len(set(out)) == len(out)
