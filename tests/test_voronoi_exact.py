"""Tests for exact Voronoi cells, validating the Monte-Carlo estimators
the C-regulation algorithm uses."""

import numpy as np
import pytest

from oracles.geometry import (
    convex_hull,
    exact_cell_areas,
    exact_cell_centroids,
    exact_cvt_energy,
    point_in_hull,
    polygon_area,
    polygon_centroid,
)
from repro.geometry import (
    clip_polygon_halfplane,
    cvt_energy,
    estimate_cell_areas,
    estimate_cell_centroids,
    sample_unit_square,
    voronoi_cell,
)

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


class TestClipping:
    def test_no_clip_when_fully_inside(self):
        clipped = clip_polygon_halfplane(SQUARE, 1.0, 0.0, 2.0)
        assert polygon_area(clipped) == pytest.approx(1.0)

    def test_half_clip(self):
        clipped = clip_polygon_halfplane(SQUARE, 1.0, 0.0, 0.5)
        assert polygon_area(clipped) == pytest.approx(0.5)

    def test_full_clip_empty(self):
        clipped = clip_polygon_halfplane(SQUARE, 1.0, 0.0, -1.0)
        assert clipped == [] or polygon_area(clipped) == 0.0

    def test_diagonal_clip(self):
        clipped = clip_polygon_halfplane(SQUARE, 1.0, 1.0, 1.0)
        assert polygon_area(clipped) == pytest.approx(0.5)

    def test_empty_input(self):
        assert clip_polygon_halfplane([], 1.0, 0.0, 0.0) == []


class TestPolygonPrimitives:
    def test_unit_square_area(self):
        assert polygon_area(SQUARE) == 1.0

    def test_triangle_area(self):
        assert polygon_area([(0, 0), (1, 0), (0, 1)]) == 0.5

    def test_degenerate_area(self):
        assert polygon_area([(0, 0), (1, 1)]) == 0.0

    def test_square_centroid(self):
        assert polygon_centroid(SQUARE) == pytest.approx((0.5, 0.5))

    def test_triangle_centroid(self):
        c = polygon_centroid([(0, 0), (3, 0), (0, 3)])
        assert c == pytest.approx((1.0, 1.0))

    def test_empty_polygon_centroid_raises(self):
        with pytest.raises(ValueError):
            polygon_centroid([])


class TestVoronoiCells:
    def test_single_site_owns_square(self):
        cell = voronoi_cell([(0.3, 0.8)], 0)
        assert polygon_area(cell) == pytest.approx(1.0)

    def test_two_sites_split(self):
        sites = [(0.25, 0.5), (0.75, 0.5)]
        assert polygon_area(voronoi_cell(sites, 0)) == pytest.approx(0.5)
        assert polygon_area(voronoi_cell(sites, 1)) == pytest.approx(0.5)

    def test_areas_partition_square(self):
        rng = np.random.default_rng(1)
        sites = [tuple(p) for p in rng.uniform(0, 1, size=(9, 2))]
        areas = exact_cell_areas(sites)
        assert sum(areas) == pytest.approx(1.0)
        assert all(a > 0 for a in areas)

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            voronoi_cell([(0.5, 0.5)], 3)

    def test_site_inside_its_cell(self):
        rng = np.random.default_rng(2)
        sites = [tuple(p) for p in rng.uniform(0.05, 0.95, size=(7, 2))]
        for i, site in enumerate(sites):
            cell = voronoi_cell(sites, i)
            # Normalize orientation for the hull test.
            assert point_in_hull(site, convex_hull(cell))


class TestEstimatorValidation:
    """The Monte-Carlo estimators must converge to the exact values."""

    def test_areas_match(self, rng):
        sites = [tuple(p) for p in
                 np.random.default_rng(3).uniform(0, 1, size=(6, 2))]
        exact = exact_cell_areas(sites)
        samples = sample_unit_square(200_000, rng)
        estimated = estimate_cell_areas(sites, samples)
        assert np.allclose(estimated, exact, atol=0.01)

    def test_centroids_match(self, rng):
        sites = [tuple(p) for p in
                 np.random.default_rng(4).uniform(0, 1, size=(5, 2))]
        exact = exact_cell_centroids(sites)
        samples = sample_unit_square(200_000, rng)
        estimated, _ = estimate_cell_centroids(sites, samples)
        for e, m in zip(exact, estimated):
            assert abs(e[0] - m[0]) < 0.01
            assert abs(e[1] - m[1]) < 0.01

    def test_energy_matches(self, rng):
        sites = [tuple(p) for p in
                 np.random.default_rng(5).uniform(0, 1, size=(6, 2))]
        exact = exact_cvt_energy(sites)
        samples = sample_unit_square(200_000, rng)
        estimated = cvt_energy(sites, samples)
        assert estimated == pytest.approx(exact, rel=0.05)

    def test_energy_of_single_center_site(self):
        # Closed form: E[|r - center|^2] = 1/6 over the unit square.
        assert exact_cvt_energy([(0.5, 0.5)]) == pytest.approx(1 / 6)

    def test_energy_of_corner_site(self):
        # E[|r|^2] over the unit square = 2/3.
        assert exact_cvt_energy([(0.0, 0.0)]) == pytest.approx(2 / 3)


class TestCvtOptimality:
    def test_c_regulation_reduces_exact_energy(self):
        from repro.embedding import c_regulation

        rng = np.random.default_rng(6)
        sites = [tuple(p) for p in rng.uniform(0.4, 0.6, size=(8, 2))]
        before = exact_cvt_energy(sites)
        result = c_regulation(sites, iterations=40,
                              rng=np.random.default_rng(7))
        after = exact_cvt_energy(result.sites)
        assert after < before / 2

    def test_cvt_fixpoint_sites_near_centroids(self):
        """After many iterations each site sits near its exact cell
        centroid (the CVT definition)."""
        from repro.embedding import c_regulation

        rng = np.random.default_rng(8)
        sites = [tuple(p) for p in rng.uniform(0, 1, size=(6, 2))]
        result = c_regulation(sites, iterations=150,
                              samples_per_iteration=4000,
                              rng=np.random.default_rng(9))
        centroids = exact_cell_centroids(result.sites)
        for site, centroid in zip(result.sites, centroids):
            assert abs(site[0] - centroid[0]) < 0.03
            assert abs(site[1] - centroid[1]) < 0.03
