"""Unit tests for repro.geometry.voronoi (Monte-Carlo CVT estimates)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.controlplane import routing_index
from repro.geometry import (
    assign_to_sites,
    cell_load_distribution,
    cvt_energy,
    estimate_cell_areas,
    estimate_cell_centroids,
    sample_unit_square,
    squared_distance_block,
    voronoi,
)


def einsum_distances(points, sites):
    """The ``(k, n, 2)`` difference tensor and ``einsum`` the kernel
    replaced: the oracle it must equal bit for bit."""
    diff = points[:, None, :] - sites[None, :, :]
    return np.einsum("kni,kni->kn", diff, diff)


SITES = [(0.25, 0.5), (0.75, 0.5)]
SAMPLES = np.array([[0.1, 0.5], [0.9, 0.5]])


class TestSampling:
    def test_samples_in_unit_square(self, rng):
        s = sample_unit_square(500, rng)
        assert s.shape == (500, 2)
        assert s.min() >= 0.0
        assert s.max() <= 1.0

    def test_invalid_count_raises(self, rng):
        with pytest.raises(ValueError):
            sample_unit_square(0, rng)


class TestAssignment:
    def test_single_site_gets_everything(self, rng):
        samples = sample_unit_square(100, rng)
        owners = assign_to_sites(samples, [(0.5, 0.5)])
        assert np.all(owners == 0)

    def test_halfplane_split(self):
        samples = np.array([[0.1, 0.5], [0.9, 0.5], [0.2, 0.2],
                            [0.8, 0.9]])
        owners = assign_to_sites(samples, [(0.0, 0.5), (1.0, 0.5)])
        assert list(owners) == [0, 1, 0, 1]

    @pytest.mark.parametrize("estimate, sites, samples", [
        (assign_to_sites, [(1, 2, 3)], SAMPLES),
        (assign_to_sites, [], SAMPLES),
        (assign_to_sites, SITES, np.array([0.1, 0.5])),
        (assign_to_sites, SITES, np.zeros((4, 3))),
        (cvt_energy, [], SAMPLES),
        (cvt_energy, [(1, 2, 3)], SAMPLES),
        (cvt_energy, SITES, np.empty((0, 2))),
        (estimate_cell_areas, SITES, np.empty((0, 2))),
        (estimate_cell_centroids, [], SAMPLES),
        (cell_load_distribution, SITES, np.array([0.1, 0.5])),
    ], ids=["assign-3d-sites", "assign-no-sites", "assign-1d-samples",
            "assign-3d-samples", "energy-no-sites", "energy-3d-sites",
            "energy-no-samples", "areas-no-samples", "centroids-no-sites",
            "load-1d-samples"])
    def test_bad_sites_shape_raises(self, estimate, sites, samples):
        with pytest.raises(ValueError):
            estimate(sites, samples)

    def test_chunked_assignment_matches_direct(self, rng):
        """The chunked path must agree with a brute-force computation."""
        samples = sample_unit_square(1000, rng)
        sites = [tuple(p) for p in rng.uniform(0, 1, size=(7, 2))]
        owners = assign_to_sites(samples, sites)
        site_arr = np.array(sites)
        for k in range(0, 1000, 97):
            d = ((samples[k] - site_arr) ** 2).sum(axis=1)
            assert owners[k] == int(np.argmin(d))


class TestCentroids:
    def test_centroid_of_single_cell_near_center(self, rng):
        samples = sample_unit_square(20000, rng)
        centroids, counts = estimate_cell_centroids([(0.3, 0.3)], samples)
        assert counts[0] == 20000
        assert centroids[0] == pytest.approx((0.5, 0.5), abs=0.02)

    def test_empty_cell_keeps_site(self):
        # All samples on the left; the right site's cell is empty.
        samples = np.array([[0.01, 0.5], [0.02, 0.5]])
        sites = [(0.0, 0.5), (1.0, 0.5)]
        centroids, counts = estimate_cell_centroids(sites, samples)
        assert counts[1] == 0
        assert tuple(centroids[1]) == (1.0, 0.5)


class TestAreasEnergy:
    def test_areas_sum_to_one(self, rng):
        samples = sample_unit_square(5000, rng)
        sites = [tuple(p) for p in rng.uniform(0, 1, size=(6, 2))]
        areas = estimate_cell_areas(sites, samples)
        assert areas.sum() == pytest.approx(1.0)

    def test_symmetric_sites_symmetric_areas(self, rng):
        samples = sample_unit_square(40000, rng)
        areas = estimate_cell_areas([(0.25, 0.5), (0.75, 0.5)], samples)
        assert areas[0] == pytest.approx(0.5, abs=0.02)

    def test_energy_lower_for_better_configuration(self, rng):
        samples = sample_unit_square(20000, rng)
        clustered = [(0.5, 0.5), (0.51, 0.5), (0.5, 0.51), (0.51, 0.51)]
        spread = [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)]
        assert cvt_energy(spread, samples) < cvt_energy(clustered, samples)

    def test_energy_of_center_site(self, rng):
        # E[|r - (0.5, 0.5)|^2] over the unit square is 1/6.
        samples = sample_unit_square(100000, rng)
        assert cvt_energy([(0.5, 0.5)], samples) == pytest.approx(
            1 / 6, abs=0.01)


class TestCellLoad:
    def test_counts_match_assignment(self, rng):
        positions = sample_unit_square(1000, rng)
        sites = [tuple(p) for p in rng.uniform(0, 1, size=(5, 2))]
        dist = cell_load_distribution(sites, positions)
        assert sum(dist.values()) == 1000
        assert set(dist) == set(range(5))


class TestKernel:
    """One nearest-site kernel: the in-place ``dx² + dy²`` block equals
    the ``einsum`` form it replaced, bit for bit, and so do the
    chunked estimators built on it."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), k=st.integers(0, 300), n=st.integers(1, 40))
    def test_kernel_is_the_einsum_bit_for_bit(self, data, k, n):
        coords = st.floats(-3.0, 4.0, allow_nan=False, width=64)
        points = data.draw(hnp.arrays(np.float64, (k, 2), elements=coords))
        sites = data.draw(hnp.arrays(np.float64, (n, 2), elements=coords))
        assert np.array_equal(squared_distance_block(points, sites),
                              einsum_distances(points, sites))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 400),
           n=st.integers(1, 60), cells=st.integers(7, 500))
    def test_chunked_estimates_are_the_oracle(self, seed, k, n, cells):
        """A block bound small enough that ``k`` spans several blocks,
        usually not a whole number of them."""
        gen = np.random.default_rng(seed)
        points = gen.uniform(-0.5, 1.5, size=(k, 2))
        sites = gen.uniform(-0.5, 1.5, size=(n, 2))
        oracle = einsum_distances(points, sites)
        with mock.patch.object(voronoi, "_BLOCK_CELLS", cells):
            assert np.array_equal(assign_to_sites(points, sites),
                                  oracle.argmin(axis=1))
            assert cvt_energy(sites, points) == \
                float(oracle.min(axis=1).mean())

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 300),
           n=st.integers(1, 60), cells=st.integers(7, 500))
    def test_closest_many_rides_the_kernel(self, seed, k, n, cells):
        """``closest_many`` over chunks of its own bound answers every
        row as the exact scalar ``closest``."""
        gen = np.random.default_rng(seed)
        points = gen.uniform(-0.5, 1.5, size=(k, 2))
        sites = {node: (float(x), float(y)) for node, (x, y)
                 in enumerate(gen.uniform(0.0, 1.0, size=(n, 2)))}
        index = routing_index.RoutingIndex(sorted(sites), sites)
        with mock.patch.object(routing_index, "_CHUNK_ELEMENTS", cells):
            winners = index.closest_many(points)
        assert winners.tolist() == [index.closest(p) for p in points]
