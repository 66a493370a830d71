"""Theory-vs-measurement tests: the closed forms in oracles.theory must
predict what the implemented systems actually do."""

import numpy as np
import pytest

from oracles.theory import (
    average_delaunay_degree,
    expected_chord_hops,
    expected_max_avg_balls_in_bins,
    expected_max_avg_consistent_hashing,
    expected_max_load_balls_in_bins,
)


class TestClosedForms:
    def test_chord_hops_monotone(self):
        assert expected_chord_hops(1) == 0.0
        assert expected_chord_hops(16) == 2.0
        assert expected_chord_hops(1024) > expected_chord_hops(64)

    def test_chord_hops_invalid(self):
        with pytest.raises(ValueError):
            expected_chord_hops(0)

    def test_balls_in_bins_regimes(self):
        # Heavy loading: close to the mean.
        heavy = expected_max_load_balls_in_bins(100_000, 100)
        assert 1000 < heavy < 1400
        # Light loading: logarithmic scale.
        light = expected_max_load_balls_in_bins(100, 100)
        assert 1.5 < light < 6

    def test_balls_in_bins_zero(self):
        assert expected_max_load_balls_in_bins(0, 10) == 0.0
        with pytest.raises(ValueError):
            expected_max_load_balls_in_bins(10, 0)

    def test_max_avg_ratio_above_one(self):
        assert expected_max_avg_balls_in_bins(10_000, 100) > 1.0

    def test_consistent_hashing_imbalance(self):
        assert expected_max_avg_consistent_hashing(1) == 1.0
        assert expected_max_avg_consistent_hashing(1000) == \
            pytest.approx(np.log(1000))

    def test_delaunay_degree_below_six(self):
        for n in (3, 10, 100, 10_000):
            assert average_delaunay_degree(n) < 6.0
        assert average_delaunay_degree(10_000) > 5.9


class TestTheoryPredictsMeasurement:
    def test_chord_overlay_hops_near_half_log(self):
        """Measured Chord lookups must track (1/2) log2 n within a
        factor ~2 (iterative lookups + successor hop overhead)."""
        from repro.chord import ChordRing

        n = 256
        ring = ChordRing({f"m-{i}": i for i in range(n)}, bits=32)
        nodes = ring.ring_nodes()
        rng = np.random.default_rng(0)
        hops = []
        for i in range(300):
            start = nodes[int(rng.integers(0, n))]
            path = ring.lookup_path(f"key-{i}", start)
            hops.append(len(path) - 1)
        measured = float(np.mean(hops))
        predicted = expected_chord_hops(n)
        assert predicted * 0.5 < measured < predicted * 2.5

    def test_random_placement_matches_balls_in_bins(self):
        """The random-placement baseline's max load must sit near the
        Raab-Steger prediction."""
        from oracles.random_placement import RandomPlacementNetwork
        from repro.edge import attach_uniform
        from repro.topology import grid_graph

        topology = grid_graph(4, 4)
        net = RandomPlacementNetwork(
            topology, attach_uniform(topology.nodes(), 4),
            rng=np.random.default_rng(1),
        )
        num_balls, num_bins = 64_000, 64
        net.place_many(num_balls)
        measured_max = max(net.load_vector())
        predicted = expected_max_load_balls_in_bins(num_balls, num_bins)
        assert predicted * 0.9 < measured_max < predicted * 1.15

    def test_chord_imbalance_near_log_n(self):
        """Plain consistent hashing's max/avg tracks ln(n)."""
        from repro.chord import ChordRing
        from repro.metrics import max_avg_ratio

        n = 200
        ring = ChordRing({f"m-{i}": i for i in range(n)}, bits=32)
        counts = {}
        for i in range(200_000):
            owner = ring.store_node(f"k-{i}").owner
            counts[owner] = counts.get(owner, 0) + 1
        loads = [counts.get(f"m-{i}", 0) for i in range(n)]
        measured = max_avg_ratio(loads)
        predicted = expected_max_avg_consistent_hashing(n)
        assert predicted * 0.5 < measured < predicted * 1.8

    def test_dt_degree_matches_theory(self):
        """Average DT degree of the embedded switches stays below 6 and
        near the prediction."""
        from repro.geometry import DelaunayTriangulation

        rng = np.random.default_rng(2)
        n = 200
        pts = [tuple(p) for p in rng.uniform(0, 1, size=(n, 2))]
        dt = DelaunayTriangulation(pts)
        degrees = [len(v) for v in dt.neighbor_map().values()]
        measured = sum(degrees) / n
        predicted = average_delaunay_degree(n)
        assert measured < 6.0
        assert abs(measured - predicted) < 0.5
