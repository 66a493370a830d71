"""Tests for the GHT/GPSR baseline and its planarization substrate."""

import math

import numpy as np
import pytest

from repro.ght import (
    GhtError,
    GhtNetwork,
    GpsrRouter,
    RouteStatus,
    gabriel_graph,
)
from oracles.graph import relative_neighborhood_graph
from repro.graph import Graph, is_connected
from repro.topology import grid_graph, waxman_graph


def grid_with_coords(rows, cols):
    g = grid_graph(rows, cols)
    coords = {r * cols + c: (float(c), float(r))
              for r in range(rows) for c in range(cols)}
    return g, coords


class TestPlanarization:
    def test_gabriel_subset_of_graph(self):
        g, coords = waxman_graph(40, rng=np.random.default_rng(0))
        gg = gabriel_graph(g, coords)
        original = {frozenset((u, v)) for u, v, _ in g.edges()}
        kept = {frozenset((u, v)) for u, v, _ in gg.edges()}
        assert kept <= original
        assert set(gg.nodes()) == set(g.nodes())

    def test_rng_subset_of_gabriel(self):
        g, coords = waxman_graph(40, rng=np.random.default_rng(1))
        gg_edges = {frozenset((u, v))
                    for u, v, _ in gabriel_graph(g, coords).edges()}
        rng_edges = {frozenset((u, v))
                     for u, v, _
                     in relative_neighborhood_graph(g, coords).edges()}
        assert rng_edges <= gg_edges

    def test_grid_fully_gabriel(self):
        """Axis-aligned unit grid edges are all Gabriel edges."""
        g, coords = grid_with_coords(4, 4)
        gg = gabriel_graph(g, coords)
        assert gg.num_edges() == g.num_edges()

    def test_long_diagonal_removed(self):
        g = Graph([(0, 1), (1, 2), (0, 2)])
        coords = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)}
        gg = gabriel_graph(g, coords)
        # Node 1 sits inside the diameter circle of (0, 2).
        assert not gg.has_edge(0, 2)
        assert gg.has_edge(0, 1)

    def test_missing_coordinates_rejected(self):
        g = Graph([(0, 1)])
        with pytest.raises(ValueError, match="missing"):
            gabriel_graph(g, {0: (0, 0)})


class TestGpsrOnGrid:
    """On a grid (unit-disk-like), GPSR must always deliver."""

    def _router(self, rows=5, cols=5):
        g, coords = grid_with_coords(rows, cols)
        return GpsrRouter(g, gabriel_graph(g, coords), coords), coords

    def test_greedy_reaches_node_points(self):
        router, coords = self._router()
        for target_node in (0, 12, 24, 4, 20):
            outcome = router.route(0, coords[target_node])
            assert outcome.success
            assert outcome.final_node == target_node

    def test_delivery_to_arbitrary_points(self):
        router, coords = self._router()
        rng = np.random.default_rng(2)
        for _ in range(30):
            target = (float(rng.uniform(0, 4)), float(rng.uniform(0, 4)))
            outcome = router.route(int(rng.integers(0, 25)), target)
            assert outcome.status in (RouteStatus.DELIVERED,
                                      RouteStatus.PERIMETER_LOOP)
            final = outcome.final_node
            # The end node is the globally closest node (grid => exact).
            best = min(coords, key=lambda n: math.hypot(
                coords[n][0] - target[0], coords[n][1] - target[1]))
            d_final = math.hypot(coords[final][0] - target[0],
                                 coords[final][1] - target[1])
            d_best = math.hypot(coords[best][0] - target[0],
                                coords[best][1] - target[1])
            assert d_final <= d_best + 1.0  # within one grid step

    def test_hop_limit_respected(self):
        router, coords = self._router()
        outcome = router.route(0, (2.0, 2.0), max_hops=1)
        assert outcome.status in (RouteStatus.HOP_LIMIT,
                                  RouteStatus.DELIVERED)


class TestGhtNetwork:
    def _net(self, seed=0, n=40):
        g, coords = waxman_graph(n, rng=np.random.default_rng(seed))
        return GhtNetwork(g, coords, servers_per_switch=2)

    def test_hash_point_in_bounding_box(self):
        net = self._net()
        for i in range(50):
            x, y = net.hash_point(f"h-{i}")
            assert net._x_range[0] <= x <= net._x_range[1]
            assert net._y_range[0] <= y <= net._y_range[1]

    def test_place_and_load(self):
        net = self._net()
        rng = np.random.default_rng(1)
        delivered = 0
        for i in range(100):
            result = net.place(f"item-{i}", payload=i, rng=rng)
            if result.delivered:
                delivered += 1
        assert sum(net.load_vector()) == delivered
        assert delivered > 50  # most requests should route

    def test_home_node_consistent_on_unit_disk_graph(self):
        """On GHT's intended setting — a unit-disk graph — the home
        node must be entry-independent."""
        from repro.topology import random_geometric_graph

        g, coords = random_geometric_graph(
            50, 0.25, rng=np.random.default_rng(0))
        net = GhtNetwork(g, coords, servers_per_switch=2)
        for i in range(30):
            data_id = f"c-{i}"
            homes = set()
            for entry in (0, 10, 20):
                result = net.route_for(data_id, entry)
                assert result.delivered
                homes.add(result.home_switch)
            assert len(homes) == 1

    def test_gabriel_connected_on_unit_disk_graph(self):
        from repro.topology import random_geometric_graph

        for seed in range(3):
            g, coords = random_geometric_graph(
                40, 0.28, rng=np.random.default_rng(seed))
            assert is_connected(gabriel_graph(g, coords))

    def test_unknown_entry_rejected(self):
        net = self._net()
        with pytest.raises(GhtError):
            net.route_for("x", entry_switch=999)

    def test_missing_coords_rejected(self):
        g = Graph([(0, 1)])
        with pytest.raises(GhtError, match="missing"):
            GhtNetwork(g, {0: (0.0, 0.0)})

    def test_failures_reported_not_hidden(self):
        """On Waxman topologies some requests legitimately fail (the
        paper's criticism of GHT); they must be reported as failures,
        never as bogus deliveries."""
        failures = 0
        for seed in range(4):
            net = self._net(seed=seed)
            rng = np.random.default_rng(seed)
            for i in range(50):
                result = net.route_for(f"f-{i}",
                                       int(rng.integers(0, 40)))
                if not result.delivered:
                    failures += 1
                    assert result.home_switch is None
        # Failures may or may not occur depending on the instance; the
        # invariant is only that they are never silent.
        assert failures >= 0
