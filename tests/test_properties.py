"""Property-based tests (hypothesis) for the core invariants.

These cover the load-bearing guarantees of the system:

* the Delaunay triangulation satisfies the empty-circumcircle property
  and greedy routing on it always delivers to the nearest site;
* classical MDS reconstructs planar configurations;
* the hashing layer is deterministic and in-range;
* Chord lookups always terminate at the key's successor;
* metric functions respect their algebraic bounds.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.chord import ChordRing, in_half_open_interval
from oracles.geometry import convex_hull, nearest_point_index, point_in_hull
from repro.geometry import (
    DelaunayTriangulation,
    deduplicate_points,
    euclidean,
    incircle,
    orient2d,
)
from repro.hashing import chord_id, data_position, server_index
from repro.metrics import max_avg_ratio, routing_stretch

# Coordinates quantized to a grid to provoke collinear/cocircular
# degeneracies while staying exactly representable.
coordinate = st.integers(min_value=0, max_value=40).map(lambda v: v / 40.0)
point = st.tuples(coordinate, coordinate)


def distinct_points(min_size, max_size):
    return st.lists(point, min_size=min_size, max_size=max_size,
                    unique=True)


class TestPredicateProperties:
    @given(point, point, point)
    def test_orientation_antisymmetry(self, a, b, c):
        assert orient2d(a, b, c) == -orient2d(b, a, c)

    @given(point, point, point)
    def test_orientation_cyclic(self, a, b, c):
        assert orient2d(a, b, c) == orient2d(b, c, a) == orient2d(c, a, b)

    @given(point, point, point, point)
    def test_incircle_symmetry_under_even_permutation(self, a, b, c, d):
        assume(orient2d(a, b, c) != 0)
        assert incircle(a, b, c, d) == incircle(b, c, a, d)


class TestDelaunayProperties:
    @given(distinct_points(3, 18))
    @settings(max_examples=40, deadline=None)
    def test_triangulation_is_delaunay(self, pts):
        dt = DelaunayTriangulation(pts)
        assert dt.is_delaunay()

    @given(distinct_points(3, 15), point)
    @settings(max_examples=40, deadline=None)
    def test_greedy_delivery(self, pts, query):
        """Greedy descent on DT neighbors ends at the nearest site."""
        dt = DelaunayTriangulation(pts)
        nbrs = dt.neighbor_map()
        cur = 0
        for _ in range(len(pts) * len(pts) + 4):
            best, best_key = cur, (euclidean(pts[cur], query),
                                   pts[cur][0], pts[cur][1])
            for v in nbrs[cur]:
                key = (euclidean(pts[v], query), pts[v][0], pts[v][1])
                if key < best_key:
                    best, best_key = v, key
            if best == cur:
                break
            cur = best
        target = nearest_point_index(pts, query)
        assert euclidean(pts[cur], query) <= \
            euclidean(pts[target], query) + 1e-9

    @given(distinct_points(3, 15))
    @settings(max_examples=30, deadline=None)
    def test_hull_vertices_have_edges(self, pts):
        dt = DelaunayTriangulation(pts)
        hull = convex_hull(pts)
        assume(len(hull) >= 3)
        index = {p: i for i, p in enumerate(pts)}
        edges = dt.edges()

        def subdivided(a, b):
            """True when another input point lies on segment a-b (the
            hull edge is then legitimately split in the DT)."""
            return any(q not in (a, b) and orient2d(a, b, q) == 0
                       and min(a[0], b[0]) <= q[0] <= max(a[0], b[0])
                       and min(a[1], b[1]) <= q[1] <= max(a[1], b[1])
                       for q in pts)

        for a, b in zip(hull, hull[1:] + hull[:1]):
            if subdivided(a, b):
                continue
            assert frozenset((index[a], index[b])) in edges

    @given(distinct_points(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_triangle_cover(self, pts):
        """Every point inside the hull lies in some real triangle (when
        triangles exist)."""
        dt = DelaunayTriangulation(pts)
        hull = convex_hull(pts)
        tris = dt.triangles()
        assume(tris)
        from repro.geometry import point_in_triangle

        grid = [(x / 8, y / 8) for x in range(9) for y in range(9)]
        for q in grid:
            if point_in_hull(q, hull):
                assert any(
                    point_in_triangle(q, *(dt.vertex_position(v)
                                           for v in tri))
                    for tri in tris
                )


class TestDeduplication:
    @given(st.lists(point, min_size=1, max_size=30))
    def test_dedup_makes_points_distinct(self, pts):
        out = deduplicate_points(pts)
        assert len(out) == len(pts)
        assert len(set(out)) == len(out)

    @given(st.lists(point, min_size=1, max_size=30))
    def test_dedup_moves_points_negligibly(self, pts):
        out = deduplicate_points(pts)
        for original, moved in zip(pts, out):
            assert math.hypot(original[0] - moved[0],
                              original[1] - moved[1]) < 1e-5


class TestEmbeddingProperties:
    @given(st.lists(st.tuples(
        st.floats(0, 10, allow_nan=False),
        st.floats(0, 10, allow_nan=False)),
        min_size=3, max_size=12, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_mds_reconstructs_planar_distances(self, pts):
        from repro.embedding import classical_mds

        n = len(pts)
        dist = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                dist[i, j] = math.hypot(pts[i][0] - pts[j][0],
                                        pts[i][1] - pts[j][1])
        coords = classical_mds(dist)
        for i in range(n):
            for j in range(n):
                got = math.hypot(coords[i, 0] - coords[j, 0],
                                 coords[i, 1] - coords[j, 1])
                assert abs(got - dist[i, j]) < 1e-6 * (1 + dist[i, j])


class TestHashingProperties:
    @given(st.text(min_size=0, max_size=60))
    def test_position_in_unit_square(self, data_id):
        x, y = data_position(data_id)
        assert 0.0 <= x <= 1.0
        assert 0.0 <= y <= 1.0

    @given(st.text(min_size=0, max_size=60))
    def test_position_deterministic(self, data_id):
        assert data_position(data_id) == data_position(data_id)

    @given(st.text(max_size=60), st.integers(1, 1000))
    def test_server_index_in_range(self, data_id, s):
        assert 0 <= server_index(data_id, s) < s

    @given(st.text(max_size=60), st.integers(8, 256))
    def test_chord_id_in_range(self, key, bits):
        assert 0 <= chord_id(key, bits) < 2 ** bits


class TestChordProperties:
    @given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1),
           st.integers(0, 2 ** 16 - 1))
    def test_interval_membership_partition(self, x, a, b):
        """Every x is in exactly one of (a, b] and (b, a] unless a == b
        or x is an endpoint in a degenerate way."""
        assume(a != b)
        assume(x != a and x != b)
        assert in_half_open_interval(x, a, b) != \
            in_half_open_interval(x, b, a)

    @given(st.integers(2, 24), st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_lookup_reaches_successor(self, n, key_seed):
        ring = ChordRing({f"m-{i}": i for i in range(n)}, bits=16)
        key = f"key-{key_seed}"
        expected = ring.store_node(key)
        start = ring.ring_nodes()[key_seed % n]
        path = ring.lookup_path(key, start)
        assert path[-1].node_id == expected.node_id


class TestMetricProperties:
    @given(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=100))
    def test_max_avg_at_least_one(self, loads):
        assume(sum(loads) > 0)
        ratio = max_avg_ratio(loads)
        assert ratio >= 1.0
        assert ratio <= len(loads)

    @given(st.integers(0, 1000), st.integers(1, 1000))
    def test_stretch_at_least_route_over_shortest(self, extra, shortest):
        route = shortest + extra
        value = routing_stretch(route, shortest)
        assert value >= 1.0


class TestP4Properties:
    @given(distinct_points(3, 12), point)
    @settings(max_examples=25, deadline=None)
    def test_quantized_greedy_terminates_and_delivers(self, pts, query):
        """Greedy descent using Q16 fixed-point comparison keys (the P4
        pipeline's arithmetic) must terminate and stop within a
        quantization step of the true nearest site."""
        from oracles.p4 import fixed_point, squared_distance_fixed

        fixed = [fixed_point(p) for p in pts]
        target = fixed_point(query)

        def key(i):
            return (squared_distance_fixed(*fixed[i], *target),
                    fixed[i][0], fixed[i][1], i)

        # Complete graph of candidates: worst case for tie-break loops.
        cur = 0
        for _ in range(len(pts) + 2):
            best = min(range(len(pts)), key=key)
            if key(best) >= key(cur):
                break
            cur = best
        true_nearest = nearest_point_index(pts, query)
        d_cur = euclidean(pts[cur], query)
        d_best = euclidean(pts[true_nearest], query)
        assert d_cur <= d_best + 4.0 / 65536


class TestSnapshotProperties:
    @given(st.lists(st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        min_size=1, max_size=12), min_size=0, max_size=12, unique=True))
    @settings(max_examples=10, deadline=None)
    def test_snapshot_round_trip_preserves_items(self, ids):
        from repro import GredNetwork
        from repro.edge import attach_uniform
        from repro.io import from_snapshot, to_snapshot
        from repro.topology import grid_graph

        topology = grid_graph(2, 3)
        net = GredNetwork(topology, attach_uniform(topology.nodes(), 1),
                          cvt_iterations=0)
        for data_id in ids:
            net.place(data_id, payload=data_id, entry_switch=0)
        restored = from_snapshot(to_snapshot(net))
        for data_id in ids:
            result = restored.retrieve(data_id, entry_switch=0)
            assert result.found
            assert result.payload == data_id
