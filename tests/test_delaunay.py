"""Unit and cross-validation tests for the Delaunay triangulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay as SciDelaunay

from repro.geometry import (
    DelaunayError,
    DelaunayTriangulation,
    DuplicatePointError,
    convex_hull,
    euclidean,
    nearest_point_index,
)


def scipy_edges(points):
    tri = SciDelaunay(np.asarray(points))
    edges = set()
    for simplex in tri.simplices:
        for i in range(3):
            a, b = int(simplex[i]), int(simplex[(i + 1) % 3])
            edges.add(frozenset((a, b)))
    return edges


def rebuilt_edges(dt):
    """Edges of a from-scratch build over ``dt``'s vertices, in ``dt``'s
    vertex ids."""
    ids = sorted(dt.neighbor_map())
    fresh = DelaunayTriangulation([dt.vertex_position(v) for v in ids])
    return {frozenset(ids[i] for i in edge) for edge in fresh.edges()}


def random_points(seed, n):
    rng = np.random.default_rng(seed)
    return [tuple(p) for p in rng.uniform(0, 1, size=(n, 2))]


class TestSmallCases:
    def test_empty(self):
        dt = DelaunayTriangulation([])
        assert dt.num_vertices() == 0
        assert dt.edges() == set()

    def test_single_point(self):
        dt = DelaunayTriangulation([(0.5, 0.5)])
        assert dt.num_vertices() == 1
        assert dt.edges() == set()
        assert dt.neighbors(0) == set()

    def test_two_points(self):
        dt = DelaunayTriangulation([(0.2, 0.2), (0.8, 0.8)])
        assert dt.edges() == {frozenset((0, 1))}

    def test_three_points(self):
        dt = DelaunayTriangulation([(0, 0), (1, 0), (0.5, 1)])
        assert len(dt.edges()) == 3
        assert len(dt.triangles()) == 1

    def test_square_has_five_edges(self):
        dt = DelaunayTriangulation([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert len(dt.edges()) == 5  # 4 sides + 1 diagonal
        assert len(dt.triangles()) == 2

    def test_collinear_points_form_a_path(self):
        pts = [(0.1 * i, 0.1 * i) for i in range(5)]
        dt = DelaunayTriangulation(pts)
        edges = dt.edges()
        # Consecutive collinear points must be connected.
        for i in range(4):
            assert frozenset((i, i + 1)) in edges
        # No triangles exist among collinear real points.
        assert dt.triangles() == []

    def test_duplicate_point_rejected(self):
        with pytest.raises(DuplicatePointError):
            DelaunayTriangulation([(0.5, 0.5), (0.5, 0.5)])

    def test_vertex_position_roundtrip(self):
        pts = [(0.25, 0.75), (0.5, 0.25), (0.75, 0.75)]
        dt = DelaunayTriangulation(pts)
        for i, p in enumerate(pts):
            assert dt.vertex_position(i) == p

    def test_unknown_vertex_raises(self):
        dt = DelaunayTriangulation([(0, 0), (1, 1)])
        with pytest.raises(DelaunayError):
            dt.vertex_position(99)
        with pytest.raises(DelaunayError):
            dt.neighbors(-1)


class TestDelaunayProperty:
    @pytest.mark.parametrize("seed", range(8))
    def test_empty_circumcircle_random(self, seed):
        rng = np.random.default_rng(seed)
        pts = [tuple(p) for p in rng.uniform(0, 1, size=(25, 2))]
        dt = DelaunayTriangulation(pts, rng=rng)
        assert dt.is_delaunay()

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scipy_random(self, seed):
        rng = np.random.default_rng(100 + seed)
        pts = [tuple(p) for p in rng.uniform(0, 1, size=(40, 2))]
        dt = DelaunayTriangulation(pts, rng=rng)
        assert dt.edges() == scipy_edges(pts)

    def test_cocircular_grid_still_valid(self):
        # A 4x4 integer grid has many exactly cocircular quadruples.
        pts = [(float(x), float(y)) for x in range(4) for y in range(4)]
        dt = DelaunayTriangulation(pts)
        assert dt.is_delaunay()
        # Edge count for any triangulation of a point set with h points
        # on the hull boundary and n total: 3n - 3 - h.  The 4x4 grid
        # has 12 boundary points.
        boundary = [
            (x, y) for (x, y) in pts
            if x in (0.0, 3.0) or y in (0.0, 3.0)
        ]
        assert len(boundary) == 12
        assert len(dt.edges()) == 3 * len(pts) - 3 - len(boundary)

    def test_hull_edges_present(self):
        rng = np.random.default_rng(5)
        pts = [tuple(p) for p in rng.uniform(0, 1, size=(30, 2))]
        dt = DelaunayTriangulation(pts, rng=rng)
        hull = convex_hull(pts)
        index = {p: i for i, p in enumerate(pts)}
        edges = dt.edges()
        for a, b in zip(hull, hull[1:] + hull[:1]):
            assert frozenset((index[a], index[b])) in edges

    def test_insertion_order_invariance(self):
        pts = [tuple(p) for p in
               np.random.default_rng(3).uniform(0, 1, size=(20, 2))]
        dt1 = DelaunayTriangulation(pts, rng=np.random.default_rng(1))
        dt2 = DelaunayTriangulation(pts, rng=np.random.default_rng(2))
        assert dt1.edges() == dt2.edges()


class TestIncrementalInsert:
    def test_insert_returns_next_id(self):
        dt = DelaunayTriangulation([(0, 0), (1, 0), (0, 1)])
        vid = dt.insert_point((0.4, 0.4))
        assert vid == 3
        assert dt.num_vertices() == 4

    def test_insert_preserves_delaunay(self):
        rng = np.random.default_rng(11)
        pts = [tuple(p) for p in rng.uniform(0, 1, size=(15, 2))]
        dt = DelaunayTriangulation(pts, rng=rng)
        for p in rng.uniform(0, 1, size=(10, 2)):
            dt.insert_point(tuple(p))
            assert dt.is_delaunay()

    def test_insert_duplicate_raises(self):
        dt = DelaunayTriangulation([(0.3, 0.3), (0.7, 0.7)])
        with pytest.raises(DuplicatePointError):
            dt.insert_point((0.3, 0.3))

    def test_insert_matches_batch_construction(self):
        rng = np.random.default_rng(21)
        pts = [tuple(p) for p in rng.uniform(0, 1, size=(25, 2))]
        incremental = DelaunayTriangulation(pts[:10],
                                            rng=np.random.default_rng(0))
        for p in pts[10:]:
            incremental.insert_point(p)
        assert incremental.edges() == scipy_edges(pts)

    def test_point_on_existing_edge(self):
        dt = DelaunayTriangulation([(0, 0), (1, 0), (1, 1), (0, 1)])
        # Insert exactly on the diagonal or a side.
        dt.insert_point((0.5, 0.0))
        assert dt.is_delaunay()
        assert dt.num_vertices() == 5


class TestNeighborExtraction:
    def test_neighbor_map_covers_all_vertices(self):
        rng = np.random.default_rng(9)
        pts = [tuple(p) for p in rng.uniform(0, 1, size=(20, 2))]
        dt = DelaunayTriangulation(pts, rng=rng)
        nbrs = dt.neighbor_map()
        assert set(nbrs) == set(range(20))
        for u, vs in nbrs.items():
            for v in vs:
                assert u in nbrs[v]  # symmetry

    def test_greedy_delivery_on_neighbor_map(self):
        """Greedy descent over DT neighbors must end at the global
        nearest vertex (the guaranteed-delivery property)."""
        rng = np.random.default_rng(13)
        pts = [tuple(p) for p in rng.uniform(0, 1, size=(30, 2))]
        dt = DelaunayTriangulation(pts, rng=rng)
        nbrs = dt.neighbor_map()
        for q in rng.uniform(0, 1, size=(25, 2)):
            q = tuple(q)
            cur = int(rng.integers(0, len(pts)))
            while True:
                best, best_d = cur, euclidean(pts[cur], q)
                for v in nbrs[cur]:
                    d = euclidean(pts[v], q)
                    if d < best_d:
                        best, best_d = v, d
                if best == cur:
                    break
                cur = best
            expected = nearest_point_index(pts, q)
            assert euclidean(pts[cur], q) <= \
                euclidean(pts[expected], q) + 1e-12


class TestVertexDeletion:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
           data=st.data())
    def test_any_deletions_equal_a_fresh_build(self, seed, n, data):
        pts = random_points(seed, n)
        dt = DelaunayTriangulation(pts, rng=np.random.default_rng(seed))
        order = data.draw(st.permutations(range(n)))
        for vid in order[:data.draw(st.integers(1, n))]:
            dt.remove_point(vid)
            assert dt.edges() == rebuilt_edges(dt)
            alive = sorted(dt.neighbor_map())
            if len(alive) >= 3:
                assert dt.edges() == {
                    frozenset(alive[i] for i in edge)
                    for edge in scipy_edges([pts[v] for v in alive])}

    def test_collinear_chain(self):
        dt = DelaunayTriangulation([(0.1 * i, 0.1 * i) for i in range(6)])
        dt.remove_point(2)
        assert dt.edges() == {frozenset(e) for e in
                              ((0, 1), (1, 3), (3, 4), (4, 5))}
        assert dt.edges() == rebuilt_edges(dt)
        assert dt.triangles() == []

    def test_hull_vertices(self):
        pts = random_points(5, 30)
        dt = DelaunayTriangulation(pts)
        index = {p: i for i, p in enumerate(pts)}
        for p in convex_hull(pts):
            dt.remove_point(index[p])
            assert dt.edges() == rebuilt_edges(dt)
            assert dt.is_delaunay()

    def test_bounding_box_vertex_is_not_canonical(self):
        pts = random_points(7, 30)
        dt = DelaunayTriangulation(pts)
        assert dt.why_not_canonical() is None
        dt.remove_point(min(range(30), key=lambda i: pts[i][0]))
        # Still the Delaunay triangulation, but over the old super
        # triangle: a fresh build would pick another one.
        assert dt.why_not_canonical() == "bbox"
        assert dt.edges() == rebuilt_edges(dt)

    def test_ties_are_not_canonical(self):
        grid = [(float(x), float(y)) for x in range(8) for y in range(8)]
        assert DelaunayTriangulation(grid).why_not_canonical() == "tie"
        dt = DelaunayTriangulation(grid)
        dt.remove_point(27)
        assert dt.is_delaunay()
        assert dt.why_not_canonical() == "tie"

    def test_down_to_one_then_zero(self):
        dt = DelaunayTriangulation([(0.2, 0.2), (0.8, 0.3), (0.5, 0.9)])
        dt.remove_point(0)
        dt.remove_point(1)
        assert dt.num_vertices() == 1
        assert dt.edges() == set()
        assert dt.neighbors(2) == set()
        dt.remove_point(2)
        assert dt.num_vertices() == 0
        assert dt.neighbor_map() == {}
        assert dt.triangles() == []
        assert dt.insert_point((0.5, 0.5)) == 3
        assert dt.neighbor_map() == {3: set()}

    @pytest.mark.parametrize("vid", [-1, -2, -3, 3, 99])
    def test_super_and_unknown_ids_raise(self, vid):
        dt = DelaunayTriangulation([(0.2, 0.2), (0.8, 0.3), (0.5, 0.9)])
        with pytest.raises(DelaunayError):
            dt.remove_point(vid)
        assert dt.num_vertices() == 3

    def test_removed_vertex_is_gone(self):
        dt = DelaunayTriangulation(random_points(3, 10))
        dt.remove_point(4)
        with pytest.raises(DelaunayError):
            dt.remove_point(4)
        with pytest.raises(DelaunayError):
            dt.vertex_position(4)

    def test_ids_are_never_reused(self):
        dt = DelaunayTriangulation(random_points(4, 6))
        dt.remove_point(5)
        assert dt.insert_point((0.51, 0.49)) == 6
        assert set(dt.neighbor_map()) == {0, 1, 2, 3, 4, 6}
        assert dt.edges() == rebuilt_edges(dt)


class TestNeighborMapFromEdgeIndex:
    @staticmethod
    def from_edges(dt):
        """The adjacency as the triangle-edge scan builds it."""
        result = {v: set() for v in dt.neighbor_map()}
        for edge in dt.edges():
            u, v = tuple(edge)
            result[u].add(v)
            result[v].add(u)
        return result

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_edge_scan_key_order_included(self, seed):
        pts = random_points(seed, 40)
        dt = DelaunayTriangulation(pts, rng=np.random.default_rng(seed))
        dt.insert_point((0.5, 0.5))
        dt.remove_point(seed)
        got, want = dt.neighbor_map(), self.from_edges(dt)
        assert got == want
        assert list(got) == list(want)
        for v in got:
            assert dt.neighbors(v) == got[v]
