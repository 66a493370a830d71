"""Unit and cross-validation tests for the Delaunay triangulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay as SciDelaunay

from oracles.geometry import convex_hull, nearest_point_index
from repro.geometry import (
    DelaunayError,
    DelaunayTriangulation,
    DuplicatePointError,
    euclidean,
    incircle,
    orient2d,
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


def grid_points(seed, n):
    """``n`` distinct points of a 6x6 integer grid: maximally
    cocircular."""
    cells = np.random.default_rng(seed).permutation(36)[:n]
    return [(float(c % 6), float(c // 6)) for c in cells]


def sliver_points(seed, n):
    """Distinct points within about 1e-12 of a line: collinear triples
    and hull slivers far flatter than the data span."""
    rng = np.random.default_rng(seed)
    pts = [(float(x), 0.25 * float(x) + 1e-12 * int(k))
           for x, k in zip(rng.uniform(0, 1, n), rng.integers(-2, 3, n))]
    return list(dict.fromkeys(pts))


def coordinate_edges(dt):
    """``dt``'s edges as pairs of coordinates: comparable across builds
    whose vertex ids differ."""
    return {frozenset(dt.vertex_position(v) for v in edge)
            for edge in dt.edges()}


def fresh_edges(sites, seed):
    """:func:`coordinate_edges` of a build over ``sites`` shuffled."""
    sites = list(sites)
    np.random.default_rng(seed).shuffle(sites)
    return coordinate_edges(DelaunayTriangulation(sites))


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
        dt = DelaunayTriangulation(pts)
        assert dt.is_delaunay()

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scipy_random(self, seed):
        rng = np.random.default_rng(100 + seed)
        pts = [tuple(p) for p in rng.uniform(0, 1, size=(40, 2))]
        dt = DelaunayTriangulation(pts)
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
        dt = DelaunayTriangulation(pts)
        hull = convex_hull(pts)
        index = {p: i for i, p in enumerate(pts)}
        edges = dt.edges()
        for a, b in zip(hull, hull[1:] + hull[:1]):
            assert frozenset((index[a], index[b])) in edges

    def test_insertion_order_invariance(self):
        grid = [(float(x), float(y)) for x in range(5) for y in range(5)]
        for pts in (random_points(3, 20), grid):
            want = coordinate_edges(DelaunayTriangulation(pts))
            for seed in range(4):
                assert fresh_edges(pts, seed) == want


class TestIncrementalInsert:
    def test_insert_returns_next_id(self):
        dt = DelaunayTriangulation([(0, 0), (1, 0), (0, 1)])
        vid = dt.insert_point((0.4, 0.4))
        assert vid == 3
        assert dt.num_vertices() == 4

    def test_insert_preserves_delaunay(self):
        rng = np.random.default_rng(11)
        pts = [tuple(p) for p in rng.uniform(0, 1, size=(15, 2))]
        dt = DelaunayTriangulation(pts)
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
        incremental = DelaunayTriangulation(pts[:10])
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
        dt = DelaunayTriangulation(pts)
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
        dt = DelaunayTriangulation(pts)
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
        dt = DelaunayTriangulation(pts)
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

    def test_bounding_box_vertex_deletes_to_the_fresh_build(self):
        pts = random_points(7, 30)
        dt = DelaunayTriangulation(pts)
        leaver = min(range(30), key=lambda i: pts[i][0])
        dt.remove_point(leaver)
        assert coordinate_edges(dt) == \
            fresh_edges(pts[:leaver] + pts[leaver + 1:], 7)

    def test_cocircular_grid_deletes_to_the_fresh_build(self):
        grid = [(float(x), float(y)) for x in range(8) for y in range(8)]
        dt = DelaunayTriangulation(grid)
        for vid in (27, 0, 36):
            dt.remove_point(vid)
            assert dt.is_delaunay()
            assert coordinate_edges(dt) == fresh_edges(
                [dt.vertex_position(v) for v in dt.neighbor_map()], vid)

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
        dt = DelaunayTriangulation(pts)
        dt.insert_point((0.5, 0.5))
        dt.remove_point(seed)
        got, want = dt.neighbor_map(), self.from_edges(dt)
        assert got == want
        assert list(got) == list(want)
        for v in got:
            assert dt.neighbors(v) == got[v]


class TestCanonical:
    """One triangulation per point set, whatever the history."""

    FAMILIES = {"random": random_points, "grid": grid_points,
                "sliver": sliver_points}

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
           data=st.data())
    def test_any_history_is_a_fresh_build(self, family, seed, n, data):
        pts = self.FAMILIES[family](seed, n)
        start = data.draw(st.integers(1, len(pts)))
        dt = DelaunayTriangulation(pts[:start])
        alive = dict(enumerate(pts[:start]))
        pending = pts[start:]
        for insert in data.draw(st.lists(st.booleans(), max_size=30)):
            if insert and pending:
                point = pending.pop()
                alive[dt.insert_point(point)] = point
            elif alive:
                vid = data.draw(st.sampled_from(sorted(alive)))
                dt.remove_point(vid)
                pending.append(alive.pop(vid))
            edges = coordinate_edges(dt)
            assert edges == fresh_edges(alive.values(), seed)
            if family == "random" and len(alive) >= 3:
                sites = list(alive.values())
                assert edges == {frozenset(sites[i] for i in edge)
                                 for edge in scipy_edges(sites)}

    def test_sites_far_outside_the_first_extent(self):
        pts = random_points(2, 12)
        dt = DelaunayTriangulation(pts)
        far = [(1e12, -1e12), (-3e15, 0.5), (0.5, 1e300), (1e-300, 0.5)]
        for point in far:
            dt.insert_point(point)
            pts.append(point)
            assert coordinate_edges(dt) == fresh_edges(pts, len(pts))
        for vid in (12, 0, 14, 13, 15):
            pts.remove(dt.vertex_position(vid))
            dt.remove_point(vid)
            assert coordinate_edges(dt) == fresh_edges(pts, len(pts))
        assert dt.is_delaunay()

    def test_hull_sliver_is_a_triangle(self):
        # Far flatter than any finite super triangle could resolve.
        pts = [(0.0, 0.0), (0.5, 1e-15), (1.0, 0.0), (0.5, 0.5)]
        dt = DelaunayTriangulation(pts)
        assert sorted(map(sorted, dt.triangles())) == [[0, 1, 2], [0, 1, 3],
                                                       [1, 2, 3]]


class TestSymbolicPredicates:
    """The closed forms for super vertices against the determinant's
    leading coefficient in ``s``, and the tie rule against the
    perturbed determinant."""

    def test_closed_forms_are_the_leading_coefficient(self):
        rng = np.random.default_rng(0)
        values = [0.0, 1.0, 2.0, 0.5, -3.0, 1e-9]
        pts = list(dict.fromkeys(
            (float(rng.choice(values)), float(rng.choice(values)))
            for _ in range(200)))
        dt = DelaunayTriangulation(pts)
        for _ in range(3000):
            supers = list(rng.choice([-1, -2, -3], int(rng.integers(1, 3)),
                                     replace=False))
            ids = [int(v) for v in rng.permutation(
                list(rng.choice(len(pts), 4 - len(supers), replace=False))
                + supers)]
            a, b, c = ids[:3]
            side = dt._orient(a, b, c)
            assert dt._orient(b, a, c) == -side
            if side == 0:
                assert min(a, b, c) >= 0
                continue  # collinear sites: no circle
            if side < 0:
                b, c = c, b
            got = dt._incircle(a, b, c, ids[3])
            assert got != 0
            assert got == dt._incircle_at_infinity((a, b, c, ids[3]))

    def test_tie_rule_is_the_perturbed_determinant(self):
        from fractions import Fraction

        from repro.geometry.delaunay import _tie

        eps = Fraction(1, 10**6)
        grid = [(float(x), float(y)) for x in range(4) for y in range(4)]
        rank = {p: i + 1 for i, p in enumerate(sorted(grid))}
        rng = np.random.default_rng(1)
        ties = 0
        for _ in range(2000):
            a, b, c, d = (grid[i] for i in rng.choice(16, 4, replace=False))
            if orient2d(a, b, c) == 0:
                continue
            if orient2d(a, b, c) < 0:
                b, c = c, b
            rows = [[Fraction(x), Fraction(y),
                     Fraction(x * x + y * y) + eps ** rank[(x, y)], 1]
                    for x, y in (a, b, c, d)]
            perturbed = _det4(rows)
            side = incircle(a, b, c, d)
            ties += side == 0
            assert (side or _tie(a, b, c, d)) == \
                (perturbed > 0) - (perturbed < 0)
        assert ties > 50


def _det4(m):
    """Determinant by cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det4([row[:j] + row[j + 1:]
                                           for row in m[1:]])
               for j in range(len(m)))
