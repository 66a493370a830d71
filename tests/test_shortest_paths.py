"""Unit tests for repro.graph.shortest_paths."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    Graph,
    HopRows,
    NodeNotFound,
    NoPath,
    all_pairs_hop_matrix,
    bfs_distances,
    bfs_path,
    hop_count,
)
from oracles.graph import all_pairs_weighted_matrix, dijkstra, dijkstra_path
from repro.topology import (
    brite_waxman_graph,
    grid_graph,
    line_graph,
    ring_graph,
)


class TestBfs:
    def test_distances_on_line(self):
        g = line_graph(5)
        dist = bfs_distances(g, 0)
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_distances_unreachable_excluded(self):
        g = Graph([(0, 1)])
        g.add_node(2)
        assert 2 not in bfs_distances(g, 0)

    def test_unknown_source_raises(self):
        with pytest.raises(NodeNotFound):
            bfs_distances(Graph(), 0)

    def test_path_endpoints_included(self):
        g = ring_graph(6)
        path = bfs_path(g, 0, 3)
        assert path[0] == 0
        assert path[-1] == 3
        assert len(path) == 4  # 3 hops either way around the ring

    def test_path_is_valid_walk(self):
        g = grid_graph(4, 4)
        path = bfs_path(g, 0, 15)
        for u, v in zip(path, path[1:]):
            assert g.has_edge(u, v)

    def test_path_to_self(self):
        g = line_graph(3)
        assert bfs_path(g, 1, 1) == [1]

    def test_no_path_raises(self):
        g = Graph([(0, 1)])
        g.add_node(2)
        with pytest.raises(NoPath):
            bfs_path(g, 0, 2)

    def test_hop_count(self):
        g = grid_graph(3, 3)
        assert hop_count(g, 0, 8) == 4  # manhattan distance on the grid
        assert hop_count(g, 4, 4) == 0


class TestDijkstra:
    def test_matches_bfs_on_unit_weights(self):
        g = grid_graph(3, 4)
        dist, _ = dijkstra(g, 0)
        bfs = bfs_distances(g, 0)
        assert {k: int(v) for k, v in dist.items()} == bfs

    def test_prefers_lighter_path(self):
        g = Graph()
        g.add_edge(0, 1, weight=10.0)
        g.add_edge(0, 2, weight=1.0)
        g.add_edge(2, 1, weight=1.0)
        dist, _ = dijkstra(g, 0)
        assert dist[1] == 2.0
        assert dijkstra_path(g, 0, 1) == [0, 2, 1]

    def test_path_unreachable_raises(self):
        g = Graph([(0, 1)])
        g.add_node(5)
        with pytest.raises(NoPath):
            dijkstra_path(g, 0, 5)

    def test_unknown_target_raises(self):
        g = Graph([(0, 1)])
        with pytest.raises(NodeNotFound):
            dijkstra_path(g, 0, 9)


class TestAllPairs:
    def test_hop_matrix_symmetric_zero_diagonal(self):
        g = grid_graph(3, 3)
        matrix, order = all_pairs_hop_matrix(g)
        assert matrix.shape == (9, 9)
        assert np.allclose(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0)

    def test_hop_matrix_respects_order(self):
        g = line_graph(3)
        matrix, order = all_pairs_hop_matrix(g, order=[2, 0, 1])
        assert order == [2, 0, 1]
        assert matrix[0, 1] == 2  # dist(2, 0)
        assert matrix[0, 2] == 1  # dist(2, 1)

    def test_hop_matrix_disconnected_is_inf(self):
        g = Graph([(0, 1)])
        g.add_node(2)
        matrix, order = all_pairs_hop_matrix(g, order=[0, 1, 2])
        assert np.isinf(matrix[0, 2])

    def test_weighted_matrix_matches_hops_for_unit_weights(self):
        g = ring_graph(5)
        hops, order = all_pairs_hop_matrix(g)
        weighted, _ = all_pairs_weighted_matrix(g, order=order)
        assert np.allclose(hops, weighted)

    def test_weighted_matrix_uses_weights(self):
        g = Graph()
        g.add_edge(0, 1, weight=5.0)
        matrix, _ = all_pairs_weighted_matrix(g, order=[0, 1])
        assert matrix[0, 1] == 5.0

    def test_triangle_inequality_holds(self):
        g = grid_graph(4, 4)
        matrix, _ = all_pairs_hop_matrix(g)
        n = matrix.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(0, n, 5):
                    assert matrix[i, j] <= matrix[i, k] + matrix[k, j]


def oracle_hop_matrix(graph, order=None):
    """``all_pairs_hop_matrix`` as it was before the :class:`HopRows`
    kernel — one early-exit Python BFS per source — kept as the
    differential's oracle."""
    nodes = list(order) if order is not None else graph.nodes()
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    for node in nodes:
        if not graph.has_node(node):
            raise NodeNotFound(node)
    matrix = np.full((n, n), float("inf"))
    np.fill_diagonal(matrix, 0.0)
    # The graph is undirected, so d(i, j) == d(j, i): each source only
    # resolves the targets ordered after it (filling both triangle
    # halves) and its BFS stops as soon as the last one is labelled.
    for i, node in enumerate(nodes):
        pending = set(range(i + 1, n))
        if not pending:
            continue
        dist = {node: 0}
        queue = deque([node])
        while queue and pending:
            u = queue.popleft()
            d = dist[u] + 1
            for v in graph.neighbors(u):
                if v in dist:
                    continue
                dist[v] = d
                j = index.get(v)
                if j is not None and j > i:
                    matrix[i, j] = d
                    matrix[j, i] = d
                    pending.discard(j)
                queue.append(v)
    return matrix, nodes


@st.composite
def graphs_and_orders(draw):
    """A graph of 0-12 nodes — int or string labels, any edge set, so
    connected and disconnected alike — and an ``order`` over it: the
    default, a permutation, or a strict subset."""
    n = draw(st.integers(min_value=0, max_value=12))
    labels = draw(st.sampled_from([
        list(range(n)), [f"s{i}" for i in range(n)],
        [3 * i + 7 for i in range(n)][::-1]]))
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
    graph = Graph()
    for node in labels:
        graph.add_node(node)
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=20)
                     if pairs else st.just([])):
        graph.add_edge(u, v)
    kind = draw(st.sampled_from(["default", "permutation", "subset"]))
    if kind == "default":
        return graph, None
    order = draw(st.permutations(labels))
    if kind == "subset" and order:
        order = order[:draw(st.integers(0, len(order) - 1))]
    return graph, list(order)


class TestHopRowsKernel:
    """``HopRows`` (the many-source level-synchronous kernel) against
    the per-source Python BFS it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(graphs_and_orders())
    def test_all_pairs_matrix_is_the_oracle(self, case):
        graph, order = case
        got, got_order = all_pairs_hop_matrix(graph, order=order)
        want, want_order = oracle_hop_matrix(graph, order=order)
        assert got_order == want_order
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        # Layout too: the embedding's reductions sum in memory order.
        assert got.flags["C_CONTIGUOUS"]

    @settings(max_examples=100, deadline=None)
    @given(graphs_and_orders())
    def test_rows_and_hops_are_bfs(self, case):
        graph, order = case
        hops = HopRows(graph)
        sources = order if order is not None else graph.nodes()
        rows = hops.rows(sources)
        assert rows.dtype == np.int32
        assert rows.shape == (len(sources), graph.num_nodes())
        for source, row in zip(sources, rows.tolist()):
            dist = bfs_distances(graph, source)
            assert row == [dist.get(node, -1) for node in hops.nodes]
            for target in graph.nodes():
                if target in dist:
                    got = hops.hop(source, target)
                    assert type(got) is int and got == dist[target]
                else:
                    with pytest.raises(NoPath):
                        hops.hop(source, target)

    def test_paths_run_through_nodes_left_out_of_order(self):
        g = line_graph(4)
        matrix, order = all_pairs_hop_matrix(g, order=[3, 0])
        assert order == [3, 0]
        assert matrix.tolist() == [[0.0, 3.0], [3.0, 0.0]]

    def test_empty_graph_and_single_node(self):
        matrix, order = all_pairs_hop_matrix(Graph())
        assert matrix.shape == (0, 0) and order == []
        g = Graph()
        g.add_node("only")
        matrix, order = all_pairs_hop_matrix(g)
        assert matrix.tolist() == [[0.0]] and order == ["only"]
        assert HopRows(g).hop("only", "only") == 0

    def test_unknown_nodes_raise_node_not_found(self):
        g = Graph([(0, 1), (1, 2)])
        hops = HopRows(g)
        with pytest.raises(NodeNotFound) as err:
            hops.rows([0, 9, 8])
        assert err.value.node == 9
        for source, target in ((9, 0), (0, 9)):
            with pytest.raises(NodeNotFound):
                hops.hop(source, target)
        with pytest.raises(NodeNotFound) as err:
            all_pairs_hop_matrix(g, order=[2, "x", 0])
        assert err.value.node == "x"

    def test_rows_come_back_in_request_order(self):
        g = grid_graph(3, 3)
        hops = HopRows(g)
        first = hops.rows([4, 0])
        assert hops.rows([0, 4, 0]).tolist() == [
            first[1].tolist(), first[0].tolist(), first[1].tolist()]


class TestHopCountEarlyExit:
    """The distance-only early-exit BFS must agree with the full BFS
    labelling everywhere, including its error behavior."""

    def test_matches_full_bfs_on_random_graph(self):
        g, _ = brite_waxman_graph(40, min_degree=3,
                                  rng=np.random.default_rng(17))
        nodes = sorted(g.nodes())
        for source in nodes[::7]:
            full = bfs_distances(g, source)
            for target in nodes:
                assert hop_count(g, source, target) == full[target]

    def test_unknown_endpoints_raise(self):
        g = Graph([(0, 1)])
        with pytest.raises(NodeNotFound):
            hop_count(g, 9, 0)
        with pytest.raises(NodeNotFound):
            hop_count(g, 0, 9)

    def test_disconnected_raises_no_path(self):
        g = Graph([(0, 1)])
        g.add_node(2)
        with pytest.raises(NoPath):
            hop_count(g, 0, 2)
