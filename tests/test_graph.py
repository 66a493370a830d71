"""Unit tests for repro.graph.Graph."""

import pytest

from repro.graph import EdgeNotFound, Graph, NodeNotFound


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_nodes() == 0
        assert g.num_edges() == 0
        assert g.nodes() == []
        assert g.edges() == []

    def test_from_edge_list(self):
        g = Graph([(0, 1), (1, 2)])
        assert g.num_nodes() == 3
        assert g.num_edges() == 2

    def test_add_node_idempotent(self):
        g = Graph()
        g.add_node("a")
        g.add_node("a")
        assert g.num_nodes() == 1

    def test_add_edge_creates_endpoints(self):
        g = Graph()
        g.add_edge(5, 9)
        assert g.has_node(5)
        assert g.has_node(9)
        assert g.has_edge(5, 9)
        assert g.has_edge(9, 5)

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edge(1, 1)

    def test_non_positive_weight_rejected(self):
        g = Graph()
        with pytest.raises(ValueError, match="positive"):
            g.add_edge(0, 1, weight=0)
        with pytest.raises(ValueError, match="positive"):
            g.add_edge(0, 1, weight=-2.0)

    def test_readding_edge_updates_weight(self):
        g = Graph()
        g.add_edge(0, 1, weight=1.0)
        g.add_edge(0, 1, weight=3.0)
        assert g.edge_weight(0, 1) == 3.0
        assert g.num_edges() == 1


class TestMutation:
    def test_remove_edge(self):
        g = Graph([(0, 1), (1, 2)])
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.has_node(0)
        assert g.num_edges() == 1

    def test_remove_missing_edge_raises(self):
        g = Graph([(0, 1)])
        with pytest.raises(EdgeNotFound):
            g.remove_edge(0, 2)

    def test_remove_node_removes_incident_edges(self):
        g = Graph([(0, 1), (1, 2), (2, 0)])
        g.remove_node(1)
        assert not g.has_node(1)
        assert g.num_edges() == 1
        assert g.has_edge(2, 0)

    def test_remove_missing_node_raises(self):
        g = Graph()
        with pytest.raises(NodeNotFound):
            g.remove_node(42)


class TestQueries:
    def test_neighbors(self):
        g = Graph([(0, 1), (0, 2), (0, 3)])
        assert sorted(g.neighbors(0)) == [1, 2, 3]
        assert list(g.neighbors(1)) == [0]

    def test_neighbors_unknown_node_raises(self):
        g = Graph()
        with pytest.raises(NodeNotFound):
            list(g.neighbors(0))

    def test_degree(self):
        g = Graph([(0, 1), (0, 2)])
        assert g.degree(0) == 2
        assert g.degree(2) == 1

    def test_edge_weight_missing_raises(self):
        g = Graph([(0, 1)])
        with pytest.raises(EdgeNotFound):
            g.edge_weight(1, 2)

    def test_edges_reported_once(self):
        g = Graph([(0, 1), (1, 2)])
        edges = {frozenset((u, v)) for u, v, _ in g.edges()}
        assert edges == {frozenset((0, 1)), frozenset((1, 2))}
        assert len(g.edges()) == 2

    def test_dunder_protocol(self):
        g = Graph([(0, 1)])
        assert 0 in g
        assert 7 not in g
        assert len(g) == 2
        assert sorted(g) == [0, 1]

    def test_repr_mentions_counts(self):
        g = Graph([(0, 1)])
        assert "num_nodes=2" in repr(g)
        assert "num_edges=1" in repr(g)


class TestCopySubgraph:
    def test_copy_is_independent(self):
        g = Graph([(0, 1)])
        clone = g.copy()
        clone.add_edge(1, 2)
        assert g.num_nodes() == 2
        assert clone.num_nodes() == 3

    def test_copy_preserves_weights(self):
        g = Graph()
        g.add_edge(0, 1, weight=2.5)
        assert g.copy().edge_weight(0, 1) == 2.5

    def test_copy_keeps_neighbour_order(self):
        """Relay paths and hop counts follow neighbour order, so a copy
        must iterate exactly as the edge-by-edge rebuild did — on
        random graphs after joins, removals and weight updates."""
        import numpy as np

        def oracle_copy(graph):
            clone = Graph()
            for node in graph.nodes():
                clone.add_node(node)
            for u, v, w in graph.edges():
                clone.add_edge(u, v, weight=w)
            return clone

        rng = np.random.default_rng(5)
        for trial in range(30):
            n = int(rng.integers(2, 40))
            g = Graph()
            for node in rng.permutation(n).tolist():
                g.add_node(node)
            for _ in range(int(rng.integers(1, 4 * n))):
                u, v = rng.choice(n, 2, replace=False).tolist()
                g.add_edge(u, v, weight=float(rng.integers(1, 4)))
            for step in range(10):
                if rng.random() < 0.3 and g.num_nodes() > 2:
                    g.remove_node(g.nodes()[int(rng.integers(g.num_nodes()))])
                else:
                    joiner = 1000 * (trial + 1) + step
                    for peer in rng.choice(g.nodes(), 2).tolist():
                        g.add_edge(joiner, peer)
                clone, want = g.copy(), oracle_copy(g)
                assert clone.nodes() == want.nodes()
                for node in want.nodes():
                    assert list(clone.neighbors(node)) \
                        == list(want.neighbors(node))
                    assert [clone.edge_weight(node, peer)
                            for peer in clone.neighbors(node)] \
                        == [want.edge_weight(node, peer)
                            for peer in want.neighbors(node)]

    def test_subgraph_induced(self):
        g = Graph([(0, 1), (1, 2), (2, 3), (3, 0)])
        sub = g.subgraph([0, 1, 2])
        assert sub.num_nodes() == 3
        assert sub.has_edge(0, 1)
        assert sub.has_edge(1, 2)
        assert not sub.has_edge(2, 3)

    def test_subgraph_unknown_node_raises(self):
        g = Graph([(0, 1)])
        with pytest.raises(NodeNotFound):
            g.subgraph([0, 99])
