"""Differential tests of the graph substrate against networkx.

The library implements its own graph/shortest-path code (DESIGN.md:
self-contained substrates); networkx — available in the test
environment — serves as an independent oracle on random instances.
"""

import networkx as nx
import numpy as np
import pytest

from repro.graph import (
    Graph,
    all_pairs_hop_matrix,
    bfs_path,
    connected_components,
    diameter,
    is_connected,
)
from oracles.graph import dijkstra
from repro.topology import brite_waxman_graph, waxman_graph


def to_networkx(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(graph.nodes())
    for u, v, w in graph.edges():
        g.add_edge(u, v, weight=w)
    return g


def random_graph(seed: int, n: int = 40) -> Graph:
    g, _ = waxman_graph(n, alpha=0.3, beta=0.15,
                        rng=np.random.default_rng(seed), connect=False)
    return g


class TestShortestPathsDifferential:
    @pytest.mark.parametrize("seed", range(5))
    def test_hop_matrix_matches_networkx(self, seed):
        ours = random_graph(seed)
        reference = to_networkx(ours)
        matrix, order = all_pairs_hop_matrix(ours)
        lengths = dict(nx.all_pairs_shortest_path_length(reference))
        for i, u in enumerate(order):
            for j, v in enumerate(order):
                expected = lengths.get(u, {}).get(v, float("inf"))
                assert matrix[i, j] == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_bfs_path_length_matches(self, seed):
        ours = random_graph(seed + 10)
        reference = to_networkx(ours)
        rng = np.random.default_rng(seed)
        nodes = ours.nodes()
        for _ in range(10):
            u = nodes[int(rng.integers(0, len(nodes)))]
            v = nodes[int(rng.integers(0, len(nodes)))]
            if nx.has_path(reference, u, v):
                ours_len = len(bfs_path(ours, u, v)) - 1
                assert ours_len == nx.shortest_path_length(reference,
                                                           u, v)

    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_dijkstra_matches(self, seed):
        rng = np.random.default_rng(seed + 50)
        ours = Graph()
        n = 25
        for i in range(n):
            ours.add_node(i)
        for _ in range(60):
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u != v:
                ours.add_edge(u, v, weight=float(rng.uniform(0.1, 5)))
        reference = to_networkx(ours)
        dist, _ = dijkstra(ours, 0)
        expected = nx.single_source_dijkstra_path_length(reference, 0)
        assert set(dist) == set(expected)
        for node, d in dist.items():
            assert d == pytest.approx(expected[node])


class TestStructureDifferential:
    @pytest.mark.parametrize("seed", range(5))
    def test_components_match(self, seed):
        ours = random_graph(seed + 20)
        reference = to_networkx(ours)
        ours_comps = sorted(
            tuple(sorted(c)) for c in connected_components(ours))
        ref_comps = sorted(
            tuple(sorted(c)) for c in nx.connected_components(reference))
        assert ours_comps == ref_comps

    @pytest.mark.parametrize("seed", range(5))
    def test_connectivity_matches(self, seed):
        ours = random_graph(seed + 30)
        reference = to_networkx(ours)
        assert is_connected(ours) == (
            reference.number_of_nodes() > 0
            and nx.is_connected(reference)
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_diameter_matches(self, seed):
        ours, _ = brite_waxman_graph(
            30, min_degree=2, rng=np.random.default_rng(seed + 40))
        reference = to_networkx(ours)
        assert diameter(ours) == nx.diameter(reference)


class TestRandomisedOperationSequences:
    """Mirror a random mutation sequence on networkx and compare the
    resulting structure — a lightweight stateful property test."""

    @pytest.mark.parametrize("seed", range(4))
    def test_mutation_sequence_matches(self, seed):
        rng = np.random.default_rng(seed + 100)
        ours = Graph()
        mirror = nx.Graph()
        nodes = list(range(15))
        for node in nodes:
            ours.add_node(node)
            mirror.add_node(node)
        for _ in range(120):
            op = rng.integers(0, 4)
            u = int(rng.integers(0, 15))
            v = int(rng.integers(0, 15))
            if u == v:
                continue
            if op in (0, 1):  # bias toward adding
                ours.add_edge(u, v)
                mirror.add_edge(u, v)
            elif op == 2 and ours.has_edge(u, v):
                ours.remove_edge(u, v)
                mirror.remove_edge(u, v)
            elif op == 3 and ours.has_node(u) and u not in (0,):
                # Occasionally remove and re-add a node.
                ours.remove_node(u)
                mirror.remove_node(u)
                ours.add_node(u)
                mirror.add_node(u)
            assert ours.num_nodes() == mirror.number_of_nodes()
            assert ours.num_edges() == mirror.number_of_edges()
        ours_edges = {frozenset((a, b)) for a, b, _ in ours.edges()}
        mirror_edges = {frozenset(e) for e in mirror.edges()}
        assert ours_edges == mirror_edges
        for node in ours.nodes():
            assert ours.degree(node) == mirror.degree(node)
