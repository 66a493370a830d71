"""Tests for the one-hop consistent-hashing baseline and the
random-placement oracle."""

import numpy as np
import pytest

from oracles.random_placement import RandomPlacementNetwork
from repro.baselines import ConsistentHashingNetwork
from repro.edge import attach_uniform
from repro.graph import hop_count
from repro.topology import grid_graph


@pytest.fixture
def onehop():
    topology = grid_graph(3, 3)
    servers = attach_uniform(topology.nodes(), servers_per_switch=2)
    return ConsistentHashingNetwork(topology, servers, bits=16)


class TestConsistentHashing:
    def test_owner_deterministic(self, onehop):
        assert onehop.owner_of("k") == onehop.owner_of("k")

    def test_route_takes_shortest_path(self, onehop):
        for i in range(30):
            result = onehop.route_for(f"sp-{i}", entry_switch=0)
            assert result.physical_hops == hop_count(
                onehop.topology, 0, result.destination_switch)
            assert result.trace[0] == 0
            assert result.trace[-1] == result.destination_switch

    def test_stretch_is_one(self, onehop):
        """One-hop CH routes are optimal by construction."""
        for i in range(30):
            result = onehop.route_for(f"opt-{i}", entry_switch=4)
            shortest = hop_count(onehop.topology, 4,
                                 result.destination_switch)
            assert result.physical_hops == shortest

    def test_place_stores(self, onehop):
        result = onehop.place("stored", payload=b"v", entry_switch=0)
        assert sum(onehop.load_vector()) == 1
        switch, serial = map(
            int, result.owner.replace("server-", "").split("-"))
        assert onehop.server_map[switch][serial].has("stored")

    def test_routing_state_counts_ring(self, onehop):
        assert onehop.routing_state_per_node() == 18  # 9 switches x 2

    def test_virtual_nodes_multiply_state(self):
        topology = grid_graph(2, 2)
        servers = attach_uniform(topology.nodes(), servers_per_switch=1)
        net = ConsistentHashingNetwork(topology, servers,
                                       virtual_nodes=8)
        assert net.routing_state_per_node() == 32

    def test_virtual_nodes_improve_balance(self):
        from repro.metrics import max_avg_ratio

        topology = grid_graph(3, 3)

        def balance(vnodes):
            net = ConsistentHashingNetwork(
                topology, attach_uniform(topology.nodes(), 2),
                virtual_nodes=vnodes,
            )
            counts = {}
            for i in range(20000):
                owner, _ = net.owner_of(f"b-{i}")
                counts[owner] = counts.get(owner, 0) + 1
            loads = list(counts.values()) + [0] * (18 - len(counts))
            return max_avg_ratio(loads)

        assert balance(32) < balance(1)

    def test_random_entry(self, onehop):
        result = onehop.place("r", rng=np.random.default_rng(0))
        assert result.entry_switch in onehop.topology.nodes()


class TestRandomPlacement:
    def test_items_distributed(self):
        topology = grid_graph(3, 3)
        net = RandomPlacementNetwork(
            topology, attach_uniform(topology.nodes(), 2),
            rng=np.random.default_rng(0),
        )
        net.place_many(1800)
        loads = net.load_vector()
        assert sum(loads) == 1800
        assert min(loads) > 0

    def test_balance_near_optimal(self):
        """Random placement approaches the balls-into-bins floor; its
        max/avg must beat a plain consistent-hashing ring."""
        from repro.chord import ChordRing
        from repro.metrics import max_avg_ratio

        topology = grid_graph(3, 3)
        net = RandomPlacementNetwork(
            topology, attach_uniform(topology.nodes(), 2),
            rng=np.random.default_rng(1),
        )
        net.place_many(18000)
        random_ratio = max_avg_ratio(net.load_vector())

        ring = ChordRing({f"s-{i}": i for i in range(18)}, bits=32)
        counts = {}
        for i in range(18000):
            owner = ring.store_node(f"b-{i}").owner
            counts[owner] = counts.get(owner, 0) + 1
        ring_ratio = max_avg_ratio(
            list(counts.values()) + [0] * (18 - len(counts)))
        assert random_ratio < ring_ratio

    def test_single_place_returns_server(self):
        topology = grid_graph(2, 2)
        net = RandomPlacementNetwork(
            topology, attach_uniform(topology.nodes(), 1),
            rng=np.random.default_rng(2),
        )
        server_id = net.place("one", payload=1)
        assert server_id[0] in topology.nodes()
