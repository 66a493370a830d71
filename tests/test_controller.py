"""Tests for the SDN controller."""

import numpy as np
import pytest

from repro.controlplane import (
    ControlPlaneError,
    Controller,
    ControllerConfig,
)
from repro.edge import EdgeServer, attach_uniform
from repro.graph import Graph, is_connected
from repro.topology import grid_graph, line_graph


def make_controller(topology=None, servers_per_switch=2,
                    cvt_iterations=5, **config_kwargs):
    topology = topology or grid_graph(3, 3)
    servers = attach_uniform(topology.nodes(),
                             servers_per_switch=servers_per_switch)
    config = ControllerConfig(cvt_iterations=cvt_iterations,
                              **config_kwargs)
    return Controller(topology, servers, config=config)


class TestConstruction:
    def test_positions_assigned_to_all_switches(self):
        c = make_controller()
        assert set(c.positions) == set(c.topology.nodes())
        for x, y in c.positions.values():
            assert 0.0 <= x <= 1.0
            assert 0.0 <= y <= 1.0

    def test_disconnected_topology_rejected(self):
        g = Graph([(0, 1)])
        g.add_node(2)
        with pytest.raises(ControlPlaneError, match="connected"):
            Controller(g, attach_uniform(g.nodes(), 1))

    def test_unknown_server_switch_rejected(self):
        g = line_graph(2)
        servers = attach_uniform([0, 1, 5], 1)
        with pytest.raises(ControlPlaneError, match="unknown switches"):
            Controller(g, servers)

    def test_no_servers_anywhere_rejected(self):
        g = line_graph(2)
        with pytest.raises(ControlPlaneError, match="edge server"):
            Controller(g, {})

    def test_relay_only_switches_excluded_from_dt(self):
        g = line_graph(3)
        servers = {0: [EdgeServer(0, 0)], 2: [EdgeServer(2, 0)]}
        c = Controller(g, servers,
                       config=ControllerConfig(cvt_iterations=0))
        assert set(c.dt_participants()) == {0, 2}
        assert set(c.dt_adjacency()) == {0, 2}
        assert not c.switches[1].in_dt

    def test_dt_adjacency_symmetric(self):
        c = make_controller()
        adjacency = c.dt_adjacency()
        for node, nbrs in adjacency.items():
            for other in nbrs:
                assert node in adjacency[other]

    def test_nocvt_variant_keeps_mds_positions(self):
        topo = grid_graph(3, 3)
        c0 = make_controller(topo, cvt_iterations=0)
        c1 = make_controller(topo, cvt_iterations=20)
        assert c0.positions != c1.positions

    def test_deterministic_given_seed(self):
        topo = grid_graph(3, 3)
        c1 = make_controller(topo, cvt_iterations=5, seed=3)
        c2 = make_controller(topo, cvt_iterations=5, seed=3)
        assert c1.positions == c2.positions


class TestClosestSwitch:
    def test_matches_brute_force(self):
        from repro.geometry import euclidean

        c = make_controller()
        rng = np.random.default_rng(0)
        for q in rng.uniform(0, 1, size=(20, 2)):
            q = tuple(q)
            found = c.closest_switch(q)
            best = min(
                c.dt_participants(),
                key=lambda n: (euclidean(c.positions[n], q),
                               c.positions[n][0], c.positions[n][1]),
            )
            assert found == best

    def test_switch_position_unknown_raises(self):
        c = make_controller()
        with pytest.raises(ControlPlaneError):
            c.switch_position(999)


class TestRangeExtension:
    def test_extend_installs_entry(self):
        c = make_controller()
        entry = c.extend_range(4, 0)
        assert c.switches[4].table.extension_for(0) == entry
        assert entry.target_switch in list(c.topology.neighbors(4))

    def test_extend_picks_most_remaining_capacity(self):
        g = line_graph(3)
        servers = {
            0: [EdgeServer(0, 0, capacity=10)],
            1: [EdgeServer(1, 0, capacity=5)],
            2: [EdgeServer(2, 0, capacity=100)],
        }
        c = Controller(g, servers,
                       config=ControllerConfig(cvt_iterations=0))
        entry = c.extend_range(1, 0)
        # Neighbors of 1 are 0 (remaining 10) and 2 (remaining 100).
        assert entry.target_switch == 2

    def test_extend_skips_full_neighbors(self):
        g = line_graph(3)
        full = EdgeServer(2, 0, capacity=1)
        full.store("x")
        servers = {
            0: [EdgeServer(0, 0, capacity=10)],
            1: [EdgeServer(1, 0, capacity=5)],
            2: [full],
        }
        c = Controller(g, servers,
                       config=ControllerConfig(cvt_iterations=0))
        entry = c.extend_range(1, 0)
        assert entry.target_switch == 0

    def test_double_extend_rejected(self):
        c = make_controller()
        c.extend_range(4, 0)
        with pytest.raises(ControlPlaneError, match="already"):
            c.extend_range(4, 0)

    def test_unknown_server_rejected(self):
        c = make_controller()
        with pytest.raises(ControlPlaneError, match="unknown server"):
            c.extend_range(4, 99)

    def test_retract(self):
        c = make_controller()
        c.extend_range(4, 0)
        c.retract_range(4, 0)
        assert c.switches[4].table.extension_for(0) is None

    def test_retract_without_extension_rejected(self):
        c = make_controller()
        with pytest.raises(ControlPlaneError, match="no active"):
            c.retract_range(4, 0)


class TestDynamics:
    def test_add_switch_extends_topology_and_dt(self):
        c = make_controller()
        before = set(c.dt_participants())
        c.add_switch(100, links=[0, 1], servers=[EdgeServer(100, 0)])
        assert c.topology.has_node(100)
        assert is_connected(c.topology)
        assert set(c.dt_participants()) == before | {100}
        assert 100 in c.positions
        assert 100 in c.dt_adjacency()

    def test_add_switch_position_near_neighbors(self):
        """The join position solver must place the new switch closer to
        its physical neighbors than to the far side of the network."""
        from repro.geometry import euclidean

        topo = grid_graph(3, 3)
        c = make_controller(topo, cvt_iterations=0)
        c.add_switch(100, links=[0], servers=[EdgeServer(100, 0)])
        pos = c.positions[100]
        near = euclidean(pos, c.positions[0])
        far = euclidean(pos, c.positions[8])
        assert near < far

    def test_add_relay_only_switch(self):
        c = make_controller()
        before = set(c.dt_participants())
        c.add_switch(50, links=[0], servers=[])
        assert set(c.dt_participants()) == before
        assert not c.switches[50].in_dt

    def test_add_duplicate_switch_rejected(self):
        c = make_controller()
        with pytest.raises(ControlPlaneError, match="already exists"):
            c.add_switch(0, links=[1], servers=[])

    def test_add_switch_without_links_rejected(self):
        c = make_controller()
        with pytest.raises(ControlPlaneError, match="at least one"):
            c.add_switch(100, links=[], servers=[])

    def test_add_switch_unknown_peer_rejected(self):
        c = make_controller()
        with pytest.raises(ControlPlaneError, match="unknown link peer"):
            c.add_switch(100, links=[999], servers=[])

    def test_add_switch_with_servers_of_another_switch_rejected(self):
        """A joiner's servers are ``(switch_id, i)`` for every ``i``:
        anything else is refused before the topology is touched."""
        c = make_controller()
        version = c.version
        for servers in ([EdgeServer(5, 0)], [EdgeServer(100, 1)],
                        [EdgeServer(100, 0), EdgeServer(100, 0)]):
            with pytest.raises(ControlPlaneError,
                               match="servers of joining switch 100"):
                c.add_switch(100, links=[0, 1], servers=servers)
        assert not c.topology.has_node(100)
        assert 100 not in c.server_map
        assert c.version == version

    def test_remove_switch(self):
        c = make_controller()
        c.remove_switch(4)  # grid center: remaining ring is connected
        assert not c.topology.has_node(4)
        assert 4 not in c.positions
        assert 4 not in c.dt_adjacency()
        assert is_connected(c.topology)

    def test_remove_articulation_switch_rejected(self):
        g = line_graph(3)
        c = Controller(g, attach_uniform(g.nodes(), 1),
                       config=ControllerConfig(cvt_iterations=0))
        with pytest.raises(ControlPlaneError, match="disconnect"):
            c.remove_switch(1)

    def test_remove_unknown_switch_rejected(self):
        c = make_controller()
        with pytest.raises(ControlPlaneError, match="unknown switch"):
            c.remove_switch(12345)
