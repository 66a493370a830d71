"""Tests for the control-plane rule compiler."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane import (
    average_table_entries,
    bfs_parent_tree,
    compile_port_map,
    install_all_rules,
    path_toward,
    table_entry_counts,
)
from repro.controlplane.plan import _walk
from repro.dataplane import GredSwitch, VirtualLinkEntry
from repro.graph import Graph
from repro.topology import brite_waxman_graph, grid_graph, line_graph


class TestPortMap:
    def test_ports_deterministic_sorted(self):
        g = Graph([(0, 2), (0, 1), (0, 3)])
        ports = compile_port_map(g)
        assert ports[0] == {1: 0, 2: 1, 3: 2}

    def test_every_node_present(self):
        g = grid_graph(2, 2)
        ports = compile_port_map(g)
        assert set(ports) == set(g.nodes())


class TestBfsTree:
    def test_parent_tree_root_self(self):
        g = line_graph(4)
        parent = bfs_parent_tree(g, 3)
        assert parent[3] == 3
        assert parent[0] == 1

    def test_path_toward(self):
        g = line_graph(5)
        parent = bfs_parent_tree(g, 4)
        assert path_toward(parent, 0, 4) == [0, 1, 2, 3, 4]

    def test_path_toward_unreachable(self):
        g = Graph([(0, 1)])
        g.add_node(2)
        parent = bfs_parent_tree(g, 0)
        import pytest

        with pytest.raises(ValueError):
            path_toward(parent, 2, 0)


@settings(max_examples=40, deadline=None)
@given(size=st.integers(min_value=2, max_value=40),
       seed=st.integers(min_value=0, max_value=10 ** 6),
       picks=st.lists(st.integers(min_value=0, max_value=10 ** 6),
                      min_size=0, max_size=6))
def test_early_exit_tree_is_the_full_tree_on_its_paths(size, seed,
                                                       picks):
    """Stopped once its last source is reached, the planner's relay
    walk writes the tuples the full tree's paths give (later sources
    overwriting earlier ones, as the installer does).  Its record holds
    the full tree's depth for every switch it discovered, flags exactly
    the full tree's parents among them, and goes no deeper than the
    farthest source, having discovered everything shallower."""
    topology, _ = brite_waxman_graph(
        size, min_degree=min(2, size - 1),
        rng=np.random.default_rng(seed))
    nodes = topology.nodes()
    root = nodes[seed % len(nodes)]
    sources = tuple(sorted({nodes[p % len(nodes)] for p in picks} - {root},
                           reverse=True))
    ports = compile_port_map(topology)
    ids = list(ports)
    slots = {node: slot for slot, node in enumerate(ids)}
    code, reach, holders = _walk(
        [[slots[n] for n in ports[node]] for node in ids], ids, slots, root,
        sources, [0] * len(ids))
    full = bfs_parent_tree(topology, root)
    depth = {n: len(path_toward(full, n, root)) - 1 for n in full}
    want = {}
    for sour in reversed(sources):
        path = path_toward(full, sour, root)
        for i, node in enumerate(path):
            want[node] = VirtualLinkEntry(
                sour=sour, pred=path[i - 1] if i else None,
                succ=path[i + 1] if i < len(path) - 1 else None,
                dest=root)
    assert holders == want
    seen = {ids[slot]: mark for slot, mark in enumerate(code) if mark}
    assert all(code // 2 - 1 == depth[n] for n, code in seen.items())
    assert {n for n, code in seen.items() if code & 1} == \
        {full[n] for n in seen if n != root}
    deepest = max((depth[s] for s in sources), default=0)
    assert reach == deepest
    assert all(depth[n] <= deepest for n in seen)
    assert all(n in seen for n in nodes if depth[n] < deepest)


class TestInstallAllRules:
    def _setup(self, topology, positions, dt_adjacency, servers=None):
        switches = {
            node: GredSwitch(
                switch_id=node,
                position=positions[node],
                num_servers=(servers or {}).get(node, 1),
            )
            for node in topology.nodes()
        }
        install_all_rules(topology, switches, positions, dt_adjacency)
        return switches

    def test_physical_positions_only_for_dt_members(self):
        g = line_graph(3)
        positions = {0: (0.1, 0.5), 1: (0.5, 0.5), 2: (0.9, 0.5)}
        dt = {0: {2}, 2: {0}}  # switch 1 is relay-only
        switches = self._setup(g, positions, dt, servers={0: 1, 1: 0, 2: 1})
        assert 1 not in switches[0].physical_neighbor_positions
        assert switches[0].table.physical_port(1) is not None

    def test_virtual_path_installed_on_all_path_nodes(self):
        g = line_graph(4)
        positions = {i: (0.1 + 0.25 * i, 0.5) for i in range(4)}
        dt = {0: {3}, 3: {0}}
        switches = self._setup(g, positions, dt,
                               servers={0: 1, 1: 0, 2: 0, 3: 1})
        # Toward dest 3: source 0 and relays 1, 2 carry entries.
        assert switches[0].table.virtual_entry(3).succ == 1
        assert switches[1].table.virtual_entry(3).succ == 2
        assert switches[2].table.virtual_entry(3).succ == 3
        assert switches[3].table.virtual_entry(3).succ is None
        # And the reverse direction toward 0.
        assert switches[3].table.virtual_entry(0).succ == 2

    def test_single_hop_dt_neighbors_get_no_virtual_entries(self):
        g = line_graph(2)
        positions = {0: (0.2, 0.5), 1: (0.8, 0.5)}
        dt = {0: {1}, 1: {0}}
        switches = self._setup(g, positions, dt)
        assert switches[0].table.virtual_entries() == []
        assert switches[1].table.virtual_entries() == []

    def test_dt_neighbor_positions_installed(self):
        g = line_graph(3)
        positions = {0: (0.1, 0.5), 1: (0.5, 0.5), 2: (0.9, 0.5)}
        dt = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
        switches = self._setup(g, positions, dt)
        assert switches[0].dt_neighbor_positions[2] == (0.9, 0.5)

    def test_reinstall_clears_previous_state(self):
        g = line_graph(3)
        positions = {0: (0.1, 0.5), 1: (0.5, 0.5), 2: (0.9, 0.5)}
        dt_full = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
        switches = self._setup(g, positions, dt_full)
        # Reinstall with a smaller DT: old entries must vanish.
        install_all_rules(g, switches, positions,
                          {0: {1}, 1: {0, 2}, 2: {1}})
        assert 2 not in switches[0].dt_neighbor_positions
        assert switches[0].table.virtual_entry(2) is None


class TestAccounting:
    def test_table_entry_counts(self):
        g = line_graph(3)
        positions = {0: (0.1, 0.5), 1: (0.5, 0.5), 2: (0.9, 0.5)}
        dt = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
        switches = {
            node: GredSwitch(node, positions[node], num_servers=1)
            for node in g.nodes()
        }
        install_all_rules(g, switches, positions, dt)
        counts = table_entry_counts(switches.values())
        # Switch 0: 1 physical + source tuple toward 2 + terminal tuple
        # for the link ending at 0; switch 1: 2 physical + relay tuples
        # toward 0 and 2; switch 2: mirror of 0.
        assert counts == [3, 4, 3]
        assert average_table_entries(switches.values()) == sum(counts) / 3

    def test_average_of_empty(self):
        assert average_table_entries([]) == 0.0
