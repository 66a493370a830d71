"""Rule compilation: turning the control-plane view (positions + DT +
topology) into per-switch forwarding state.

The compiler produces, for every switch:

* physical-neighbor entries (neighbor -> port, plus the neighbor's
  position when it participates in the DT);
* DT-neighbor positions (the greedy candidates of Algorithm 2);
* virtual-link 4-tuples ``<sour, pred, succ, dest>`` along the physical
  shortest path realizing every multi-hop DT edge.

Relay consistency: relay entries toward a DT switch ``w`` are derived
from a single BFS tree rooted at ``w``, so every relay on any virtual
link toward ``w`` agrees on the successor and the paths cannot loop.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from ..dataplane import GredSwitch, VirtualLinkEntry
from ..geometry import Point
from ..graph import Graph


def compile_port_map(topology: Graph) -> Dict[int, Dict[int, int]]:
    """Deterministic port numbering: :func:`port_row` of every switch."""
    return {node: port_row(topology, node) for node in topology.nodes()}


def port_row(topology: Graph, node: int) -> Dict[int, int]:
    """``node``'s neighbors sorted by id get ports 0, 1, 2, ..."""
    return {neighbor: port
            for port, neighbor in enumerate(sorted(topology.neighbors(node)))}


def bfs_parent_tree(topology: Graph, root: int) -> Dict[int, int]:
    """Parents pointing *toward* ``root`` (root maps to itself).

    Neighbor iteration is sorted so the tree is deterministic.  (The
    planner's truncated walk, ``plan._walk``, reads the same paths.)
    """
    parent = {root: root}
    frontier = [root]
    while frontier:
        next_frontier = []
        for u in frontier:
            for v in sorted(topology.neighbors(u)):
                if v not in parent:
                    parent[v] = u
                    next_frontier.append(v)
        frontier = next_frontier
    return parent


def path_toward(parent: Dict[int, int], source: int,
                root: int) -> List[int]:
    """The tree path from ``source`` to ``root`` (both inclusive)."""
    if source not in parent:
        raise ValueError(f"{source} cannot reach {root}")
    path = [source]
    while path[-1] != root:
        path.append(parent[path[-1]])
    return path


def install_all_rules(
    topology: Graph,
    switches: Dict[int, GredSwitch],
    positions: Dict[int, Point],
    dt_adjacency: Dict[int, Set[int]],
) -> int:
    """Install the complete forwarding state into ``switches``; returns
    the number of switch writes made (a clear and a position per
    switch, one write per port, per DT entry and per relay-path node) —
    what a southbound clear-and-reinstall would ship.

    Parameters
    ----------
    topology:
        The physical switch graph.
    switches:
        Data-plane objects to configure (must cover all topology nodes).
    positions:
        Virtual positions of every switch.
    dt_adjacency:
        DT neighbor sets over the DT-participating switch ids.
    """
    ports = compile_port_map(topology)
    dt_members = set(dt_adjacency)
    # Reset any previous DT-derived state.
    for switch in switches.values():
        switch.clear_dt_state()
    writes = len(switches)

    for node in topology.nodes():
        switch = switches[node]
        switch.install_position(positions[node])
        writes += 1 + len(ports[node])
        for neighbor, port in ports[node].items():
            neighbor_position = (
                positions[neighbor] if neighbor in dt_members else None
            )
            switch.install_physical_neighbor(
                neighbor, port, position=neighbor_position
            )

    # DT neighbor positions.
    for node, nbrs in dt_adjacency.items():
        writes += len(nbrs)
        for other in nbrs:
            switches[node].install_dt_neighbor(other, positions[other])

    # Virtual links for multi-hop DT neighbors, one BFS tree per
    # destination so relay entries are mutually consistent.
    multi_hop_dests = _multi_hop_destinations(topology, dt_adjacency)
    for dest in sorted(multi_hop_dests):
        parent = bfs_parent_tree(topology, dest)
        for sour in sorted(dt_adjacency[dest]):
            if topology.has_edge(sour, dest):
                continue  # single-hop DT neighbor: direct link suffices
            path = path_toward(parent, sour, dest)
            _install_virtual_path(switches, path)
            writes += len(path)
    return writes


def _multi_hop_destinations(
    topology: Graph, dt_adjacency: Dict[int, Set[int]]
) -> Set[int]:
    """DT switches that are a multi-hop DT neighbor of someone."""
    dests: Set[int] = set()
    for node, nbrs in dt_adjacency.items():
        for other in nbrs:
            if not topology.has_edge(node, other):
                dests.add(other)
    return dests


def _install_virtual_path(switches: Dict[int, GredSwitch],
                          path: List[int]) -> None:
    """Install ``<sour, pred, succ, dest>`` tuples along ``path``."""
    sour, dest = path[0], path[-1]
    for i, node in enumerate(path):
        pred = path[i - 1] if i > 0 else None
        succ = path[i + 1] if i < len(path) - 1 else None
        switches[node].table.install_virtual(
            VirtualLinkEntry(sour=sour, pred=pred, succ=succ, dest=dest)
        )


def average_table_entries(switches: Iterable[GredSwitch]) -> float:
    """Mean forwarding-table size over switches (Fig. 9d metric)."""
    sizes = [s.table.num_entries() for s in switches]
    if not sizes:
        return 0.0
    return sum(sizes) / len(sizes)


def table_entry_counts(switches: Iterable[GredSwitch]) -> List[int]:
    """Per-switch forwarding-table sizes."""
    return [s.table.num_entries() for s in switches]
