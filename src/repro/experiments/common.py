"""Shared plumbing for the figure-reproduction experiments.

Every experiment module exposes a ``run_*`` function that returns a list
of row dictionaries (one per x-axis point and protocol);
:mod:`~repro.experiments.catalog` names its columns and title once, so
the same table serves ``gred experiment``, the benchmarks and
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..core import GredNetwork
from ..chord import ChordNetwork
from ..edge import attach_uniform
from ..graph import Graph
from ..topology import brite_waxman_graph


def build_topology(num_switches: int, min_degree: int,
                   seed: int) -> Graph:
    """The standard experiment topology: BRITE-style Waxman."""
    topology, _ = brite_waxman_graph(
        num_switches, min_degree=min_degree,
        rng=np.random.default_rng(seed),
    )
    return topology


def build_gred(topology: Graph, servers_per_switch: int,
               cvt_iterations: int, seed: int) -> GredNetwork:
    """A GRED network with fresh uniform servers."""
    servers = attach_uniform(topology.nodes(),
                             servers_per_switch=servers_per_switch)
    return GredNetwork(
        topology, servers, cvt_iterations=cvt_iterations, seed=seed
    )


def build_chord(topology: Graph, servers_per_switch: int,
                virtual_nodes: int = 1) -> ChordNetwork:
    """A Chord network with fresh uniform servers."""
    servers = attach_uniform(topology.nodes(),
                             servers_per_switch=servers_per_switch)
    return ChordNetwork(topology, servers, virtual_nodes=virtual_nodes)


def gred_load_vector(net: GredNetwork, num_items: int,
                     prefix: str = "data") -> List[int]:
    """Per-server loads after (virtually) placing ``num_items`` items.

    Uses the closed-form destination (closest switch + ``H(d) mod s``)
    instead of routing each packet, which is equivalent by the delivery
    guarantee and keeps million-item sweeps fast.  The equivalence is
    covered by tests (routing and closed form agree on every item).
    The nearest-switch assignment is vectorized with numpy; ties (zero
    measure for hashed positions) resolve to the lowest index, matching
    the deterministic x-then-y rule up to relabeling.
    """
    from ..geometry import assign_to_sites
    from ..hashing import data_position, sha256_digest

    participants = net.controller.dt_participants()
    sites = [net.controller.positions[p] for p in participants]
    ids = [f"{prefix}-{i}" for i in range(num_items)]
    positions = np.array([data_position(d) for d in ids])
    owners = assign_to_sites(positions, sites)
    counts: Dict[tuple, int] = {}
    for data_id, owner_idx in zip(ids, owners):
        switch = participants[int(owner_idx)]
        digest = sha256_digest(data_id)
        serial = int.from_bytes(digest[:8], "big") % len(
            net.server_map[switch])
        key = (switch, serial)
        counts[key] = counts.get(key, 0) + 1
    loads = []
    for switch in sorted(net.server_map):
        for server in net.server_map[switch]:
            loads.append(counts.get((switch, server.serial), 0))
    return loads


def chord_load_vector(net: ChordNetwork, num_items: int,
                      prefix: str = "data") -> List[int]:
    """Per-server loads for Chord under the same workload."""
    counts: Dict[str, int] = {}
    for i in range(num_items):
        node = net.ring.store_node(f"{prefix}-{i}")
        counts[node.owner] = counts.get(node.owner, 0) + 1
    from ..chord import server_name

    loads = []
    for switch in sorted(net.server_map):
        for server in net.server_map[switch]:
            loads.append(counts.get(server_name(switch, server.serial), 0))
    return loads


def mean_or_zero(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sample (a report row for a
    run with no joins, no cross-region hops, ...)."""
    return sum(values) / len(values) if values else 0.0


def format_table(rows: Sequence[Dict], columns: Iterable[str],
                 title: str) -> str:
    """Rows as a titled fixed-width table.  A column is as wide as its
    name (at least 14), so every cell ends under its own header."""
    columns = list(columns)
    widths = [max(14, len(c)) for c in columns]
    header = "  ".join(f"{c:>{w}}" for c, w in zip(columns, widths))
    lines = [f"\n== {title} ==", header, "-" * len(header)]
    for row in rows:
        cells = []
        for c, w in zip(columns, widths):
            value = row.get(c, "")
            if isinstance(value, float):
                cells.append(f"{value:>{w}.3f}")
            else:
                cells.append(f"{str(value):>{w}}")
        lines.append("  ".join(cells))
    return "\n".join(lines)


def print_table(rows: Sequence[Dict], columns: Iterable[str],
                title: str) -> None:
    """Print :func:`format_table` (the bench harness output)."""
    print(format_table(rows, columns, title))
