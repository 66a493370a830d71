"""Attaching edge servers to switches.

The paper's simulations attach a fixed number of servers to every switch
("each switch connects to 10 edge servers") but explicitly note that
"switches could connect to different numbers of edge servers or servers
with different capacity".  Both models are provided.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .server import EdgeServer

ServerMap = Dict[int, List[EdgeServer]]


def attach_uniform(switches: Iterable[int], servers_per_switch: int,
                   capacity: Optional[int] = None) -> ServerMap:
    """Attach ``servers_per_switch`` identical servers to every switch."""
    if servers_per_switch <= 0:
        raise ValueError(
            f"servers_per_switch must be positive, got {servers_per_switch}"
        )
    return {
        switch: [
            EdgeServer(switch=switch, serial=i, capacity=capacity)
            for i in range(servers_per_switch)
        ]
        for switch in switches
    }


def attach_heterogeneous(
    switches: Sequence[int],
    min_servers: int = 1,
    max_servers: int = 10,
    capacity_choices: Sequence[Optional[int]] = (None,),
    rng: np.random.Generator = None,
) -> ServerMap:
    """Attach a random number of servers with random capacities.

    Parameters
    ----------
    switches:
        Switch ids to populate.
    min_servers, max_servers:
        Inclusive range for the per-switch server count.
    capacity_choices:
        Pool of capacities sampled uniformly per server (``None`` means
        unbounded).
    rng:
        Random generator; defaults to a fixed seed.
    """
    if min_servers <= 0 or max_servers < min_servers:
        raise ValueError(
            f"invalid server count range [{min_servers}, {max_servers}]"
        )
    if not capacity_choices:
        raise ValueError("capacity_choices must be non-empty")
    if rng is None:
        rng = np.random.default_rng(0)
    result: ServerMap = {}
    choices = list(capacity_choices)
    for switch in switches:
        count = int(rng.integers(min_servers, max_servers + 1))
        servers = []
        for serial in range(count):
            capacity = choices[int(rng.integers(0, len(choices)))]
            servers.append(
                EdgeServer(switch=switch, serial=serial, capacity=capacity)
            )
        result[switch] = servers
    return result


def all_servers(server_map: ServerMap) -> List[EdgeServer]:
    """Flatten a server map into a list (switch order, then serial)."""
    flat: List[EdgeServer] = []
    for switch in sorted(server_map):
        flat.extend(server_map[switch])
    return flat


def load_vector(server_map: ServerMap) -> List[int]:
    """Per-server loads, in deterministic (switch, serial) order."""
    return [s.load for s in all_servers(server_map)]
