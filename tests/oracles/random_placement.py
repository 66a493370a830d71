"""Random placement: the load-balance reference floor.

Placing each item on a uniformly random server is the balls-into-bins
optimum for hash-style placement — no locality, no deterministic
retrieval, but the best ``max/avg`` any oblivious scheme can hope for.
``tests/test_theory.py`` holds the balls-into-bins closed form to it.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.edge import ServerMap, all_servers, attach_uniform, load_vector
from repro.graph import Graph


class RandomPlacementNetwork:
    """Uniform random placement over all servers (reference only).

    Retrieval is not locatable without an external index; this baseline
    exists purely to bound the load-balance metric.
    """

    def __init__(self, topology: Graph,
                 server_map: Optional[ServerMap] = None,
                 servers_per_switch: int = 10,
                 rng: Optional[np.random.Generator] = None) -> None:
        if server_map is None:
            server_map = attach_uniform(
                topology.nodes(), servers_per_switch=servers_per_switch
            )
        self.topology = topology
        self.server_map = server_map
        self._servers = all_servers(server_map)
        self._rng = rng or np.random.default_rng(0)

    def place(self, data_id: str, payload=None) -> tuple:
        """Store on a uniformly random server; returns its id."""
        server = self._servers[
            int(self._rng.integers(0, len(self._servers)))
        ]
        server.store(data_id, payload)
        return server.server_id

    def place_many(self, count: int, prefix: str = "rand") -> None:
        """Bulk placement without payloads (fast path for benches)."""
        picks = self._rng.integers(0, len(self._servers), size=count)
        for i, idx in enumerate(picks):
            self._servers[int(idx)].store(f"{prefix}-{i}")

    def load_vector(self) -> List[int]:
        return load_vector(self.server_map)
