"""Chord ring: the paper's baseline DHT (Stoica et al., SIGCOMM'01).

Chord hashes nodes and keys onto a ``2^m`` identifier circle; a key is
stored at its *successor* (the first node clockwise from the key).  Each
node keeps a finger table of ``m`` entries, ``finger[k] = successor(id +
2^k)``, and lookups hop through closest-preceding fingers, taking
``O(log n)`` overlay hops.

The evaluation overlays Chord on the same physical topology as GRED: a
Chord node is an *edge server* and every overlay hop expands to the
physical shortest path between the switches hosting the two servers
(paper Fig. 1's example: an 11-physical-hop lookup whose shortest path is
only 5 hops).

Optional *virtual nodes* give each server several ring positions — the
classical Chord load-balancing lever the paper mentions ("Chord can
achieve a better load balance by adding more virtual nodes to each real
node, but it also increases the routing table space usage").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..hashing import chord_id


class ChordError(Exception):
    """Raised for invalid Chord configurations or lookups."""


def in_half_open_interval(x: int, a: int, b: int) -> bool:
    """True when ``x`` is in the ring interval ``(a, b]``.

    The interval wraps modulo the ring size; when ``a == b`` the interval
    is the whole ring (single-node case).
    """
    if a == b:
        return True
    if a < b:
        return a < x <= b
    return x > a or x <= b


def in_open_interval(x: int, a: int, b: int) -> bool:
    """True when ``x`` is in the ring interval ``(a, b)``."""
    if a == b:
        return x != a
    if a < b:
        return a < x < b
    return x > a or x < b


@dataclass(frozen=True)
class RingNode:
    """One position on the identifier circle.

    ``owner`` names the physical server; several ring nodes share one
    owner when virtual nodes are enabled.
    """

    node_id: int
    owner: str
    host_switch: int


class ChordRing:
    """A static Chord ring over a set of named servers.

    Parameters
    ----------
    members:
        Mapping ``server name -> host switch id``.
    bits:
        Ring size exponent ``m`` (default 32, matching the finger-table
        size of the original paper at practical scales).
    virtual_nodes:
        Ring positions per server (1 = plain Chord).
    """

    def __init__(self, members: Dict[str, int], bits: int = 32,
                 virtual_nodes: int = 1) -> None:
        if not members:
            raise ChordError("a Chord ring needs at least one member")
        if virtual_nodes < 1:
            raise ChordError(
                f"virtual_nodes must be >= 1, got {virtual_nodes}"
            )
        if not 8 <= bits <= 256:
            raise ChordError(f"bits must be in [8, 256], got {bits}")
        self.bits = bits
        self.virtual_nodes = virtual_nodes
        self._nodes: List[RingNode] = []
        used = set()
        for owner in sorted(members):
            host = members[owner]
            for v in range(virtual_nodes):
                label = owner if v == 0 else f"{owner}@v{v}"
                node_id = chord_id(label, bits)
                # Resolve (astronomically rare) id collisions by probing.
                while node_id in used:
                    label += "'"
                    node_id = chord_id(label, bits)
                used.add(node_id)
                self._nodes.append(
                    RingNode(node_id=node_id, owner=owner,
                             host_switch=host)
                )
        self._nodes.sort(key=lambda node: node.node_id)
        self._ids = [node.node_id for node in self._nodes]
        self._by_owner: Dict[str, List[RingNode]] = {}
        for node in self._nodes:
            self._by_owner.setdefault(node.owner, []).append(node)
        self._fingers = self._build_finger_tables()

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def ring_nodes(self) -> List[RingNode]:
        """All ring positions, sorted by id."""
        return list(self._nodes)

    def owners(self) -> List[str]:
        """All physical members."""
        return sorted(self._by_owner)

    def node_of_owner(self, owner: str) -> RingNode:
        """The first (primary) ring position of a server."""
        nodes = self._by_owner.get(owner)
        if not nodes:
            raise ChordError(f"unknown ring member {owner!r}")
        return nodes[0]

    def successor(self, key_id: int) -> RingNode:
        """The ring node that owns ``key_id`` (first node >= key)."""
        idx = bisect_left(self._ids, key_id % (2 ** self.bits))
        if idx == len(self._ids):
            idx = 0
        return self._nodes[idx]

    def _build_finger_tables(self) -> Dict[int, List[RingNode]]:
        """finger[k] = successor(node_id + 2^k) for k in 0..bits-1.

        Consecutive fingers pointing at the same node are stored once per
        distinct target; the per-node table keeps all ``bits`` entries to
        match Chord's definition (the paper's table-size comparison uses
        the full finger count).
        """
        tables: Dict[int, List[RingNode]] = {}
        ring_size = 2 ** self.bits
        for node in self._nodes:
            fingers = [
                self.successor((node.node_id + (1 << k)) % ring_size)
                for k in range(self.bits)
            ]
            tables[node.node_id] = fingers
        return tables

    def finger_table(self, node_id: int) -> List[RingNode]:
        if node_id not in self._fingers:
            raise ChordError(f"no ring node with id {node_id}")
        return list(self._fingers[node_id])

    def finger_table_size(self, node_id: int) -> int:
        """Number of *distinct* routing entries (distinct finger targets
        plus the successor)."""
        fingers = self.finger_table(node_id)
        return len({f.node_id for f in fingers})

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def store_node(self, data_id: str) -> RingNode:
        """The ring node responsible for ``data_id``."""
        return self.successor(chord_id(data_id, self.bits))

    def lookup_path(self, data_id: str, start: RingNode,
                    max_hops: Optional[int] = None) -> List[RingNode]:
        """Overlay path of a Chord lookup from ``start`` for ``data_id``.

        Implements the iterative ``find_successor`` procedure: hop to the
        closest preceding finger until the key falls between the current
        node and its successor, then hop to that successor.  The returned
        list starts at ``start`` and ends at the storage node.
        """
        key = chord_id(data_id, self.bits)
        if max_hops is None:
            max_hops = 4 * self.bits + len(self._nodes)
        path = [start]
        current = start
        if len(self._nodes) == 1:
            return path
        hops = 0
        while True:
            succ = self._successor_of_node(current)
            if in_half_open_interval(key, current.node_id, succ.node_id):
                if succ.node_id != current.node_id:
                    path.append(succ)
                return path
            nxt = self._closest_preceding_finger(current, key)
            if nxt.node_id == current.node_id:
                # Fingers give no progress; fall back to the successor.
                nxt = succ
            path.append(nxt)
            current = nxt
            hops += 1
            if hops > max_hops:
                raise ChordError(
                    f"lookup for {data_id!r} exceeded {max_hops} overlay "
                    f"hops"
                )

    def _successor_of_node(self, node: RingNode) -> RingNode:
        idx = bisect_right(self._ids, node.node_id) % len(self._nodes)
        return self._nodes[idx]

    def _closest_preceding_finger(self, node: RingNode,
                                  key: int) -> RingNode:
        for finger in reversed(self._fingers[node.node_id]):
            if in_open_interval(finger.node_id, node.node_id, key):
                return finger
        return node
