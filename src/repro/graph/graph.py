"""A minimal undirected graph implemented from scratch.

The switch-level network topology of an edge network is modelled as an
undirected graph whose nodes are switches and whose edges are physical
links.  Only the operations the GRED control plane actually needs are
provided: mutation, neighbor queries, and iteration.  Shortest-path
algorithms live in :mod:`repro.graph.shortest_paths`.

The implementation deliberately avoids third-party graph libraries so that
the whole substrate of the reproduction is self-contained.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Tuple

from .errors import EdgeNotFound, NodeNotFound

Node = Hashable


class Graph:
    """An undirected graph with optional edge weights.

    Nodes may be any hashable value.  Edges carry a positive weight, which
    defaults to ``1.0`` (one physical hop).  Self-loops are rejected since
    they are meaningless for a network topology.

    Examples
    --------
    >>> g = Graph()
    >>> g.add_edge(0, 1)
    >>> g.add_edge(1, 2, weight=2.5)
    >>> sorted(g.neighbors(1))
    [0, 2]
    >>> g.edge_weight(1, 2)
    2.5
    """

    def __init__(self, edges: Iterable[Tuple[Node, Node]] = ()) -> None:
        self._adj: Dict[Node, Dict[Node, float]] = {}
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add ``node`` to the graph.  Adding an existing node is a no-op."""
        self._adj.setdefault(node, {})

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add an undirected edge between ``u`` and ``v``.

        Both endpoints are created if missing.  Re-adding an edge updates
        its weight.

        Raises
        ------
        ValueError
            If ``u == v`` (self-loop) or ``weight`` is not positive.
        """
        if u == v:
            raise ValueError(f"self-loops are not allowed (node {u!r})")
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        self.add_node(u)
        self.add_node(v)
        self._adj[u][v] = weight
        self._adj[v][u] = weight

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._adj:
            raise NodeNotFound(node)
        for neighbor in list(self._adj[node]):
            del self._adj[neighbor][node]
        del self._adj[node]

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge between ``u`` and ``v``."""
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFound(u, v)
        del self._adj[u][v]
        del self._adj[v][u]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_node(self, node: Node) -> bool:
        return node in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, node: Node) -> Iterator[Node]:
        """Iterate over the neighbors of ``node``."""
        if node not in self._adj:
            raise NodeNotFound(node)
        return iter(self._adj[node])

    def degree(self, node: Node) -> int:
        """Number of edges incident to ``node``."""
        if node not in self._adj:
            raise NodeNotFound(node)
        return len(self._adj[node])

    def edge_weight(self, u: Node, v: Node) -> float:
        """Weight of the edge between ``u`` and ``v``."""
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFound(u, v)
        return self._adj[u][v]

    def nodes(self) -> List[Node]:
        """All nodes, in insertion order."""
        return list(self._adj)

    def edges(self) -> List[Tuple[Node, Node, float]]:
        """All edges as ``(u, v, weight)`` with each edge reported once."""
        seen = set()
        result = []
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                key = frozenset((u, v))
                if key in seen:
                    continue
                seen.add(key)
                result.append((u, v, w))
        return result

    def num_nodes(self) -> int:
        return len(self._adj)

    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def copy(self) -> "Graph":
        """Deep copy of the adjacency structure (nodes are shared).

        Neighbour order is the one ``add_edge`` over :meth:`edges`
        gives: each edge lands in both rows when its earlier endpoint
        (in node order) is visited — the edge is new there iff the
        peer's row does not hold it yet."""
        adj = {node: {} for node in self._adj}
        for u, nbrs in self._adj.items():
            row = adj[u]
            for v, w in nbrs.items():
                if v not in row:
                    row[v] = w
                    adj[v][u] = w
        clone = Graph()
        clone._adj = adj
        return clone

    def subgraph(self, keep: Iterable[Node]) -> "Graph":
        """Graph induced on the nodes in ``keep``."""
        keep_set = set(keep)
        sub = Graph()
        for node in keep_set:
            if node not in self._adj:
                raise NodeNotFound(node)
            sub.add_node(node)
        for u, v, w in self.edges():
            if u in keep_set and v in keep_set:
                sub.add_edge(u, v, weight=w)
        return sub

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def __repr__(self) -> str:
        return (
            f"Graph(num_nodes={self.num_nodes()}, "
            f"num_edges={self.num_edges()})"
        )
