"""Shortest-path algorithms on :class:`repro.graph.Graph`.

The GRED control plane needs the all-pairs shortest-path (hop-count) matrix
between switches to run the M-position embedding; the evaluation harness
needs individual shortest paths to compute routing stretch; and the
multi-hop DT construction needs explicit shortest *paths* (node sequences)
between DT neighbors to derive relay entries.

Hop-count metrics use breadth-first search — per source in Python
(:func:`bfs_distances`, :func:`hop_count`, :func:`bfs_path`) or, for many
sources at once, the level-synchronous bit-matrix kernel of
:class:`HopRows`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NodeNotFound, NoPath
from .graph import Graph

Node = Hashable
_UNREACHABLE = float("inf")
#: :class:`HopRows`' mark of a cell whose row is not computed yet (an
#: unreachable one is -1).
_UNFILLED = -2


def bfs_distances(graph: Graph, source: Node) -> Dict[Node, int]:
    """Hop counts from ``source`` to every reachable node (BFS)."""
    if not graph.has_node(source):
        raise NodeNotFound(source)
    dist: Dict[Node, int] = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def bfs_path(graph: Graph, source: Node, target: Node) -> List[Node]:
    """A shortest (fewest-hops) path from ``source`` to ``target``.

    Returns the node sequence including both endpoints.  ``source ==
    target`` yields a single-node path.

    Raises
    ------
    NoPath
        If ``target`` is unreachable from ``source``.
    """
    if not graph.has_node(source):
        raise NodeNotFound(source)
    if not graph.has_node(target):
        raise NodeNotFound(target)
    if source == target:
        return [source]
    parent: Dict[Node, Node] = {source: source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v in parent:
                continue
            parent[v] = u
            if v == target:
                return _reconstruct(parent, source, target)
            queue.append(v)
    raise NoPath(source, target)


def _reconstruct(parent: Dict[Node, Node], source: Node,
                 target: Node) -> List[Node]:
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def hop_count(graph: Graph, source: Node, target: Node) -> int:
    """Number of hops on a shortest path between two nodes.

    A distance-only BFS that stops as soon as ``target`` is labelled —
    no parent bookkeeping or path reconstruction, so per-request cost
    tracking (e.g. response hops on every retrieval) stays cheap.
    """
    if not graph.has_node(source):
        raise NodeNotFound(source)
    if not graph.has_node(target):
        raise NodeNotFound(target)
    if source == target:
        return 0
    dist: Dict[Node, int] = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        d = dist[u] + 1
        for v in graph.neighbors(u):
            if v in dist:
                continue
            if v == target:
                return d
            dist[v] = d
            queue.append(v)
    raise NoPath(source, target)


class HopRows:
    """Hop counts of one topology, one row per source node, each filled
    the first time it is asked for.

    The kernel is a level-synchronous BFS from many sources at once.
    The frontier is a bit matrix over *all* ``N`` nodes — row ``v``
    holds one bit per source, packed eight to a byte — and one level
    for every source is one gather of each node's neighbour rows plus
    one segmented OR over them (``np.bitwise_or.reduceat`` along the
    adjacency in CSR form), masked by the unvisited bits.  No BLAS: a
    float32 matmul over the dense adjacency is the same level, but it
    moves 32x more bytes (all rows of 200 nodes: 1.9 ms single-threaded
    against 0.5 ms on one 2-vCPU Xeon VM), and threaded sgemm there
    stalled for 10-16 ms a level in two processes out of three.

    The object snapshots the graph when it is built (``nodes`` order,
    the ``column`` map ``node -> index`` and the adjacency); a caller
    whose topology changes drops it and builds a new one.  A row is
    ``int32``, in ``nodes`` order, with ``-1`` where the target is
    unreachable — that value never leaves :meth:`hop`, which raises
    :class:`NoPath` instead.
    """

    __slots__ = ("nodes", "column", "_neighbors", "_starts", "_hops",
                 "_view")

    def __init__(self, graph: Graph) -> None:
        self.nodes: List[Node] = graph.nodes()
        self.column: Dict[Node, int] = {
            node: i for i, node in enumerate(self.nodes)}
        n = len(self.nodes)
        column = self.column
        # Node ``v``'s segment is its neighbours and then row ``n``,
        # which no frontier ever sets: no segment is empty.
        segments = [[column[v] for v in graph.neighbors(u)] + [n]
                    for u in self.nodes]
        lengths = np.asarray([len(s) for s in segments], dtype=np.intp)
        self._starts = np.cumsum(lengths) - lengths
        self._neighbors = np.asarray(
            [v for segment in segments for v in segment], dtype=np.intp)
        # A row not computed yet holds ``_UNFILLED`` in every cell; a
        # computed one holds none (its diagonal is 0).
        self._hops = np.full((n, n), _UNFILLED, dtype=np.int32)
        self._view = memoryview(self._hops)  # cells as Python ints

    def rows(self, sources: Sequence[Node]) -> np.ndarray:
        """The ``(len(sources), N)`` int32 rows of ``sources``, in
        order; the missing ones are filled first, all in one kernel
        call.  Raises :class:`NodeNotFound` on the first unknown
        source."""
        column = self.column
        try:
            at = np.asarray([column[s] for s in sources], dtype=np.intp)
        except KeyError as missing:
            raise NodeNotFound(missing.args[0]) from None
        missing = np.unique(at[self._hops[at, at] == _UNFILLED])
        if missing.size:
            self._hops[missing] = self._levels(missing)
        return self._hops[at]

    def hop(self, source: Node, target: Node) -> int:
        """Hop count from ``source`` to ``target`` as a Python int."""
        column = self.column
        try:
            hops = self._view[column[source], column[target]]
        except KeyError as missing:
            raise NodeNotFound(missing.args[0]) from None
        if hops == _UNFILLED:
            hops = int(self.rows((source,))[0, column[target]])
        if hops < 0:
            raise NoPath(source, target)
        return hops

    def _levels(self, starts: np.ndarray) -> np.ndarray:
        """The kernel: the ``(k, N)`` rows of the node indices
        ``starts``."""
        k, n = starts.size, len(self.nodes)
        frontier = np.zeros((n + 1, k), dtype=bool)
        frontier[starts, np.arange(k)] = True
        frontier = np.packbits(frontier, axis=1)
        # (Padding bits are set here but never in a frontier.)
        unvisited = ~frontier[:n]
        hops = np.zeros((n, k), dtype=np.int32)
        while True:
            reached = np.bitwise_or.reduceat(
                frontier[self._neighbors], self._starts, axis=0)
            reached &= unvisited
            if not reached.any():
                break
            # Every node still unvisited before this level is one hop
            # further away than the levels so far.
            hops += np.unpackbits(unvisited, axis=1, count=k)
            unvisited ^= reached
            frontier[:n] = reached
        hops[np.unpackbits(unvisited, axis=1, count=k).view(bool)] = -1
        return hops.T


def all_pairs_hop_matrix(
    graph: Graph, order: Optional[Sequence[Node]] = None
) -> Tuple[np.ndarray, List[Node]]:
    """All-pairs hop-count matrix: :class:`HopRows` for every node of
    ``order``, read at ``order``'s columns.

    Parameters
    ----------
    graph:
        The topology.
    order:
        Node ordering for matrix rows/columns.  Defaults to
        ``graph.nodes()`` order.  It may be any subset or permutation
        of the nodes; paths still run through the nodes it leaves out.

    Returns
    -------
    (matrix, order):
        ``matrix[i, j]`` is the hop count between ``order[i]`` and
        ``order[j]``; ``inf`` when unreachable.
    """
    nodes = list(order) if order is not None else graph.nodes()
    hops = HopRows(graph)
    rows = hops.rows(nodes)[:, [hops.column[node] for node in nodes]]
    # C order: reductions over the matrix sum in memory order, and the
    # embedding (hence every committed report) reads it to the last bit.
    matrix = rows.astype(np.float64, order="C")
    matrix[rows < 0] = _UNREACHABLE
    return matrix, nodes

