"""The join position solve as it ran per anchor in Python: the oracle
``Controller._solve_join_position`` and ``_embedding_scale`` are held
to bit for bit.

``residuals`` is one ``math.hypot`` per anchor in a list comprehension
over ``np.float64`` scalars, and ``embedding_scale`` a double loop over
the first 20 positioned nodes and every positioned node, ``e * d`` and
``d * d`` added to running floats.  ``solve_join_position`` is the
whole solve on top of them, handed the controller's positions.
"""

from __future__ import annotations

import math

from repro.geometry import euclidean
from repro.graph import HopRows, bfs_distances


def residuals(q, targets):
    """Embedded distance minus target for each ``(x, y, target)``."""
    q0, q1 = q[0], q[1]
    return [math.hypot(q0 - x, q1 - y) - target
            for x, y, target in targets]


def embedding_scale(positions, topology):
    """The least-squares hop-to-embedded factor over the sampled pairs
    (``0.1`` with fewer than two positioned nodes or no sampled pair)."""
    nodes = [n for n in topology.nodes() if n in positions]
    if len(nodes) < 2:
        return 0.1
    num = 0.0
    den = 0.0
    sample = nodes[: min(len(nodes), 20)]
    hops = HopRows(topology)
    columns = [hops.column[other] for other in nodes]
    for node, row in zip(sample, hops.rows(sample).tolist()):
        for other, column in zip(nodes, columns):
            d = row[column]
            if other == node or d <= 0:  # itself, or unreachable
                continue
            e = euclidean(positions[node], positions[other])
            num += e * d
            den += d * d
    if den == 0.0:
        return 0.1
    return num / den


def anchor_targets(positions, switch_id, topology):
    """``[(x, y, target)]`` of the joiner's anchors in BFS discovery
    order (``[]`` when it has none)."""
    anchors = []
    for node, d in bfs_distances(topology, switch_id).items():
        if node != switch_id and node in positions and d > 0:
            anchors.append((positions[node], float(d)))
    if not anchors:
        return []
    scale = embedding_scale(positions, topology)
    return [(x, y, scale * d) for (x, y), d in anchors]


def solve_join_position(positions, switch_id, topology):
    """The joiner's least-squares position, ``(0.5, 0.5)`` without
    anchors."""
    from scipy.optimize import least_squares

    targets = anchor_targets(positions, switch_id, topology)
    if not targets:
        return (0.5, 0.5)
    neighbor_positions = [positions[n] for n in topology.neighbors(switch_id)
                          if n in positions]
    if neighbor_positions:
        x0 = (sum(p[0] for p in neighbor_positions) / len(neighbor_positions),
              sum(p[1] for p in neighbor_positions) / len(neighbor_positions))
    else:
        x0 = (0.5, 0.5)
    x, y = least_squares(lambda q: residuals(q, targets), x0=list(x0)).x
    return (float(x), float(y))
