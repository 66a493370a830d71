"""A join's position solve in array passes ≡ the per-anchor Python
solve, bit for bit.

The oracle (``tests/oracles/join_solve.py``) is the solve as it ran
one anchor at a time: a residual list of ``math.hypot`` terms over
``np.float64`` scalars and a double loop for the embedding scale.  The
controller builds its anchor columns once and runs each residual as
two subtractions, one ``map(math.hypot, …)`` and one subtraction, and
the scale as one ``(20, n)`` pass folded left to right.  The residual
vectors, the scale and the solved ``(x, y)`` of successive joins must
be ``==`` — not close — to the oracle's (DESIGN.md §5g).
"""

import math
from functools import reduce
from operator import add

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import join_solve as oracle

from repro.controlplane import Controller, ControllerConfig
from repro.controlplane.controller import _join_jacobian, _join_residuals
from repro.edge import EdgeServer, attach_uniform
from repro.topology import brite_waxman_graph, line_graph

unit = st.floats(0.0, 1.0, allow_nan=False)


def columns(targets):
    """The controller's anchor columns of an oracle target list."""
    return tuple(np.array(column, dtype=np.float64)
                 for column in zip(*targets))


@settings(max_examples=200, deadline=None)
@given(anchors=st.lists(st.tuples(unit, unit, st.floats(0.0, 2.0)),
                        min_size=1, max_size=60),
       q=st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)))
def test_residuals_are_the_comprehension(anchors, q):
    q = np.array(q, dtype=np.float64)
    got = _join_residuals(q, *columns(anchors))
    assert got.dtype == np.float64
    assert got.tolist() == oracle.residuals(q, anchors)


@settings(max_examples=200, deadline=None)
@given(anchors=st.lists(st.tuples(unit, unit, st.floats(0.0, 2.0)),
                        min_size=1, max_size=60),
       q=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
def test_the_jacobian_is_scipys_two_point_estimate(anchors, q):
    """The solve's ``jac=`` is what ``least_squares`` would estimate
    itself (``jac="2-point"``), bit for bit and in its memory layout,
    so handing it over moves no solved position."""
    from scipy.optimize import least_squares
    from scipy.optimize._numdiff import approx_derivative

    xs, ys, targets = columns(anchors)
    q = np.array(q, dtype=np.float64)
    want = np.atleast_2d(approx_derivative(
        _join_residuals, q, method="2-point", args=(xs, ys, targets)))
    got = _join_jacobian(q, xs, ys, targets)
    assert got.shape == want.shape
    assert (got.flags.c_contiguous, got.flags.f_contiguous) == (
        want.flags.c_contiguous, want.flags.f_contiguous)
    assert got.tobytes() == want.tobytes()
    for x0 in ([0.5, 0.5], list(q)):
        plain = least_squares(_join_residuals, x0, args=(xs, ys, targets))
        given_jac = least_squares(_join_residuals, x0, jac=_join_jacobian,
                                  args=(xs, ys, targets))
        assert given_jac.x.tobytes() == plain.x.tobytes()
        assert given_jac.nfev == plain.nfev


def test_the_scale_is_a_left_fold():
    """On this path and these positions the row-major left fold of
    ``e * d`` rounds differently from ``np.sum`` (pairwise) and from
    ``math.fsum`` (exact); the scale is the fold.  On Python 3.11 the
    builtin ``sum`` is that same fold, on 3.12 it compensates."""
    positions = {0: (0.8, 0.6), 1: (0.5, 0.3), 2: (0.3, 0.1),
                 3: (0.1, 0.1), 4: (0.2, 0.8)}
    topology = line_graph(5)
    controller = Controller(topology, attach_uniform(topology.nodes(), 1),
                            config=ControllerConfig(cvt_iterations=0))
    controller.recompute(positions=positions)
    products = [math.hypot(a[0] - b[0], a[1] - b[1]) * abs(i - j)
                for i, a in positions.items()
                for j, b in positions.items() if i != j]
    den = float(sum(abs(i - j) ** 2 for i in positions for j in positions))
    fold = reduce(add, products, 0.0) / den
    assert fold != float(np.sum(products)) / den
    assert fold != math.fsum(products) / den
    assert controller._embedding_scale(topology) == fold
    assert oracle.embedding_scale(positions, topology) == fold


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(switches=st.integers(30, 120), seed=st.integers(0, 2**16),
       data=st.data())
def test_successive_joins_solve_bit_for_bit(switches, seed, data):
    topology, _ = brite_waxman_graph(switches,
                                     rng=np.random.default_rng(seed))
    controller = Controller(topology, attach_uniform(topology.nodes(), 1),
                            config=ControllerConfig(cvt_iterations=2,
                                                    seed=seed))
    for joiner in range(10_000, 10_000 + data.draw(st.integers(1, 4))):
        nodes = controller.topology.nodes()
        links = data.draw(st.lists(st.sampled_from(nodes), min_size=1,
                                   max_size=3, unique=True))
        servers = data.draw(st.sampled_from([[], [EdgeServer(joiner, 0)]]))
        joined = controller.topology.copy()
        joined.add_node(joiner)
        for peer in links:
            joined.add_edge(joiner, peer)
        positions = controller.positions
        assert controller._embedding_scale(joined) == \
            oracle.embedding_scale(positions, joined)
        targets = oracle.anchor_targets(positions, joiner, joined)
        anchors = columns(targets)
        for q in ([0.5, 0.5], list(positions[links[0]])):
            q = np.array(q, dtype=np.float64)
            assert _join_residuals(q, *anchors).tolist() == \
                oracle.residuals(q, targets)
        solved = controller._solve_join_position(joiner, joined)
        assert solved == oracle.solve_join_position(positions, joiner,
                                                    joined)
        controller.add_switch(joiner, links, servers)
