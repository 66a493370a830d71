"""Shared fixtures for the test suite."""

import weakref

import numpy as np
import pytest
from hypothesis import settings

from repro.edge import EdgeServer, attach_uniform
from repro.graph import Graph
from repro.topology import brite_waxman_graph, grid_graph, testbed_topology

#: ``pytest --hypothesis-profile=deep``: the control-plane model's long
#: walk (tests/test_controlplane_model.py); CI runs it as its own step.
settings.register_profile("deep", max_examples=50, stateful_step_count=40)


@pytest.fixture(scope="session")
def reference_engine():
    """Pin chosen networks to the reference engine (``route_packet``).

    Returns ``pin(net) -> net``.  From then on every request on that
    network — scalar and batch alike — stands down, through a
    tests-only gate appended to ``FASTPATH_GATES``.  Differential
    tests call it wherever "scalar" means "the oracle": healthy scalar
    requests ride the compiled plane, so without the pin a
    batch-vs-scalar comparison would be compiled against compiled.
    Production has no such switch.  Session-scoped (the gate fires
    only for pinned networks) so hypothesis tests may request it.
    """
    from repro.dataplane import fastpath

    pinned = weakref.WeakSet()
    patch = pytest.MonkeyPatch()
    patch.setattr(fastpath, "FASTPATH_GATES", fastpath.FASTPATH_GATES + (
        (pinned.__contains__, "pinned to the reference engine by a test"),
    ))

    def pin(net):
        pinned.add(net)
        return net

    yield pin
    patch.undo()


@pytest.fixture
def store_many_calls(monkeypatch):
    """``(server id, stamps)`` of every ``EdgeServer.store_many`` call
    (only the compiled placement body makes any)."""
    calls = []
    real = EdgeServer.store_many

    def counting(self, data_ids, payloads=None, stamps=None):
        calls.append((self.server_id, stamps))
        return real(self, data_ids, payloads, stamps)

    monkeypatch.setattr(EdgeServer, "store_many", counting)
    return calls


@pytest.fixture(scope="session")
def catalogued():
    """``catalogued(name, rows)``: assert that every column the
    experiment catalog prints for table ``name`` is a key of the rows
    its runner returned — the guard that keeps ``gred experiment`` and
    the benches from printing a blank column."""
    from repro.experiments import TABLES

    def check(name, rows):
        assert set(TABLES[name].columns) <= rows[0].keys(), name

    return check


@pytest.fixture
def rng():
    """A deterministic random generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_topology():
    """A 3x3 grid topology (9 switches, known distances)."""
    return grid_graph(3, 3)


@pytest.fixture
def testbed():
    """The paper's 6-switch testbed topology."""
    return testbed_topology()


@pytest.fixture
def waxman_topology():
    """A 30-switch BRITE-style Waxman topology (deterministic)."""
    topology, _ = brite_waxman_graph(
        30, min_degree=3, rng=np.random.default_rng(7)
    )
    return topology


@pytest.fixture
def gred_small(small_topology):
    """A small GRED network: 3x3 grid, 2 servers per switch."""
    from repro import GredNetwork

    servers = attach_uniform(small_topology.nodes(), servers_per_switch=2)
    return GredNetwork(small_topology, servers, cvt_iterations=10, seed=0)


@pytest.fixture
def gred_waxman(waxman_topology):
    """A mid-size GRED network on the Waxman topology."""
    from repro import GredNetwork

    servers = attach_uniform(waxman_topology.nodes(),
                             servers_per_switch=3)
    return GredNetwork(waxman_topology, servers, cvt_iterations=10, seed=0)


def triangle_graph() -> Graph:
    g = Graph()
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(2, 0)
    return g
