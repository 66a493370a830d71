"""Unit tests for the edge plane (servers and attachment)."""

import numpy as np
import pytest

from repro import GredNetwork, brite_waxman_graph
from repro.edge import (
    EdgeServer,
    StorageFull,
    all_servers,
    attach_heterogeneous,
    attach_uniform,
    load_vector,
)
from repro.io import from_snapshot, to_snapshot


class TestEdgeServer:
    def test_store_and_retrieve(self):
        s = EdgeServer(switch=3, serial=1)
        s.store("a", payload=b"data")
        assert s.has("a")
        assert s.retrieve("a") == b"data"
        assert s.load == 1

    def test_retrieve_missing_raises(self):
        s = EdgeServer(switch=0, serial=0)
        with pytest.raises(KeyError):
            s.retrieve("nope")

    def test_lookup_many_is_has_plus_retrieve(self):
        s = EdgeServer(switch=0, serial=0)
        s.store("a", [1, 2])
        s.store("none")  # a stored ``None`` is found, not a miss
        s.store("gone", 3)
        s.entomb("gone", (1, 0))  # tombstones are invisible to reads
        ids = ["a", "nope", "none", "a", "gone"]
        found, payloads = s.lookup_many(ids)
        assert found == [s.has(d) for d in ids] == \
            [True, False, True, True, False]
        assert payloads == [s.retrieve(d) if s.has(d) else None
                            for d in ids]
        assert payloads[0] is payloads[3] is s.retrieve("a")
        assert s.lookup_many([]) == ([], [])

    def test_overwrite_does_not_grow_load(self):
        s = EdgeServer(switch=0, serial=0)
        s.store("a", 1)
        s.store("a", 2)
        assert s.load == 1
        assert s.retrieve("a") == 2

    def test_delete(self):
        s = EdgeServer(switch=0, serial=0)
        s.store("a", 1)
        assert s.delete("a") == 1
        assert not s.has("a")
        with pytest.raises(KeyError):
            s.delete("a")

    def test_capacity_enforced(self):
        s = EdgeServer(switch=0, serial=0, capacity=2)
        s.store("a")
        s.store("b")
        assert s.is_full()
        with pytest.raises(StorageFull):
            s.store("c")

    def test_full_server_accepts_overwrite(self):
        s = EdgeServer(switch=0, serial=0, capacity=1)
        s.store("a", 1)
        s.store("a", 2)  # overwrite is fine at capacity
        assert s.retrieve("a") == 2

    def test_unbounded_server_never_full(self):
        s = EdgeServer(switch=0, serial=0)
        for i in range(1000):
            s.store(f"k{i}")
        assert not s.is_full()

    def test_utilization(self):
        s = EdgeServer(switch=0, serial=0, capacity=4)
        s.store("a")
        assert s.utilization == 0.25

    def test_utilization_unbounded_empty_is_zero(self):
        assert EdgeServer(switch=0, serial=0).utilization == 0.0

    def test_utilization_unbounded_nonempty_is_none(self):
        s = EdgeServer(switch=0, serial=0)
        s.store("a")
        assert s.utilization is None  # not NaN: no capacity to fill

    def test_utilization_zero_capacity_loaded_is_inf(self):
        s = EdgeServer(switch=0, serial=0, capacity=4)
        s.store("a")
        s.capacity = 0
        assert s.utilization == float("inf")

    def test_server_id(self):
        s = EdgeServer(switch=7, serial=2)
        assert s.server_id == (7, 2)

    def test_stored_ids_snapshot(self):
        s = EdgeServer(switch=0, serial=0)
        s.store("a")
        ids = s.stored_ids()
        s.store("b")
        assert ids == ("a",)

    def test_clear(self):
        s = EdgeServer(switch=0, serial=0)
        s.store("a")
        s.clear()
        assert s.load == 0


def test_the_server_id_is_the_pair():
    """``EdgeServer.server_id`` is set once and stays ``(switch,
    serial)`` through a join, a leave and a snapshot restore; it is no
    compared or shown field."""
    topology, _ = brite_waxman_graph(24, min_degree=3,
                                     rng=np.random.default_rng(3))
    net = GredNetwork(topology, attach_uniform(
        topology.nodes(), servers_per_switch=2), cvt_iterations=3, seed=3)
    joiner = max(net.switch_ids()) + 1
    net.add_switch(joiner, sorted(net.switch_ids())[:3],
                   servers_per_switch=2)
    assert [s.server_id for s in net.server_map[joiner]] == [
        (joiner, 0), (joiner, 1)]
    net.remove_switch(sorted(net.switch_ids())[0])
    restored = from_snapshot(to_snapshot(net))
    for each in (net, restored):
        assert all(s.server_id == (s.switch, s.serial)
                   for s in each.servers())
    server = EdgeServer(5, 1)
    assert "server_id" not in repr(server)
    assert server == EdgeServer(5, 1) and server != EdgeServer(5, 0)

class TestAttachment:
    def test_uniform_counts(self):
        m = attach_uniform([0, 1, 2], servers_per_switch=4)
        assert set(m) == {0, 1, 2}
        assert all(len(v) == 4 for v in m.values())

    def test_uniform_serials_sequential(self):
        m = attach_uniform([5], servers_per_switch=3)
        assert [s.serial for s in m[5]] == [0, 1, 2]
        assert all(s.switch == 5 for s in m[5])

    def test_uniform_invalid_count(self):
        with pytest.raises(ValueError):
            attach_uniform([0], servers_per_switch=0)

    def test_uniform_capacity_applied(self):
        m = attach_uniform([0], servers_per_switch=2, capacity=9)
        assert all(s.capacity == 9 for s in m[0])

    def test_heterogeneous_respects_range(self):
        m = attach_heterogeneous(
            list(range(20)), min_servers=2, max_servers=5,
            rng=np.random.default_rng(0),
        )
        for servers in m.values():
            assert 2 <= len(servers) <= 5

    def test_heterogeneous_capacities_from_pool(self):
        m = attach_heterogeneous(
            [0, 1], capacity_choices=(10, 20),
            rng=np.random.default_rng(1),
        )
        for servers in m.values():
            assert all(s.capacity in (10, 20) for s in servers)

    def test_heterogeneous_invalid_args(self):
        with pytest.raises(ValueError):
            attach_heterogeneous([0], min_servers=0)
        with pytest.raises(ValueError):
            attach_heterogeneous([0], min_servers=5, max_servers=2)
        with pytest.raises(ValueError):
            attach_heterogeneous([0], capacity_choices=())

    def test_all_servers_order(self):
        m = attach_uniform([2, 0, 1], servers_per_switch=2)
        flat = all_servers(m)
        assert [(s.switch, s.serial) for s in flat] == [
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)
        ]

    def test_total_and_vector(self):
        m = attach_uniform([0, 1], servers_per_switch=1)
        m[0][0].store("x")
        m[0][0].store("y")
        m[1][0].store("z")
        assert sum(s.load for s in all_servers(m)) == 3
        assert load_vector(m) == [2, 1]
