"""Tests for network dynamics: switch join and leave (paper Section VI)."""

import numpy as np
import pytest

from repro import GredNetwork
from repro.controlplane import ControlPlaneError
from repro.core import GredError
from repro.edge import EdgeServer, StorageFull, attach_uniform
from repro.hashing import server_index
from repro.topology import grid_graph


@pytest.fixture
def net():
    topology = grid_graph(3, 3)
    servers = attach_uniform(topology.nodes(), servers_per_switch=2)
    return GredNetwork(topology, servers, cvt_iterations=5, seed=0)


def belongs_to(net, data_id, switch, serial):
    """The per-item ownership rule ``GredNetwork._belong`` decides in
    one pass (its oracle): the switch closest to the item's position,
    the ``H(d) mod s`` server there, extensions ignored."""
    dest = net.controller.closest_switch(net._position_fn(data_id))
    return dest == switch and server_index(
        data_id, len(net.server_map[switch])) == serial


def place_many(net, count, prefix="dyn"):
    ids = [f"{prefix}-{i}" for i in range(count)]
    for data_id in ids:
        net.place(data_id, payload=data_id.encode(), entry_switch=0)
    return ids


class TestJoin:
    def test_join_preserves_all_data(self, net):
        ids = place_many(net, 60)
        net.add_switch(100, links=[0, 1], servers_per_switch=2)
        for data_id in ids:
            result = net.retrieve(data_id, entry_switch=2)
            assert result.found, data_id
            assert result.payload == data_id.encode()

    def test_join_attracts_its_hash_range(self, net):
        """After the join, any item whose closest switch is the new one
        must be retrievable and stored under it."""
        place_many(net, 80, prefix="attract")
        net.add_switch(100, links=[4], servers_per_switch=2)
        owned = [
            f"attract-{i}" for i in range(80)
            if net.destination_switch(f"attract-{i}") == 100
        ]
        for data_id in owned:
            result = net.retrieve(data_id, entry_switch=0)
            assert result.found
            assert result.server_id[0] == 100

    def test_join_migration_counts_moved_items(self, net):
        place_many(net, 80, prefix="count")
        moved = net.add_switch(100, links=[4], servers_per_switch=2)
        stored_on_new = sum(
            s.load for s in net.server_map[100]
        )
        assert moved == stored_on_new

    def test_relay_join_moves_nothing(self, net):
        place_many(net, 30)
        moved = net.add_switch(100, links=[0], servers_per_switch=0)
        assert moved == 0

    def test_join_then_place_routes_through_new_switch(self, net):
        net.add_switch(100, links=[0, 8], servers_per_switch=2)
        # New switch participates: some item must land there eventually.
        landed = any(
            net.destination_switch(f"lands-{i}") == 100
            for i in range(500)
        )
        assert landed


class TestJoinValidation:
    def test_duplicate_id_rejected(self, net):
        with pytest.raises(GredError, match="already exists"):
            net.add_switch(4, links=[0], servers_per_switch=1)

    def test_unknown_link_peer_rejected(self, net):
        with pytest.raises(GredError, match="do not exist"):
            net.add_switch(100, links=[0, 999], servers_per_switch=1)

    def test_failed_join_leaves_state_intact(self, net):
        ids = place_many(net, 20, prefix="intact")
        before_nodes = sorted(net.switch_ids())
        with pytest.raises(GredError):
            net.add_switch(100, links=[999], servers_per_switch=1)
        assert sorted(net.switch_ids()) == before_nodes
        assert not net.topology.has_node(100)
        assert 100 not in net.server_map
        for data_id in ids:
            assert net.retrieve(data_id, entry_switch=0).found

    def test_join_with_another_switchs_server_rejected(self):
        """A joiner handed switch 5's server would have stored items
        it reports as served by ``(5, 0)`` — unreadable once 5 leaves.
        The join is refused and nothing changes."""
        topology = grid_graph(4, 4)
        net = GredNetwork(topology, servers_per_switch=2,
                          cvt_iterations=5, seed=0)
        ids = [f"foreign-{i}" for i in range(100)]
        net.place_many(ids, entry_switches=[i % 16 for i in range(100)])
        loads = net.load_vector()
        with pytest.raises(ControlPlaneError, match="joining switch 100"):
            net.add_switch(100, [0, 5], servers=[EdgeServer(5, 0)])
        assert not net.topology.has_node(100)
        assert net.load_vector() == loads
        net.remove_switch(5)
        assert all(r.found for r in net.retrieve_many(ids))

    def test_join_still_works_after_rejection(self, net):
        with pytest.raises(GredError):
            net.add_switch(100, links=[999])
        net.add_switch(100, links=[0, 1], servers_per_switch=1)
        assert net.topology.has_node(100)


class TestLeave:
    def test_leave_preserves_all_data(self, net):
        ids = place_many(net, 60, prefix="leave")
        net.remove_switch(4)
        for data_id in ids:
            result = net.retrieve(data_id, entry_switch=0)
            assert result.found, data_id
            assert result.payload == data_id.encode()

    def test_leave_reports_replaced_count(self, net):
        place_many(net, 60, prefix="gone")
        on_victim = sum(s.load for s in net.server_map[4])
        replaced = net.remove_switch(4)
        assert replaced == on_victim

    def test_leave_items_land_on_valid_servers(self, net):
        place_many(net, 60, prefix="relo")
        net.remove_switch(4)
        for data_id in [f"relo-{i}" for i in range(60)]:
            result = net.retrieve(data_id, entry_switch=0)
            assert result.server_id[0] != 4

    def test_remove_unknown_switch_rejected(self, net):
        with pytest.raises(GredError, match="unknown switch"):
            net.remove_switch(999)

    def test_remove_last_switch_rejected(self):
        # Shrink a two-switch network to one, then try to empty it.
        from repro.topology import line_graph

        topo = line_graph(2)
        net = GredNetwork(topo, attach_uniform(topo.nodes(), 1),
                          cvt_iterations=0)
        net.place("survivor", payload=b"x", entry_switch=0)
        net.remove_switch(1)
        with pytest.raises(GredError, match="empty network"):
            net.remove_switch(0)
        # The refusal left the switch (and its data) in place.
        assert net.switch_ids() == [0]
        assert net.retrieve("survivor", entry_switch=0).found

    def test_leave_articulation_rejected(self, net):
        # Build a line where the middle switch is an articulation point.
        from repro.topology import line_graph

        topo = line_graph(3)
        line_net = GredNetwork(topo, attach_uniform(topo.nodes(), 1),
                               cvt_iterations=0)
        with pytest.raises(ControlPlaneError, match="disconnect"):
            line_net.remove_switch(1)


class TestJoinLeaveCycle:
    def test_repeated_churn_keeps_data(self, net):
        ids = place_many(net, 40, prefix="churn")
        net.add_switch(100, links=[0, 4], servers_per_switch=2)
        net.add_switch(101, links=[100, 8], servers_per_switch=1)
        net.remove_switch(100)
        for data_id in ids:
            result = net.retrieve(data_id, entry_switch=1)
            assert result.found, data_id

    def test_routing_still_correct_after_churn(self, net):
        from repro.hashing import data_position

        net.add_switch(100, links=[0, 4], servers_per_switch=2)
        net.remove_switch(8)
        for i in range(30):
            data_id = f"post-churn-{i}"
            route = net.route_for(data_id, entry_switch=0)
            expected = net.controller.closest_switch(
                data_position(data_id))
            assert route.destination_switch == expected


# ---------------------------------------------------------------------
# a graceful leave never loses data: monolith and 4-region federation
# ---------------------------------------------------------------------
def _waxman_monolith():
    from repro import brite_waxman_graph

    topology, _ = brite_waxman_graph(
        30, min_degree=3, rng=np.random.default_rng(0))
    return GredNetwork(topology, attach_uniform(topology.nodes(), 2),
                       cvt_iterations=8, seed=0)


def _federation():
    from repro.controlplane import FederatedNetwork
    from repro.topology import federated_topology

    topology, assignment = federated_topology(4, 10, min_degree=2,
                                              seed=0)
    return FederatedNetwork(topology, assignment=assignment,
                            servers_per_switch=2, cvt_iterations=5,
                            seed=0)


def _line_monolith():
    from repro.topology import line_graph

    topology = line_graph(5)
    return GredNetwork(topology, attach_uniform(topology.nodes(), 2),
                       cvt_iterations=0)


def _line_federation():
    """Four regions, each a 5-switch line joined end to end in a ring:
    the middle switch of a region is an articulation point of its
    shard and not a gateway."""
    from repro.controlplane import FederatedNetwork
    from repro.graph import Graph

    topology = Graph()
    for switch in range(20):
        topology.add_node(switch)
    for switch in range(20):
        if switch % 5 != 4:
            topology.add_edge(switch, switch + 1)
    for region in range(4):
        topology.add_edge(5 * region + 4, (5 * region + 5) % 20)
    return FederatedNetwork(
        topology, assignment={s: s // 5 for s in range(20)},
        servers_per_switch=2, cvt_iterations=0)


def _shard_nets(system):
    shards = getattr(system, "shards", None)
    if shards is None:
        return [system]
    return [shards[rid].net for rid in sorted(shards)]


def _gateways(system):
    return {g for shard in getattr(system, "shards", {}).values()
            for g in shard.gateways}


def _can_leave(net, switch):
    from repro.graph import is_connected

    rest = net.topology.copy()
    rest.remove_node(switch)
    return is_connected(rest)


def _extend_toward_removable(system, takeover_leaves):
    """Install one range extension ``(home, 0) -> takeover`` on some
    shard, for a home server that attracts items, such that the switch
    that is going to leave (the takeover when ``takeover_leaves``,
    else the home) is free to."""
    barred = _gateways(system)
    for net in _shard_nets(system):
        for home in net.switch_ids():
            if not net.server(home, 0).load:
                continue
            net.extend_range(home, 0)
            entry = net.controller.switches[home].table.extension_for(0)
            leaver = entry.target_switch if takeover_leaves else home
            if leaver not in barred and _can_leave(net, leaver):
                return net, home, entry
            net.retract_range(home, 0)
    raise AssertionError("no removable extension pair in the fixture")


def _storage(system):
    return {server.server_id: {
        item: (server.retrieve(item), server.stamp_of(item))
        for item in server.stored_ids()}
        for net in _shard_nets(system) for server in net.servers()}


def _assert_healthy(system, ids, entries):
    """Every item retrievable with its payload, no extension pointing
    at a departed switch, the verifier clean, batch ≡ scalar."""
    from repro.controlplane.verification import verify_installed_state

    batch = system.retrieve_many(ids, entry_switches=entries)
    assert [r.found for r in batch] == [True] * len(ids)
    assert [r.payload for r in batch] == ids
    assert batch == [system.retrieve(d, entry_switch=e)
                     for d, e in zip(ids, entries)]
    for net in _shard_nets(system):
        assert verify_installed_state(net.controller) == []
        for switch in net.controller.switches.values():
            for entry in switch.table.extensions():
                assert net.topology.has_node(entry.target_switch)


@pytest.mark.parametrize("build", [_waxman_monolith, _federation])
class TestLeaveWithExtensions:
    def test_takeover_switch_leaves(self, build):
        system = build()
        ids = [f"leave/{i}" for i in range(800)]
        system.place_many(ids[:400], payloads=ids[:400],
                          rng=np.random.default_rng(1))
        net, home, entry = _extend_toward_removable(system, True)
        system.place_many(ids[400:], payloads=ids[400:],
                          rng=np.random.default_rng(2))
        takeover = entry.target_switch
        on_takeover = sum(s.load for s in net.server_map[takeover])
        assert on_takeover > 0
        assert system.remove_switch(takeover) == on_takeover
        assert net.controller.switches[home].table.extension_for(0) \
            is None
        survivors = system.switch_ids()
        entries = [survivors[i % len(survivors)]
                   for i in range(len(ids))]
        _assert_healthy(system, ids, entries)
        # Writes and deletes toward the formerly extended range work
        # again on the shard, scalar and batch alike.
        from test_range_extension import find_item_for_server

        fresh = [find_item_for_server(net, home, 0, prefix=f"after{k}")
                 for k in range(2)]
        entry_switch = net.switch_ids()[0]
        net.place(fresh[0], payload="a", entry_switch=entry_switch)
        net.place_many(fresh[1:], payloads=["b"],
                       entry_switches=[entry_switch])
        assert net.server(home, 0).has(fresh[0])
        assert net.server(home, 0).has(fresh[1])
        assert net.delete(fresh[0], entry_switch=entry_switch) == 1

    def test_extended_switch_leaves(self, build):
        # The leaver's own extension had redirected part of its range
        # to a neighbor: those items re-deliver too.
        system = build()
        ids = [f"own/{i}" for i in range(800)]
        system.place_many(ids[:400], payloads=ids[:400],
                          rng=np.random.default_rng(1))
        net, home, entry = _extend_toward_removable(system, False)
        system.place_many(ids[400:], payloads=ids[400:],
                          rng=np.random.default_rng(2))
        redirected = [
            item for item in net.server(
                entry.target_switch, entry.target_serial).stored_ids()
            if belongs_to(net, item, home, 0)]
        assert redirected
        on_home = sum(s.load for s in net.server_map[home])
        assert system.remove_switch(home) == on_home + len(redirected)
        survivors = system.switch_ids()
        _assert_healthy(system, ids, [survivors[i % len(survivors)]
                                      for i in range(len(ids))])


class TestBelong:
    """``_belong`` ≡ the per-item rule, id by id."""

    @staticmethod
    def _agree(net, server, ids):
        got = net._belong(server, ids)
        assert got == [belongs_to(net, d, server.switch, server.serial)
                       for d in ids]
        return got

    def test_heterogeneous_server_counts(self):
        topology = grid_graph(3, 3)
        servers = {node: [EdgeServer(switch=node, serial=i)
                          for i in range(1 + node % 4)]
                   for node in topology.nodes()}
        net = GredNetwork(topology, servers, cvt_iterations=5, seed=0)
        ids = place_many(net, 300, prefix="mixed")
        owned = 0
        for server in net.servers():
            # What the server holds is its own; of all ids, only that.
            assert all(self._agree(net, server, server.stored_ids()))
            owned += sum(self._agree(net, server, ids))
        assert owned == len(ids)

    def test_items_on_a_takeover_server(self):
        net = _waxman_monolith()
        ids = [f"ext/{i}" for i in range(600)]
        net.place_many(ids[:300], rng=np.random.default_rng(1))
        _, home, entry = _extend_toward_removable(net, False)
        net.place_many(ids[300:], rng=np.random.default_rng(2))
        takeover = net.server(entry.target_switch, entry.target_serial)
        owned = self._agree(net, net.server(home, 0),
                            takeover.stored_ids())
        # Redirected items belong to the home server, the takeover
        # server's own do not.
        assert True in owned and False in owned

    def test_custom_position_fn(self):
        from test_density_extension import clustered_position

        topology = grid_graph(3, 3)
        net = GredNetwork(topology, attach_uniform(topology.nodes(), 2),
                          cvt_iterations=5, seed=0,
                          position_fn=clustered_position)
        ids = place_many(net, 120, prefix="geo")
        for server in net.servers():
            assert all(self._agree(net, server, server.stored_ids()))
        assert sum(sum(self._agree(net, server, ids))
                   for server in net.servers()) == len(ids)

    def test_empty(self, net):
        assert net._belong(net.server(0, 0), []) == []
        assert net._belong(net.server(0, 0), ()) == []


class TestMovedCounts:
    """``add_switch`` / ``remove_switch`` return what they returned
    before ownership was decided in one pass (counts read off the
    per-item implementation on the same fixtures)."""

    def test_grid(self, net):
        place_many(net, 80, prefix="count")
        assert [net.add_switch(100, links=[4, 0], servers_per_switch=2),
                net.add_switch(101, links=[100, 8],
                               servers_per_switch=3),
                net.remove_switch(4),
                net.remove_switch(100)] == [6, 7, 10, 7]
        assert sum(net.load_vector()) == 80

    def test_waxman(self):
        net = _waxman_monolith()
        ids = [f"moved/{i}" for i in range(800)]
        net.place_many(ids, payloads=ids, rng=np.random.default_rng(1))
        assert [net.add_switch(100, links=[0, 1, 2],
                               servers_per_switch=2),
                net.add_switch(101, links=[100, 7],
                               servers_per_switch=3),
                net.remove_switch(5), net.remove_switch(100),
                net.remove_switch(12)] == [7, 8, 14, 11, 37]
        _assert_healthy(net, ids, [net.switch_ids()[0]] * len(ids))


def _control_state(net):
    from repro.controlplane import snapshot_plan

    controller = net.controller
    return (controller.version, controller.dt_adjacency(), controller._plan,
            snapshot_plan(controller.switches), net.topology.nodes(),
            {s: list(net.topology.neighbors(s)) for s in net.switch_ids()},
            dict(controller.positions))


def test_unfittable_join_changes_nothing():
    """A join whose move cannot fit (bounded joiner servers, more items
    due than they hold) raises ``StorageFull`` before anything changes:
    controller version, DT, plan, tables, topology and every server are
    as they were, and the same join with room then succeeds."""
    net = _waxman_monolith()
    ids = [f"full/{i}" for i in range(3000)]
    net.place_many(ids, payloads=ids, rng=np.random.default_rng(1))
    control, before = _control_state(net), _storage(net)
    with pytest.raises(StorageFull):
        net.add_switch(100, links=[0, 1, 2], servers=[
            EdgeServer(switch=100, serial=i, capacity=2)
            for i in range(2)])
    assert _control_state(net) == control
    assert _storage(net) == before
    assert 100 not in net.server_map
    assert net.add_switch(100, links=[0, 1, 2], servers_per_switch=2) > 4
    _assert_healthy(net, ids, [net.switch_ids()[0]] * len(ids))


@pytest.mark.parametrize("solution", ["raises", [np.nan, 0.5],
                                      [0.5, np.inf]])
def test_failed_join_solve_changes_nothing(solution, monkeypatch):
    """A join whose position solve fails or is not finite is refused
    with ``ControlPlaneError`` before anything changes: no neighbours'
    centroid is guessed in its place."""
    from types import SimpleNamespace

    import scipy.optimize

    def least_squares(*args, **kwargs):
        if solution == "raises":
            raise RuntimeError("solver diverged")
        return SimpleNamespace(x=np.asarray(solution))

    net = _waxman_monolith()
    ids = [f"solve/{i}" for i in range(300)]
    net.place_many(ids, payloads=ids, rng=np.random.default_rng(1))
    control, before = _control_state(net), _storage(net)
    monkeypatch.setattr(scipy.optimize, "least_squares", least_squares)
    with pytest.raises(ControlPlaneError, match="position solve"):
        net.add_switch(100, links=[0, 1, 2], servers_per_switch=2)
    assert _control_state(net) == control
    assert _storage(net) == before
    assert 100 not in net.server_map
    monkeypatch.undo()
    assert net.add_switch(100, links=[0, 1, 2], servers_per_switch=2) > 0
    _assert_healthy(net, ids, [net.switch_ids()[0]] * len(ids))


def test_unfittable_leave_changes_nothing():
    """A leave into bounded survivors that cannot take its items raises
    ``StorageFull`` with the leaver still in place and nothing moved."""
    net = _waxman_monolith()
    ids = [f"tight/{i}" for i in range(600)]
    net.place_many(ids, payloads=ids, rng=np.random.default_rng(1))
    for server in net.servers():
        server.capacity = server.load
    leaver = next(s for s in net.switch_ids()
                  if _can_leave(net, s) and net.server(s, 0).load)
    control, before = _control_state(net), _storage(net)
    with pytest.raises(StorageFull):
        net.remove_switch(leaver)
    assert _control_state(net) == control
    assert _storage(net) == before
    for server in net.servers():
        server.capacity = None
    assert net.remove_switch(leaver) == len(
        [d for sid, items in before.items() if sid[0] == leaver
         for d in items])
    _assert_healthy(net, ids, [net.switch_ids()[0]] * len(ids))


def test_a_move_routes_nothing_and_hashes_once(monkeypatch):
    """A membership event moves its items as one planned transaction:
    no per-item route or store, one digest pass and one nearest-switch
    pass (a leaver's redirected items included), and the compiled plane
    left in step with the controller — also by an event that moves
    nothing (a relay-only joiner, a leaver holding no items)."""
    from repro.controlplane.routing_index import RoutingIndex
    from repro.core import network as network_module
    from repro.dataplane import CompiledRouter

    net = _waxman_monolith()
    ids = [f"cost/{i}" for i in range(2000)]
    net.place_many(ids, payloads=ids, rng=np.random.default_rng(1))
    _, home, _ = _extend_toward_removable(net, False)
    net.place_many([f"more/{i}" for i in range(400)],
                   rng=np.random.default_rng(2))
    net.retrieve_many(ids)
    calls = {}

    def refuse(*args, **kwargs):
        raise AssertionError("a move must not route item by item")

    def counting(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(GredNetwork, "_place_one", refuse)
    monkeypatch.setattr(CompiledRouter, "route_batch_packed", refuse)
    monkeypatch.setattr(network_module, "sha256_digests", counting(
        "digests", network_module.sha256_digests))
    monkeypatch.setattr(RoutingIndex, "closest_many", counting(
        "closest", RoutingIndex.closest_many))
    for event, passes in (
            (lambda: net.add_switch(100, [0, 1, 2], servers_per_switch=2),
             1),
            (lambda: net.remove_switch(home), 1),
            (lambda: net.remove_switch(100), 1),
            (lambda: net.add_switch(101, net.switch_ids()[:2]), 0),
            (lambda: net.remove_switch(101), 0)):
        calls.update(digests=0, closest=0)
        assert (event() > 0) == (passes > 0)
        assert calls == {"digests": passes, "closest": passes}
        # The compiled plane is patched inside the event: the next
        # request finds it in step.
        assert net._fastpath.version == net.controller.version
    monkeypatch.undo()
    _assert_healthy(net, ids, [net.switch_ids()[0]] * len(ids))


@pytest.mark.parametrize("build, victim", [(_line_monolith, 2),
                                           (_line_federation, 7)])
def test_refused_leave_changes_no_server(build, victim):
    system = build()
    ids = [f"stay/{i}" for i in range(200)]
    system.place_many(ids, payloads=ids, rng=np.random.default_rng(1))
    loads = system.load_vector()
    before = _storage(system)
    assert sum(len(items) for sid, items in before.items()
               if sid[0] == victim) > 0
    with pytest.raises(ControlPlaneError, match="disconnect"):
        system.remove_switch(victim)
    assert victim in system.switch_ids()
    assert system.load_vector() == loads
    assert _storage(system) == before


@pytest.mark.parametrize("build", [_waxman_monolith, _federation])
def test_leave_carries_parked_hints(build):
    """Hints parked on a leaver's servers are other servers' pending
    writes and deletes: they move to the next holder with the leave
    and still drain once their home is back."""
    from repro.faults import FaultInjector
    from test_range_extension import find_item_for_server

    system = build()
    net = _shard_nets(system)[0]
    barred = _gateways(system)
    leaver = next(s for s in net.switch_ids()
                  if s not in barred and _can_leave(net, s))
    victim = next(s for s in net.switch_ids() if s != leaver)
    kept, doomed = (find_item_for_server(net, victim, 0, prefix=prefix)
                    for prefix in ("kept", "doomed"))
    injector = FaultInjector(net, seed=0)
    net.hinted_handoff = True
    net.place(doomed, payload="old", entry_switch=leaver)
    injector.crash_server(victim, 0)
    # Both operations enter at the leaver, so the nearest live server
    # — the hint holder — is the leaver's own.
    record = net.place(kept, payload="new", entry_switch=leaver).primary
    assert record.hinted and record.server_id[0] == leaver
    assert net.delete(doomed, entry_switch=leaver) == 0
    assert sum(s.hint_count for s in net.server_map[leaver]) == 2
    system.remove_switch(leaver)
    injector.state.crashed_servers.discard((victim, 0))
    assert net.drain_hints() == 2
    home = net.server(victim, 0)
    assert home.retrieve(kept) == "new"
    assert not home.has(doomed)
    assert home.tombstone_of(doomed) is not None
