"""Tests for range extension (paper Section V-B and Tables I/II)."""

import pytest

from repro import GredError, GredNetwork
from repro.edge import StorageFull, attach_uniform
from repro.hashing import data_position, server_index
from repro.topology import grid_graph


def find_item_for_server(net, switch, serial, prefix="probe"):
    """An item id whose default delivery is server (switch, serial)."""
    s = len(net.server_map[switch])
    for i in range(20000):
        data_id = f"{prefix}-{i}"
        if net.destination_switch(data_id) == switch \
                and server_index(data_id, s) == serial:
            return data_id
    raise AssertionError("no item found targeting that server")


@pytest.fixture
def net():
    topology = grid_graph(3, 3)
    servers = attach_uniform(topology.nodes(), servers_per_switch=2)
    return GredNetwork(topology, servers, cvt_iterations=10, seed=0)


class TestExtensionPlacement:
    def test_new_placements_redirected(self, net):
        switch = net.switch_ids()[4]
        item = find_item_for_server(net, switch, 0)
        net.extend_range(switch, 0)
        record = net.place(item, payload=b"x", entry_switch=0).primary
        assert record.extended
        assert record.server_id[0] != switch
        assert record.server_id[0] in list(net.topology.neighbors(switch))
        # The redirected copy physically sits on the takeover server.
        target = net.server(*record.server_id)
        assert target.has(item)

    def test_unextended_server_unaffected(self, net):
        switch = net.switch_ids()[4]
        item = find_item_for_server(net, switch, 1)
        net.extend_range(switch, 0)  # extend the *other* serial
        record = net.place(item, entry_switch=0).primary
        assert not record.extended
        assert record.server_id == (switch, 1)

    def test_extension_adds_hops(self, net):
        switch = 4
        item = find_item_for_server(net, switch, 0)
        base = net.place(item, entry_switch=0).primary
        net.delete(item, entry_switch=0)
        net.extend_range(switch, 0)
        extended = net.place(item, entry_switch=0).primary
        assert extended.physical_hops >= base.physical_hops + 1


class TestExtensionRetrieval:
    def test_fork_finds_redirected_item(self, net):
        switch = 4
        item = find_item_for_server(net, switch, 0)
        net.extend_range(switch, 0)
        net.place(item, payload=b"payload", entry_switch=0)
        result = net.retrieve(item, entry_switch=8)
        assert result.found
        assert result.forked
        assert result.payload == b"payload"

    def test_fork_finds_item_placed_before_extension(self, net):
        """Items already on the overloaded server stay retrievable after
        the extension activates (the fork checks both locations)."""
        switch = 4
        item = find_item_for_server(net, switch, 0)
        net.place(item, payload=b"old", entry_switch=0)
        net.extend_range(switch, 0)
        result = net.retrieve(item, entry_switch=8)
        assert result.found
        assert result.payload == b"old"
        assert result.server_id == (switch, 0)


class TestMigration:
    def test_extend_with_migrate_moves_items(self, net):
        switch = 4
        item = find_item_for_server(net, switch, 0)
        net.place(item, payload=b"m", entry_switch=0)
        net.extend_range(switch, 0, migrate=True)
        assert not net.server(switch, 0).has(item)
        result = net.retrieve(item, entry_switch=0)
        assert result.found
        assert result.payload == b"m"

    def test_extend_that_cannot_fit_changes_nothing(self, net):
        """A takeover server without room for every item refuses the
        migrating extension before it is installed: no item has moved
        and the home server still serves alone."""
        ids = [f"fit-{i}" for i in range(400)]
        net.place_many(ids, payloads=ids, entry_switches=[0] * len(ids))
        home = net.server(4, 0)
        held = {d: home.retrieve(d) for d in home.stored_ids()}
        assert len(held) > 5
        for server in net.servers():
            server.capacity = server.load + 5
        loads = net.load_vector()
        with pytest.raises(StorageFull):
            net.extend_range(4, 0, migrate=True)
        assert net.controller.switches[4].table.extension_for(0) is None
        assert net.load_vector() == loads
        assert {d: home.retrieve(d) for d in home.stored_ids()} == held
        for server in net.servers():
            server.capacity = None
        net.extend_range(4, 0, migrate=True)
        entry = net.controller.switches[4].table.extension_for(0)
        takeover = net.server(entry.target_switch, entry.target_serial)
        assert home.load == 0
        assert all(takeover.retrieve(d) == d for d in held)
        assert all(r.found for r in net.retrieve_many(ids))

    def test_retract_migrates_back(self, net):
        switch = 4
        item = find_item_for_server(net, switch, 0)
        net.extend_range(switch, 0)
        net.place(item, payload=b"back", entry_switch=0)
        moved = net.retract_range(switch, 0)
        assert moved == 1
        assert net.server(switch, 0).has(item)
        result = net.retrieve(item, entry_switch=0)
        assert result.found
        assert not result.forked

    def test_retract_leaves_foreign_items(self, net):
        """Retraction must only pull back items that belong to the
        retracting server, not the takeover server's own data."""
        switch = 4
        net.extend_range(switch, 0)
        entry = net.controller.switches[switch].table.extension_for(0)
        target_switch, target_serial = (entry.target_switch,
                                        entry.target_serial)
        own_item = find_item_for_server(net, target_switch, target_serial,
                                        prefix="own")
        net.place(own_item, payload=b"stay", entry_switch=0)
        net.retract_range(switch, 0)
        assert net.server(target_switch, target_serial).has(own_item)

    def test_retract_without_extension_raises(self, net):
        with pytest.raises(GredError, match="no active extension"):
            net.retract_range(4, 0)


class TestUnusableTakeover:
    def test_crashed_takeover_counts_as_not_installed(self, net):
        # One policy for writes, reads and deletes: while the takeover
        # switch is down the home server serves, as if no extension
        # were installed.
        from repro.faults import FaultInjector

        switch = 4
        net.extend_range(switch, 0)
        entry = net.controller.switches[switch].table.extension_for(0)
        FaultInjector(net, seed=0).crash_switch(entry.target_switch)
        first, second = (find_item_for_server(net, switch, 0, prefix=p)
                         for p in ("one", "two"))
        record = net.place(first, payload=b"x",
                           entry_switch=switch).primary
        assert record.server_id == (switch, 0) and not record.extended
        [batch] = net.place_many([second], entry_switches=[switch])
        assert batch.primary.server_id == (switch, 0)
        result = net.retrieve(first, entry_switch=switch)
        assert result.found and not result.forked
        assert net.delete(first, entry_switch=switch) == 1
        assert net._home_server(second).server_id == (switch, 0)

    def test_migrating_toward_a_crashed_server(self, net):
        """A migrating extension whose takeover server is down follows
        the write rule: refused with nothing installed while hinted
        handoff is off, parked as hints (drained once the server is
        back) while it is on."""
        from repro.faults import FaultInjector

        ids = [f"down-{i}" for i in range(200)]
        net.place_many(ids, payloads=ids, entry_switches=[0] * len(ids))
        home = net.server(4, 0)
        held = list(home.stored_ids())
        assert held
        injector = FaultInjector(net, seed=0)
        takeover = net.controller._pick_takeover_server(4)
        injector.crash_server(*takeover.server_id)
        with pytest.raises(GredError, match="has crashed"):
            net.extend_range(4, 0, migrate=True)
        assert net.controller.switches[4].table.extension_for(0) is None
        assert list(home.stored_ids()) == held
        net.hinted_handoff = True
        net.extend_range(4, 0, migrate=True)
        assert home.load == 0 and not takeover.has(held[0])
        assert sum(s.hint_count for s in net.servers()) == len(held)
        injector.state.crashed_servers.discard(takeover.server_id)
        assert net.drain_hints() == len(held)
        assert [takeover.retrieve(d) for d in held] == held
