"""A membership event's planned move ≡ the per-item re-delivery loop.

The oracle below is the loop joins, leaves and migrating extensions ran
before a move became one planned transaction: ownership by
``_belong``, then every moved item re-routed through ``_place_one``
(store, then delete from its old server) one at a time.  Two twins of
one deployment take the same interleaving of joins, leaves, extends
(with and without migration), retracts, placements and server crashes;
after every step their servers — items in order, payloads, stamps,
tombstones, hints — the returned counts and ``core.migrations`` must be
equal.  Where the loop raises part-way (``StorageFull``, a crashed
target without hinted handoff), the planned move must raise the same
error before changing anything.  One case differs on purpose and is
left out: the loop's extend / retract wrote into a crashed server's
disk, where a planned move follows the write rule (see
``test_range_extension.py::TestUnusableTakeover``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GredNetwork, brite_waxman_graph, obs
from repro.controlplane import ControlPlaneError, FederatedNetwork
from repro.core import GredError
from repro.edge import EdgeServer, StorageFull, attach_uniform
from repro.faults import FaultInjector
from repro.graph import is_connected
from repro.hashing import (data_position, positions_from_digests,
                           server_indices_from_digests, sha256_digests)
from repro.obs import MetricsRegistry, default_registry
from repro.topology import federated_topology


# ---------------------------------------------------------------------
# the oracle: one re-route per moved item
# ---------------------------------------------------------------------
def oracle_belong(net, server, item_ids):
    if not item_ids:
        return []
    digests = sha256_digests(item_ids)
    if net._position_fn is data_position:
        positions = positions_from_digests(digests)
    else:
        positions = np.asarray([net._position_fn(d) for d in item_ids],
                               dtype=np.float64)
    dests = net.controller.routing_index().closest_many(positions)
    serials = server_indices_from_digests(
        digests, len(net.server_map[server.switch]))
    return ((dests == server.switch)
            & (serials == server.serial)).tolist()


def oracle_redeliver(net, items, entry):
    for server, item_id in items:
        record = net._place_one(item_id, server.retrieve(item_id), entry,
                                stamp=server.stamp_of(item_id))
        if record.hinted or record.server_id != server.server_id:
            server.delete(item_id)
    if items:
        default_registry().counter("core.migrations").inc(len(items))
    return len(items)


def oracle_add_switch(net, switch_id, links, servers):
    net.controller.add_switch(switch_id, list(links), servers)
    moved = 0
    if not servers:
        return moved
    for switch in net.controller.dt_adjacency().get(switch_id, set()):
        for server in net.server_map.get(switch, []):
            held = server.stored_ids()
            moved += oracle_redeliver(
                net, [(server, item_id) for item_id, owned in zip(
                    held, oracle_belong(net, server, held)) if not owned],
                switch)
    return moved


def oracle_remove_switch(net, switch_id):
    servers = net.server_map.get(switch_id, [])
    orphans = []
    for serial in range(len(servers)):
        home, _, takeover, _ = net._serving(None, switch_id, serial)
        orphans.extend((home, item_id) for item_id in home.stored_ids())
        if takeover is not None:
            redirected = takeover.stored_ids()
            orphans.extend(
                (takeover, item_id) for item_id, owned in zip(
                    redirected, oracle_belong(net, home, redirected))
                if owned)
    entry = next(net.topology.neighbors(switch_id))
    net.controller.remove_switch(switch_id)
    moved = oracle_redeliver(net, orphans, entry)
    for server in servers:
        for hint in server.take_hints():
            net._park_hint(hint.copy_id, hint.op, hint.target,
                           hint.stamp, hint.payload, entry)
        server.clear()
    return moved


def oracle_extend_range(net, switch, serial, migrate):
    entry = net.controller.extend_range(switch, serial)
    if migrate:
        source = net.server(switch, serial)
        target = net.server(entry.target_switch, entry.target_serial)
        for item_id in source.stored_ids():
            target.store(item_id, source.retrieve(item_id),
                         stamp=source.stamp_of(item_id))
            source.delete(item_id)


def oracle_retract_range(net, switch, serial):
    entry = net.controller.switches[switch].table.extension_for(serial)
    source = net.server(entry.target_switch, entry.target_serial)
    home = net.server(switch, serial)
    redirected = source.stored_ids()
    belonging = [item_id for item_id, owned in zip(
        redirected, oracle_belong(net, home, redirected)) if owned]
    if home.capacity is not None \
            and len(belonging) > home.capacity - home.load:
        raise GredError("cannot retract")
    for item_id in belonging:
        home.store(item_id, source.retrieve(item_id),
                   stamp=source.stamp_of(item_id))
        source.delete(item_id)
    net.controller.retract_range(switch, serial)
    return len(belonging)


# ---------------------------------------------------------------------
# twins
# ---------------------------------------------------------------------
def _monolith():
    topology, _ = brite_waxman_graph(
        16, min_degree=3, rng=np.random.default_rng(3))
    return GredNetwork(topology, attach_uniform(topology.nodes(), 2),
                       cvt_iterations=3, seed=0)


def _custom_positions():
    from test_density_extension import clustered_position

    topology, _ = brite_waxman_graph(
        16, min_degree=3, rng=np.random.default_rng(3))
    return GredNetwork(topology, attach_uniform(topology.nodes(), 2),
                       cvt_iterations=3, seed=0,
                       position_fn=clustered_position)


def _federation():
    topology, assignment = federated_topology(2, 10, min_degree=2, seed=1)
    return FederatedNetwork(topology, assignment=assignment,
                            servers_per_switch=2, cvt_iterations=3,
                            seed=0)


def _nets(system):
    shards = getattr(system, "shards", None)
    return [system] if shards is None else [
        shards[r].net for r in sorted(shards)]


def _state(system):
    return {server.server_id: (
        [(item, server.retrieve(item), server.stamp_of(item))
         for item in server.stored_ids()],
        server.tombstones(), server.hints(), server.capacity)
        for net in _nets(system) for server in net.servers()}


def _leavable(system, net):
    gateways = {g for shard in getattr(system, "shards", {}).values()
                for g in shard.gateways}
    out = []
    for switch in net.switch_ids():
        rest = net.topology.copy()
        rest.remove_node(switch)
        if switch not in gateways and rest.num_nodes() and is_connected(
                rest) and any(net.server_map.get(n) for n in rest.nodes()):
            out.append(switch)
    return out


def _down(net, server):
    fault = net.fault_state
    return server is not None and fault is not None \
        and not fault.server_alive(server.server_id)


class Twins:
    """The system under test and its oracle twin, stepped together."""

    def __init__(self, build, slack, copies, faulted, hinted):
        self.new, self.old = build(), build()
        self.copies = copies
        self.serial = 0
        self.next_switch = 1000
        self.injectors = None
        if faulted:  # attached first: every write is stamped
            self.injectors = {}
            for which, system in (("new", self.new), ("old", self.old)):
                for net in _nets(system):
                    net.hinted_handoff = hinted
                    self.injectors[which, id(net)] = FaultInjector(net)
        for system in (self.new, self.old):
            self.place(system, 60, np.random.default_rng(1))
            # Bounded servers keep ``slack`` free slots each.
            for net in _nets(system):
                for server in net.servers():
                    server.capacity = (None if slack is None
                                       else server.load + slack)
        self.serial += 60

    def place(self, system, count, rng):
        ids = [f"mv/{self.serial + i}" for i in range(count)]
        system.place_many(ids, payloads=ids, copies=self.copies, rng=rng)

    def place_both(self, count, pick):
        """Not a move: the same (possibly failing) batch on both."""
        for system in (self.new, self.old):
            try:
                self.place(system, count, np.random.default_rng(pick))
            except (StorageFull, GredError):
                pass
        self.serial += count
        assert _state(self.new) == _state(self.old)

    def crash_servers(self, new_net, old_net, pick):
        """Crash up to six servers at once (disks intact), so that
        moves hit down targets."""
        servers = new_net.servers()
        for k in range(1 + pick % 6):
            server_id = servers[(pick + 5 * k) % len(servers)].server_id
            for which, net in (("new", new_net), ("old", old_net)):
                injector = self.injectors[which, id(net)]
                if server_id not in injector.state.crashed_servers:
                    injector.crash_server(*server_id)

    def pairs(self):
        return list(zip(_nets(self.new), _nets(self.old)))

    def step(self, name, new_call, old_call):
        registry = default_registry()
        migrations = registry.counter("core.migrations")
        before = _state(self.new)
        outcomes = []
        for call in (new_call, old_call):
            start = migrations.value
            try:
                outcomes.append((call(), None, migrations.value - start))
            except (StorageFull, GredError, ControlPlaneError) as exc:
                outcomes.append((None, type(exc), migrations.value - start))
        (new, new_exc, new_moved), (old, old_exc, _) = outcomes
        assert new_exc is old_exc, (name, new_exc, old_exc)
        if new_exc is not None:
            # Refused before anything changed; the loop may have moved
            # a prefix, so the twins part here.
            assert _state(self.new) == before, name
            assert new_moved == 0
            return False
        assert new == old, (name, new, old)
        assert new_moved == outcomes[1][2], name
        assert _state(self.new) == _state(self.old), name
        return True


def _run(data, build):
    slack = data.draw(st.sampled_from([None, 2, 40]), "slack")
    twins = Twins(build, slack, data.draw(st.integers(1, 3), "copies"),
                  data.draw(st.booleans(), "faulted"),
                  data.draw(st.booleans(), "hinted"))
    if twins.injectors is not None:
        # Crash and absorb one switch up front (same victim twice).
        for k, (new_net, old_net) in enumerate(twins.pairs()):
            victims = _leavable(twins.new, new_net)
            if not victims:
                continue
            victim = victims[data.draw(
                st.integers(0, len(victims) - 1), f"crash{k}")]
            for which, net in (("new", new_net), ("old", old_net)):
                twins.injectors[which, id(net)].crash_switch(victim)
                net.controller.absorb_failures([victim])
            twins.crash_servers(new_net, old_net, data.draw(
                st.integers(0, 10 ** 6), f"down{k}"))
    for step in range(data.draw(st.integers(1, 10), "steps")):
        kind = data.draw(st.sampled_from(
            ["join", "join", "leave", "leave", "extend", "extend",
             "retract", "retract", "place", "crash_server"]), f"kind{step}")
        pairs = twins.pairs()
        new_net, old_net = pairs[data.draw(
            st.integers(0, len(pairs) - 1), f"shard{step}")]
        pick = data.draw(st.integers(0, 10 ** 6), f"pick{step}")
        if kind == "join":
            nodes = new_net.switch_ids()
            takeovers = sorted(
                e.target_switch for sw in new_net.controller.switches.values()
                for e in sw.table.extensions())
            if takeovers and pick % 2:
                # Next to a takeover switch, whose redirected items a
                # join re-delivers onto the same server.
                near = takeovers[pick % len(takeovers)]
                nodes = [near] + sorted(new_net.topology.neighbors(near))
            links = [nodes[(pick + 7 * k) % len(nodes)] for k in range(3)]
            links = list(dict.fromkeys(links))
            # At least one server: a relay-only joiner moves nothing,
            # and requests entering at one fail, move or no move.
            count = data.draw(st.integers(1, 3), f"servers{step}")
            cap = data.draw(st.sampled_from([None, 1, 5, 30]),
                            f"joincap{step}")
            switch = twins.next_switch
            twins.next_switch += 1

            def make(switch=switch, count=count, cap=cap):
                return [EdgeServer(switch, i, capacity=cap)
                        for i in range(count)]

            def old_join(switch=switch, links=links):
                if old_net is twins.old:
                    return oracle_add_switch(old_net, switch, links, make())
                moved = oracle_add_switch(old_net, switch, links, make())
                region = twins.old.region_of(links[0])
                twins.old.controller._assignment[switch] = region
                return moved

            ok = twins.step(kind, lambda: twins.new.add_switch(
                switch, links, servers=make()), old_join)
        elif kind == "leave":
            choices = _leavable(twins.new, new_net)
            if not choices:
                continue
            victim = choices[pick % len(choices)]

            def old_leave(victim=victim):
                moved = oracle_remove_switch(old_net, victim)
                if old_net is not twins.old:
                    del twins.old.controller._assignment[victim]
                return moved

            ok = twins.step(kind, lambda: twins.new.remove_switch(victim),
                            old_leave)
        elif kind == "extend":
            servers = [s for s in new_net.servers()
                       if new_net.controller.switches[s.switch].table
                       .extension_for(s.serial) is None]
            if not servers:
                continue
            switch, serial = servers[pick % len(servers)].server_id
            migrate = bool(pick % 2)
            if migrate and _down(new_net, new_net.controller
                                 ._pick_takeover_server(switch)):
                continue  # the loop wrote to a crashed server's disk
            ok = twins.step(kind, lambda: new_net.extend_range(
                switch, serial, migrate=migrate), lambda: oracle_extend_range(
                old_net, switch, serial, migrate))
            if ok:  # some of these are redirected to the takeover
                twins.place_both(120, pick)
        elif kind == "retract":
            extended = [(sid, e.local_serial)
                        for sid, sw in new_net.controller.switches.items()
                        for e in sw.table.extensions()]
            if not extended:
                continue
            switch, serial = sorted(extended)[pick % len(extended)]
            if _down(new_net, new_net.server(switch, serial)):
                continue
            ok = twins.step(kind, lambda: new_net.retract_range(
                switch, serial), lambda: oracle_retract_range(
                old_net, switch, serial))
        elif kind == "place":
            twins.place_both(1 + pick % 40, pick)
            ok = True
        else:
            if twins.injectors is None:
                continue
            twins.crash_servers(new_net, old_net, pick)
            ok = True
        if not ok:
            return


@pytest.fixture
def registry():
    registry = obs.enable(MetricsRegistry())
    yield registry
    obs.disable()


@pytest.mark.parametrize("build", [_monolith, _custom_positions,
                                   _federation])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_planned_move_equals_the_per_item_loop(build, registry, data):
    _run(data, build)
