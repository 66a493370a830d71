"""Differential tests for the incremental plan/diff/apply control
plane.

The oracle is :func:`repro.controlplane.install_all_rules` — the
original from-scratch rule compiler, intentionally untouched by the
refactor.  After any sequence of dynamics events the delta-maintained
switches must hold byte-identical state to a fresh rebuild, and
forwarding over both must make identical decisions.  A second group of
tests pins the *scoped* invalidation behavior: a join must not bump
untouched switches' generations, rebuild the routing index, or evict
unrelated cached routes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GredNetwork
from repro.controlplane import (
    ControlPlaneError,
    Controller,
    ControllerConfig,
    RecordingChannel,
    compile_plan,
    diff_plans,
    install_all_rules,
    snapshot_plan,
    verify_installed_state,
)
from repro.dataplane import GredSwitch, Packet, PacketKind, route_packet
from repro.edge import EdgeServer, attach_uniform
from repro.geometry import DelaunayTriangulation
from repro.obs import (
    MetricsRegistry,
    default_registry,
    disable,
    enable,
    set_default_registry,
)
from repro.topology import brite_waxman_graph, grid_graph


def canonical_state(switch):
    """Every installed fact of one switch as a comparable frozenset."""
    table = switch.table
    entries = {
        ("pos", switch.position),
        ("num-servers", switch.num_servers),
    }
    for neighbor in table.physical_neighbors():
        entries.add(("port", neighbor, table.physical_port(neighbor)))
    for neighbor, pos in switch.physical_neighbor_positions.items():
        entries.add(("phys-cand", neighbor, pos))
    for neighbor, pos in switch.dt_neighbor_positions.items():
        entries.add(("dt-cand", neighbor, pos))
    for entry in table.virtual_entries():
        entries.add(("vl", entry.sour, entry.pred, entry.succ,
                     entry.dest))
    for ext in table.extensions():
        entries.add(("ext", ext.local_serial, ext.target_switch,
                     ext.target_serial))
    return frozenset(entries)


def oracle_switches(controller):
    """From-scratch rebuild through the pre-refactor full installer."""
    switches = {
        node: GredSwitch(
            switch_id=node,
            position=controller.positions[node],
            num_servers=len(controller.server_map.get(node, [])),
        )
        for node in controller.topology.nodes()
    }
    install_all_rules(controller.topology, switches,
                      controller.positions, controller.dt_adjacency())
    return switches


def assert_matches_oracle(controller):
    oracle = oracle_switches(controller)
    live = controller.switches
    assert set(live) == set(oracle)
    for switch_id in sorted(oracle):
        assert canonical_state(live[switch_id]) == \
            canonical_state(oracle[switch_id]), \
            f"switch {switch_id} diverged from install_all_rules"


def make_controller(rows=4, cols=4, servers_per_switch=2, seed=0):
    topology = grid_graph(rows, cols)
    return Controller(
        topology,
        attach_uniform(topology.nodes(), servers_per_switch),
        config=ControllerConfig(cvt_iterations=5, seed=seed),
    )


def join(controller, switch_id, links, num_servers=2):
    controller.add_switch(
        switch_id, links=links,
        servers=[EdgeServer(switch_id, s) for s in range(num_servers)],
    )


class TestDeltaEquivalence:
    """Delta-maintained tables == from-scratch install_all_rules."""

    def test_initial_install_matches_oracle(self):
        assert_matches_oracle(make_controller())

    def test_join_matches_oracle(self):
        controller = make_controller()
        join(controller, 100, links=[0, 5])
        assert_matches_oracle(controller)

    def test_relay_only_join_matches_oracle(self):
        controller = make_controller()
        join(controller, 100, links=[3], num_servers=0)
        assert_matches_oracle(controller)

    def test_leave_matches_oracle(self):
        controller = make_controller()
        controller.remove_switch(5)
        assert_matches_oracle(controller)

    def test_crash_matches_oracle(self):
        controller = make_controller()
        controller.absorb_failures(dead_switches=[10],
                                   dead_links=[(0, 1)])
        assert_matches_oracle(controller)

    def test_link_dynamics_match_oracle(self):
        controller = make_controller()
        controller.add_link(0, 15)
        assert_matches_oracle(controller)
        controller.remove_link(0, 15)
        assert_matches_oracle(controller)

    def test_mixed_sequence_matches_oracle(self):
        controller = make_controller()
        join(controller, 100, links=[0, 6])
        controller.remove_switch(9)
        controller.add_link(100, 10)
        controller.absorb_failures(dead_switches=[1])
        join(controller, 101, links=[100, 2], num_servers=0)
        assert_matches_oracle(controller)
        assert verify_installed_state(controller) == []

    def test_forwarding_identical_after_dynamics(self):
        controller = make_controller()
        join(controller, 100, links=[0, 5])
        controller.remove_switch(10)
        oracle = oracle_switches(controller)
        rng = np.random.default_rng(7)
        entries = sorted(controller.switches)
        for i in range(40):
            position = (float(rng.random()), float(rng.random()))
            entry = entries[int(rng.integers(len(entries)))]
            got = route_packet(
                controller.switches, entry,
                Packet(kind=PacketKind.RETRIEVAL, data_id=f"p{i}",
                       position=position))
            want = route_packet(
                oracle, entry,
                Packet(kind=PacketKind.RETRIEVAL, data_id=f"p{i}",
                       position=position))
            assert got.trace == want.trace
            assert got.destination_switch == want.destination_switch


class TestPlanDiffApply:
    """The pipeline's own contracts."""

    def test_snapshot_of_installed_state_equals_compiled_plan(self):
        controller = make_controller()
        desired = compile_plan(
            controller.topology, controller.positions,
            controller.dt_adjacency(),
            server_counts={
                node: len(controller.server_map.get(node, []))
                for node in controller.topology.nodes()
            })
        assert diff_plans(snapshot_plan(controller.switches),
                          desired).is_empty

    def test_join_delta_is_neighborhood_sized(self):
        controller = make_controller(rows=5, cols=5)
        channel = RecordingChannel()
        controller.southbound_channel = channel
        join(controller, 100, links=[0, 12])
        messaged = set(channel.per_switch())
        assert 100 in messaged
        # The delta must not touch every switch: this is the whole
        # point of the refactor (paper §VI join locality).
        assert len(messaged) < len(controller.switches)

    def test_delta_counters_recorded(self):
        enable()
        try:
            controller = make_controller()
            before = default_registry().counter(
                "controlplane.delta.events").value
            join(controller, 100, links=[0, 5])
            registry = default_registry()
            assert registry.counter(
                "controlplane.delta.events").value > before
            assert registry.counter(
                "controlplane.delta.messages").value > 0
            assert registry.counter(
                "controlplane.delta.switches_touched").value > 0
        finally:
            disable()

    def test_port_map_corruption_caught_by_verifier(self):
        controller = make_controller()
        switch = controller.switches[0]
        neighbor = next(iter(switch.table.physical_neighbors()))
        switch.remove_physical_neighbor(neighbor)
        kinds = {v.kind for v in verify_installed_state(controller)}
        assert "port-map" in kinds


class TestScopedInvalidation:
    """Joins are scoped events: untouched state must survive."""

    def test_join_bumps_version_not_epoch(self):
        controller = make_controller()
        epoch, version = controller.epoch, controller.version
        join(controller, 100, links=[0, 5])
        assert controller.epoch == epoch
        assert controller.version == version + 1

    def test_recompute_is_the_global_event(self):
        controller = make_controller()
        epoch, version = controller.epoch, controller.version
        controller.recompute()
        assert controller.epoch == epoch + 1
        assert controller.version == version + 1
        assert controller.changes_since(version) is None

    def test_untouched_generations_survive_join(self):
        controller = make_controller(rows=5, cols=5)
        channel = RecordingChannel()
        controller.southbound_channel = channel
        generations = controller.generations
        join(controller, 100, links=[0, 12])
        touched = set(channel.per_switch())
        untouched = set(generations) - touched
        assert untouched, "join touched every switch"
        for switch_id in untouched:
            assert controller.generation(switch_id) == \
                generations[switch_id]
        for switch_id in touched - {100}:
            assert controller.generation(switch_id) > \
                generations[switch_id]

    def test_changes_since_reports_touched_switches(self):
        controller = make_controller()
        channel = RecordingChannel()
        controller.southbound_channel = channel
        version = controller.version
        join(controller, 100, links=[0, 5])
        touched = controller.changes_since(version)
        assert touched is not None
        assert touched == set(channel.per_switch())
        assert controller.changes_since(controller.version) == set()

    def test_routing_index_updated_in_place(self):
        controller = make_controller(rows=5, cols=5)
        controller.closest_switch((0.5, 0.5))  # build the index
        builds = controller.index_builds
        join(controller, 100, links=[0, 12])
        controller.remove_switch(7)
        assert controller.index_builds == builds
        rng = np.random.default_rng(3)
        for _ in range(50):
            point = (float(rng.random()), float(rng.random()))
            assert controller.closest_switch(point) == \
                controller.closest_switch_bruteforce(point)

    def test_compiled_router_survives_join(self):
        topology = grid_graph(4, 4)
        net = GredNetwork(topology, servers_per_switch=2,
                          cvt_iterations=5, seed=0)
        net.place_many([f"warm-{i}" for i in range(64)],
                       rng=np.random.default_rng(0))
        state = net._fast_state()
        router = state.router
        cached = {key: state.routes.get(*key, 0)
                  for key in state.routes}
        assert cached, "fast path did not populate the route cache"
        compiles = router.switch_compiles
        version = net.controller.version
        net.add_switch(100, links=[0, 5], servers_per_switch=2)
        after = net._fast_state()
        # Same router object, patched — not a full recompilation.
        assert after.router is router
        assert 0 < router.switch_compiles - compiles < 16
        touched = net.controller.changes_since(version)
        assert touched is not None
        for key, outcome in cached.items():
            survived = key in after.routes
            intersects = bool(touched.intersection(outcome[0]))
            if survived:
                assert not intersects, \
                    f"stale route via touched switches kept: {key}"
            elif not intersects:
                hops = len(outcome[0]) - 1
                assert hops > after.router._default_max_hops, \
                    f"unrelated cached route evicted: {key}"

    def test_fastpath_retrievals_correct_after_scoped_update(self):
        topology = grid_graph(4, 4)
        net = GredNetwork(topology, servers_per_switch=2,
                          cvt_iterations=5, seed=1)
        ids = [f"warm-{i}" for i in range(48)]
        net.place_many(ids, payloads=[i for i in range(48)],
                       rng=np.random.default_rng(0))
        net._fast_state()  # warm the cache before the join
        net.add_switch(100, links=[0, 5], servers_per_switch=2)
        entries = [i % 16 for i in range(48)]
        batch = net.retrieve_many(ids, entry_switches=entries)
        for i, (data_id, result) in enumerate(zip(ids, batch)):
            assert result.found, data_id
            assert result.payload == i
            scalar = net.retrieve(data_id, entry_switch=entries[i])
            assert scalar.found
            assert scalar.server_id == result.server_id


OPS = st.lists(
    st.tuples(st.sampled_from(["join", "leave", "crash", "link",
                               "unlink"]),
              st.integers(min_value=0, max_value=10 ** 6)),
    min_size=1, max_size=6)


@settings(max_examples=15, deadline=None)
@given(ops=OPS)
def test_random_dynamics_sequence_matches_oracle(ops):
    """Any interleaving of joins/leaves/crashes/link flips leaves the
    delta-maintained tables byte-identical to a from-scratch rebuild,
    and forwarding over both agrees."""
    controller = make_controller(rows=3, cols=3)
    next_id = 100
    for op, pick in ops:
        ids = sorted(controller.switches)
        if op == "join":
            links = [ids[pick % len(ids)]]
            second = ids[(pick // 7) % len(ids)]
            if second not in links:
                links.append(second)
            join(controller, next_id, links=links,
                 num_servers=(pick % 3))
            next_id += 1
        elif op == "leave":
            try:
                controller.remove_switch(ids[pick % len(ids)])
            except ControlPlaneError:
                pass  # would disconnect / last participant
        elif op == "crash":
            try:
                controller.absorb_failures(
                    dead_switches=[ids[pick % len(ids)]])
            except ControlPlaneError:
                pass
        elif op == "link":
            u = ids[pick % len(ids)]
            v = ids[(pick // 11) % len(ids)]
            if u != v and not controller.topology.has_edge(u, v):
                controller.add_link(u, v)
        elif op == "unlink":
            edges = sorted((min(u, v), max(u, v)) for u, v, _
                           in controller.topology.edges())
            u, v = edges[pick % len(edges)]
            try:
                controller.remove_link(u, v)
            except ControlPlaneError:
                pass  # bridge link
    assert_matches_oracle(controller)
    oracle = oracle_switches(controller)
    # Requests enter at server-hosting switches (relay-only switches
    # are not access points and reject the greedy stage by design).
    entries = sorted(sid for sid, sw in controller.switches.items()
                     if sw.in_dt)
    rng = np.random.default_rng(0)
    for i in range(10):
        position = (float(rng.random()), float(rng.random()))
        entry = entries[int(rng.integers(len(entries)))]
        packet = Packet(kind=PacketKind.RETRIEVAL, data_id=f"h{i}",
                        position=position)
        got = route_packet(controller.switches, entry, packet)
        want = route_packet(
            oracle, entry,
            Packet(kind=PacketKind.RETRIEVAL, data_id=f"h{i}",
                   position=position))
        assert got.trace == want.trace


def fresh_plan(controller, dt_adjacency=None, previous=None):
    """``compile_plan`` of the controller's current view — from scratch
    unless ``previous`` is given."""
    return compile_plan(
        controller.topology, controller.positions,
        controller.dt_adjacency() if dt_adjacency is None
        else dt_adjacency,
        server_counts={node: len(controller.server_map.get(node, []))
                       for node in controller.topology.nodes()},
        previous=previous)


def random_event(controller, rng, next_id):
    """Apply one random join / leave (often of the newest joiner) /
    crash / link-up / link-down; returns its name, or ``None`` when
    the controller refused it."""
    ids = sorted(controller.topology.nodes())

    def pick():
        return ids[int(rng.integers(len(ids)))]

    op = str(rng.choice(["join", "join", "leave", "leave-joiner",
                         "crash", "link", "unlink"]))
    try:
        if op == "join":
            join(controller, next_id,
                 links=sorted({pick() for _ in range(rng.integers(1, 4))}),
                 num_servers=int(rng.integers(0, 3)))
        elif op.startswith("leave"):
            joiner = op == "leave-joiner" and next_id - 1 in ids
            controller.remove_switch(next_id - 1 if joiner else pick())
        elif op == "crash":
            controller.absorb_failures(dead_switches=[pick()])
        elif op == "link":
            u, v = pick(), pick()
            if u == v or controller.topology.has_edge(u, v):
                return None
            controller.add_link(u, v)
        else:
            edges = sorted((min(u, v), max(u, v)) for u, v, _
                           in controller.topology.edges())
            if not edges:
                return None
            controller.remove_link(*edges[int(rng.integers(len(edges)))])
    except ControlPlaneError:
        return None  # would disconnect / last participant
    return op


SCOPED_TOPOLOGIES = {
    # Grids tie every BFS level: which neighbour parents whom is
    # decided by id order alone.
    "grid3x3": lambda: grid_graph(3, 3),
    "grid4x4": lambda: grid_graph(4, 4),
    "waxman60": lambda: brite_waxman_graph(
        60, min_degree=2, rng=np.random.default_rng(1))[0],
}


@pytest.mark.parametrize("shape", sorted(SCOPED_TOPOLOGIES))
def test_every_scoped_plan_equals_a_fresh_compile(shape):
    """After every event of a random join / leave / crash / link-up /
    link-down sequence, the plan the controller compiled from its last
    one equals a from-scratch ``compile_plan``.  So does a plan
    compiled against a DT that lost one edge and nothing else: a
    switch whose DT row alone changed is not carried over."""
    topology = SCOPED_TOPOLOGIES[shape]()
    controller = Controller(
        topology, attach_uniform(topology.nodes(), 2),
        config=ControllerConfig(cvt_iterations=3, seed=1))
    rng = np.random.default_rng(1)
    next_id = 100
    for step in range(40):
        op = random_event(controller, rng, next_id)
        next_id += op == "join"
        if op is None:
            continue
        assert controller._plan == fresh_plan(controller), (step, op)
        dt = controller.dt_adjacency()
        edges = sorted((u, v) for u in dt for v in dt[u] if u < v)
        if edges:
            u, v = edges[int(rng.integers(len(edges)))]
            dt[u].discard(v)
            dt[v].discard(u)
            assert fresh_plan(controller, dt, controller._plan) == \
                fresh_plan(controller, dt), (step, "dt edge", u, v)


def test_leave_of_a_joiner_rewalks_under_a_quarter_of_the_trees():
    """On a 200-switch Waxman, a leave of the switch that just joined
    carries most relay trees and switch plans forward, rebuilds exactly
    the plans that change, and reads back under a quarter of the
    switches; the counters say how many, once per compile."""
    topology, _ = brite_waxman_graph(200, min_degree=3,
                                     rng=np.random.default_rng(0))
    controller = Controller(
        topology, attach_uniform(topology.nodes(), 4),
        config=ControllerConfig(cvt_iterations=2, seed=0))
    registry = MetricsRegistry()
    restore = set_default_registry(registry)
    try:
        def counts():
            values = registry.counter_values("controlplane.")
            return {key[len("controlplane."):]: value
                    for key, value in values.items()
                    if key.startswith(("controlplane.plan.",
                                       "controlplane.delta.switches_read"))}

        controller.recompute()
        full = counts()
        trees = len(controller._plan.walks.trees)
        assert full == {"plan.relay_trees{outcome=walked}": trees,
                        "plan.relay_trees{outcome=reused}": 0,
                        "plan.switch_plans{outcome=built}": 200,
                        "plan.switch_plans{outcome=reused}": 0,
                        "delta.switches_read{scope=full}": 200}
        join(controller, 1000, links=[3, 71, 150], num_servers=4)
        before, plans = counts(), controller._plan.plans
        controller.remove_switch(1000)
        after = {key: value - before.get(key, 0)
                 for key, value in counts().items()}
    finally:
        set_default_registry(restore)
    walked = after["plan.relay_trees{outcome=walked}"]
    assert walked + after["plan.relay_trees{outcome=reused}"] == \
        len(controller._plan.walks.trees)
    assert 0 < walked < len(controller._plan.walks.trees) / 4
    assert after["plan.switch_plans{outcome=built}"] + \
        after["plan.switch_plans{outcome=reused}"] == 200
    assert after["plan.switch_plans{outcome=built}"] == sum(
        plan != plans[n] for n, plan in controller._plan.plans.items())
    assert 0 < after["delta.switches_read{scope=scoped}"] < 200 / 4
    assert controller._plan == fresh_plan(controller)
    assert verify_installed_state(
        controller, desired_plan=controller.desired_plan()) == []


def rebuilt_adjacency(controller, seed=0):
    """The DT adjacency of a from-scratch build over the participants,
    given in shuffled order."""
    participants = controller.dt_participants()
    np.random.default_rng(seed).shuffle(participants)
    dt = DelaunayTriangulation(
        [controller.positions[p] for p in participants])
    return {participants[v]: {participants[u] for u in nbrs}
            for v, nbrs in dt.neighbor_map().items()}


class TestDtRemoval:
    """A leave deletes its vertex from the live DT, which is then the
    rebuild's: the DT is a function of its sites."""

    @staticmethod
    def assert_deleted(controller, dt, leavers):
        assert controller._dt is dt
        assert not set(controller._dt_vertex_to_switch.values()) & leavers
        for seed in range(3):
            assert controller.dt_adjacency() == \
                rebuilt_adjacency(controller, seed)
        assert controller._plan == controller.desired_plan()

    def test_relay_only_leavers_do_no_dt_work(self):
        topology = grid_graph(4, 4)
        servers = attach_uniform(topology.nodes(), 2)
        servers[5] = servers[6] = []
        controller = Controller(topology, servers,
                                config=ControllerConfig(cvt_iterations=3))
        dt, adjacency = controller._dt, controller.dt_adjacency()
        triangles = dict(dt._triangles)
        controller.remove_switch(5)
        controller.absorb_failures(dead_switches=[6])
        controller.absorb_failures(dead_links=[(0, 1)])
        assert controller._dt is dt
        assert dt._triangles == triangles
        assert controller.dt_adjacency() == adjacency
        assert controller._plan == controller.desired_plan()

    def test_deleted_leaver_equals_the_rebuild(self):
        topology, _ = brite_waxman_graph(60, min_degree=2,
                                         rng=np.random.default_rng(1))
        controller = Controller(topology, attach_uniform(topology.nodes(), 2),
                                config=ControllerConfig(cvt_iterations=3))
        dt = controller._dt
        join(controller, 100, links=[3, 17, 40])
        controller.remove_switch(100)
        controller.absorb_failures(dead_switches=[7, 8])
        self.assert_deleted(controller, dt, {100, 7, 8})

    def test_cocircular_grid_leaver_equals_the_rebuild(self):
        topology = grid_graph(4, 4)
        controller = Controller(topology, attach_uniform(topology.nodes(), 2),
                                config=ControllerConfig(cvt_iterations=3))
        controller.recompute(positions={
            n: (float(n % 4), float(n // 4)) for n in topology.nodes()})
        dt = controller._dt
        controller.remove_switch(5)
        self.assert_deleted(controller, dt, {5})

    def test_bounding_box_leaver_equals_the_rebuild(self):
        topology, _ = brite_waxman_graph(60, min_degree=2,
                                         rng=np.random.default_rng(1))
        controller = Controller(topology, attach_uniform(topology.nodes(), 2),
                                config=ControllerConfig(cvt_iterations=3))
        dt, positions = controller._dt, controller.positions
        for leaver in [pick(positions, key=lambda n: positions[n][axis])
                       for pick in (min, max) for axis in (0, 1)]:
            try:
                controller.remove_switch(leaver)
            except ControlPlaneError:
                continue  # an articulation switch
            break
        self.assert_deleted(controller, dt, {leaver})


class TestRecomputeFailsClosed:
    """Positions the DT cannot triangulate are refused before anything
    changes."""

    @pytest.mark.parametrize("bad", [
        {1: (0.0, 0.0), 2: (0.0, 0.0)},
        {3: (float("nan"), 0.5)},
        {4: (0.5, float("inf"))},
    ], ids=["duplicate", "nan", "inf"])
    def test_bad_positions_change_nothing(self, bad):
        topology = grid_graph(3, 3)
        controller = Controller(topology, attach_uniform(topology.nodes(), 2),
                                config=ControllerConfig(cvt_iterations=3))
        positions = dict(controller.positions)
        dt, plan = controller._dt, controller._plan
        with pytest.raises(ControlPlaneError):
            controller.recompute(positions={**positions, **bad})
        assert controller.positions == positions
        assert controller._dt is dt
        assert controller._plan is plan
