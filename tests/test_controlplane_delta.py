"""Contracts of the incremental plan/diff/apply control plane.

Whether the delta-maintained tables equal a from-scratch rebuild after
any sequence of events is the control-plane model's question
(``test_controlplane_model.py``); the named scenarios below run its
invariant check, :func:`check_plane`, on the classic events.  The other
groups pin the pipeline's own contracts and the *scoped* invalidation
behavior: a join must not bump untouched switches' generations,
rebuild the routing index, or evict unrelated cached routes.
"""

import numpy as np
import pytest

from repro import GredNetwork
from repro.controlplane import (
    ControlPlaneError,
    Controller,
    ControllerConfig,
    RecordingChannel,
    compile_plan,
    diff_plans,
    snapshot_plan,
    verify_installed_state,
)
from repro.dataplane import Packet, PacketKind, route_packet
from repro.dataplane.fastpath import CompiledRouter
from repro.edge import attach_uniform
from repro.hashing import position_from_bits
from repro.experiments.convergence import oracle_switches
from repro.obs import (
    MetricsRegistry,
    default_registry,
    disable,
    enable,
    set_default_registry,
)
from repro.topology import brite_waxman_graph, grid_graph
from test_controlplane_model import check_plane, dt_edges, fresh_twin, join


def make_controller(rows=4, cols=4, servers_per_switch=2, seed=0):
    topology = grid_graph(rows, cols)
    return Controller(
        topology,
        attach_uniform(topology.nodes(), servers_per_switch),
        config=ControllerConfig(cvt_iterations=5, seed=seed),
    )


class TestDeltaEquivalence:
    """Delta-maintained tables == a fresh twin == install_all_rules."""

    def test_initial_install_matches_oracle(self):
        check_plane(make_controller())

    def test_join_matches_oracle(self):
        controller = make_controller()
        join(controller, 100, links=[0, 5])
        check_plane(controller)

    def test_relay_only_join_matches_oracle(self):
        controller = make_controller()
        join(controller, 100, links=[3], num_servers=0)
        check_plane(controller)

    def test_leave_matches_oracle(self):
        controller = make_controller()
        controller.remove_switch(5)
        check_plane(controller)

    def test_crash_matches_oracle(self):
        controller = make_controller()
        controller.absorb_failures(dead_switches=[10],
                                   dead_links=[(0, 1)])
        check_plane(controller)

    def test_link_dynamics_match_oracle(self):
        controller = make_controller()
        controller.add_link(0, 15)
        check_plane(controller)
        controller.remove_link(0, 15)
        check_plane(controller)

    def test_mixed_sequence_matches_oracle(self):
        controller = make_controller()
        join(controller, 100, links=[0, 6])
        controller.remove_switch(9)
        controller.add_link(100, 10)
        controller.absorb_failures(dead_switches=[1])
        join(controller, 101, links=[100, 2], num_servers=0)
        check_plane(controller)

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
        # Every route the sweep kept is what a fresh walk on the
        # patched plane gives back, and the sweep kept routes through
        # touched switches: it re-checks them instead of evicting them.
        # A route through no touched switch goes only past the hop
        # bound.
        fresh = CompiledRouter(net.controller.switches)
        kept_through_touched = 0
        for key, before in cached.items():
            outcome = after.routes.get(*key, 0)
            if outcome is None:
                if not touched.intersection(before[0]):
                    hops = len(before[0]) - 1
                    assert hops > after.router._default_max_hops, \
                        f"unrelated cached route evicted: {key}"
                continue
            walked = fresh.route(key[0], "w", *position_from_bits(key[1]), 0)
            assert outcome == walked, f"stale route kept: {key}"
            kept_through_touched += bool(touched.intersection(outcome[0]))
        assert kept_through_touched > 0

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
    """A plan compiled from the last one against a DT that lost one
    edge and nothing else equals a from-scratch ``compile_plan``, both
    when every row is examined and when only the edge's two ends are
    named changed: a switch whose DT row alone changed is not carried
    over.  (No event makes that change; the model checks the plans
    events make.)"""
    topology = SCOPED_TOPOLOGIES[shape]()
    controller = Controller(
        topology, attach_uniform(topology.nodes(), 2),
        config=ControllerConfig(cvt_iterations=3, seed=1))
    dt = controller.dt_adjacency()
    edges = sorted((u, v) for u in dt for v in dt[u] if u < v)
    for index in np.random.default_rng(1).choice(len(edges), size=12,
                                                 replace=False):
        u, v = edges[index]
        dt = controller.dt_adjacency()
        dt[u].discard(v)
        dt[v].discard(u)
        fresh, *scoped = [
            compile_plan(controller.topology, controller.positions, dt,
                         server_counts={n: 2 for n in topology.nodes()},
                         previous=previous, changed=changed)
            for previous, changed in ((None, None), (controller._plan, None),
                                      (controller._plan, {u, v}))]
        assert scoped == [fresh, fresh], (u, v)


def test_leave_of_a_joiner_rewalks_under_a_quarter_of_the_trees():
    """On a 200-switch Waxman, a leave of the switch that just joined
    reads under a fifth of the port rows, carries most relay trees and
    switch plans forward, rebuilds exactly the plans that change, and
    reads back under a quarter of the switches; the counters say how
    many, once per compile."""
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
                        "plan.switch_rows{outcome=read}": 200,
                        "plan.switch_rows{outcome=carried}": 0,
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
    assert after["plan.switch_rows{outcome=read}"] + \
        after["plan.switch_rows{outcome=carried}"] == 200
    assert 0 < after["plan.switch_rows{outcome=read}"] < 200 / 5
    assert 0 < after["delta.switches_read{scope=scoped}"] < 200 / 4
    assert controller._plan == controller.desired_plan()
    assert verify_installed_state(
        controller, desired_plan=controller.desired_plan()) == []


class TestDtRemoval:
    """A leave deletes its vertex from the live DT, which is then the
    rebuild's: the DT is a function of its sites.  (The model's grid
    walk covers the cocircular case.)"""

    @staticmethod
    def assert_deleted(controller, dt, leavers):
        assert controller._dt is dt
        assert not set(controller._dt_vertex_to_switch.values()) & leavers
        assert dt_edges(controller) == dt_edges(fresh_twin(controller))
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
