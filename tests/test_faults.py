"""Tests for the fault-injection subsystem (repro.faults).

Covers the declarative fault plans, the injector, degraded-mode
routing, replica failover, the failure detector's repair pipeline, the
fault-aware packet simulator, and the ``run_chaos`` harness — including
the headline acceptance property: on a 30-switch Waxman deployment with
3-replica placement, crashing any single switch leaves every surviving
item retrievable (availability 1.0) after one detection/repair sweep.
"""

import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from repro import GredNetwork, attach_uniform, brite_waxman_graph
from repro.controlplane import (
    ControlPlaneError,
    Controller,
    verify_installed_state,
)
from repro.controlplane.southbound import Probe, RecordingChannel
from repro.core import GredError
from repro.dataplane import ForwardingError
from repro.edge import EdgeServer
from repro.faults import (
    ChaosConfig,
    FailureDetector,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultState,
    run_chaos,
)
from repro.graph import Graph
from repro.hashing import replica_id
from repro.simulation import PacketLevelSimulator
from repro.workloads import uniform_retrieval_trace

DATA = Path(__file__).resolve().parent / "data"


def report_text(report):
    """A report as ``gred chaos`` writes it."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.fixture
def net():
    topology, _ = brite_waxman_graph(
        20, min_degree=3, rng=np.random.default_rng(5))
    servers = attach_uniform(topology.nodes(), servers_per_switch=2)
    return GredNetwork(topology, servers, cvt_iterations=10, seed=0)


def holder_switches(net, data_id, copies):
    """Switches currently storing some replica of ``data_id``."""
    wanted = {replica_id(data_id, i) for i in range(copies)}
    holders = set()
    for switch_id, servers in net.server_map.items():
        for server in servers:
            if wanted & set(server.stored_ids()):
                holders.add(switch_id)
    return holders


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan([
            FaultEvent(time=0.9, kind="switch_crash", switch=1),
            FaultEvent(time=0.1, kind="link_down", u=0, v=1),
        ])
        assert [e.time for e in plan] == [0.1, 0.9]
        assert plan.first_fault_time == 0.1
        assert plan.last_fault_time == 0.9

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultEvent(time=0.0, kind="meteor_strike", switch=1)

    def test_missing_required_field_rejected(self):
        with pytest.raises(FaultPlanError, match="missing"):
            FaultEvent(time=0.0, kind="switch_crash")
        with pytest.raises(FaultPlanError, match="missing"):
            FaultEvent(time=0.0, kind="packet_loss", u=0, v=1)

    def test_negative_time_rejected(self):
        with pytest.raises(FaultPlanError, match=">= 0"):
            FaultEvent(time=-1.0, kind="switch_crash", switch=0)

    def test_bad_probability_rejected(self):
        with pytest.raises(FaultPlanError, match="probability"):
            FaultEvent(time=0.0, kind="packet_loss", u=0, v=1,
                       probability=1.5)

    def test_bad_factor_rejected(self):
        with pytest.raises(FaultPlanError, match="factor"):
            FaultEvent(time=0.0, kind="slow_link", u=0, v=1, factor=0.5)

    def test_dict_roundtrip(self):
        plan = FaultPlan([
            FaultEvent(time=0.2, kind="server_crash", switch=3, serial=1),
            FaultEvent(time=0.5, kind="slow_link", u=0, v=2, factor=4.0),
        ])
        again = FaultPlan.from_dict(plan.to_dict())
        assert again.to_dict() == plan.to_dict()

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"events": [
            {"time": 0.25, "kind": "switch_crash", "switch": 7},
        ]}))
        plan = FaultPlan.from_json(str(path))
        assert len(plan) == 1
        assert plan.events[0].switch == 7

    @pytest.mark.parametrize("content", [b'{"events": [1, 2', b"not json",
                                         b"\xff{}"],
                             ids=["truncated", "not-json", "not-utf8"])
    def test_unparseable_json_names_its_source(self, tmp_path, content):
        path = tmp_path / "plan.json"
        path.write_bytes(content)
        named = f"fault plan {re.escape(str(path))} is not valid JSON"
        with pytest.raises(FaultPlanError, match=named):
            FaultPlan.from_json(str(path))
        with open(path, encoding="utf-8") as handle:
            with pytest.raises(FaultPlanError, match=named):
                FaultPlan.from_json(handle)
        if content.isascii():
            with pytest.raises(FaultPlanError,
                               match="fault plan <stream> is not valid"):
                FaultPlan.from_json(io.StringIO(content.decode()))

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown"):
            FaultEvent.from_dict(
                {"time": 0.0, "kind": "switch_crash", "switch": 1,
                 "blast_radius": 3})

    def test_malformed_payload_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"not_events": []})
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"events": {"time": 0}})
        with pytest.raises(FaultPlanError, match="an object"):
            FaultPlan.from_dict({"events": [1]})

    @pytest.mark.parametrize("field, value, kind, rest", [
        ("time", math.nan, "switch_crash", {"switch": 0}),
        ("time", math.inf, "switch_crash", {"switch": 0}),
        ("time", -math.inf, "switch_crash", {"switch": 0}),
        ("time", True, "switch_crash", {"switch": 0}),
        ("time", "0.5", "switch_crash", {"switch": 0}),
        ("factor", math.nan, "slow_link", {"u": 0, "v": 1}),
        ("factor", math.inf, "slow_link", {"u": 0, "v": 1}),
        ("switch", "abc", "switch_crash", {}),
        ("switch", 1.5, "switch_crash", {}),
        ("switch", True, "switch_crash", {}),
        ("serial", "abc", "server_crash", {"switch": 0}),
        ("serial", 1.5, "server_crash", {"switch": 0}),
        ("serial", True, "server_crash", {"switch": 0}),
        ("u", "abc", "link_down", {"v": 1}),
        ("u", 1.5, "packet_loss", {"v": 1, "probability": 0.5}),
        ("v", True, "slow_link", {"u": 0, "factor": 2.0}),
        ("window", True, "control_reorder", {}),
        ("window", 2.5, "control_reorder", {}),
        ("probability", math.nan, "control_drop", {}),
        ("probability", 1.5, "control_dup", {}),
        ("probability", True, "packet_loss", {"u": 0, "v": 1}),
        ("switches", 5, "partition", {}),
    ])
    def test_bad_field_names_kind_and_field(self, field, value, kind,
                                            rest):
        """Each bad field raises FaultPlanError naming the event kind
        and the field, from the constructor and from a JSON plan."""
        record = {"time": 0.0, "kind": kind, **rest, field: value}
        named = f"{kind} event field {field!r}"
        with pytest.raises(FaultPlanError, match=re.escape(named)):
            FaultEvent(**record)
        text = json.dumps({"events": [record]})
        with pytest.raises(FaultPlanError, match=re.escape(named)):
            FaultPlan.from_json(io.StringIO(text))

    def test_a_control_probability_names_its_own_kind(self):
        with pytest.raises(FaultPlanError) as info:
            FaultEvent(time=0.0, kind="control_drop", probability=2.0)
        assert "control_drop" in str(info.value)
        assert "packet_loss" not in str(info.value)

    def test_good_fields_still_load(self):
        """Int ids, int times, the range ends of a probability and a
        factor of exactly 1 load, and the plan round-trips through
        JSON unchanged."""
        plan = FaultPlan([
            FaultEvent(time=0, kind="server_crash", switch=3, serial=0),
            FaultEvent(time=1.5, kind="slow_link", u=0, v=2, factor=1),
            FaultEvent(time=2, kind="control_drop", probability=0),
            FaultEvent(time=2, kind="control_reorder", window=1),
            FaultEvent(time=3, kind="partition", switches=[0, 4]),
        ])
        text = json.dumps(plan.to_dict())
        assert FaultPlan.from_json(io.StringIO(text)).to_dict() == \
            plan.to_dict()


# ----------------------------------------------------------------------
# injector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_crash_destroys_data_but_keeps_controller_view(self, net):
        net.place("doomed", payload=b"x", entry_switch=0)
        victim = holder_switches(net, "doomed", 1).pop()
        injector = FaultInjector(net)
        destroyed = injector.crash_switch(victim)
        assert destroyed >= 1
        assert not net.fault_state.switch_alive(victim)
        # The crash is unannounced: the controller still lists it.
        assert victim in net.controller.switches
        assert all(s.load == 0 for s in net.server_map[victim])

    def test_double_crash_rejected(self, net):
        injector = FaultInjector(net)
        injector.crash_switch(0)
        with pytest.raises(FaultPlanError, match="already crashed"):
            injector.crash_switch(0)

    def test_crash_unknown_switch_rejected(self, net):
        with pytest.raises(FaultPlanError, match="unknown switch"):
            FaultInjector(net).crash_switch(999)

    def test_server_crash_loses_only_that_server(self, net):
        injector = FaultInjector(net)
        injector.crash_server(0, 0)
        assert not net.fault_state.server_alive((0, 0))
        assert net.fault_state.server_alive((0, 1))
        assert net.fault_state.switch_alive(0)

    def test_link_down_up_roundtrip(self, net):
        u, v, _ = next(iter(net.topology.edges()))
        injector = FaultInjector(net)
        injector.link_down(u, v)
        assert net.fault_state.link_down(u, v)
        assert not net.fault_state.can_forward(u, v)
        injector.link_up(u, v)
        assert not net.fault_state.link_down(u, v)

    def test_unknown_link_rejected(self, net):
        with pytest.raises(FaultPlanError, match="unknown link"):
            FaultInjector(net).link_down(0, 999)

    def test_apply_plan_applies_everything(self, net):
        u, v, _ = next(iter(net.topology.edges()))
        plan = FaultPlan([
            FaultEvent(time=0.0, kind="packet_loss", u=u, v=v,
                       probability=0.5),
            FaultEvent(time=0.1, kind="slow_link", u=u, v=v, factor=3.0),
        ])
        injector = FaultInjector(net)
        assert injector.apply_plan(plan) == 2
        assert net.fault_state.loss_probability(u, v) == 0.5
        assert net.fault_state.delay_factor(u, v) == 3.0

    def test_random_victim_deterministic_under_seed(self, net):
        picks_a = [FaultInjector(net, seed=9).random_alive_switch()
                   for _ in range(5)]
        picks_b = [FaultInjector(net, seed=9).random_alive_switch()
                   for _ in range(5)]
        assert picks_a == picks_b


# ----------------------------------------------------------------------
# degraded-mode routing
# ----------------------------------------------------------------------
class TestDegradedRouting:
    def _route_with_intermediate(self, net):
        """(data_id, entry, victim) where victim is a strict
        intermediate of the healthy route."""
        for i in range(200):
            data_id = f"deg-{i}"
            for entry in net.switch_ids():
                route = net.route_for(data_id, entry)
                middle = [s for s in route.trace[1:-1]
                          if s != route.destination_switch]
                if middle:
                    return data_id, entry, middle[0]
        pytest.skip("no multi-hop route found")

    def test_routes_around_crashed_intermediate(self, net):
        data_id, entry, victim = self._route_with_intermediate(net)
        healthy_dest = net.route_for(data_id, entry).destination_switch
        FaultInjector(net).crash_switch(victim)
        route = net.route_for(data_id, entry)
        assert victim not in route.trace
        assert route.destination_switch == healthy_dest

    def test_crashed_entry_raises(self, net):
        FaultInjector(net).crash_switch(0)
        with pytest.raises(ForwardingError, match="crashed"):
            net.route_for("any", 0)
        with pytest.raises(GredError, match="crashed"):
            net.retrieve("any", entry_switch=0)

    def test_random_entry_avoids_crashed_switches(self, net):
        injector = FaultInjector(net)
        injector.crash_switch(0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            result = net.retrieve("nothing", rng=rng)
            assert result.entry_switch != 0

    def test_hop_budget_respected(self, net):
        # A budget of 0 cannot leave the entry switch: every probe of a
        # non-local item dies in routing and the retrieval reports a
        # clean all-routes-failed miss (no silent long detours).
        saw_budget_miss = False
        for i in range(50):
            result = net.retrieve(f"budget-{i}", entry_switch=0,
                                  max_hops=0)
            assert not result.found
            if result.destination_switch is None:
                saw_budget_miss = True
            else:
                assert result.request_hops == 0  # delivered locally
        assert saw_budget_miss


# ----------------------------------------------------------------------
# replica failover
# ----------------------------------------------------------------------
class TestReplicaFailover:
    def test_failover_to_surviving_replica(self, net):
        net.place("precious", payload=b"gold", entry_switch=0, copies=3)
        entry = 0
        order = net.replica_order("precious", 3, entry)
        nearest_switch = net.destination_switch(
            replica_id("precious", order[0]))
        others = holder_switches(net, "precious", 3) - {nearest_switch}
        if not others or entry == nearest_switch:
            pytest.skip("replicas collided on one switch")
        FaultInjector(net).crash_switch(nearest_switch)
        result = net.retrieve("precious", entry_switch=entry, copies=3)
        assert result.found
        assert result.payload == b"gold"
        assert result.attempts >= 2
        assert result.server_id[0] != nearest_switch

    def test_missing_nearest_copy_falls_back(self, net):
        """S1 regression: a missing (not crashed) nearest copy must not
        end the retrieval."""
        net.place("flaky", payload=b"v", entry_switch=0, copies=2)
        order = net.replica_order("flaky", 2, 0)
        nearest_id = replica_id("flaky", order[0])
        deleted = net.delete(nearest_id, copies=1)
        assert deleted == 1
        result = net.retrieve("flaky", entry_switch=0, copies=2)
        assert result.found
        assert result.copy_used == order[1]
        assert result.attempts == 2

    def test_all_replicas_gone_is_a_miss(self, net):
        net.place("vanishing", payload=b"v", entry_switch=0, copies=2)
        for i in range(2):
            net.delete(replica_id("vanishing", i), copies=1)
        result = net.retrieve("vanishing", entry_switch=0, copies=2)
        assert not result.found
        assert result.attempts == 2


# ----------------------------------------------------------------------
# failure detection and repair
# ----------------------------------------------------------------------
class TestFailureDetector:
    def test_sweep_reports_dead_switch_and_probes(self, net):
        injector = FaultInjector(net)
        injector.crash_switch(3)
        channel = RecordingChannel()
        detector = FailureDetector(net, channel=channel)
        report = detector.sweep()
        assert report.dead_switches == [3]
        assert report.probes_sent == len(net.controller.switches)
        assert channel.count(Probe) == report.probes_sent

    def test_sweep_clean_on_healthy_network(self, net):
        FaultInjector(net)  # attaches an empty fault state
        assert FailureDetector(net).sweep().clean

    def test_repair_prunes_and_reinstalls(self, net):
        injector = FaultInjector(net)
        injector.crash_switch(3)
        detector = FailureDetector(net)
        report = detector.repair(fault_time=0.42)
        assert 3 not in net.controller.switches
        assert not net.topology.has_node(3)
        assert not net.fault_state.any_active()
        assert verify_installed_state(
            net.controller, fault_state=net.fault_state) == []
        # Next heartbeat tick after 0.42 at interval 0.1 is 0.5.
        assert report.recovery_time == pytest.approx(0.08)

    def test_repair_replaces_crashed_server(self, net):
        net.place("onserver", payload=b"x", entry_switch=0)
        injector = FaultInjector(net)
        injector.crash_server(0, 0)
        report = FailureDetector(net).repair()
        assert report.servers_replaced == 1
        assert net.fault_state.server_alive((0, 0))
        assert net.server(0, 0).load == 0

    def test_repair_restores_replica_count(self, net):
        net.place("resilient", payload=b"data", entry_switch=0, copies=3)
        holders = holder_switches(net, "resilient", 3)
        if len(holders) < 2:
            pytest.skip("replicas collided on one switch")
        injector = FaultInjector(net)
        victim = sorted(holders)[0]
        injector.crash_switch(victim)
        detector = FailureDetector(net)
        detector.register("resilient", copies=3)
        report = detector.repair()
        assert report.lost_items == []
        assert report.re_replicated >= 1
        # All three replica ids are stored somewhere again.
        for i in range(3):
            found = any(
                server.has(replica_id("resilient", i))
                for servers in net.server_map.values()
                for server in servers
            )
            assert found, f"replica {i} not restored"

    @pytest.mark.parametrize("disagree", ["copies", "holders"])
    def test_repair_copies_from_the_newest_survivor(self, net, disagree):
        """Two live survivors at different stamps and one crashed
        replica: the missing copy is rebuilt from the fresher one —
        whether it is another copy (a write that reached copy 1 only,
        during a partition) or a second holder of the same copy (the
        stale one first in switch order) — never from the stale one."""
        injector = FaultInjector(net)
        net.place("split", payload=b"old", entry_switch=0, copies=3)
        ordered = [server for switch in sorted(net.server_map)
                   for server in net.server_map[switch]]
        homes = [next(server for server in ordered
                      if server.has(replica_id("split", i)))
                 for i in range(3)]
        if len({server.server_id for server in homes}) < 3:
            pytest.skip("replicas collided on one server")
        newer = (net.write_version + 5, 0)
        if disagree == "copies":
            homes[1].store(replica_id("split", 1), b"new", stamp=newer)
        else:
            later = next(server for server in reversed(ordered)
                         if server not in homes)
            assert ordered.index(later) > ordered.index(homes[0])
            later.store(replica_id("split", 0), b"new", stamp=newer)
        injector.crash_server(*homes[2].server_id)
        report = FailureDetector(net, catalog={"split": 3}).repair()
        assert report.re_replicated == 1 and report.lost_items == []
        rebuilt = net.server(*homes[2].server_id)
        copy_id = replica_id("split", 2)
        assert rebuilt.retrieve(copy_id) == b"new"
        assert rebuilt.stamp_of(copy_id) == newer

    def test_item_with_no_surviving_copy_reported_lost(self, net):
        net.place("fragile", payload=b"x", entry_switch=0, copies=1)
        victim = holder_switches(net, "fragile", 1).pop()
        FaultInjector(net).crash_switch(victim)
        detector = FailureDetector(net, catalog={"fragile": 1})
        report = detector.repair()
        assert report.lost_items == ["fragile"]
        assert report.items_lost == 1

    def test_bad_interval_rejected(self, net):
        with pytest.raises(ValueError, match="interval"):
            FailureDetector(net, interval=0.0)


class TestSingleCrashAvailability:
    """The headline acceptance property (30-switch Waxman, 3 copies)."""

    def test_sequential_crashes_keep_surviving_items_available(
            self, gred_waxman):
        net = gred_waxman
        items = [f"ha-{i}" for i in range(40)]
        rng = np.random.default_rng(2)
        for data_id in items:
            net.place(data_id, payload=data_id, copies=3, rng=rng)
        injector = FaultInjector(net, seed=1)
        detector = FailureDetector(
            net, catalog={d: 3 for d in items})
        lost = set()
        for _ in range(5):
            victim = injector.random_alive_switch()
            injector.crash_switch(victim)
            report = detector.repair()
            lost.update(report.lost_items)
            assert verify_installed_state(
                net.controller, fault_state=net.fault_state) == []
            for data_id in items:
                if data_id in lost:
                    continue
                result = net.retrieve(data_id, copies=3, rng=rng)
                assert result.found, \
                    f"{data_id} unavailable after crashing {victim}"
                assert result.payload == data_id


# ----------------------------------------------------------------------
# controller absorb_failures
# ----------------------------------------------------------------------
def barbell_controller():
    """Two triangles bridged by node 3; killing 3 partitions them."""
    g = Graph()
    for a, b in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                 (4, 5), (5, 6), (6, 4)]:
        g.add_edge(a, b)
    server_map = {
        n: [EdgeServer(switch=n, serial=0)] for n in g.nodes()
    }
    from repro.controlplane import ControllerConfig

    return Controller(g, server_map,
                      config=ControllerConfig(cvt_iterations=5, seed=0))


class TestAbsorbFailures:
    def test_partition_strands_smaller_component(self):
        controller = barbell_controller()
        stranded = controller.absorb_failures(dead_switches=[3])
        # Tie on participants and size: lowest id wins, so {0,1,2}
        # stays and {4,5,6} is stranded.
        assert stranded == [4, 5, 6]
        assert sorted(controller.switches) == [0, 1, 2]
        assert verify_installed_state(controller) == []

    def test_dead_link_partition_strands_component(self):
        controller = barbell_controller()
        stranded = controller.absorb_failures(
            dead_links=[(2, 3), (3, 4)])
        assert stranded == [3, 4, 5, 6] or stranded == [4, 5, 6, 3]
        assert sorted(controller.switches) == [0, 1, 2]

    def test_all_dead_rejected_without_mutation(self):
        controller = barbell_controller()
        before = sorted(controller.switches)
        with pytest.raises(ControlPlaneError, match="every switch"):
            controller.absorb_failures(dead_switches=list(before))
        assert sorted(controller.switches) == before

    def test_no_surviving_servers_rejected(self):
        g = Graph()
        g.add_edge(0, 1)
        server_map = {0: [EdgeServer(switch=0, serial=0)], 1: []}
        from repro.controlplane import ControllerConfig

        controller = Controller(
            g, server_map, config=ControllerConfig(cvt_iterations=0))
        with pytest.raises(ControlPlaneError, match="server"):
            controller.absorb_failures(dead_switches=[0])

    def test_dead_extension_withdrawn(self, net):
        net.extend_range(0, 0)
        target = net.controller.switches[0].table.extension_for(0)
        stranded = net.controller.absorb_failures(
            dead_switches=[target.target_switch])
        del stranded
        assert net.controller.switches[0].table.extension_for(0) is None


# ----------------------------------------------------------------------
# verifier dead-reference audit
# ----------------------------------------------------------------------
class TestDeadReferenceAudit:
    def test_crash_before_repair_is_flagged(self, net):
        FaultInjector(net).crash_switch(0)
        violations = verify_installed_state(
            net.controller, fault_state=net.fault_state)
        assert violations
        assert {v.kind for v in violations} == {"dead-reference"}

    def test_without_fault_state_audit_unchanged(self, net):
        FaultInjector(net).crash_switch(0)
        assert verify_installed_state(net.controller) == []


# ----------------------------------------------------------------------
# packet-level simulation under faults
# ----------------------------------------------------------------------
class TestPacketSimFaults:
    def _trace(self, net, items, count=40):
        return uniform_retrieval_trace(
            items, net.switch_ids(), count, 1.0,
            np.random.default_rng(11))

    def _place(self, net, count=15):
        items = [f"sim-{i}" for i in range(count)]
        for data_id in items:
            net.place(data_id, payload=b"p", entry_switch=0)
        return items

    def test_mid_trace_crash_partitions_requests(self, net):
        items = self._place(net)
        injector = FaultInjector(net, seed=0)
        plan = FaultPlan([FaultEvent(
            time=0.5, kind="switch_crash",
            switch=injector.random_alive_switch())])
        sim = PacketLevelSimulator(net, max_attempts=2)
        trace = self._trace(net, items)
        completions = sim.run(trace, injector=injector, plan=plan)
        assert len(completions) + len(sim.failed) == len(trace)
        for failure in sim.failed:
            assert failure.reason
            assert failure.attempts == 2

    def test_total_loss_on_every_link_fails_requests(self, net):
        items = self._place(net)
        injector = FaultInjector(net, seed=0)
        for u, v, _ in net.topology.edges():
            injector.set_packet_loss(u, v, 1.0)
        sim = PacketLevelSimulator(
            net, loss_rng=np.random.default_rng(0),
            max_attempts=1)
        trace = self._trace(net, items, count=20)
        completions = sim.run(trace, injector=injector)
        # Requests delivered on the entry switch itself never touch a
        # link; everything else must fail.
        for completion in completions:
            assert completion.request_hops == 0
        assert sim.failed

    def test_slow_links_inflate_delay(self, net):
        items = self._place(net)
        trace = self._trace(net, items, count=20)
        baseline = PacketLevelSimulator(net)
        baseline.run(trace)
        injector = FaultInjector(net, seed=0)
        for u, v, _ in net.topology.edges():
            injector.set_slow_link(u, v, 10.0)
        slowed = PacketLevelSimulator(net)
        slowed.run(trace, injector=injector)
        assert slowed.average_response_delay() > \
            baseline.average_response_delay()

    def test_plan_without_injector_rejected(self, net):
        plan = FaultPlan([FaultEvent(time=0.1, kind="switch_crash",
                                     switch=0)])
        with pytest.raises(ValueError, match="injector"):
            PacketLevelSimulator(net).run([], plan=plan)

    def test_identical_runs_are_identical(self):
        def one_run():
            topology, _ = brite_waxman_graph(
                15, min_degree=3, rng=np.random.default_rng(5))
            servers = attach_uniform(topology.nodes(),
                                     servers_per_switch=2)
            net = GredNetwork(topology, servers, cvt_iterations=8,
                              seed=0)
            items = [f"det-{i}" for i in range(10)]
            for data_id in items:
                net.place(data_id, payload=b"p", entry_switch=0)
            injector = FaultInjector(net, seed=4)
            plan = FaultPlan([FaultEvent(
                time=0.5, kind="switch_crash",
                switch=injector.random_alive_switch())])
            sim = PacketLevelSimulator(
                net, loss_rng=np.random.default_rng(8), max_attempts=3)
            trace = uniform_retrieval_trace(
                items, net.switch_ids(), 30, 1.0,
                np.random.default_rng(11))
            completions = sim.run(trace, injector=injector, plan=plan)
            return (
                [(c.request.data_id, c.response_delay)
                 for c in completions],
                [(f.request.data_id, f.reason, f.attempts)
                 for f in sim.failed],
            )

        assert one_run() == one_run()


# ----------------------------------------------------------------------
# chaos harness
# ----------------------------------------------------------------------
class TestRunChaos:
    CONFIG = dict(switches=12, items=16, requests=25,
                  cvt_iterations=5, seed=3)

    def test_report_is_deterministic(self):
        r1 = run_chaos(ChaosConfig(**self.CONFIG))
        r2 = run_chaos(ChaosConfig(**self.CONFIG))
        assert json.dumps(r1, sort_keys=True) == \
            json.dumps(r2, sort_keys=True)

    def test_report_headline_fields(self):
        report = run_chaos(ChaosConfig(**self.CONFIG))
        assert report["availability"] == 1.0
        assert report["verifier_violations"] == 0
        assert report["items_lost"] == len(report["repair"]["lost_items"])
        assert report["hop_inflation"] > 0
        assert report["faults_metrics"]["faults.switch_crashes"] == 1.0
        # The report must be JSON-serializable end to end.
        json.dumps(report)

    def test_explicit_plan_is_used(self):
        plan = FaultPlan([FaultEvent(time=0.3, kind="switch_crash",
                                     switch=2)])
        report = run_chaos(ChaosConfig(plan=plan, **self.CONFIG))
        assert report["repair"]["dead_switches"] == [2]
        assert report["plan"]["events"][0]["switch"] == 2

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ChaosConfig(switches=1)
        with pytest.raises(ValueError):
            ChaosConfig(copies=0)
        with pytest.raises(ValueError):
            ChaosConfig(duration=0.0)

    @pytest.mark.parametrize("field, value", [
        ("duration", math.nan), ("duration", math.inf),
        ("detection_interval", 0.0), ("detection_interval", -1.0),
        ("detection_interval", math.nan), ("min_degree", 0),
        ("servers_per_switch", 0), ("cvt_iterations", -1)])
    def test_out_of_range_field_is_named(self, field, value):
        """The config refuses the value, naming its field, before a
        run builds anything."""
        with pytest.raises(ValueError, match=f"^{field} must be "):
            ChaosConfig(**{field: value})

    def test_committed_report_regenerates(self):
        """``tests/data/chaos_report.json`` comes back byte for byte from
        its own ``config``, ``control_plan`` and ``plan``."""
        path = DATA / "chaos_report.json"
        recorded = json.loads(path.read_text())
        config = dict(recorded["config"],
                      control_plan=FaultPlan.from_dict(
                          recorded["config"]["control_plan"]),
                      plan=FaultPlan.from_dict(recorded["plan"]))
        assert report_text(run_chaos(ChaosConfig(**config))) == \
            path.read_text()

    def test_default_run_regenerates(self):
        """With no plan the run draws its crash from the injector's rng
        (``random_alive_switch``): ``run_chaos(ChaosConfig())`` comes
        back byte for byte as ``tests/data/chaos_default_report.json``."""
        assert report_text(run_chaos(ChaosConfig())) == \
            (DATA / "chaos_default_report.json").read_text()

    def test_registry_restored_after_run(self):
        from repro.obs import default_registry

        before = default_registry()
        run_chaos(ChaosConfig(**self.CONFIG))
        assert default_registry() is before


# ----------------------------------------------------------------------
# fault state basics
# ----------------------------------------------------------------------
class TestFaultState:
    def test_clear_resets_everything(self):
        state = FaultState()
        state.crashed_switches.add(1)
        state.down_links.add((0, 1))
        state.loss[(0, 1)] = 0.5
        assert state.any_active()
        state.clear()
        assert not state.any_active()

    def test_server_dies_with_its_switch(self):
        state = FaultState()
        state.crashed_switches.add(4)
        assert not state.server_alive((4, 0))
        assert state.server_alive((5, 0))

    def test_snapshot_restore_has_no_fault_state(self, net, tmp_path):
        from repro.io import load_network, save_network

        path = str(tmp_path / "net.json")
        save_network(net, path)
        restored = load_network(path)
        assert restored.fault_state is None
