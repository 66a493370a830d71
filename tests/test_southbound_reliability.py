"""Reliable-southbound tests: lossy channel, ack/retry convergence,
and digest-based anti-entropy reconciliation.

The convergence oracle is :func:`repro.controlplane.install_all_rules`
(through :func:`repro.experiments.convergence.mismatched_switches`);
that churn over any fault mix converges to it once ``reconcile`` has
run is the control-plane model's invariant
(``test_controlplane_model.py``).  A second pillar is the no-fault
equality: with every channel knob at zero, the reliable path must
transmit *exactly* the message sequence ``apply_delta`` would.
"""

import numpy as np
import pytest

from repro.controlplane import (
    Controller,
    ControllerConfig,
    FaultyChannel,
    RecordingChannel,
    RetryPolicy,
    TransactionalApplier,
    apply_delta,
    diff_plans,
    plan_digests,
    snapshot_plan,
    switch_digest,
    verify_installed_state,
)
from repro.controlplane.channel import ControlChannelError
from repro.controlplane.southbound import (
    InstallPhysical,
    Probe,
    RemovePhysical,
    SetPosition,
    apply_message,
)
from repro.core import GredError
from repro.dataplane import GredSwitch
from repro.edge import EdgeServer
from repro.experiments.convergence import (
    blank_switches,
    canonical_state,
    mismatched_switches,
)
from repro.faults.plan import FaultEvent, FaultPlan, FaultPlanError
from repro.obs import MetricsRegistry, default_registry, set_default_registry
from repro.topology import grid_graph

from test_controlplane_delta import make_controller
from test_controlplane_model import join


def make_reliable_controller(rows=4, cols=4, seed=0, **channel_knobs):
    """A grid controller whose southbound goes through a FaultyChannel."""
    controller = make_controller(rows=rows, cols=cols, seed=seed)
    channel = FaultyChannel(seed=seed + 100, **channel_knobs)
    controller.attach_transport(channel)
    return controller, channel


class TestFaultyChannel:
    """Deterministic fault injection on the southbound channel."""

    def test_faultless_channel_delivers_everything_in_order(self):
        controller = make_controller()
        plan = controller.desired_plan()
        switches = blank_switches(controller)
        observer = RecordingChannel()
        channel = FaultyChannel(observer=observer)
        delta = diff_plans(None, plan)
        acks = channel.ship(switches, delta.messages)
        assert all(acks)
        assert [type(m) for m in observer.messages] == \
            [type(m) for m in delta.messages]
        assert channel.stats.delivered == len(delta.messages)
        assert channel.stats.dropped == 0
        for switch_id, switch in controller.switches.items():
            assert canonical_state(switch) == \
                canonical_state(switches[switch_id])

    def test_same_seed_same_faults(self):
        controller = make_controller()
        delta = diff_plans(None, controller.desired_plan())
        runs = []
        for _ in range(2):
            channel = FaultyChannel(drop=0.3, dup=0.1,
                                    reorder_window=3, seed=7)
            acks = channel.ship(blank_switches(controller),
                                delta.messages)
            runs.append((acks, channel.stats.to_dict()))
        assert runs[0] == runs[1]

    def test_different_seed_different_faults(self):
        controller = make_controller()
        delta = diff_plans(None, controller.desired_plan())
        stats = []
        for seed in (1, 2):
            channel = FaultyChannel(drop=0.3, seed=seed)
            channel.ship(blank_switches(controller), delta.messages)
            stats.append(tuple(channel.stats.to_dict().items()))
        assert stats[0] != stats[1]

    def test_dropped_messages_are_not_acked(self):
        controller = make_controller()
        delta = diff_plans(None, controller.desired_plan())
        channel = FaultyChannel(drop=0.5, seed=3)
        acks = channel.ship(blank_switches(controller), delta.messages)
        assert channel.stats.dropped > 0
        assert sum(1 for a in acks if not a) == channel.stats.dropped

    def test_delayed_messages_arrive_on_next_ship(self):
        switches = {
            0: GredSwitch(switch_id=0, position=(0.0, 0.0)),
        }
        channel = FaultyChannel(delay=1.0, seed=0)
        message = SetPosition(switch=0, position=(0.5, 0.5))
        acks = channel.ship(switches, [message])
        assert acks == [False]
        assert channel.in_flight == 1
        assert switches[0].position == (0.0, 0.0)
        channel.configure(delay=0.0)
        channel.ship(switches, [])
        assert channel.in_flight == 0
        assert switches[0].position == (0.5, 0.5)

    def test_unreachable_switch_gets_nothing(self):
        switches = {
            0: GredSwitch(switch_id=0, position=(0.0, 0.0)),
        }
        channel = FaultyChannel()
        channel.mark_unreachable(0)
        acks = channel.ship(
            switches, [SetPosition(switch=0, position=(0.5, 0.5))])
        assert acks == [False]
        assert switches[0].position == (0.0, 0.0)
        channel.mark_reachable(0)
        acks = channel.ship(
            switches, [SetPosition(switch=0, position=(0.5, 0.5))])
        assert acks == [True]
        assert switches[0].position == (0.5, 0.5)

    def test_departed_target_is_acked_noop(self):
        channel = FaultyChannel()
        acks = channel.ship({}, [SetPosition(switch=99,
                                             position=(0.1, 0.2))])
        assert acks == [True]
        assert channel.stats.departed_noops == 1

    def test_configure_rejects_bad_knobs(self):
        channel = FaultyChannel()
        with pytest.raises(ControlChannelError):
            channel.configure(drop=1.5)
        with pytest.raises(ControlChannelError):
            channel.configure(reorder_window=0)


class TestApplyMessageErrors:
    """Unknown targets fail loudly with context (satellite bugfix)."""

    def test_unknown_switch_raises_grederror_with_context(self):
        message = InstallPhysical(switch=42, neighbor=1, port=0)
        with pytest.raises(GredError) as excinfo:
            apply_message({}, message)
        text = str(excinfo.value)
        assert "42" in text
        assert "InstallPhysical" in text

    def test_known_switch_still_applies(self):
        switches = {
            0: GredSwitch(switch_id=0, position=(0.0, 0.0)),
        }
        apply_message(switches, SetPosition(switch=0,
                                            position=(0.3, 0.4)))
        assert switches[0].position == (0.3, 0.4)


class TestRecordingChannelFilters:
    """Probe traffic no longer pollutes rule-install counts."""

    def test_count_excludes_probes(self):
        channel = RecordingChannel()
        channel.send(SetPosition(switch=0, position=(0.0, 0.0)))
        channel.send(Probe(switch=0))
        channel.send(Probe(switch=1))
        assert channel.count() == 3
        assert channel.count(exclude=(Probe,)) == 1
        assert channel.count(Probe) == 2

    def test_per_switch_excludes_probes(self):
        channel = RecordingChannel()
        channel.send(SetPosition(switch=0, position=(0.0, 0.0)))
        channel.send(Probe(switch=0))
        channel.send(Probe(switch=1))
        assert channel.per_switch() == {0: 2, 1: 1}
        assert channel.per_switch(exclude=(Probe,)) == {0: 1}
        assert channel.per_switch(Probe) == {0: 1, 1: 1}


class TestTransactionalApplier:
    """Ack/retry transactions over the lossy channel."""

    def test_no_fault_path_is_message_identical_to_apply_delta(self):
        controller = make_controller()
        plan = controller.desired_plan()
        delta = diff_plans(None, plan)

        plain_channel = RecordingChannel()
        apply_delta(blank_switches(controller), delta,
                    channel=plain_channel)

        observer = RecordingChannel()
        applier = TransactionalApplier(FaultyChannel(observer=observer))
        report = applier.apply(blank_switches(controller), delta)

        assert observer.messages == plain_channel.messages
        assert report.converged
        assert report.retries == 0
        assert report.transmissions == len(delta.messages)

    def test_delta_applied_twice_equals_once(self):
        controller = make_controller()
        plan = controller.desired_plan()
        delta = diff_plans(None, plan)
        applier = TransactionalApplier(FaultyChannel())
        switches = blank_switches(controller)
        applier.apply(switches, delta)
        once = {sid: canonical_state(sw)
                for sid, sw in switches.items()}
        applier.apply(switches, delta)
        twice = {sid: canonical_state(sw)
                 for sid, sw in switches.items()}
        assert once == twice

    def test_retries_recover_from_drops(self):
        controller = make_controller()
        plan = controller.desired_plan()
        delta = diff_plans(None, plan)
        switches = blank_switches(controller)
        applier = TransactionalApplier(
            FaultyChannel(drop=0.3, seed=5),
            policy=RetryPolicy(max_attempts=16, delta_deadline=100.0))
        report = applier.apply(switches, delta)
        assert report.converged
        assert report.retries > 0
        oracle = blank_switches(controller)
        apply_delta(oracle, delta)
        for sid in oracle:
            assert canonical_state(switches[sid]) == \
                canonical_state(oracle[sid])

    def test_retry_budget_exhaustion_lands_on_pending(self):
        controller = make_controller()
        delta = diff_plans(None, controller.desired_plan())
        applier = TransactionalApplier(
            FaultyChannel(drop=1.0, seed=0),
            policy=RetryPolicy(max_attempts=2, delta_deadline=100.0))
        report = applier.apply(blank_switches(controller), delta)
        assert not report.converged
        assert report.pending == delta.touched
        assert report.acked == frozenset()

    def test_unreachable_switch_goes_straight_to_pending(self):
        controller = make_controller()
        delta = diff_plans(None, controller.desired_plan())
        channel = FaultyChannel()
        target = sorted(delta.touched)[0]
        channel.mark_unreachable(target)
        report = TransactionalApplier(channel).apply(
            blank_switches(controller), delta)
        assert target in report.pending
        assert report.pending == frozenset({target})

    def test_departed_switch_is_acked_noop(self):
        controller = make_controller()
        delta = diff_plans(None, controller.desired_plan())
        switches = blank_switches(controller)
        gone = sorted(delta.touched)[0]
        del switches[gone]
        report = TransactionalApplier(FaultyChannel()).apply(
            switches, delta)
        assert gone in report.departed
        assert gone not in report.pending

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(delta_deadline=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestDigests:
    """The anti-entropy comparison unit."""

    def test_digest_matches_iff_state_matches(self):
        controller = make_controller()
        plan = controller.desired_plan()
        installed = snapshot_plan(controller.switches)
        for sid in plan.plans:
            assert switch_digest(plan.plans[sid]) == \
                switch_digest(installed.plans[sid])
        # Corrupt one switch out of band: its digest must diverge.
        victim = sorted(controller.switches)[0]
        controller.switches[victim].install_position((0.123, 0.456))
        corrupted = snapshot_plan(controller.switches)
        assert switch_digest(plan.plans[victim]) != \
            switch_digest(corrupted.plans[victim])

    def test_plan_digests_keys(self):
        controller = make_controller()
        plan = controller.desired_plan()
        digests = plan_digests(plan)
        assert set(digests) == set(plan.plans)


class TestReconcile:
    """Digest sweeps repair whatever survives ack/retry."""

    def test_clean_controller_reconciles_in_zero_sweeps(self):
        controller, _ = make_reliable_controller()
        report = controller.reconcile()
        assert report.sweeps == 0
        assert report.divergent_initial == 0
        assert report.converged

    def test_reconcile_repairs_out_of_band_corruption(self):
        controller, _ = make_reliable_controller()
        victim = sorted(controller.switches)[2]
        controller.switches[victim].install_position((0.9, 0.9))
        report = controller.reconcile()
        assert report.divergent_initial >= 1
        assert report.converged
        assert mismatched_switches(controller) == []

    def test_reconcile_skips_unreachable_and_drains_on_recovery(self):
        controller, channel = make_reliable_controller()
        victim = sorted(controller.switches)[1]
        channel.mark_unreachable(victim)
        # A join touches the victim's neighborhood; its delta cannot
        # be delivered, so it must land on the pending queue.
        join(controller, 100, links=[victim, 0])
        assert victim in controller.pending_deltas
        report = controller.reconcile()
        assert victim in report.unreachable
        # The victim's digest stays divergent while severed...
        assert victim in report.divergent_final
        assert victim in controller.pending_deltas
        # ...and a reconcile after recovery converges and drains it.
        channel.mark_reachable(victim)
        report = controller.reconcile()
        assert report.converged
        assert report.drained >= 1
        assert victim not in controller.pending_deltas
        assert mismatched_switches(controller) == []

    def test_verifier_reports_digest_mismatch(self):
        controller, _ = make_reliable_controller()
        victim = sorted(controller.switches)[0]
        controller.switches[victim].num_servers = 99
        violations = verify_installed_state(
            controller, desired_plan=controller.desired_plan())
        assert any(v.kind == "digest-mismatch" and v.switch == victim
                   for v in violations)
        controller.reconcile()
        violations = verify_installed_state(
            controller, desired_plan=controller.desired_plan())
        assert not [v for v in violations
                    if v.kind == "digest-mismatch"]


class TestChurnUnderLossConvergence:
    """Churn over a heavily lossy channel converges to the
    install_all_rules oracle once reconcile has run."""

    def test_heavy_loss_single_join_converges(self):
        controller, _ = make_reliable_controller(
            drop=0.6, dup=0.2, reorder_window=6, seed=9)
        join(controller, 300, links=[0, 5])
        join(controller, 301, links=[300, 3])
        controller.remove_switch(300)
        report = controller.reconcile(max_sweeps=16)
        assert report.converged
        assert mismatched_switches(controller) == []


class TestControlFaultPlan:
    """control_* fault-plan clauses (satellite: fault DSL extension)."""

    def test_control_events_round_trip(self):
        plan = FaultPlan([
            FaultEvent(time=0.0, kind="control_drop", probability=0.2),
            FaultEvent(time=0.0, kind="control_dup", probability=0.05),
            FaultEvent(time=0.0, kind="control_delay",
                       probability=0.1),
            FaultEvent(time=0.0, kind="control_reorder", window=4),
        ])
        restored = FaultPlan.from_dict(plan.to_dict())
        assert [e.to_dict() for e in restored] == \
            [e.to_dict() for e in plan]

    def test_control_reorder_requires_valid_window(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(time=0.0, kind="control_reorder")
        with pytest.raises(FaultPlanError):
            FaultEvent(time=0.0, kind="control_reorder", window=0)
        with pytest.raises(FaultPlanError):
            FaultEvent(time=0.0, kind="control_drop", probability=1.5)

    def test_injector_attaches_and_configures_transport(self):
        from repro import GredNetwork
        from repro.faults import FaultInjector

        topology = grid_graph(3, 3)
        net = GredNetwork(topology, servers_per_switch=2,
                          cvt_iterations=3, seed=0)
        injector = FaultInjector(net, seed=1)
        assert net.controller.transport is None
        injector.apply(FaultEvent(time=0.0, kind="control_drop",
                                  probability=0.3))
        transport = net.controller.transport
        assert transport is not None
        assert transport.drop == 0.3
        injector.apply(FaultEvent(time=0.0, kind="control_reorder",
                                  window=5))
        assert transport.reorder_window == 5
        # Churn through the degraded channel, then reconcile clean.
        net.controller.add_switch(
            50, links=[0, 4],
            servers=[EdgeServer(50, 0), EdgeServer(50, 1)])
        report = net.controller.reconcile(max_sweeps=16)
        assert report.converged
        assert mismatched_switches(net.controller) == []


class TestSouthboundMetrics:
    def test_counters_published_under_loss(self):
        previous = default_registry()
        registry = MetricsRegistry(enabled=True)
        set_default_registry(registry)
        try:
            controller, _ = make_reliable_controller(drop=0.4, seed=2)
            join(controller, 400, links=[0, 5])
            controller.reconcile(max_sweeps=16)
            counters = registry.counter_values(
                "controlplane.southbound.")
            assert counters.get("controlplane.southbound.dropped",
                                0) > 0
            assert counters.get("controlplane.southbound.acks", 0) > 0
            assert counters.get("controlplane.southbound.retries",
                                0) > 0
        finally:
            set_default_registry(previous)


class TestSnapshotReliabilityState:
    """Pending queue + ack generations survive a snapshot round trip;
    a restored controller reconciles against live switches."""

    def _make_net(self):
        from repro import GredNetwork

        topology = grid_graph(3, 3)
        return GredNetwork(topology, servers_per_switch=2,
                           cvt_iterations=3, seed=0)

    def test_pending_and_acks_round_trip(self, tmp_path):
        from repro.io import load_network, save_network

        net = self._make_net()
        controller = net.controller
        channel = FaultyChannel(seed=1)
        controller.attach_transport(channel)
        victim = sorted(controller.switches)[1]
        channel.mark_unreachable(victim)
        controller.add_switch(
            60, links=[victim, 0],
            servers=[EdgeServer(60, 0), EdgeServer(60, 1)])
        assert victim in controller.pending_deltas
        acks_before = controller.ack_generations
        pending_before = controller.pending_deltas

        path = str(tmp_path / "net.json")
        save_network(net, path)
        restored = load_network(path)
        assert restored.controller.pending_deltas == pending_before
        assert restored.controller.ack_generations == acks_before

    def test_restored_controller_reconciles_divergence(self, tmp_path):
        """Crash/restart recovery: the restored controller rebuilds its
        desired state from the snapshot and repairs live divergence."""
        from repro.io import load_network, save_network

        net = self._make_net()
        path = str(tmp_path / "net.json")
        save_network(net, path)
        restored = load_network(path)
        controller = restored.controller
        controller.attach_transport(FaultyChannel(seed=2))
        # Simulate a switch whose state drifted while the controller
        # was down.
        victim = sorted(controller.switches)[4]
        controller.switches[victim].install_position((0.77, 0.77))
        report = controller.reconcile()
        assert report.divergent_initial >= 1
        assert report.converged
        assert mismatched_switches(controller) == []
