"""Applies fault events to a live :class:`~repro.core.GredNetwork`.

A crash is *not* a graceful leave: ``GredNetwork.remove_switch``
migrates every stored item first, while :meth:`FaultInjector.
crash_switch` destroys the data on the victim's servers and merely
marks the switch dead in the shared :class:`FaultState`.  The control
plane keeps its (now stale) view until a
:class:`~repro.faults.detector.FailureDetector` sweep repairs it; in
between, the data plane routes around the corpse in degraded mode.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..obs import EventLevel, default_registry
from .plan import FaultEvent, FaultPlan, FaultPlanError
from .state import FaultState, link_key


class FaultInjector:
    """Deterministic fault injection against one network.

    Parameters
    ----------
    net:
        The :class:`~repro.core.GredNetwork` to break.  The injector
        attaches its :class:`FaultState` as ``net.fault_state`` so the
        data plane and the simulators honor the injected faults.
    seed:
        Seeds the injector's generator (used when a caller asks for a
        random victim); all direct injections are fully deterministic.
    """

    def __init__(self, net, seed: int = 0) -> None:
        self.net = net
        self.state: FaultState = FaultState()
        net.fault_state = self.state
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.applied: List[FaultEvent] = []

    @classmethod
    def for_region(cls, fed, region: int,
                   seed: int = 0) -> "FaultInjector":
        """An injector scoped to one region of a
        :class:`~repro.controlplane.FederatedNetwork`.

        Faults attach to that region's shard network only: its fault
        state, its degraded routing, its fast-path stand-down.  Every
        other shard keeps a clean (absent) fault state, which is what
        lets a region-wide partition degrade one region while the rest
        of the federation keeps serving.
        """
        return cls(fed.shard(region).net, seed=seed)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def apply(self, event: FaultEvent):
        """Apply one fault event to the network; returns what its
        handler returns (a crash: the items destroyed)."""
        handlers = {
            "switch_crash": lambda: self.crash_switch(event.switch),
            "server_crash": lambda: self.crash_server(event.switch,
                                                      event.serial),
            "link_down": lambda: self.link_down(event.u, event.v),
            "link_up": lambda: self.link_up(event.u, event.v),
            "packet_loss": lambda: self.set_packet_loss(
                event.u, event.v, event.probability),
            "slow_link": lambda: self.set_slow_link(
                event.u, event.v, event.factor),
            "control_drop": lambda: self.set_control_fault(
                drop=event.probability),
            "control_dup": lambda: self.set_control_fault(
                dup=event.probability),
            "control_delay": lambda: self.set_control_fault(
                delay=event.probability),
            "control_reorder": lambda: self.set_control_fault(
                reorder_window=event.window),
            "partition": lambda: self.partition(event.switches),
            "heal_partition": lambda: self.heal_partition(),
        }
        result = handlers[event.kind]()
        self.applied.append(event)
        registry = default_registry()
        if registry.enabled:
            registry.counter("faults.injected").inc()
        return result

    def apply_plan(self, plan: FaultPlan) -> int:
        """Apply every event of a plan immediately (time order);
        returns the number of events applied."""
        for event in plan:
            self.apply(event)
        return len(plan)

    # ------------------------------------------------------------------
    # individual faults
    # ------------------------------------------------------------------
    def crash_switch(self, switch_id: int) -> int:
        """Unannounced switch crash: all data on its servers is lost.

        Returns the number of destroyed items.  The control plane is
        *not* informed — detection is the
        :class:`~repro.faults.detector.FailureDetector`'s job.
        """
        if switch_id not in self.net.controller.switches:
            raise FaultPlanError(
                f"cannot crash unknown switch {switch_id}")
        if not self.state.switch_alive(switch_id):
            raise FaultPlanError(
                f"switch {switch_id} has already crashed")
        destroyed = 0
        for server in self.net.server_map.get(switch_id, []):
            destroyed += server.load
            server.clear()
        self.state.crashed_switches.add(switch_id)
        registry = default_registry()
        if registry.enabled:
            registry.counter("faults.switch_crashes").inc()
            if destroyed:
                registry.counter("faults.items_destroyed").inc(destroyed)
        registry.event("switch_crash", level=EventLevel.ERROR,
                       switch=switch_id, items_destroyed=destroyed)
        return destroyed

    def crash_server(self, switch_id: int, serial: int) -> int:
        """One edge server dies; its items are lost.  Returns the
        number of destroyed items."""
        servers = self.net.server_map.get(switch_id)
        if servers is None or not (0 <= serial < len(servers)):
            raise FaultPlanError(
                f"cannot crash unknown server ({switch_id}, {serial})")
        if (switch_id, serial) in self.state.crashed_servers:
            raise FaultPlanError(
                f"server ({switch_id}, {serial}) has already crashed")
        server = servers[serial]
        destroyed = server.load
        server.clear()
        self.state.crashed_servers.add((switch_id, serial))
        registry = default_registry()
        if registry.enabled:
            registry.counter("faults.server_crashes").inc()
            if destroyed:
                registry.counter("faults.items_destroyed").inc(destroyed)
        registry.event("server_crash", level=EventLevel.ERROR,
                       switch=switch_id, serial=serial,
                       items_destroyed=destroyed)
        return destroyed

    def link_down(self, u: int, v: int) -> None:
        """A physical link fails (packets on it are dropped)."""
        if not self.net.topology.has_edge(u, v):
            raise FaultPlanError(f"cannot fail unknown link ({u}, {v})")
        if self.state.link_down(u, v):
            raise FaultPlanError(f"link ({u}, {v}) is already down")
        self.state.down_links.add(link_key(u, v))
        registry = default_registry()
        if registry.enabled:
            registry.counter("faults.link_downs").inc()
        registry.event("link_fault", level=EventLevel.WARNING, u=u, v=v)

    def link_up(self, u: int, v: int) -> None:
        """A failed link recovers.

        If a repair sweep already pruned the link from the topology,
        it is re-added through the controller (rules recompiled).
        """
        self.state.down_links.discard(link_key(u, v))
        if not self.net.topology.has_edge(u, v):
            # The detector removed it; restore through the control plane
            # so ports / relay paths are recompiled.
            if (self.net.topology.has_node(u)
                    and self.net.topology.has_node(v)):
                self.net.controller.add_link(u, v)
            else:
                raise FaultPlanError(
                    f"cannot restore link ({u}, {v}): an endpoint no "
                    f"longer exists"
                )
        registry = default_registry()
        if registry.enabled:
            registry.counter("faults.link_ups").inc()
        registry.event("link_recovered", u=u, v=v)

    def set_packet_loss(self, u: int, v: int,
                        probability: float) -> None:
        """Set the loss probability of a link (0 clears it)."""
        if not self.net.topology.has_edge(u, v):
            raise FaultPlanError(
                f"cannot degrade unknown link ({u}, {v})")
        if not 0.0 <= probability <= 1.0:
            raise FaultPlanError(
                f"loss probability must be in [0, 1], got {probability}")
        if probability == 0.0:
            self.state.loss.pop(link_key(u, v), None)
        else:
            self.state.loss[link_key(u, v)] = probability
        registry = default_registry()
        if registry.enabled:
            registry.counter("faults.loss_injections").inc()

    def set_slow_link(self, u: int, v: int, factor: float) -> None:
        """Multiply a link's serialization/propagation delay (1 clears)."""
        if not self.net.topology.has_edge(u, v):
            raise FaultPlanError(
                f"cannot degrade unknown link ({u}, {v})")
        if factor < 1.0:
            raise FaultPlanError(
                f"slow-link factor must be >= 1, got {factor}")
        if factor == 1.0:
            self.state.slow.pop(link_key(u, v), None)
        else:
            self.state.slow[link_key(u, v)] = factor
        registry = default_registry()
        if registry.enabled:
            registry.counter("faults.slow_links").inc()

    def partition(self, switches) -> int:
        """Split the listed switches away from the rest of the network.

        The victims are assigned a fresh partition group; the data
        plane refuses to forward packets across groups (see
        :meth:`FaultState.can_forward`).  Repeated calls stack: each
        creates a new group, so three calls yield four sides.  Only the
        data plane is affected — the controller's southbound channel is
        a separate management network.  Returns the new group id.
        """
        victims = sorted(set(switches))
        unknown = [s for s in victims
                   if s not in self.net.controller.switches]
        if unknown:
            raise FaultPlanError(
                f"cannot partition unknown switch(es) {unknown}")
        group = max(self.state.partitions.values(), default=0) + 1
        for switch_id in victims:
            self.state.partitions[switch_id] = group
        registry = default_registry()
        if registry.enabled:
            registry.counter("faults.partitions").inc()
        registry.event("partition", level=EventLevel.ERROR,
                       switches=victims, group=group)
        return group

    def heal_partition(self) -> int:
        """Remove every active partition; returns how many switches
        were rejoined to the main group."""
        healed = len(self.state.partitions)
        self.state.partitions.clear()
        registry = default_registry()
        if registry.enabled:
            registry.counter("faults.partition_heals").inc()
        registry.event("partition_healed", switches_rejoined=healed)
        return healed

    def _ensure_transport(self):
        """The controller's lossy southbound transport, attached on
        first use (seeded from the injector's seed so two runs with the
        same seeds inject identical channel faults)."""
        controller = self.net.controller
        if controller.transport is None:
            from ..controlplane.channel import FaultyChannel

            controller.attach_transport(
                FaultyChannel(seed=self.seed + 1))
        return controller.transport

    def set_control_fault(self, *, drop=None, dup=None, delay=None,
                          reorder_window=None) -> None:
        """Degrade the controller's southbound channel.

        Attaches a :class:`~repro.controlplane.channel.FaultyChannel`
        to the controller on first use (all southbound traffic from
        then on goes through the transactional applier), then sets the
        given knobs; ``None`` leaves a knob unchanged.
        """
        from ..controlplane.channel import ControlChannelError

        transport = self._ensure_transport()
        try:
            transport.configure(drop=drop, dup=dup, delay=delay,
                                reorder_window=reorder_window)
        except ControlChannelError as exc:
            raise FaultPlanError(str(exc)) from exc
        registry = default_registry()
        if registry.enabled:
            registry.counter("faults.control_faults").inc()
        registry.event("control_fault", level=EventLevel.WARNING,
                       drop=transport.drop, dup=transport.dup,
                       delay=transport.delay,
                       reorder_window=transport.reorder_window)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def random_alive_switch(self) -> int:
        """A uniformly random non-crashed switch (deterministic under
        the injector's seed)."""
        alive = [s for s in self.net.switch_ids()
                 if self.state.switch_alive(s)]
        if not alive:
            raise FaultPlanError("no switch is alive")
        return alive[int(self.rng.integers(0, len(alive)))]
