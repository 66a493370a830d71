"""Controller-side failure detection and repair.

The detector models the heartbeat loop a production SDN controller
runs: every ``interval`` seconds it probes each switch (a southbound
``Probe`` message) and each link.  Crashed switches do not answer;
detection is therefore driven by the ground-truth
:class:`~repro.faults.state.FaultState` the injector maintains.

``repair()`` then performs the full recovery pipeline:

1. prune dead switches and failed links from the controller's view in
   one pass (:meth:`~repro.controlplane.Controller.absorb_failures`),
   stranding any component disconnected from the main one — the DT is
   repaired over the surviving participants and all rules reinstalled;
2. replace crashed edge servers with fresh (empty) ones at the same
   ``(switch, serial)`` slot, restoring the ``H(d) mod s`` mapping;
3. re-replicate every catalogued item whose surviving replica count
   dropped below its target: missing ``H(d || i)`` copies (paper
   Section VI) are re-placed from a surviving copy.  Items with zero
   surviving copies are reported as lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..hashing import replica_id
from ..obs import EventLevel, default_registry
from .state import FaultState


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of one probe sweep (no state is mutated)."""

    dead_switches: List[int]
    dead_links: List[Tuple[int, int]]
    dead_servers: List[Tuple[int, int]]
    probes_sent: int

    @property
    def clean(self) -> bool:
        return not (self.dead_switches or self.dead_links
                    or self.dead_servers)


@dataclass
class RepairReport:
    """Outcome of a full detection + repair pass."""

    detection: DetectionReport
    stranded_switches: List[int] = field(default_factory=list)
    servers_replaced: int = 0
    re_replicated: int = 0
    lost_items: List[str] = field(default_factory=list)
    #: Catalogued items whose newest stamp is a tombstone: repair skips
    #: them instead of resurrecting deleted data from stale survivors.
    suppressed_resurrections: int = 0
    #: Replica placements skipped because no route reached the home
    #: slot (e.g. repair ran during a partition); a later sweep or a
    #: ``scrub`` retries them.
    unroutable_copies: int = 0
    #: Simulated seconds from the first fault to the repairing sweep
    #: (heartbeat discretization); 0.0 when nothing was repaired.
    recovery_time: float = 0.0

    @property
    def items_lost(self) -> int:
        return len(self.lost_items)


class FailureDetector:
    """Heartbeat-driven failure detection and repair.

    Parameters
    ----------
    net:
        The :class:`~repro.core.GredNetwork` under supervision.
    state:
        Fault ground truth; defaults to ``net.fault_state``.
    catalog:
        ``data_id -> target copy count`` for re-replication.  Items
        not catalogued are repaired opportunistically only (their
        surviving copies stay where they are).
    channel:
        Optional southbound :class:`~repro.controlplane.southbound.
        RecordingChannel`; every heartbeat probe is sent through it so
        control-plane traffic is observable.
    interval:
        Heartbeat period in simulated seconds, used to compute the
        deterministic detection latency of :meth:`repair`.
    """

    def __init__(self, net, state: Optional[FaultState] = None,
                 catalog: Optional[Dict[str, int]] = None,
                 channel=None, interval: float = 0.1) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.net = net
        self.state = state if state is not None else net.fault_state
        if self.state is None:
            self.state = FaultState()
        self.catalog: Dict[str, int] = dict(catalog or {})
        self.channel = channel
        self.interval = interval

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def register(self, data_id: str, copies: int = 1) -> None:
        """Track an item's target replica count for re-replication."""
        if copies < 1:
            raise ValueError(f"copies must be >= 1, got {copies}")
        self.catalog[data_id] = copies

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------
    def sweep(self) -> DetectionReport:
        """Probe every switch and link; report what is dead."""
        from ..controlplane.southbound import Probe

        controller = self.net.controller
        transport = getattr(controller, "transport", None)
        dead_switches: List[int] = []
        probes = 0
        for switch_id in sorted(controller.switches):
            if self.channel is not None:
                self.channel.send(Probe(switch=switch_id))
            probes += 1
            if not self.state.switch_alive(switch_id):
                dead_switches.append(switch_id)
                # Sever the southbound channel: nothing more is shipped
                # to the corpse; its delta lands on the pending queue.
                if transport is not None:
                    transport.mark_unreachable(switch_id)
            elif transport is not None:
                # A switch answering probes is reachable again — its
                # queued deltas drain on the next reconcile.
                transport.mark_reachable(switch_id)
        dead_set = set(dead_switches)
        dead_links: List[Tuple[int, int]] = []
        for u, v, _ in controller.topology.edges():
            if u in dead_set or v in dead_set:
                continue  # subsumed by the switch failure
            if self.state.link_down(u, v):
                dead_links.append((u, v) if u <= v else (v, u))
        dead_servers = sorted(
            s for s in self.state.crashed_servers
            if s[0] not in dead_set and s[0] in controller.switches
        )
        registry = default_registry()
        if registry.enabled:
            registry.counter("faults.sweeps").inc()
            if dead_switches:
                registry.counter("faults.detected_switch_failures").inc(
                    len(dead_switches))
            if dead_links:
                registry.counter("faults.detected_link_failures").inc(
                    len(dead_links))
        return DetectionReport(
            dead_switches=dead_switches,
            dead_links=sorted(dead_links),
            dead_servers=dead_servers,
            probes_sent=probes,
        )

    # ------------------------------------------------------------------
    # repair
    # ------------------------------------------------------------------
    def repair(self, fault_time: float = 0.0) -> RepairReport:
        """Detect and repair in one pass; returns what was done.

        ``fault_time`` (simulated) is used to compute the recovery
        latency: the sweep fires at the next heartbeat tick after the
        fault, so ``recovery_time = next_tick - fault_time``.
        """
        detection = self.sweep()
        report = RepairReport(detection=detection)
        if detection.clean:
            return report
        registry = default_registry()
        controller = self.net.controller
        # 1. prune the control plane and repair DT + rules.
        if detection.dead_switches or detection.dead_links:
            report.stranded_switches = controller.absorb_failures(
                detection.dead_switches, detection.dead_links)
            transport = getattr(controller, "transport", None)
            if transport is not None:
                # Absorbed switches no longer exist — drop their
                # unreachable marks so the set only names live outages.
                for switch_id in (detection.dead_switches
                                  + report.stranded_switches):
                    transport.mark_reachable(switch_id)
            for switch_id in detection.dead_switches:
                self.state.crashed_switches.discard(switch_id)
            for link in detection.dead_links:
                self.state.down_links.discard(link)
            self._prune_link_state()
        # 2. replace crashed servers on surviving switches.
        report.servers_replaced = self._replace_servers(
            detection.dead_servers)
        # 3. restore replication targets.
        report.lost_items, report.re_replicated = self._re_replicate()
        report.suppressed_resurrections = getattr(
            self, "_last_suppressed", 0)
        report.unroutable_copies = getattr(self, "_last_unroutable", 0)
        tick = math.floor(fault_time / self.interval) + 1
        report.recovery_time = tick * self.interval - fault_time
        if registry.enabled:
            if report.stranded_switches:
                registry.counter("faults.stranded_switches").inc(
                    len(report.stranded_switches))
            if report.servers_replaced:
                registry.counter("faults.servers_replaced").inc(
                    report.servers_replaced)
            if report.re_replicated:
                registry.counter("faults.re_replicated").inc(
                    report.re_replicated)
            if report.lost_items:
                registry.counter("faults.items_lost").inc(
                    len(report.lost_items))
            if report.suppressed_resurrections:
                registry.counter(
                    "durability.suppressed_resurrections").inc(
                        report.suppressed_resurrections)
            registry.gauge("faults.recovery_time").set(
                report.recovery_time)
        registry.event(
            "failures_repaired", level=EventLevel.WARNING,
            dead_switches=len(detection.dead_switches),
            dead_links=len(detection.dead_links),
            stranded=len(report.stranded_switches),
            re_replicated=report.re_replicated,
            items_lost=report.items_lost,
        )
        return report

    def _prune_link_state(self) -> None:
        """Drop loss/slow markings for links that no longer exist."""
        topology = self.net.topology
        for table in (self.state.loss, self.state.slow):
            gone = [k for k in table if not topology.has_edge(*k)]
            for key in gone:
                table.pop(key, None)

    def _replace_servers(self, dead_servers) -> int:
        from ..edge import EdgeServer

        replaced = 0
        for switch_id, serial in dead_servers:
            servers = self.net.server_map.get(switch_id)
            if servers is None or not (0 <= serial < len(servers)):
                self.state.crashed_servers.discard((switch_id, serial))
                continue
            old = servers[serial]
            servers[serial] = EdgeServer(switch=switch_id, serial=serial,
                                         capacity=old.capacity)
            self.state.crashed_servers.discard((switch_id, serial))
            replaced += 1
        # Servers on switches that died with their switch are gone for
        # good; forget them.
        self.state.crashed_servers = {
            s for s in self.state.crashed_servers
            if s[0] in self.net.controller.switches
        }
        return replaced

    def _tombstone_index(self) -> Dict[str, Tuple[int, int]]:
        """Newest tombstone stamp per *base* data id, gathered from
        server tombstones and parked delete hints."""
        from ..hashing import parse_replica_id

        newest: Dict[str, Tuple[int, int]] = {}
        for switch_id in sorted(self.net.server_map):
            for server in self.net.server_map[switch_id]:
                for copy_id, stamp in server.tombstones().items():
                    base, _ = parse_replica_id(copy_id)
                    if stamp > newest.get(base, (0, -1)):
                        newest[base] = stamp
                for hint in server.hints():
                    if hint.op != "delete":
                        continue
                    base, _ = parse_replica_id(hint.copy_id)
                    if hint.stamp > newest.get(base, (0, -1)):
                        newest[base] = hint.stamp
        return newest

    def _re_replicate(self) -> Tuple[List[str], int]:
        """Re-place missing replicas from surviving copies.

        Tombstone-aware: an item whose newest stamp network-wide is a
        tombstone is *deleted*, not damaged — repair must not rebuild
        it from a stale survivor (counted as a suppressed
        resurrection, see :attr:`RepairReport.suppressed_resurrections`
        via :attr:`_last_suppressed`).  Where survivors disagree — a
        stale copy beside one written during a partition — the copy
        with the greatest ``(version, origin)`` stamp is the source
        (ties: first server in switch order, lowest copy index), so
        repair never multiplies the stale version.
        """
        if not self.catalog:
            return [], 0
        from ..core import GredError
        from ..dataplane import ForwardingError
        from ..edge import NO_STAMP

        # copy id -> (stamp, server) of its newest holder.
        index: Dict[str, tuple] = {}
        for switch_id in sorted(self.net.server_map):
            for server in self.net.server_map[switch_id]:
                for item_id in server.stored_ids():
                    stamp = server.stamp_of(item_id) or NO_STAMP
                    if item_id not in index or stamp > index[item_id][0]:
                        index[item_id] = (stamp, server)
        tombstones = self._tombstone_index()
        lost: List[str] = []
        restored = 0
        self._last_suppressed = 0
        self._last_unroutable = 0
        for data_id in sorted(self.catalog):
            copies = self.catalog[data_id]
            holders = [
                (i, index.get(replica_id(data_id, i)))
                for i in range(copies)
            ]
            present = [(i, *held) for i, held in holders
                       if held is not None]
            if data_id in tombstones:
                live_max = max((stamp for _, stamp, _ in present),
                               default=NO_STAMP)
                if tombstones[data_id] > live_max:
                    if present:
                        self._last_suppressed += 1
                    continue
            if not present:
                lost.append(data_id)
                continue
            missing = [i for i, held in holders if held is None]
            if not missing:
                continue
            source_index, _, source = max(
                present, key=lambda held: (held[1], -held[0]))
            source_copy = replica_id(data_id, source_index)
            payload = source.retrieve(source_copy)
            stamp = source.stamp_of(source_copy)
            for i in missing:
                try:
                    self.net._place_one(replica_id(data_id, i), payload,
                                        source.switch, stamp=stamp)
                except (ForwardingError, GredError):
                    # No route to the home slot (partition / outage);
                    # leave the copy for a later sweep or scrub.
                    self._last_unroutable += 1
                    continue
                restored += 1
        return lost, restored
