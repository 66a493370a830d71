"""One timeline engine: a report run is events applied to a deployment.

A :class:`Timeline` holds one network, the :class:`FaultInjector` and
:class:`FailureDetector` attached to it, the catalog of placed items
and the oracle of their current payloads.  :meth:`Timeline.run`
applies an iterable of events and appends the row each one returns to
one event log; a report is then a reducer over that log.

An event is a :class:`~repro.faults.plan.FaultEvent` (any
``FAULT_KINDS`` entry, applied at once through
:meth:`FaultInjector.apply`; its row is the event less its ``time``)
or a ``(kind, kwargs)`` pair naming one step:

* ``seed`` / ``place`` / ``update`` write an item, ``delete`` removes
  it (the catalog and the oracle follow);
* ``safe_crash`` crashes a server unless that would lose data the
  scrub could never bring back;
* ``load`` replays a trace through the packet-level simulator while a
  :class:`~repro.faults.plan.FaultPlan` strikes on its clock;
* ``repair`` runs the detector, ``reconcile`` the control plane's
  anti-entropy and ``scrub`` the storage plane's;
* ``audit`` compares every stored replica with the oracle,
  ``retrieve`` retrieves items and ``verify`` checks installed rules.

A timeline is usually a generator: it resumes only after the engine
has applied and logged its last event, so a draw it makes between two
events sees the state the first one left, in program order.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Iterable, List, Tuple

from ..controlplane.southbound import RecordingChannel
from ..controlplane.verification import verify_installed_state
from ..core.scrub import storage_divergence
from ..edge import NO_STAMP, EdgeServer
from ..hashing import parse_replica_id, replica_id
from ..simulation import PacketLevelSimulator
from .detector import FailureDetector
from .injector import FaultInjector
from .plan import FaultEvent


def _crash_safe(net, injector, candidate: EdgeServer,
                catalog: Dict[str, int]) -> bool:
    """Whether crashing ``candidate`` keeps every item at >= 1 live
    replica, keeps every item's *newest version* recoverable, and
    loses no parked hint (a run verifies durability of the *protocol*,
    not of unrecoverable data loss)."""
    if candidate.hint_count:
        return False
    others = [server for server in net.servers()
              if server.server_id != candidate.server_id
              and injector.state.server_alive(server.server_id)]
    held = {copy_id for server in others for copy_id in server.stored_ids()}
    # Per base item, the newest stamp any other live server carries:
    # live replicas (even misplaced ones left behind by degraded-mode
    # rerouting), tombstones and parked hints all count.
    best: Dict[str, tuple] = {}
    for server in others:
        carried = [(copy_id, server.stamp_of(copy_id) or NO_STAMP)
                   for copy_id in server.stored_ids()]
        carried += server.tombstones().items()
        carried += [(hint.copy_id, hint.stamp) for hint in server.hints()]
        for copy_id, stamp in carried:
            base, _ = parse_replica_id(copy_id)
            best[base] = max(stamp, best.get(base, NO_STAMP))
    for copy_id in candidate.stored_ids():
        base, _ = parse_replica_id(copy_id)
        if not any(replica_id(base, i) in held
                   for i in range(catalog.get(base, 1))):
            return False
        # A rerouted write may exist only here: crashing the unique
        # holder of the newest stamp is unrecoverable data loss, not
        # a divergence the scrub could ever repair.
        stamp = candidate.stamp_of(copy_id) or NO_STAMP
        if stamp > best.get(base, NO_STAMP):
            return False
    # Likewise a delete: when the candidate's tombstone is the newest
    # trace of an item, crashing it lets a stale copy elsewhere win.
    return all(stamp <= best.get(parse_replica_id(copy_id)[0], NO_STAMP)
               for copy_id, stamp in candidate.tombstones().items())


class Timeline:
    """One deployment, the events applied to it, and their log.

    Parameters
    ----------
    net:
        The network; a :class:`FaultInjector` seeded with ``seed`` is
        attached to it at once (so every write is stamped).
    copies:
        Replicas of every item the timeline writes.
    seed:
        The injector's seed (its generator draws random victims).
    interval:
        The failure detector's heartbeat period.
    """

    def __init__(self, net, copies: int, seed: int = 0,
                 interval: float = 0.1) -> None:
        self.net, self.copies = net, copies
        self.injector = FaultInjector(net, seed=seed)
        self.detector = FailureDetector(net, interval=interval)
        #: ``data_id -> copies`` of every item ever written (the
        #: detector's own catalog); deleted items stay in it.
        self.catalog: Dict[str, int] = self.detector.catalog
        #: The oracle: each live item's last written payload.
        self.payloads: Dict[str, Any] = {}
        self.log: List[Dict[str, Any]] = []

    def run(self, events: Iterable) -> List[Dict[str, Any]]:
        """Apply ``events`` in order, logging one row each; returns the
        log."""
        for event in events:
            if isinstance(event, FaultEvent):
                self.injector.apply(event)
                row = {key: value for key, value in event.to_dict().items()
                       if key != "time"}
            else:
                kind, kwargs = event
                row = {"kind": kind, **getattr(self, f"_{kind}")(**kwargs)}
            self.log.append(row)
        return self.log

    def rows(self, kind: str) -> List[Dict[str, Any]]:
        """The logged rows of ``kind``, in order."""
        return [row for row in self.log if row["kind"] == kind]

    # -- steps: ``_<kind>`` returns its row (a ``kind`` it names wins)
    def _place(self, data_id: str, payload: Any, entry=None,
               rng=None) -> Dict[str, Any]:
        """Write ``data_id`` from ``entry`` (drawn from ``rng`` when
        ``None``)."""
        self.net.place(data_id, payload=payload, entry_switch=entry,
                       copies=self.copies, rng=rng)
        self.payloads[data_id] = payload
        self.detector.register(data_id, self.copies)
        return {"data_id": data_id, "entry": entry}

    _seed = _update = _place

    def _delete(self, data_id: str, entry: int) -> Dict[str, Any]:
        self.net.delete(data_id, copies=self.copies, entry_switch=entry)
        del self.payloads[data_id]
        return {"data_id": data_id, "entry": entry}

    def _safe_crash(self, server: Tuple[int, int]) -> Dict[str, Any]:
        """Crash ``server`` unless it would take an item's last live
        replica, newest version or newest delete, or a parked hint."""
        if not _crash_safe(self.net, self.injector, self.net.server(*server),
                           self.catalog):
            return {"kind": "server_crash_skipped", "server": list(server),
                    "avoid_total_loss": True}
        destroyed = self.injector.apply(FaultEvent(
            0.0, "server_crash", switch=server[0], serial=server[1]))
        return {"kind": "server_crash", "server": list(server),
                "items_destroyed": destroyed}

    def _load(self, trace, plan, loss_rng, request_size: int,
              response_size: int, **retries) -> Dict[str, Any]:
        """Replay ``trace`` through the packet-level simulator while
        ``plan`` strikes on its clock; ``retries`` are the simulator's
        ``max_attempts`` and ``retry_backoff``."""
        simulator = PacketLevelSimulator(
            self.net, fault_state=self.injector.state, loss_rng=loss_rng,
            **retries)
        done = simulator.run(trace, request_size=request_size,
                             response_size=response_size,
                             injector=self.injector, plan=plan)
        return {"plan": plan.to_dict(), "requests": len(trace),
                "completed": len(done), "failed": len(simulator.failed),
                "mean_response_delay": (
                    sum(c.response_delay for c in done) / len(done)
                    if done else 0.0)}

    def _repair(self, fault_time: float = 0.0) -> Dict[str, Any]:
        """One detector sweep and repair (``fault_time`` dates the first
        fault for the recovery time)."""
        self.detector.channel = RecordingChannel()
        report = self.detector.repair(fault_time=fault_time)
        row = asdict(report)
        row.update(row.pop("detection"), lost=report.items_lost,
                   dead_links=[list(link)
                               for link in report.detection.dead_links],
                   southbound_messages=self.detector.channel.count())
        return row

    def _reconcile(self) -> Dict[str, Any]:
        """The control plane's anti-entropy sweep over its lossy
        southbound transport."""
        controller = self.net.controller
        reconcile = controller.reconcile()
        return {"channel": controller.transport.stats.to_dict(),
                "reconcile": reconcile.to_dict(),
                "pending_after_reconcile": sorted(
                    controller.pending_deltas)}

    def _scrub(self, max_sweeps: int) -> Dict[str, Any]:
        """One storage scrub of the catalog, with the parked hints and
        divergent (server, range) pairs before it and after."""
        hints = sum(server.hint_count for server in self.net.servers())
        before = storage_divergence(self.net, self.catalog)
        report = self.net.scrub(self.catalog, max_sweeps=max_sweeps)
        return {"hints_parked": hints, "before": before,
                "after": storage_divergence(self.net, self.catalog),
                "report": report.to_dict()}

    def _audit(self) -> Dict[str, Any]:
        """Every catalogued item against the oracle: a deleted item
        with a live replica is ``resurrected``, a live one without any
        is ``lost``, one with a replica holding another payload is
        ``stale``."""
        holders: Dict[str, List[Tuple[int, int]]] = {}
        for server in self.net.servers():
            if self.injector.state.server_alive(server.server_id):
                for copy_id in server.stored_ids():
                    holders.setdefault(copy_id, []).append(server.server_id)
        row: Dict[str, Any] = {"resurrected": [], "lost": [], "stale": []}
        for data_id in sorted(self.catalog):
            live = [c for c in (replica_id(data_id, i)
                                for i in range(self.catalog[data_id]))
                    if holders.get(c)]
            if data_id not in self.payloads:
                if live:
                    row["resurrected"].append(data_id)
            elif not live:
                row["lost"].append(data_id)
            elif any(self.net.server(*server_id).retrieve(copy_id)
                     != self.payloads[data_id] for copy_id in live
                     for server_id in holders[copy_id]):
                row["stale"].append(data_id)
        return row

    def _retrieve(self, ids, rng=None, entries=None) -> Dict[str, Any]:
        """Retrieve each of ``ids`` once, from ``entries`` (else drawn
        from ``rng``): found with the oracle's payload, or
        ``unavailable``."""
        hops: Dict[str, int] = {}
        for data_id, entry in zip(ids, entries or [None] * len(ids)):
            result = self.net.retrieve(data_id, entry_switch=entry,
                                       copies=self.copies, rng=rng)
            if result.found and result.payload == self.payloads[data_id]:
                hops[data_id] = result.round_trip_hops
        return {"items_probed": len(ids), "items_found": len(hops),
                "availability": len(hops) / len(ids) if ids else 1.0,
                "mean_round_trip_hops": (
                    sum(hops.values()) / len(hops) if hops else 0.0),
                "unavailable": [d for d in ids if d not in hops]}

    def _verify(self) -> Dict[str, Any]:
        """The installed-state verifier's violations (against the
        desired plan when a southbound transport may have lost rules)."""
        controller = self.net.controller
        return {"violations": len(verify_installed_state(
            controller, fault_state=self.injector.state,
            desired_plan=(controller.desired_plan()
                          if controller.transport is not None else None)))}
