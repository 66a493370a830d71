"""Anti-entropy scrubbing of the storage plane.

The scrubber is the storage-plane sibling of the control plane's
``Controller.reconcile``: an operator-driven sweep that makes the
*actual* replica state converge to the *desired* state with bounded
traffic.  One sweep

1. drains parked hinted-handoff writes/deletes whose home server is
   alive again (:meth:`~repro.core.GredNetwork.drain_hints`);
2. resolves every catalogued item's *winning* stamp — the maximum
   ``(version, origin)`` over all live replicas, tombstones and parked
   hints of all its copies (one stamp is shared per logical write, so
   copies are comparable).  A winning tombstone means the item is
   deleted and any live copy is a resurrection to remove; a winning
   write defines the payload every copy's home must hold;
3. compares per-``(server, hash-range)`` SHA-256 digests of the actual
   contents against the desired rows (the ``switch_digest`` recipe
   applied to storage, see :mod:`repro.edge.antientropy`) and pulls
   item-level detail *only for mismatching ranges*, repairing
   missing/stale/orphaned replicas up to ``max_repairs_per_sweep``.

Tombstones are garbage-collected once no live replica of the deleted
item remains anywhere (repair can no longer resurrect it), keeping the
tombstone set bounded.

The scrubber is an operator-plane tool: like ``reconcile`` it is not
bound by data-plane partitions (it models an out-of-band management
network), but it never touches a crashed server — copies whose home is
down are counted in ``skipped_unreachable`` and picked up by the next
scrub after repair.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..edge import NO_STAMP, StorageFull, rows_digest, server_rows
from ..edge.antientropy import digest_rows
from ..hashing import parse_replica_id, replica_id
from ..obs import EventLevel, default_registry

#: Desired row per (server, copy_id): ("item", stamp, payload) or
#: ("tomb", stamp, None).
_DesiredRow = Tuple[str, tuple, Any]


@dataclass
class ScrubReport:
    """Outcome of one :func:`scrub_network` run."""

    sweeps: int = 0
    hints_drained: int = 0
    ranges_checked: int = 0
    ranges_mismatched: int = 0
    repairs: int = 0
    resurrections_removed: int = 0
    orphans_removed: int = 0
    tombstones_gced: int = 0
    #: Replica homes that were crashed/unreplaced when the sweep ran;
    #: they stay divergent until repaired and re-scrubbed.
    skipped_unreachable: int = 0
    #: Row-level repairs refused by a full bounded server.
    repairs_skipped: int = 0
    #: Mismatching (server, range) digests remaining after the last
    #: sweep (0 = the storage plane converged).
    divergent_after: int = 0

    @property
    def converged(self) -> bool:
        return (self.divergent_after == 0
                and self.skipped_unreachable == 0
                and self.repairs_skipped == 0)

    def to_dict(self) -> Dict:
        record = asdict(self)
        record["converged"] = self.converged
        return record


def infer_catalog(net) -> Dict[str, int]:
    """Reconstruct ``data_id -> copy count`` from everything the
    storage plane holds (items, tombstones and parked hints), by
    inverting the ``H(d || i)`` replica naming."""
    catalog: Dict[str, int] = {}

    def observe(copy_id: str) -> None:
        base, index = parse_replica_id(copy_id)
        count = index + 1
        if count > catalog.get(base, 0):
            catalog[base] = count

    for switch in sorted(net.server_map):
        for server in net.server_map[switch]:
            for copy_id in server.stored_ids():
                observe(copy_id)
            for copy_id in server.tombstones():
                observe(copy_id)
            for hint in server.hints():
                observe(hint.copy_id)
    return catalog


def _observe_plane(net):
    """One pass over every server: the newest live (stamp, payload)
    and the newest tombstone stamp per replica id, parked hints
    included (an unapplied hint still carries the winning write)."""
    live: Dict[str, Tuple[tuple, Any]] = {}
    tombs: Dict[str, tuple] = {}
    for switch in sorted(net.server_map):
        for server in net.server_map[switch]:
            for copy_id in server.stored_ids():
                stamp = server.stamp_of(copy_id) or NO_STAMP
                current = live.get(copy_id)
                if current is None or stamp > current[0]:
                    live[copy_id] = (stamp, server.retrieve(copy_id))
            for copy_id, stamp in server.tombstones().items():
                if stamp > tombs.get(copy_id, NO_STAMP):
                    tombs[copy_id] = stamp
            for hint in server.hints():
                if hint.op == "delete":
                    if hint.stamp > tombs.get(hint.copy_id, NO_STAMP):
                        tombs[hint.copy_id] = hint.stamp
                else:
                    current = live.get(hint.copy_id)
                    if current is None or hint.stamp > current[0]:
                        live[hint.copy_id] = (hint.stamp, hint.payload)
    return live, tombs


def _desired_state(net, catalog: Dict[str, int], gc: bool):
    """Resolve the desired row of every (server, copy_id).

    Returns ``(desired, skipped, deleted_bases)`` where ``desired``
    maps each ``(switch, serial)`` to its ``copy_id -> _DesiredRow``
    map, ``skipped`` counts copies whose home server is crashed and
    ``deleted_bases`` is the set of data ids whose winning stamp is a
    tombstone.
    """
    live, tombs = _observe_plane(net)
    fault = net.fault_state
    desired: Dict[Tuple[int, int], Dict[str, _DesiredRow]] = {}
    skipped = 0
    deleted_bases = set()
    for data_id in sorted(catalog):
        copies = catalog[data_id]
        copy_ids = [replica_id(data_id, i) for i in range(copies)]
        live_max = max((live[c][0] for c in copy_ids if c in live),
                       default=None)
        tomb_max = max((tombs[c] for c in copy_ids if c in tombs),
                       default=None)
        deleted = tomb_max is not None and (live_max is None
                                            or tomb_max > live_max)
        if deleted:
            deleted_bases.add(data_id)
            if gc and live_max is None:
                # Fully deleted: no replica left to resurrect from, so
                # the tombstones themselves can go.
                continue
            row: _DesiredRow = ("tomb", tomb_max, None)
        else:
            if live_max is None:
                continue  # catalogued but gone everywhere: lost, not
                # repairable by anti-entropy
            payload = next(live[c][1] for c in copy_ids
                           if c in live and live[c][0] == live_max)
            row = ("item", live_max, payload)
        for copy_id in copy_ids:
            home = net._home_server(copy_id)
            if fault is not None and \
                    not fault.server_alive(home.server_id):
                skipped += 1
                continue
            desired.setdefault(home.server_id, {})[copy_id] = row
    return desired, skipped, deleted_bases


def _desired_rows(rows: Dict[str, _DesiredRow]) -> Dict[int, List[tuple]]:
    """Desired rows in the canonical digest-row form, per range."""
    return digest_rows(
        ((copy_id, stamp) for copy_id, (kind, stamp, _) in rows.items()
         if kind == "item"),
        ((copy_id, stamp) for copy_id, (kind, stamp, _) in rows.items()
         if kind == "tomb"))


def _repair_range(net, server, copy_ids, rows: Dict[str, _DesiredRow],
                  deleted_bases, report: ScrubReport,
                  budget: Optional[int]) -> int:
    """Make one server's hash range match its desired rows; returns
    the number of row-level repairs performed (bounded by the sweep's
    remaining ``budget``)."""
    done = 0
    for copy_id in sorted(copy_ids):
        if budget is not None and done >= budget:
            break
        want = rows.get(copy_id)
        if want is None:
            # Not desired here: a stray replica or a collectable
            # tombstone.
            if server.has(copy_id):
                server.delete(copy_id)
                base, _ = parse_replica_id(copy_id)
                if base in deleted_bases:
                    report.resurrections_removed += 1
                else:
                    report.orphans_removed += 1
                done += 1
            if server.tombstone_of(copy_id) is not None:
                server.gc_tombstone(copy_id)
                report.tombstones_gced += 1
                done += 1
            continue
        kind, stamp, payload = want
        if kind == "tomb":
            if server.tombstone_of(copy_id) == stamp and \
                    not server.has(copy_id):
                continue
            if server.entomb(copy_id, stamp):
                report.resurrections_removed += 1
            done += 1
            continue
        # kind == "item"
        if server.has(copy_id) and \
                (server.stamp_of(copy_id) or NO_STAMP) == stamp:
            continue
        try:
            if stamp == NO_STAMP:
                server.store(copy_id, payload)
            else:
                server.store(copy_id, payload, stamp=stamp)
        except StorageFull:
            report.repairs_skipped += 1
            continue
        done += 1
    return done


def storage_divergence(net, catalog: Optional[Dict[str, int]] = None) -> int:
    """Measure (without repairing) how many ``(server, hash-range)``
    digest pairs differ between the actual contents and the resolved
    desired state — the storage plane's divergence metric.  Crashed
    servers are excluded (their divergence is a repair problem, not an
    anti-entropy one)."""
    catalog = dict(catalog) if catalog is not None else \
        infer_catalog(net)
    desired, _, _ = _desired_state(net, catalog, gc=True)
    fault = net.fault_state
    divergent = 0
    for switch in sorted(net.server_map):
        for server in net.server_map[switch]:
            if fault is not None and \
                    not fault.server_alive(server.server_id):
                continue
            want_ranges = _desired_rows(desired.get(server.server_id, {}))
            have_ranges = server_rows(server)
            for r in set(want_ranges) | set(have_ranges):
                if rows_digest(want_ranges.get(r, [])) != \
                        rows_digest(have_ranges.get(r, [])):
                    divergent += 1
    return divergent


def scrub_network(net, catalog: Optional[Dict[str, int]] = None,
                  max_sweeps: int = 4,
                  max_repairs_per_sweep: Optional[int] = None,
                  gc: bool = True) -> ScrubReport:
    """Run anti-entropy sweeps until the storage plane converges (or
    ``max_sweeps`` is exhausted); see the module docstring for the
    sweep anatomy.  ``catalog`` maps ``data_id -> copy count`` and is
    inferred from the plane itself when omitted."""
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    if max_repairs_per_sweep is not None and max_repairs_per_sweep < 1:
        raise ValueError(
            f"max_repairs_per_sweep must be >= 1, got "
            f"{max_repairs_per_sweep}")
    report = ScrubReport()
    catalog = dict(catalog) if catalog is not None else \
        infer_catalog(net)
    fault = net.fault_state
    for _ in range(max_sweeps):
        report.sweeps += 1
        report.repairs_skipped = 0
        report.hints_drained += net.drain_hints(ignore_partitions=True)
        desired, skipped, deleted_bases = _desired_state(net, catalog,
                                                         gc)
        report.skipped_unreachable = skipped
        mismatched = 0
        repairs_before = report.repairs
        for switch in sorted(net.server_map):
            for server in net.server_map[switch]:
                server_id = server.server_id
                if fault is not None and \
                        not fault.server_alive(server_id):
                    continue
                want = desired.get(server_id, {})
                want_ranges = _desired_rows(want)
                have_ranges = server_rows(server)
                for r in sorted(set(want_ranges) | set(have_ranges)):
                    report.ranges_checked += 1
                    want_rows = want_ranges.get(r, [])
                    have_rows = have_ranges.get(r, [])
                    if rows_digest(want_rows) == rows_digest(have_rows):
                        continue
                    mismatched += 1
                    report.ranges_mismatched += 1
                    budget_left = None
                    if max_repairs_per_sweep is not None:
                        budget_left = max_repairs_per_sweep - (
                            report.repairs - repairs_before)
                        if budget_left <= 0:
                            continue
                    copy_ids = ({row[1] for row in want_rows}
                                | {row[1] for row in have_rows})
                    report.repairs += _repair_range(
                        net, server, copy_ids, want, deleted_bases,
                        report, budget_left)
        if mismatched == 0:
            report.divergent_after = 0
            break
        if report.repairs == repairs_before:
            # Mismatches remain but nothing could be repaired (full
            # servers): further sweeps would spin.
            report.divergent_after = mismatched
            break
        report.divergent_after = mismatched
    registry = default_registry()
    if registry.enabled:
        registry.counter("durability.scrubs").inc()
        if report.repairs:
            registry.counter("durability.scrub_repairs").inc(
                report.repairs)
        if report.tombstones_gced:
            registry.counter("durability.tombstones_gced").inc(
                report.tombstones_gced)
        registry.gauge("durability.divergent_ranges").set(
            report.divergent_after)
    registry.event(
        "storage_scrubbed",
        level=(EventLevel.INFO if report.converged
               else EventLevel.WARNING),
        sweeps=report.sweeps,
        repairs=report.repairs,
        hints_drained=report.hints_drained,
        resurrections_removed=report.resurrections_removed,
        divergent_after=report.divergent_after,
    )
    return report
