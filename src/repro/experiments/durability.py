"""Self-healing storage under crash, partition and delete churn.

The paper's placement/retrieval services assume replicas, once placed,
stay where ``H(d || i)`` put them.  This experiment drops that
assumption: a deterministic fault schedule crashes a fraction of the
edge servers, partitions the data plane, and drives a delete-heavy
write workload through the degraded network (hinted handoff parks the
writes whose homes are unreachable).  After heal and repair, the
storage plane is *divergent* — stale replicas, undrained hints,
resurrection candidates — and the claim under test is that one
``net.scrub()`` (versioned replicas + tombstones + hash-range
anti-entropy, :mod:`repro.core.scrub`) converges every reachable
replica to a fault-free oracle's catalog: **zero** divergent ranges,
**zero** resurrected deletes, **zero** lost items.

The committed ``DURABILITY_report.json`` (CI artifact of the ``gred
scrub`` command) records the fault schedule, the divergence before and
after the scrub, the scrub's own accounting, and the oracle verdicts.
Everything is deterministic under the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Set, Tuple

import numpy as np

from ..core.scrub import storage_divergence
from ..edge import NO_STAMP, EdgeServer
from ..faults import FailureDetector, FaultInjector
from ..hashing import parse_replica_id, replica_id
from ..obs import default_registry, scoped_registry
from ..report import Gate, check_bounds, echo, flag, tally
from .common import build_gred, build_topology

#: Format marker of the ``gred scrub`` JSON report.
DURABILITY_FORMAT = "gred-durability-v1"

#: Oracle sentinel for a deleted item.
_DELETED = object()


def _live_holders(net, fault) -> Dict[str, Set[Tuple[int, int]]]:
    """Per replica id, the alive servers currently holding it."""
    holders: Dict[str, Set[Tuple[int, int]]] = {}
    for server in net.servers():
        if fault is not None and not fault.server_alive(server.server_id):
            continue
        for copy_id in server.stored_ids():
            holders.setdefault(copy_id, set()).add(server.server_id)
    return holders


def _best_stamp_elsewhere(net, fault,
                          exclude: Tuple[int, int]) -> Dict[str, tuple]:
    """Per base item, the newest stamp visible anywhere *except* on the
    ``exclude`` server: live replicas (even misplaced ones left behind
    by degraded-mode rerouting), tombstones and parked hints all
    count."""
    best: Dict[str, tuple] = {}
    for server in net.servers():
        if server.server_id == exclude:
            continue
        if fault is not None and not fault.server_alive(server.server_id):
            continue
        carried = [(copy_id, server.stamp_of(copy_id) or NO_STAMP)
                   for copy_id in server.stored_ids()]
        carried += server.tombstones().items()
        carried += [(hint.copy_id, hint.stamp) for hint in server.hints()]
        for copy_id, stamp in carried:
            base, _ = parse_replica_id(copy_id)
            if stamp > best.get(base, NO_STAMP):
                best[base] = stamp
    return best


def _crash_safe(net, injector, candidate: EdgeServer,
                catalog: Dict[str, int]) -> bool:
    """Whether crashing ``candidate`` keeps every item at >= 1 live
    replica, keeps every item's *newest version* recoverable, and
    loses no parked hint (the experiment verifies durability of the
    *protocol*, not of unrecoverable data loss)."""
    if candidate.hint_count:
        return False
    holders = _live_holders(net, injector.state)
    best = _best_stamp_elsewhere(net, injector.state,
                                 candidate.server_id)
    for copy_id in candidate.stored_ids():
        base, _ = parse_replica_id(copy_id)
        copies = catalog.get(base, 1)
        survivors = 0
        for i in range(copies):
            for server_id in holders.get(replica_id(base, i), ()):
                if server_id != candidate.server_id:
                    survivors += 1
        if survivors == 0:
            return False
        # A rerouted write may exist only here: crashing the unique
        # holder of the newest stamp is unrecoverable data loss, not
        # a divergence the scrub could ever repair.
        stamp = candidate.stamp_of(copy_id) or NO_STAMP
        if stamp > best.get(base, NO_STAMP):
            return False
    # Likewise a delete: when the candidate's tombstone is the newest
    # trace of an item, crashing it lets a stale copy elsewhere win.
    for copy_id, stamp in candidate.tombstones().items():
        if stamp > best.get(parse_replica_id(copy_id)[0], NO_STAMP):
            return False
    return True


def _crash_window(net, injector, rng, catalog: Dict[str, int],
                  count: int) -> List[Dict]:
    """Crash up to ``count`` servers, never losing an item's last live
    replica; returns the event rows (skips recorded explicitly)."""
    events: List[Dict] = []
    crashed = 0
    pool = net.servers()
    order = rng.permutation(len(pool))
    for k in order:
        if crashed >= count:
            break
        victim = pool[int(k)]
        if not injector.state.server_alive(victim.server_id):
            continue
        if not _crash_safe(net, injector, victim, catalog):
            events.append({"kind": "server_crash_skipped",
                           "server": list(victim.server_id),
                           "avoid_total_loss": True})
            continue
        destroyed = injector.crash_server(*victim.server_id)
        events.append({"kind": "server_crash",
                       "server": list(victim.server_id),
                       "items_destroyed": destroyed})
        crashed += 1
    return events


def _alive_entry(net, injector, rng) -> int:
    ids = [s for s in net.switch_ids()
           if injector.state.switch_alive(s)]
    return int(ids[int(rng.integers(0, len(ids)))])


@dataclass
class DurabilityConfig:
    """The deployment and fault schedule of :func:`run_durability`."""

    switches: int = flag(40)
    servers_per_switch: int = flag(2, "servers per switch",
                                   name="--servers")
    items: int = flag(120, "items seeded before the fault schedule")
    copies: int = flag(2, "replicas per item")
    ops: int = flag(80, "delete-heavy write ops driven through the "
                        "partitioned network")
    crash_fraction: float = flag(
        0.2, "fraction of edge servers crashed before the partition "
             "window")
    partition_fraction: float = flag(
        0.3, "fraction of switches split away during the write workload")
    late_crashes: int = flag(3, "extra crashes inside the partition "
                                "window")
    cvt_iterations: int = flag(10)
    seed: int = flag(0)
    max_sweeps: int = flag(6, "scrub sweep budget")

    #: ``--quick``: the CI smoke preset's shape (see SloConfig.QUICK).
    QUICK = dict(switches=24, items=60, ops=40, cvt_iterations=5)

    def __post_init__(self) -> None:
        check_bounds(self, switches=(4, None),
                     servers_per_switch=(1, None), items=(1, None),
                     copies=(1, None), ops=(0, None),
                     crash_fraction=(0, 1), partition_fraction=(0, 1),
                     late_crashes=(0, None), cvt_iterations=(0, None),
                     max_sweeps=(1, None))


@scoped_registry()
def run_durability(config: DurabilityConfig) -> Dict:
    """Crash + partition + delete-heavy churn, then one scrub.

    Returns the deterministic ``gred-durability-v1`` report.  The run
    swaps in a fresh enabled metrics registry (restored on exit) so
    the ``durability.*`` counters in the report belong to this
    experiment alone.
    """
    seed, copies = config.seed, config.copies
    topology = build_topology(config.switches, 3, seed)
    net = build_gred(topology, config.servers_per_switch,
                     config.cvt_iterations, seed)
    injector = FaultInjector(net, seed=seed + 1)
    net.hinted_handoff = True
    rng = np.random.default_rng(seed + 2)
    oracle: Dict[str, Any] = {}
    catalog: Dict[str, int] = {}
    events: List[Dict] = []

    # Phase 1 — seed the catalog (stamped: the fault state is attached).
    for i in range(config.items):
        data_id = f"item-{i:04d}"
        payload = f"v1:{data_id}"
        net.place(data_id, payload=payload,
                  entry_switch=_alive_entry(net, injector, rng),
                  copies=copies)
        oracle[data_id] = payload
        catalog[data_id] = copies
    detector = FailureDetector(net, catalog=catalog)

    # Phase 2 — crash window (>= crash_fraction of all servers), then
    # repair: re-replication restores the replica counts.
    total_servers = sum(len(v) for v in net.server_map.values())
    crash_count = int(np.ceil(config.crash_fraction * total_servers))
    events += _crash_window(net, injector, rng, catalog, crash_count)
    repair_1 = detector.repair()
    events.append({"kind": "repair",
                   "servers_replaced": repair_1.servers_replaced,
                   "re_replicated": repair_1.re_replicated,
                   "lost": repair_1.items_lost})

    # Phase 3 — partition window: split ~partition_fraction of the
    # switches away and drive a delete-heavy workload from entries on
    # both sides.  Writes toward the far side park as hints; replicas
    # split across the cut go stale.
    ids = sorted(net.switch_ids())
    side_size = max(1, int(config.partition_fraction * len(ids)))
    side = [int(ids[int(k)]) for k in rng.choice(len(ids),
                                                 size=side_size,
                                                 replace=False)]
    injector.partition(side)
    events.append({"kind": "partition", "switches": sorted(side)})
    version = 2
    known = sorted(oracle)
    for j in range(config.ops):
        op = str(rng.choice(["delete", "update", "place"],
                            p=[0.5, 0.3, 0.2]))
        entry = _alive_entry(net, injector, rng)
        if op == "delete":
            target = known[int(rng.integers(0, len(known)))]
            if oracle[target] is _DELETED:
                continue
            net.delete(target, copies=catalog[target],
                       entry_switch=entry)
            oracle[target] = _DELETED
            events.append({"kind": "delete", "data_id": target,
                           "entry": entry})
        elif op == "update":
            target = known[int(rng.integers(0, len(known)))]
            if oracle[target] is _DELETED:
                continue
            payload = f"v{version}:{target}"
            version += 1
            net.place(target, payload=payload, entry_switch=entry,
                      copies=catalog[target])
            oracle[target] = payload
            events.append({"kind": "update", "data_id": target,
                           "entry": entry})
        else:
            data_id = f"late-{j:04d}"
            payload = f"v1:{data_id}"
            net.place(data_id, payload=payload, entry_switch=entry,
                      copies=copies)
            oracle[data_id] = payload
            catalog[data_id] = copies
            detector.register(data_id, copies)
            events.append({"kind": "place", "data_id": data_id,
                           "entry": entry})

    # Phase 4 — crashes *inside* the partition, heal, repair: the
    # tombstone-aware re-replication rebuilds from survivors that may
    # be stale, manufacturing exactly the divergence a scrub must fix.
    events += _crash_window(net, injector, rng, catalog,
                            config.late_crashes)
    injector.heal_partition()
    events.append({"kind": "heal_partition"})
    repair_2 = detector.repair()
    events.append({
        "kind": "repair",
        "servers_replaced": repair_2.servers_replaced,
        "re_replicated": repair_2.re_replicated,
        "lost": repair_2.items_lost,
        "suppressed_resurrections": repair_2.suppressed_resurrections,
    })

    # Phase 5 — measure, scrub, re-measure.
    hints_parked = sum(server.hint_count for server in net.servers())
    divergence_before = storage_divergence(net, catalog)
    scrub_report = net.scrub(catalog, max_sweeps=config.max_sweeps)
    divergence_after = storage_divergence(net, catalog)

    # Phase 6 — oracle verdicts + retrieval availability.
    fault = net.fault_state
    holders = _live_holders(net, fault)
    resurrected: List[str] = []
    lost: List[str] = []
    stale: List[str] = []
    unavailable: List[str] = []
    for data_id in sorted(oracle):
        want = oracle[data_id]
        copy_ids = [replica_id(data_id, i)
                    for i in range(catalog[data_id])]
        live = [c for c in copy_ids if holders.get(c)]
        if want is _DELETED:
            if live:
                resurrected.append(data_id)
            continue
        if not live:
            lost.append(data_id)
            continue
        if any(net.server(*server_id).retrieve(copy_id) != want
               for copy_id in live
               for server_id in sorted(holders[copy_id])):
            stale.append(data_id)
        result = net.retrieve(data_id,
                              entry_switch=_alive_entry(net, injector,
                                                        rng),
                              copies=catalog[data_id])
        if not result.found or result.payload != want:
            unavailable.append(data_id)

    deleted_total = sum(1 for v in oracle.values() if v is _DELETED)
    crashes = sum(1 for e in events if e["kind"] == "server_crash")
    return {
        "format": DURABILITY_FORMAT,
        "config": {**echo(config), "avoid_total_loss": True},
        "events": events,
        "workload": {
            "items_placed": len(oracle),
            "items_deleted": deleted_total,
            "crashes": crashes,
            "crash_fraction_actual": round(crashes / total_servers, 4),
            "hints_parked_pre_scrub": hints_parked,
        },
        "divergence": {
            "before_scrub": divergence_before,
            "after_scrub": divergence_after,
        },
        "scrub": scrub_report.to_dict(),
        # Headline verdicts (acceptance criteria of ``gred scrub``).
        "resurrected": resurrected,
        "lost": lost,
        "stale": stale,
        "unavailable": unavailable,
        "oracle_match": not (resurrected or lost or stale
                             or unavailable),
        "durability_metrics": default_registry().counter_values(
            "durability."),
    }


def _oracle_verdicts(report: Dict) -> str:
    """How the storage plane differs from the fault-free oracle."""
    keys = ("resurrected", "lost", "stale", "unavailable")
    return tally({key: len(report[key]) for key in keys}, *keys)


def check_durability(report: Dict) -> List[str]:
    """The durability verdict: the scrubbed storage plane matches the
    fault-free oracle."""
    return ([] if report["oracle_match"] else
            ["storage plane diverges from the fault-free oracle: "
             + _oracle_verdicts(report)])


#: ``gred scrub``'s CI threshold; the experiment's verdict comes with
#: it.
GATES = (
    Gate("--max-divergence", "divergence.after_scrub", False,
         "{value} (server, range) pair(s) stay divergent after scrub, "
         "above the --max-divergence gate {limit}",
         "exit nonzero when more than N (server, hash-range) pairs stay "
         "divergent after the scrub (CI gate; the experiment mode "
         "additionally requires the fault-free oracle to match: zero "
         "resurrected, lost or stale items)",
         type=int, checks=check_durability),
)


def scrub_snapshot(net, config: DurabilityConfig) -> Tuple[Dict, int, str]:
    """``gred scrub -n``: one scrub of a restored deployment's storage
    plane; its report, the (server, range) pairs still divergent, and
    the summary."""
    report = net.scrub(max_sweeps=config.max_sweeps).to_dict()
    divergent = storage_divergence(net)
    return report, divergent, _render_scrub(report, divergent)


def _render_scrub(report: Dict, divergent: int) -> str:
    """Human-readable digest of a snapshot scrub."""
    return "\n".join([
        f"sweeps             : {report['sweeps']}",
        f"hints drained      : {report['hints_drained']}",
        f"repairs            : {report['repairs']}",
        f"resurrections cut  : {report['resurrections_removed']}",
        f"orphans removed    : {report['orphans_removed']}",
        f"tombstones gc'd    : {report['tombstones_gced']}",
        f"unreachable skips  : {report['skipped_unreachable']}",
        f"still divergent    : {divergent}",
    ])


def render_durability(report: Dict) -> str:
    """Human-readable digest of a ``gred-durability-v1`` report."""
    config = report["config"]
    workload = report["workload"]
    divergence = report["divergence"]
    scrub_stats = report["scrub"]
    return "\n".join([
        f"workload           : {workload['items_placed']} "
        f"item(s), {workload['items_deleted']} deleted, "
        f"{config['ops']} op(s) under partition",
        f"faults             : {workload['crashes']} crash(es) "
        f"({workload['crash_fraction_actual']:.0%} of servers), "
        f"partition_fraction={config['partition_fraction']:g}",
        f"hints              : "
        f"{workload['hints_parked_pre_scrub']} parked, "
        f"{scrub_stats['hints_drained']} drained by scrub",
        f"divergence         : {divergence['before_scrub']} "
        f"before scrub, {divergence['after_scrub']} after "
        f"({scrub_stats['sweeps']} sweep(s), "
        f"{scrub_stats['repairs']} repair(s))",
        f"tombstones         : "
        f"{scrub_stats['resurrections_removed']} "
        f"resurrection(s) cut, {scrub_stats['tombstones_gced']} "
        f"gc'd",
        f"oracle verdicts    : {_oracle_verdicts(report)}",
        f"oracle match       : {report['oracle_match']}",
    ])
