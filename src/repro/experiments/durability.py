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
The run is one :class:`~repro.faults.timeline.Timeline` whose schedule
``_timeline`` draws from one seeded generator as it runs; everything
is deterministic under the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..core.scrub import storage_divergence
from ..faults import FaultEvent, Timeline
from ..obs import default_registry, scoped_registry
from ..report import Gate, check_bounds, echo, flag, tally
from .common import build_gred, build_topology

#: Format marker of the ``gred scrub`` JSON report.
DURABILITY_FORMAT = "gred-durability-v1"


def _alive_entry(timeline: Timeline, rng) -> int:
    ids = [s for s in timeline.net.switch_ids()
           if timeline.injector.state.switch_alive(s)]
    return int(ids[int(rng.integers(0, len(ids)))])


def _crash_window(timeline: Timeline, rng, count: int):
    """Crash up to ``count`` alive servers in a drawn order, each only
    if the crash loses nothing the scrub could bring back."""
    pool = timeline.net.servers()
    crashed = 0
    for k in rng.permutation(len(pool)):
        if crashed >= count:
            break
        victim = pool[int(k)].server_id
        if timeline.injector.state.server_alive(victim):
            yield "safe_crash", dict(server=victim)
            crashed += timeline.log[-1]["kind"] == "server_crash"


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


def _writes(config: DurabilityConfig, timeline: Timeline, rng):
    """``ops`` draws of a delete-heavy mix: a delete or update of a
    seeded item (a draw of an item already deleted writes nothing), or
    a place of a new one."""
    version = 2
    known = sorted(timeline.catalog)
    for j in range(config.ops):
        op = str(rng.choice(["delete", "update", "place"],
                            p=[0.5, 0.3, 0.2]))
        entry = _alive_entry(timeline, rng)
        if op == "place":
            data_id = f"late-{j:04d}"
            yield "place", dict(data_id=data_id, payload=f"v1:{data_id}",
                                entry=entry)
            continue
        target = known[int(rng.integers(0, len(known)))]
        if target not in timeline.payloads:
            continue
        if op == "delete":
            yield "delete", dict(data_id=target, entry=entry)
        else:
            yield "update", dict(data_id=target, entry=entry,
                                 payload=f"v{version}:{target}")
            version += 1


def _timeline(config: DurabilityConfig, timeline: Timeline, rng):
    """The fault schedule, drawn from ``rng`` as it runs."""
    # Phase 1 — seed the catalog (stamped: the fault state is attached).
    for i in range(config.items):
        data_id = f"item-{i:04d}"
        yield "seed", dict(data_id=data_id, payload=f"v1:{data_id}",
                           entry=_alive_entry(timeline, rng))

    # Phase 2 — crash window (>= crash_fraction of all servers), then
    # repair: re-replication restores the replica counts.
    yield from _crash_window(timeline, rng, int(np.ceil(
        config.crash_fraction * len(timeline.net.servers()))))
    yield "repair", {}

    # Phase 3 — partition window: split ~partition_fraction of the
    # switches away and drive a delete-heavy workload from entries on
    # both sides.  Writes toward the far side park as hints; replicas
    # split across the cut go stale.
    ids = sorted(timeline.net.switch_ids())
    side = rng.choice(len(ids), replace=False, size=max(
        1, int(config.partition_fraction * len(ids))))
    yield FaultEvent(0.0, "partition",
                     switches=sorted(int(ids[int(k)]) for k in side))
    yield from _writes(config, timeline, rng)

    # Phase 4 — crashes *inside* the partition, heal, repair: the
    # tombstone-aware re-replication rebuilds from survivors that may
    # be stale, manufacturing exactly the divergence a scrub must fix.
    yield from _crash_window(timeline, rng, config.late_crashes)
    yield FaultEvent(0.0, "heal_partition")
    yield "repair", {}

    # Phase 5 — scrub; phase 6 — oracle verdicts, then one retrieval
    # of every item that still has a live replica.
    yield "scrub", dict(max_sweeps=config.max_sweeps)
    yield "audit", {}
    ids = [data_id for data_id in sorted(timeline.payloads)
           if data_id not in timeline.log[-1]["lost"]]
    yield "retrieve", dict(ids=ids, entries=[_alive_entry(timeline, rng)
                                             for _ in ids])


#: The log rows the report's ``events`` list leaves out, and the fields
#: it shows of a repair.
_UNSHOWN = ("seed", "scrub", "audit", "retrieve")
_REPAIR = ("kind", "servers_replaced", "re_replicated", "lost",
           "suppressed_resurrections")


@scoped_registry()
def run_durability(config: DurabilityConfig) -> Dict:
    """Crash + partition + delete-heavy churn, then one scrub.

    Returns the deterministic ``gred-durability-v1`` report.  The run
    swaps in a fresh enabled metrics registry (restored on exit) so
    the ``durability.*`` counters in the report belong to this
    experiment alone.
    """
    topology = build_topology(config.switches, 3, config.seed)
    net = build_gred(topology, config.servers_per_switch,
                     config.cvt_iterations, config.seed)
    timeline = Timeline(net, config.copies, seed=config.seed + 1)
    net.hinted_handoff = True
    timeline.run(_timeline(config, timeline,
                           np.random.default_rng(config.seed + 2)))
    events = [{key: row[key] for key in _REPAIR}
              if row["kind"] == "repair" else row
              for row in timeline.log if row["kind"] not in _UNSHOWN]
    # The first repair runs before any delete: v1 shows no suppressed
    # resurrections on it.
    del next(row for row in events
             if row["kind"] == "repair")["suppressed_resurrections"]
    (scrub,), (audit,) = timeline.rows("scrub"), timeline.rows("audit")
    verdicts = {key: audit[key] for key in ("resurrected", "lost", "stale")}
    verdicts["unavailable"] = timeline.log[-1]["unavailable"]
    crashes = len(timeline.rows("server_crash"))
    return {
        "format": DURABILITY_FORMAT,
        "config": {**echo(config), "avoid_total_loss": True},
        "events": events,
        "workload": {
            "items_placed": len(timeline.catalog),
            "items_deleted": len(timeline.catalog) - len(timeline.payloads),
            "crashes": crashes,
            "crash_fraction_actual": round(crashes / len(net.servers()), 4),
            "hints_parked_pre_scrub": scrub["hints_parked"],
        },
        "divergence": {
            "before_scrub": scrub["before"],
            "after_scrub": scrub["after"],
        },
        "scrub": scrub["report"],
        # Headline verdicts (acceptance criteria of ``gred scrub``).
        **verdicts,
        "oracle_match": not any(verdicts.values()),
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
