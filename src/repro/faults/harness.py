"""The ``gred chaos`` experiment: a workload replayed under faults.

One chaos run measures the full resilience story on a BRITE-Waxman
deployment:

1. **Baseline** — place ``items`` with ``copies`` replicas each and
   retrieve every item once; record availability and mean round-trip
   hops of the healthy network.
2. **Faults under load** — replay a retrieval trace through the
   packet-level simulator while a :class:`~repro.faults.plan.FaultPlan`
   strikes mid-trace (default: crash one random switch halfway through
   the window); packets on dead hardware are dropped and retransmitted
   with exponential backoff.
3. **Detection & repair** — a :class:`~repro.faults.detector.
   FailureDetector` sweep prunes the control plane, repairs the DT,
   replaces crashed servers and re-replicates items below their target
   copy count.
4. **Recovered** — retrieve every surviving item again; with enough
   replicas the availability after repair is 1.0 and the mean hop
   count quantifies the routing inflation caused by the failures
   (``faults.hop_inflation``).

The run is one :class:`~repro.faults.timeline.Timeline`: ``_timeline``
yields the events, and :func:`run_chaos` reads the report off the
log.  The report is pure data (JSON-serializable) and contains no
wall-clock values, so two runs with the same config are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional

import numpy as np

from ..core import GredNetwork
from ..obs import default_registry, scoped_registry
from ..report import (CHANNEL_KEYS, POSITIVE, Gate, check_bounds, flag,
                      tally)
from ..topology import brite_waxman_graph
from ..workloads import uniform_retrieval_trace
from .plan import FaultEvent, FaultPlan
from .timeline import Timeline


@dataclass
class ChaosConfig:
    """Parameters of one chaos experiment."""

    switches: int = flag(30)
    min_degree: int = flag(3)
    servers_per_switch: int = flag(2, "servers per switch",
                                   name="--servers")
    cvt_iterations: int = flag(20)
    items: int = flag(60)
    copies: int = flag(3)
    requests: int = flag(120)
    seed: int = flag(0)
    #: Faults to inject; ``None`` crashes one random switch at
    #: ``duration / 2``.
    plan: Optional[FaultPlan] = flag(
        None, "JSON fault plan; default crashes one random switch "
              "mid-trace", metavar="FILE", parse=FaultPlan.from_json)
    #: Control-channel faults (``control_*`` events) applied *before*
    #: the load window: the whole run, including repair, then goes
    #: through a lossy southbound channel, and the harness finishes
    #: with an anti-entropy reconcile whose outcome lands in the
    #: report's ``southbound`` section.
    control_plan: Optional[FaultPlan] = flag(
        None, "JSON fault plan of control_* events that degrade the "
              "southbound channel for the whole run; the harness "
              "finishes with an anti-entropy reconcile",
        metavar="FILE", parse=FaultPlan.from_json)
    duration: float = flag(1.0, "request window in simulated seconds")
    detection_interval: float = flag(
        0.1, "heartbeat period of the failure detector")
    request_size: int = 256
    response_size: int = 4096
    #: Packet-sim retransmission budget per request.
    max_attempts: int = 3
    retry_backoff: float = 0.01

    def __post_init__(self) -> None:
        check_bounds(self, switches=(2, None), min_degree=(1, None),
                     servers_per_switch=(1, None), cvt_iterations=(0, None),
                     items=(1, None), copies=(1, None), requests=(0, None),
                     duration=POSITIVE, detection_interval=POSITIVE)

    def to_dict(self) -> Dict:
        """The flagged fields but the plan (the report lists it)."""
        record = {f.name: getattr(self, f.name) for f in fields(self)
                  if "flag" in f.metadata and f.name != "plan"}
        if self.control_plan is not None:
            record["control_plan"] = self.control_plan.to_dict()
        return record


#: The report's sections, by the log row each one reads.
_PASS = ("items_probed", "items_found", "availability",
         "mean_round_trip_hops")
_LOAD = ("requests", "completed", "failed", "mean_response_delay")
_REPAIR = ("dead_switches", "dead_links", "stranded_switches",
           "servers_replaced", "re_replicated", "lost_items",
           "recovery_time", "probes_sent", "southbound_messages")


def _pick(row: Dict, keys) -> Dict:
    return {key: row[key] for key in keys}


def _timeline(config: ChaosConfig, timeline: Timeline):
    """Seed, baseline pass, control faults, the load window under the
    plan, repair, reconcile, recovered pass, verify."""
    item_ids = [f"chaos-{i}" for i in range(config.items)]
    place_rng = np.random.default_rng(config.seed + 10)
    for data_id in item_ids:
        yield "seed", dict(data_id=data_id, payload=f"payload:{data_id}",
                           rng=place_rng)
    yield "retrieve", dict(ids=item_ids,
                           rng=np.random.default_rng(config.seed + 11))
    # Degrade the southbound channel up front: every rule install from
    # here on (repair included) rides the lossy transport.
    yield from config.control_plan or ()
    plan = config.plan
    if plan is None:
        plan = FaultPlan([FaultEvent(
            time=config.duration * 0.5, kind="switch_crash",
            switch=timeline.injector.random_alive_switch())])
    trace = uniform_retrieval_trace(
        item_ids, timeline.net.switch_ids(), config.requests,
        config.duration, np.random.default_rng(config.seed + 12))
    yield "load", dict(trace=trace, plan=plan,
                       loss_rng=np.random.default_rng(config.seed + 2),
                       request_size=config.request_size,
                       response_size=config.response_size,
                       max_attempts=config.max_attempts,
                       retry_backoff=config.retry_backoff)
    yield "repair", dict(fault_time=plan.first_fault_time or 0.0)
    lost = set(timeline.log[-1]["lost_items"])
    # Under a lossy control channel the repair's rule installs may
    # themselves have been dropped or reordered; a reconcile sweep
    # repairs whatever divergence survived the retries.
    if timeline.net.controller.transport is not None:
        yield "reconcile", {}
    # Same entry-point RNG seed as the baseline pass, so the hop
    # comparison reflects the repaired routes, not different entries.
    yield "retrieve", dict(ids=[d for d in item_ids if d not in lost],
                           rng=np.random.default_rng(config.seed + 11))
    yield "verify", {}


@scoped_registry()
def run_chaos(config: ChaosConfig) -> Dict:
    """Run one chaos experiment; returns the deterministic report.

    The run swaps in a fresh *enabled* metrics registry so the
    ``faults.*`` telemetry in the report is exactly this experiment's,
    and restores the previous registry on exit.
    """
    topology, _ = brite_waxman_graph(
        config.switches, min_degree=config.min_degree,
        rng=np.random.default_rng(config.seed))
    net = GredNetwork(topology, servers_per_switch=config.servers_per_switch,
                      cvt_iterations=config.cvt_iterations,
                      seed=config.seed)
    timeline = Timeline(net, config.copies, seed=config.seed + 1,
                        interval=config.detection_interval)
    timeline.run(_timeline(config, timeline))
    baseline, recovered = (_pick(row, _PASS)
                           for row in timeline.rows("retrieve"))
    (load,), (repair,) = timeline.rows("load"), timeline.rows("repair")
    southbound = next((_pick(row, ("channel", "reconcile",
                                   "pending_after_reconcile"))
                       for row in timeline.rows("reconcile")), None)
    hop_inflation = (
        recovered["mean_round_trip_hops"]
        / baseline["mean_round_trip_hops"]
        if baseline["mean_round_trip_hops"] else 1.0)
    registry = default_registry()
    registry.gauge("faults.hop_inflation").set(hop_inflation)
    return {
        "config": config.to_dict(),
        "plan": load["plan"],
        "baseline": baseline,
        "under_faults": _pick(load, _LOAD),
        "repair": _pick(repair, _REPAIR),
        "southbound": southbound,
        "recovered": recovered,
        # Headline figures (acceptance criteria of the chaos command).
        "availability": recovered["availability"],
        "items_lost": repair["lost"],
        "re_replicated": repair["re_replicated"],
        "hop_inflation": hop_inflation,
        "recovery_time": repair["recovery_time"],
        "verifier_violations": timeline.log[-1]["violations"],
        "post_reconcile_divergence": (
            len(southbound["reconcile"]["divergent_final"])
            if southbound is not None else 0),
        "faults_metrics": registry.counter_values("faults."),
    }


def check_chaos(report: Dict) -> List[str]:
    """The chaos verdict: the repaired plane passes the verifier."""
    count = report["verifier_violations"]
    return ([f"the repaired plane fails the verifier ({count} "
             f"violation(s))"] if count > 0 else [])


#: ``gred chaos``'s CI thresholds; the lost-items gate carries the
#: verifier verdict.
GATES = (
    Gate("--min-availability", "availability", True,
         "recovered availability {value:.4f} is below the "
         "--min-availability gate {limit}",
         "exit nonzero when recovered availability falls below this "
         "threshold (CI gate)", metavar="FRACTION"),
    Gate("--max-items-lost", "items_lost", False,
         "{value} item(s) lost, above the --max-items-lost gate {limit}",
         "exit nonzero when more items than this are lost for good "
         "(recovered availability counts only the survivors; CI gate)",
         type=int, checks=check_chaos),
)


def render_chaos(report: Dict) -> str:
    """Human-readable digest of a chaos report."""
    repair = report["repair"]
    events = report["plan"]["events"]
    lines = [
        f"baseline availability  : "
        f"{report['baseline']['availability']:.3f} "
        f"({report['baseline']['mean_round_trip_hops']:.2f} hops)",
        (f"fault plan             : {len(events)} event(s), "
         f"first at t={events[0]['time']:.3f}" if events
         else "fault plan             : empty"),
        f"under faults           : {report['under_faults']['completed']}"
        f"/{report['under_faults']['requests']} requests completed, "
        f"{report['under_faults']['failed']} failed",
        f"dead switches detected : {repair['dead_switches']}",
        f"stranded switches      : {repair['stranded_switches']}",
        f"servers replaced       : {repair['servers_replaced']}",
        f"re-replicated copies   : {report['re_replicated']}",
        f"items lost             : {report['items_lost']}",
        f"recovery time          : {report['recovery_time']:.3f}s",
        f"recovered availability : {report['availability']:.3f} "
        f"({report['recovered']['mean_round_trip_hops']:.2f} hops, "
        f"inflation x{report['hop_inflation']:.2f})",
        f"verifier violations    : {report['verifier_violations']}",
    ]
    southbound = report.get("southbound")
    if southbound is not None:
        stats = southbound["channel"]
        reconcile = southbound["reconcile"]
        lines += [
            f"southbound channel     : {tally(stats, *CHANNEL_KEYS)}",
            f"reconcile              : "
            f"{reconcile['divergent_initial']} divergent, "
            f"{reconcile['sweeps']} sweep(s), "
            f"{reconcile['resynced']} resync(s), "
            f"{reconcile['drained']} drained, "
            f"converged={reconcile['converged']}",
        ]
    return "\n".join(lines)
