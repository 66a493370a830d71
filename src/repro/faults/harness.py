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

The report is pure data (JSON-serializable) and contains no wall-clock
values, so two runs with the same config are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core import GredNetwork
from ..controlplane.southbound import RecordingChannel
from ..controlplane.verification import verify_installed_state
from ..edge import attach_uniform
from ..obs import MetricsRegistry, default_registry, scoped_registry
from ..simulation import LinkModel, PacketLevelSimulator
from ..topology import brite_waxman_graph
from ..workloads import uniform_retrieval_trace
from .detector import FailureDetector
from .injector import FaultInjector
from .plan import FaultEvent, FaultPlan


@dataclass
class ChaosConfig:
    """Parameters of one chaos experiment."""

    switches: int = 30
    min_degree: int = 3
    servers_per_switch: int = 2
    cvt_iterations: int = 20
    items: int = 60
    copies: int = 3
    requests: int = 120
    seed: int = 0
    #: Faults to inject; ``None`` crashes one random switch at
    #: ``duration / 2``.
    plan: Optional[FaultPlan] = None
    #: Control-channel faults (``control_*`` events) applied *before*
    #: the load window: the whole run, including repair, then goes
    #: through a lossy southbound channel, and the harness finishes
    #: with an anti-entropy reconcile whose outcome lands in the
    #: report's ``southbound`` section.
    control_plan: Optional[FaultPlan] = None
    #: Length of the request window in simulated seconds.
    duration: float = 1.0
    #: Heartbeat period of the failure detector.
    detection_interval: float = 0.1
    request_size: int = 256
    response_size: int = 4096
    #: Packet-sim retransmission budget per request.
    max_attempts: int = 3
    retry_backoff: float = 0.01

    def __post_init__(self) -> None:
        if self.switches < 2:
            raise ValueError("a chaos run needs at least 2 switches")
        if self.items < 1 or self.requests < 0:
            raise ValueError("items must be >= 1 and requests >= 0")
        if self.copies < 1:
            raise ValueError("copies must be >= 1")
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    def to_dict(self) -> Dict:
        return {
            "switches": self.switches,
            "min_degree": self.min_degree,
            "servers_per_switch": self.servers_per_switch,
            "cvt_iterations": self.cvt_iterations,
            "items": self.items,
            "copies": self.copies,
            "requests": self.requests,
            "seed": self.seed,
            "duration": self.duration,
            "detection_interval": self.detection_interval,
            "control_plan": (self.control_plan.to_dict()
                             if self.control_plan is not None else None),
        }


def _retrieval_pass(net: GredNetwork, item_ids: List[str],
                    copies: int, rng: np.random.Generator,
                    skip=frozenset()) -> Dict:
    """Retrieve every item once; availability + mean round-trip hops."""
    found = 0
    probed = 0
    hops: List[int] = []
    for data_id in item_ids:
        if data_id in skip:
            continue
        probed += 1
        result = net.retrieve(data_id, copies=copies, rng=rng)
        if result.found:
            found += 1
            hops.append(result.round_trip_hops)
    return {
        "items_probed": probed,
        "items_found": found,
        "availability": (found / probed) if probed else 1.0,
        "mean_round_trip_hops": (
            sum(hops) / len(hops) if hops else 0.0),
    }


def _faults_counters(registry: MetricsRegistry) -> Dict[str, float]:
    """All ``faults.*`` counter values, name-sorted."""
    return registry.counter_values("faults.")


@scoped_registry()
def run_chaos(config: ChaosConfig) -> Dict:
    """Run one chaos experiment; returns the deterministic report.

    The run swaps in a fresh *enabled* metrics registry so the
    ``faults.*`` telemetry in the report is exactly this experiment's,
    and restores the previous registry on exit.
    """
    registry = default_registry()
    # -- deployment -----------------------------------------------------
    topology, _ = brite_waxman_graph(
        config.switches, min_degree=config.min_degree,
        rng=np.random.default_rng(config.seed))
    servers = attach_uniform(
        topology.nodes(), servers_per_switch=config.servers_per_switch)
    net = GredNetwork(topology, servers,
                      cvt_iterations=config.cvt_iterations,
                      seed=config.seed)
    item_ids = [f"chaos-{i}" for i in range(config.items)]
    place_rng = np.random.default_rng(config.seed + 10)
    for data_id in item_ids:
        net.place(data_id, payload=f"payload:{data_id}",
                  copies=config.copies, rng=place_rng)

    # -- baseline pass --------------------------------------------------
    baseline = _retrieval_pass(net, item_ids, config.copies,
                               np.random.default_rng(config.seed + 11))

    # -- faults under load ----------------------------------------------
    injector = FaultInjector(net, seed=config.seed + 1)
    if config.control_plan is not None:
        # Degrade the southbound channel up front: every rule install
        # from here on (repair included) rides the lossy transport.
        injector.apply_plan(config.control_plan)
    plan = config.plan
    if plan is None:
        plan = FaultPlan([FaultEvent(
            time=config.duration * 0.5, kind="switch_crash",
            switch=injector.random_alive_switch())])
    trace = uniform_retrieval_trace(
        item_ids, net.switch_ids(), config.requests, config.duration,
        np.random.default_rng(config.seed + 12))
    simulator = PacketLevelSimulator(
        net, LinkModel(), fault_state=injector.state,
        loss_rng=np.random.default_rng(config.seed + 2),
        max_attempts=config.max_attempts,
        retry_backoff=config.retry_backoff)
    completions = simulator.run(trace,
                                request_size=config.request_size,
                                response_size=config.response_size,
                                injector=injector, plan=plan)
    under_faults = {
        "requests": len(trace),
        "completed": len(completions),
        "failed": len(simulator.failed),
        "mean_response_delay": (
            sum(c.response_delay for c in completions)
            / len(completions) if completions else 0.0),
    }

    # -- detection & repair ---------------------------------------------
    channel = RecordingChannel()
    detector = FailureDetector(
        net, state=injector.state,
        catalog={d: config.copies for d in item_ids},
        channel=channel, interval=config.detection_interval)
    fault_time = plan.first_fault_time or 0.0
    repair = detector.repair(fault_time=fault_time)
    repair_summary = {
        "dead_switches": repair.detection.dead_switches,
        "dead_links": [list(link)
                       for link in repair.detection.dead_links],
        "stranded_switches": repair.stranded_switches,
        "servers_replaced": repair.servers_replaced,
        "re_replicated": repair.re_replicated,
        "lost_items": repair.lost_items,
        "recovery_time": repair.recovery_time,
        "probes_sent": repair.detection.probes_sent,
        "southbound_messages": channel.count(),
    }

    # -- anti-entropy reconcile -----------------------------------------
    # Under a lossy control channel the repair's rule installs may
    # themselves have been dropped or reordered; a reconcile sweep
    # repairs whatever divergence survived the retries.
    transport = getattr(net.controller, "transport", None)
    southbound_summary = None
    if transport is not None:
        reconcile = net.controller.reconcile()
        southbound_summary = {
            "channel": transport.stats.to_dict(),
            "reconcile": reconcile.to_dict(),
            "pending_after_reconcile": sorted(
                net.controller.pending_deltas),
        }

    # -- recovered pass -------------------------------------------------
    # Same entry-point RNG seed as the baseline pass, so the hop
    # comparison reflects the repaired routes, not different entries.
    recovered = _retrieval_pass(net, item_ids, config.copies,
                                np.random.default_rng(config.seed + 11),
                                skip=frozenset(repair.lost_items))
    hop_inflation = (
        recovered["mean_round_trip_hops"]
        / baseline["mean_round_trip_hops"]
        if baseline["mean_round_trip_hops"] else 1.0)
    registry.gauge("faults.hop_inflation").set(hop_inflation)
    violations = verify_installed_state(
        net.controller, fault_state=injector.state,
        desired_plan=(net.controller.desired_plan()
                      if transport is not None else None))

    return {
        "config": config.to_dict(),
        "plan": plan.to_dict(),
        "baseline": baseline,
        "under_faults": under_faults,
        "repair": repair_summary,
        "southbound": southbound_summary,
        "recovered": recovered,
        # Headline figures (acceptance criteria of the chaos command).
        "availability": recovered["availability"],
        "items_lost": repair.items_lost,
        "re_replicated": repair.re_replicated,
        "hop_inflation": hop_inflation,
        "recovery_time": repair.recovery_time,
        "verifier_violations": len(violations),
        "post_reconcile_divergence": (
            len(southbound_summary["reconcile"]["divergent_final"])
            if southbound_summary is not None else 0),
        "faults_metrics": _faults_counters(registry),
    }
