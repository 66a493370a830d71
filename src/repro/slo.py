"""SLO load-test harness: overload behavior as a measured property.

Backs the ``gred loadtest`` CLI command.  One run builds a deployment,
places a catalog of items, wraps the network in the resilience pipeline
(:class:`~repro.resilience.ResilientNetwork`) and drives an **open-loop
Poisson arrival process** of retrievals against it at one or more load
factors — fractions of the deployment's nominal admission capacity
(``rate_per_switch × entry_switches``).  Optionally a PR 2
:class:`~repro.faults.FaultPlan` strikes mid-run, so overload and
failure handling are exercised together.

Per load point the report records goodput (in-deadline successes over
offered load), shed rate by reason, availability over admitted
requests, p50/p99 latency and SLO attainment, plus the full
``resilience.*`` counter set — a stable JSON schema
(``format: gred-loadtest-v1``) suitable for committing as
``SLO_report.json`` and gating in CI via ``--min-goodput`` /
``--min-attainment``.

Time is entirely virtual: arrivals advance a simulated clock and the
pipeline's latency model charges per-hop/service/backoff time on that
clock, so a report is **bit-identical** across runs with the same seed
(no wall-clock field anywhere).
"""

from __future__ import annotations

import json
import platform
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import obs
from .core.network import GredNetwork
from .faults import FaultInjector, FaultPlan
from .obs import spans
from .report import Gate, check_bounds, echo, flag
from .resilience import ResilienceConfig
from .topology import brite_waxman_graph

#: Default load factors: below capacity and well above it.
DEFAULT_LOAD_FACTORS: Tuple[float, ...] = (0.8, 1.5)


@dataclass
class SloConfig:
    """Deployment + workload shape for :func:`run_loadtest`.

    ``entry_switches`` models the access layer: requests enter through
    a fixed subset of gateway switches (chosen deterministically from
    the seed), each policed by its own token bucket — nominal capacity
    is ``rate_per_switch × entry_switches`` requests/second.
    """

    switches: int = flag(200)
    entry_switches: int = flag(
        20, "access gateways policed by admission control")
    servers_per_switch: int = flag(4, "servers per switch",
                                   name="--servers")
    min_degree: int = flag(3)
    cvt_iterations: int = flag(20)
    items: int = flag(1000)
    copies: int = flag(2)
    requests: int = flag(8000, "requests per load point")
    seed: int = flag(0)
    load_factors: Tuple[float, ...] = flag(
        DEFAULT_LOAD_FACTORS, "offered load as fractions of capacity "
                              "(default: 0.8 1.5)",
        nargs="+", metavar="FACTOR", cli_default=None)
    deadline: float = flag(0.25, "per-request SLO deadline in seconds")
    rate_per_switch: float = flag(
        200.0, "admission tokens/second per entry switch", name="--rate")
    burst: float = flag(40.0, "admission token-bucket capacity")
    queue_limit: int = flag(32, "pending-queue bound per entry switch")
    #: Fraction of requests at priority 0 (best effort), 1 (normal),
    #: 2 (critical); must sum to 1.
    priority_mix: Tuple[float, float, float] = (0.2, 0.6, 0.2)
    plan: Optional[FaultPlan] = flag(
        None, "JSON fault plan replayed on the arrival clock",
        metavar="FILE", parse=FaultPlan.from_json)
    max_attempts: int = 3
    hedge_enabled: bool = True
    #: SLO success target used for burn-rate gauges (budget is
    #: ``1 - objective``).
    objective: float = 0.99
    #: Head-based trace sampling rate for the run (0 = tracing off).
    trace_sample_rate: float = 0.0

    def __post_init__(self) -> None:
        check_bounds(self, entry_switches=(1, self.switches),
                     trace_sample_rate=(0, 1))
        if abs(sum(self.priority_mix) - 1.0) > 1e-9:
            raise ValueError(
                f"priority_mix must sum to 1, got {self.priority_mix}")
        if not self.load_factors:
            raise ValueError("at least one load factor is required")
        if any(f <= 0 for f in self.load_factors):
            raise ValueError(
                f"load factors must be positive, got {self.load_factors}")
        if not 0.0 <= self.objective < 1.0:
            raise ValueError(
                f"objective must be in [0, 1), got {self.objective}")
        # The deadline and admission knobs are refused here, before a
        # run builds anything (a NaN deadline would pass every request).
        self.resilience_config()

    #: ``--quick``: the shape of the CI smoke preset (~seconds); the
    #: CLI honours every other flag.
    QUICK = dict(switches=16, entry_switches=6, servers_per_switch=2,
                 min_degree=3, cvt_iterations=5, items=60, copies=2,
                 requests=400, deadline=0.25, rate_per_switch=50.0,
                 burst=20, queue_limit=16)

    @classmethod
    def quick(cls) -> "SloConfig":
        """CI smoke preset: tiny topology and workload (~seconds)."""
        return cls(**cls.QUICK)

    def resilience_config(self) -> ResilienceConfig:
        return ResilienceConfig(
            enabled=True,
            rate_per_switch=self.rate_per_switch,
            burst=self.burst,
            queue_limit=self.queue_limit,
            default_deadline=self.deadline,
            max_attempts=self.max_attempts,
            hedge_enabled=self.hedge_enabled,
            seed=self.seed,
        )

    @property
    def capacity_rps(self) -> float:
        """Nominal admission capacity of the access layer."""
        return self.rate_per_switch * self.entry_switches


def _build_network(config: SloConfig):
    topology, _ = brite_waxman_graph(
        config.switches, min_degree=config.min_degree,
        rng=np.random.default_rng(config.seed))
    return GredNetwork(topology,
                       servers_per_switch=config.servers_per_switch,
                       cvt_iterations=config.cvt_iterations,
                       seed=config.seed)


def _place_catalog(net, config: SloConfig) -> List[str]:
    item_ids = [f"slo-{i}" for i in range(config.items)]
    net.place_many(item_ids, copies=config.copies,
                   rng=np.random.default_rng(config.seed + 1))
    return item_ids


def _entry_subset(net, config: SloConfig) -> List[int]:
    """The access-gateway switches (deterministic seeded choice)."""
    ids = sorted(net.switch_ids())
    rng = np.random.default_rng(config.seed + 2)
    chosen = rng.choice(len(ids), size=config.entry_switches,
                        replace=False)
    return sorted(ids[i] for i in chosen)


def _percentile_ms(samples: Sequence[float], q: float) -> Optional[float]:
    if not samples:
        return None
    return float(np.percentile(np.asarray(samples), q) * 1e3)


@dataclass
class _PointTally:
    offered: int = 0
    admitted: int = 0
    shed: int = 0
    ok: int = 0
    in_deadline_ok: int = 0
    deadline_misses: int = 0
    retries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    latencies: List[float] = field(default_factory=list)
    shed_reasons: Dict[str, int] = field(default_factory=dict)


def _run_point(config: SloConfig, load_factor: float) -> Dict[str, Any]:
    """One load point: fresh deployment, catalog, pipeline and
    registry (so counters are exactly this point's)."""
    with obs.scoped_registry() as registry:
        # Setup (topology build + catalog placement) is not request
        # traffic: keep it out of the trace so sampled traces are all
        # virtual-time pipeline requests.
        recorder = spans.default_recorder()
        with (recorder.suppress() if recorder is not None
              else nullcontext()):
            net = _build_network(config)
            item_ids = _place_catalog(net, config)
        entries = _entry_subset(net, config)
        pipeline = net.resilient(config.resilience_config())

        offered_rps = load_factor * config.capacity_rps
        rng = np.random.default_rng(
            config.seed + 1000 + int(round(load_factor * 1000)))
        injector = None
        pending_events: List[Any] = []
        if config.plan is not None and len(config.plan):
            injector = FaultInjector(net, seed=config.seed)
            pending_events = list(config.plan)

        tally = _PointTally()
        priorities = np.arange(3)
        now = 0.0
        for _ in range(config.requests):
            now += float(rng.exponential(1.0 / offered_rps))
            while pending_events and pending_events[0].time <= now:
                injector.apply(pending_events.pop(0))
                pipeline.absorb_faults(now=now)
            entry = entries[int(rng.integers(0, len(entries)))]
            priority = int(rng.choice(priorities,
                                      p=config.priority_mix))
            data_id = item_ids[int(rng.integers(0, len(item_ids)))]
            outcome = pipeline.retrieve(
                data_id, entry_switch=entry, copies=config.copies,
                priority=priority, now=now)
            tally.offered += 1
            if not outcome.admitted:
                tally.shed += 1
                reason = outcome.shed_reason or "unknown"
                tally.shed_reasons[reason] = \
                    tally.shed_reasons.get(reason, 0) + 1
                continue
            tally.admitted += 1
            tally.latencies.append(outcome.latency)
            tally.retries += outcome.retries
            tally.hedges += int(outcome.hedged)
            tally.hedge_wins += int(outcome.hedge_won)
            if outcome.deadline_missed:
                tally.deadline_misses += 1
            if outcome.ok:
                tally.ok += 1
                if not outcome.deadline_missed:
                    tally.in_deadline_ok += 1
        # Burn rates: failure fraction over the error budget
        # (1 - objective).  >1 burns the budget faster than allowed.
        burn = {
            "availability": obs.burn_rate(
                tally.admitted - tally.ok, tally.admitted,
                config.objective),
            "attainment": obs.burn_rate(
                tally.admitted - tally.in_deadline_ok, tally.admitted,
                config.objective),
            "goodput": obs.burn_rate(
                tally.offered - tally.in_deadline_ok, tally.offered,
                config.objective),
        }
        for slo_name, value in burn.items():
            registry.gauge(
                "slo.burn_rate",
                help="SLO burn rate (1.0 = budget consumed exactly "
                     "as fast as allowed)",
                slo=slo_name).set(value)
        return {
            "load_factor": load_factor,
            "objective": config.objective,
            "burn_rates": burn,
            "offered_rps": offered_rps,
            "offered": tally.offered,
            "admitted": tally.admitted,
            "shed": tally.shed,
            "shed_rate": tally.shed / tally.offered,
            "shed_reasons": dict(sorted(tally.shed_reasons.items())),
            "ok": tally.ok,
            "availability": (tally.ok / tally.admitted
                             if tally.admitted else None),
            "goodput": tally.in_deadline_ok / tally.offered,
            "slo_attainment": (tally.in_deadline_ok / tally.admitted
                               if tally.admitted else None),
            "deadline_misses": tally.deadline_misses,
            "retries": tally.retries,
            "hedges": tally.hedges,
            "hedge_wins": tally.hedge_wins,
            "latency_ms": {
                "p50": _percentile_ms(tally.latencies, 50.0),
                "p99": _percentile_ms(tally.latencies, 99.0),
                "mean": (float(np.mean(tally.latencies)) * 1e3
                         if tally.latencies else None),
                "max": (float(np.max(tally.latencies)) * 1e3
                        if tally.latencies else None),
            },
            "breakers": pipeline.breakers.states(),
            "resilience_metrics": registry.counter_values("resilience."),
        }


def run_loadtest(config: Optional[SloConfig] = None,
                 recorder: Any = None) -> Dict[str, Any]:
    """Run the full load test; returns the report dict
    (``format: gred-loadtest-v1``).  Deterministic: bit-identical
    across runs with the same config.

    ``recorder`` is an optional :class:`~repro.obs.spans.SpanRecorder`
    installed as the default recorder for the duration of the run, so
    sampled requests leave full virtual-time traces (export them with
    :func:`repro.obs.spans.write_jsonl` / ``write_chrome``).  When it
    is ``None`` and ``config.trace_sample_rate`` > 0, one is created
    automatically.  The report gains a deterministic
    ``trace_summary`` block whenever tracing is on.
    """
    config = config or SloConfig()
    if recorder is None and config.trace_sample_rate > 0:
        recorder = spans.SpanRecorder(
            sample_rate=config.trace_sample_rate)
    previous = spans.set_default_recorder(recorder)
    try:
        points = [_run_point(config, factor)
                  for factor in config.load_factors]
    finally:
        spans.set_default_recorder(previous)
    trace_summary = None
    if recorder is not None:
        traces = spans.traces(recorder.spans())
        trace_summary = {
            "sample_rate": recorder.sample_rate,
            "traces": len(traces),
            "spans": len(recorder.spans()),
            "dropped": recorder.dropped,
        }
    return {
        "format": "gred-loadtest-v1",
        "config": {**echo(config, "plan"),
                   "fault_events": (len(config.plan)
                                    if config.plan is not None else 0)},
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "capacity_rps": config.capacity_rps,
        "trace_summary": trace_summary,
        "points": points,
    }


#: ``gred loadtest``'s CI thresholds.  Goodput is gated at or below
#: capacity only: above it, admission is *supposed* to shed the
#: excess.  Whatever is admitted must meet its deadline everywhere.
GATES = (
    Gate("--min-goodput", "points.goodput", True,
         "goodput {value:.4f} at {row[load_factor]}x capacity is below "
         "the --min-goodput gate {limit}",
         "exit nonzero when goodput at any at-or-below-capacity point "
         "falls below this threshold (CI gate)", metavar="FRACTION",
         where=lambda point: point["load_factor"] <= 1.0),
    Gate("--min-attainment", "points.slo_attainment", True,
         "SLO attainment {value:.4f} at {row[load_factor]}x capacity is "
         "below the --min-attainment gate {limit}",
         "exit nonzero when SLO attainment at any point falls below "
         "this threshold (CI gate)", metavar="FRACTION"),
)


def render_summary(report: Dict[str, Any]) -> str:
    """Human-readable digest of a ``gred-loadtest-v1`` report."""
    cfg = report["config"]
    lines = [
        f"SLO loadtest: {cfg['switches']} switches, "
        f"{cfg['entry_switches']} entry gateways, "
        f"{cfg['requests']} requests/point, deadline "
        f"{cfg['deadline'] * 1e3:.0f}ms, capacity "
        f"{report['capacity_rps']:,.0f} rps"
        + (f", {cfg['fault_events']} fault event(s)"
           if cfg.get("fault_events") else ""),
    ]
    for point in report["points"]:
        lat = point["latency_ms"]
        p50 = f"{lat['p50']:.1f}" if lat["p50"] is not None else "-"
        p99 = f"{lat['p99']:.1f}" if lat["p99"] is not None else "-"
        attainment = point["slo_attainment"]
        att = f"{attainment:.3f}" if attainment is not None else "-"
        lines.append(
            f"  {point['load_factor']:>4.2f}x: goodput "
            f"{point['goodput']:.3f}, shed {point['shed_rate']:.3f}, "
            f"p50 {p50}ms, p99 {p99}ms, attainment {att}, "
            f"retries {point['retries']}, hedges {point['hedges']} "
            f"(won {point['hedge_wins']})"
        )
    return "\n".join(lines)


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write a report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
