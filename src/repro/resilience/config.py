"""Configuration of the resilient request pipeline.

One :class:`ResilienceConfig` carries every knob of the pipeline —
admission control, deadlines/retries, circuit breakers, hedging and the
virtual service-time model — so a deployment's overload policy is a
single serializable value.  The config is **disabled by default**: a
:class:`~repro.resilience.pipeline.ResilientNetwork` built from a
default config is a transparent passthrough whose results are
byte-identical to calling the wrapped :class:`~repro.core.GredNetwork`
directly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict

from ..simulation.latency import LatencyModel


@dataclass(frozen=True)
class ResilienceConfig:
    """Policy knobs of the resilient request pipeline.

    Attributes
    ----------
    enabled:
        Master switch.  ``False`` (the default) makes the pipeline a
        transparent passthrough: no admission, no retries, no breakers,
        no metrics — results identical to the raw network.
    rate_per_switch:
        Token-bucket refill rate (requests/second) of each entry
        switch.  The deployment's nominal capacity is
        ``rate_per_switch * number of entry switches``.
    burst:
        Token-bucket capacity: how many back-to-back requests one entry
        switch absorbs without queueing.
    queue_limit:
        Bound of the per-entry pending queue (in requests).  A request
        that would queue deeper than its priority allows is shed.
    max_priority:
        Highest request priority.  Priority ``p`` may occupy up to
        ``queue_limit * (1 + p) / (1 + max_priority)`` queue slots, so
        low-priority traffic is shed first as the queue fills.
    default_deadline:
        Per-request time budget (seconds) when the caller passes none.
    max_attempts:
        Total tries per request, including the first (1 = no retry).
    backoff_base, backoff_multiplier, backoff_jitter:
        Retry delay: attempt ``n`` backs off
        ``backoff_base * backoff_multiplier**(n-1)`` seconds, scaled by
        a uniform jitter in ``[1 - backoff_jitter, 1 + backoff_jitter]``
        drawn from the pipeline's seeded generator.  A retry is taken
        only when the backoff still fits the remaining deadline budget.
    breaker_failure_threshold:
        Consecutive failures that trip a circuit breaker open.
    breaker_recovery_time:
        Seconds an open breaker waits before admitting half-open probes.
    breaker_half_open_probes:
        Consecutive half-open successes required to close a breaker.
    hedge_enabled:
        Allow hedged retrieval (``copies > 1`` only).
    hedge_fraction:
        Hedge when the remaining deadline budget drops to this fraction
        of the total budget (or on any retry attempt).
    read_repair:
        After a successful multi-copy retrieval, synchronize the
        item's replicas to the newest stamp observed among them
        (:meth:`repro.core.GredNetwork.read_repair`) — opt-in
        anti-entropy piggybacked on the read path.  Repairs happen
        outside the latency model (a background write-back).
    latency:
        The per-hop latency model each probe is charged through
        (:meth:`repro.simulation.LatencyModel.round_trip`): virtual
        seconds per link and switch of its request/response path, the
        storage server's service time per probe, and a slow link's
        ``delay_factor`` on the request path — no wall clock anywhere.
    failure_penalty:
        Virtual seconds charged by a probe that fails to route or
        place (the cost of discovering the failure).
    seed:
        Seeds the pipeline's jitter generator.
    """

    enabled: bool = False
    # admission
    rate_per_switch: float = 200.0
    burst: float = 40.0
    queue_limit: int = 32
    max_priority: int = 2
    # deadlines / retries
    default_deadline: float = 0.25
    max_attempts: int = 3
    backoff_base: float = 0.005
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.5
    # circuit breakers
    breaker_failure_threshold: int = 5
    breaker_recovery_time: float = 1.0
    breaker_half_open_probes: int = 2
    # hedged retrieval
    hedge_enabled: bool = True
    hedge_fraction: float = 0.5
    # read-path anti-entropy
    read_repair: bool = False
    # virtual service-time model
    latency: LatencyModel = LatencyModel(
        link_delay=0.0005, switch_delay=0.0, server_service_time=0.001)
    failure_penalty: float = 0.005
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.rate_per_switch <= 0:
            raise ValueError(
                f"rate_per_switch must be positive, got "
                f"{self.rate_per_switch}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.queue_limit < 0:
            raise ValueError(
                f"queue_limit must be >= 0, got {self.queue_limit}")
        if self.max_priority < 0:
            raise ValueError(
                f"max_priority must be >= 0, got {self.max_priority}")
        if self.default_deadline <= 0:
            raise ValueError(
                f"default_deadline must be positive, got "
                f"{self.default_deadline}")
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_multiplier < 1:
            raise ValueError(
                "backoff_base must be >= 0 and backoff_multiplier >= 1")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError(
                f"backoff_jitter must be in [0, 1), got "
                f"{self.backoff_jitter}")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.breaker_recovery_time < 0:
            raise ValueError("breaker_recovery_time must be >= 0")
        if self.breaker_half_open_probes < 1:
            raise ValueError("breaker_half_open_probes must be >= 1")
        if not 0.0 < self.hedge_fraction <= 1.0:
            raise ValueError(
                f"hedge_fraction must be in (0, 1], got "
                f"{self.hedge_fraction}")
        if self.failure_penalty < 0:
            raise ValueError(
                f"failure_penalty must be >= 0, got {self.failure_penalty}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (stable key order)."""
        return asdict(self)
