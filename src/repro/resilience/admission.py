"""Per-entry-switch admission control: token bucket + bounded queue.

Each entry switch gets a token bucket refilled at ``rate`` requests per
second with capacity ``burst``, implemented as the Generic Cell Rate
Algorithm (GCRA): one float of state per entry — the *theoretical
arrival time* (TAT) of the next conforming request — gives O(1)
admission decisions with no background refill task.

A request arriving while the bucket holds a token is admitted with zero
wait.  A request arriving early (bucket empty) is *queued*: GCRA's
``TAT - now - burst/rate`` is exactly the time until a token frees up,
and dividing by the token interval gives the current virtual queue
depth.  The queue is bounded by ``queue_limit`` slots, shared
priority-aware: priority ``p`` (0 = best-effort … ``max_priority`` =
critical) may only occupy the first ``queue_limit * (1 + p) /
(1 + max_priority)`` slots, so as the queue fills, low-priority traffic
is shed first and critical traffic keeps the full queue — graceful
degradation instead of indiscriminate tail drops.

Every decision lands in ``resilience.*`` telemetry: ``admitted``,
``shed`` (labelled by reason), and the ``queue_wait_seconds``
histogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..obs import TIME_BUCKETS, default_registry

#: Shed because the request would overflow the whole pending queue.
SHED_QUEUE_FULL = "queue_full"
#: Shed because the queue depth exceeds this priority's share.
SHED_PRIORITY = "priority"


@dataclass(frozen=True)
class AdmissionVerdict:
    """Outcome of offering one request to the controller.

    ``queued_delay`` is the virtual time the request waits for a token
    (zero when the bucket had one); ``occupancy`` is the queue depth
    seen on arrival; ``shed_reason`` is ``None`` when admitted.
    """

    admitted: bool
    queued_delay: float = 0.0
    shed_reason: Optional[str] = None
    occupancy: int = 0


class AdmissionController:
    """GCRA token buckets with priority-aware bounded queues.

    Parameters
    ----------
    rate:
        Token refill rate per entry switch (requests/second).
    burst:
        Bucket capacity (requests absorbed back-to-back).
    queue_limit:
        Pending-queue bound per entry switch (0 disables queueing:
        any request that misses a token is shed).
    max_priority:
        Highest priority level; see the module docstring for the
        per-priority queue share.
    """

    def __init__(self, rate: float, burst: float = 1.0,
                 queue_limit: int = 0, max_priority: int = 2) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        if queue_limit < 0:
            raise ValueError(
                f"queue_limit must be >= 0, got {queue_limit}")
        if max_priority < 0:
            raise ValueError(
                f"max_priority must be >= 0, got {max_priority}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.queue_limit = int(queue_limit)
        self.max_priority = int(max_priority)
        #: GCRA theoretical arrival time per entry switch.
        self._tat: Dict[Hashable, float] = {}

    def allowed_occupancy(self, priority: int) -> int:
        """Deepest queue position priority ``priority`` may take."""
        p = min(max(int(priority), 0), self.max_priority)
        return int(self.queue_limit * (1 + p) / (1 + self.max_priority))

    def occupancy(self, entry: Hashable, now: float) -> int:
        """Virtual queue depth at ``entry`` as seen at ``now``."""
        tat = self._tat.get(entry)
        if tat is None:
            return 0
        delay = max(tat, now) - now - self.burst / self.rate
        if delay <= 0:
            return 0
        return int(math.ceil(delay * self.rate))

    def offer(self, entry: Hashable, now: float,
              priority: int = 1) -> AdmissionVerdict:
        """Decide one request arriving at ``entry`` at time ``now``: a
        batch of one."""
        [(delay, reason, occupancy)] = self.offer_many([entry], now,
                                                       [priority])
        return AdmissionVerdict(admitted=reason is None,
                                queued_delay=delay, shed_reason=reason,
                                occupancy=occupancy)

    def offer_many(self, entries: Sequence[Hashable], now: float,
                   priorities: Sequence[int]
                   ) -> List[Tuple[float, Optional[str], int]]:
        """Decide a batch arriving at ``now`` in one GCRA pass, in
        order: per request its ``(queued delay, shed reason or None,
        occupancy)``.  An admitted request takes its token; one that
        found a token gets the shared ``(0.0, None, 0)``."""
        registry = default_registry()
        tats, rate = self._tat, self.rate
        headroom, interval = self.burst / rate, 1.0 / rate
        verdicts: List[Tuple[float, Optional[str], int]] = []
        for entry, priority in zip(entries, priorities):
            tat = max(tats.get(entry, -math.inf), now)
            delay = tat - now - headroom
            if delay <= 0:  # a token is available: admit at once
                verdict = (0.0, None, 0)  # one constant, shared
            else:
                occupancy = int(math.ceil(delay * rate))
                if occupancy > self.allowed_occupancy(priority):
                    reason = (SHED_QUEUE_FULL
                              if occupancy > self.queue_limit
                              else SHED_PRIORITY)
                    if registry.enabled:
                        registry.counter("resilience.shed",
                                         reason=reason).inc()
                    verdicts.append((0.0, reason, occupancy))
                    continue
                # A queued request is served when its token accrues.
                verdict = (delay, None, occupancy)
            tats[entry] = tat + interval
            if registry.enabled:
                registry.counter("resilience.admitted").inc()
                registry.histogram("resilience.queue_wait_seconds",
                                   buckets=TIME_BUCKETS).observe(verdict[0])
            verdicts.append(verdict)
        return verdicts

    def reset(self) -> None:
        """Forget all bucket state (drains every virtual queue)."""
        self._tat.clear()
