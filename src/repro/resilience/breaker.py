"""Circuit breakers over switches and edge servers.

A :class:`CircuitBreaker` is the classic three-state machine:

* **closed** — traffic flows; consecutive failures are counted and
  ``failure_threshold`` of them trip the breaker **open**;
* **open** — traffic is refused (callers fail fast or route around)
  until ``recovery_time`` virtual seconds pass;
* **half-open** — probe traffic is admitted; ``half_open_probes``
  consecutive successes close the breaker, any failure re-opens it.

The :class:`BreakerBoard` keys one breaker per resource —
``("switch", switch_id)`` and ``("server", (switch_id, serial))`` —
creates them lazily, emits a ``resilience.breaker_*`` counter and a
structured event on every state transition, and can *absorb* the
fault-injection ground truth (:class:`repro.faults.FaultState`):
crashed nodes get their breakers forced open immediately, so traffic
routes around them before the heartbeat detector has even noticed.
"""

from __future__ import annotations

import enum
from typing import Dict, Hashable, List, Optional, Set, Tuple

from ..obs import default_registry


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """One resource's breaker.  All times are the caller's virtual
    clock; the breaker never reads a wall clock."""

    def __init__(self, failure_threshold: int = 5,
                 recovery_time: float = 1.0,
                 half_open_probes: int = 2) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_time < 0:
            raise ValueError("recovery_time must be >= 0")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_probes = half_open_probes
        self.state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._probe_successes = 0
        self._opened_at: Optional[float] = None

    def allow(self, now: float) -> bool:
        """Whether a request may be sent to this resource at ``now``.
        An open breaker past its recovery time transitions to
        half-open (and admits the probe)."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if (self._opened_at is not None
                    and now - self._opened_at >= self.recovery_time):
                self.state = BreakerState.HALF_OPEN
                self._probe_successes = 0
                return True
            return False
        return True  # half-open: probes flow

    def record_success(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_probes:
                self.state = BreakerState.CLOSED
                self._consecutive_failures = 0
                self._opened_at = None
        elif self.state is BreakerState.CLOSED:
            self._consecutive_failures = 0
        # Success against an open breaker (e.g. an override probe that
        # went through anyway) does not close it early.

    def record_failure(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._trip(now)
        elif self.state is BreakerState.CLOSED:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._trip(now)

    def force_open(self, now: float) -> None:
        """Trip immediately (external failure signal)."""
        self._trip(now)

    def _trip(self, now: float) -> None:
        self.state = BreakerState.OPEN
        self._opened_at = now
        self._consecutive_failures = 0
        self._probe_successes = 0


#: A breaker key: ("switch", id) or ("server", (switch, serial)).
BreakerKey = Tuple[str, Hashable]


class BreakerBoard:
    """All breakers of one deployment, with transition telemetry."""

    def __init__(self, failure_threshold: int = 5,
                 recovery_time: float = 1.0,
                 half_open_probes: int = 2) -> None:
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_probes = half_open_probes
        self._breakers: Dict[BreakerKey, CircuitBreaker] = {}
        #: Keys of the breakers not closed with a zero failure count,
        #: kept by :meth:`_note` so :meth:`quiet` and :meth:`any_tripped`
        #: (asked on every request or batch) do not scan the board.
        self._unsettled: Set[BreakerKey] = set()

    def get(self, key: BreakerKey) -> CircuitBreaker:
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.failure_threshold,
                recovery_time=self.recovery_time,
                half_open_probes=self.half_open_probes,
            )
            self._breakers[key] = breaker
        return breaker

    # ------------------------------------------------------------------
    # instrumented state access
    # ------------------------------------------------------------------
    def allow(self, key: BreakerKey, now: float) -> bool:
        breaker = self._breakers.get(key)
        if breaker is None:
            return True  # never seen -> closed
        before = breaker.state
        verdict = breaker.allow(now)
        self._note(key, breaker, before, now)
        return verdict

    def success(self, key: BreakerKey, now: float) -> None:
        breaker = self._breakers.get(key)
        if breaker is None:
            return  # nothing to repair
        before = breaker.state
        breaker.record_success(now)
        self._note(key, breaker, before, now)

    def failure(self, key: BreakerKey, now: float) -> None:
        breaker = self.get(key)
        before = breaker.state
        breaker.record_failure(now)
        self._note(key, breaker, before, now)

    def force_open(self, key: BreakerKey, now: float) -> None:
        breaker = self.get(key)
        before = breaker.state
        breaker.force_open(now)
        self._note(key, breaker, before, now)

    def absorb(self, fault_state, now: float) -> int:
        """Force-open breakers for every crashed switch/server in the
        fault-injection ground truth; returns how many were tripped."""
        tripped = 0
        if fault_state is None:
            return tripped
        for switch in sorted(fault_state.crashed_switches):
            key: BreakerKey = ("switch", switch)
            if self.get(key).state is not BreakerState.OPEN:
                self.force_open(key, now)
                tripped += 1
        for server in sorted(fault_state.crashed_servers):
            key = ("server", server)
            if self.get(key).state is not BreakerState.OPEN:
                self.force_open(key, now)
                tripped += 1
        return tripped

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def any_tripped(self) -> bool:
        """True when any breaker is not closed."""
        return bool(self.tripped())

    def quiet(self) -> bool:
        """True when every breaker is closed with no failure counted:
        every :meth:`allow` is then True and every :meth:`success` a
        no-op, skippable with their keys.  Ask before every use."""
        return not self._unsettled

    def tripped(self) -> List[BreakerKey]:
        """Keys of every non-closed breaker (deterministic order)."""
        return sorted((key for key in self._unsettled
                       if self._breakers[key].state
                       is not BreakerState.CLOSED), key=repr)

    def states(self) -> Dict[str, str]:
        """``"kind:id" -> state`` map for stats/JSON reporting."""
        out: Dict[str, str] = {}
        for key in sorted(self._breakers, key=repr):
            kind, ident = key
            out[f"{kind}:{ident}"] = self._breakers[key].state.value
        return out

    def reset(self) -> None:
        self._breakers.clear()
        self._unsettled.clear()

    # ------------------------------------------------------------------
    def _note(self, key: BreakerKey, breaker: CircuitBreaker,
              before: BreakerState, now: float) -> None:
        """Book ``key``'s breaker after any call; count a transition."""
        after = breaker.state
        if after is BreakerState.CLOSED and not breaker._consecutive_failures:
            self._unsettled.discard(key)
        else:
            self._unsettled.add(key)
        registry = default_registry()
        if before is after or not registry.enabled:
            return
        if after is BreakerState.OPEN:
            registry.counter("resilience.breaker_opens").inc()
        elif after is BreakerState.HALF_OPEN:
            registry.counter("resilience.breaker_half_opens").inc()
        elif after is BreakerState.CLOSED:
            registry.counter("resilience.breaker_closes").inc()
        kind, ident = key
        registry.event("breaker_transition", kind=kind,
                       resource=str(ident), before=before.value,
                       after=after.value, time=now)
