"""The resilient request pipeline: admission → deadline → breakers →
hedged probes → budget-bounded retries.

:class:`ResilientNetwork` wraps a :class:`~repro.core.GredNetwork` and
re-exposes ``place`` / ``retrieve`` / ``place_many`` / ``retrieve_many``
with request-level resilience:

1. **Admission** — each request passes the per-entry-switch
   :class:`~repro.resilience.admission.AdmissionController`; shed
   requests never touch the data plane.
2. **Deadline budget** — the admission queue wait, every probe's
   modeled service time and every retry backoff are charged against one
   :class:`~repro.resilience.deadline.DeadlineBudget` that starts at
   arrival.
3. **Circuit breakers** — destination switches and storage servers
   carry breakers on a :class:`~repro.resilience.breaker.BreakerBoard`
   fed by the PR 2 fault ground truth (``breakers.absorb``) and by
   consecutive request failures; replicas behind open breakers are
   skipped (routed around) while at least one candidate remains, and
   placement fails fast on them.  While the board is *quiet* a
   request that succeeds derives no breaker key (DESIGN.md §5f).
4. **Hedged retrieval** — with ``copies > 1``, when the deadline is at
   risk (or on any retry) the read is forked to the two nearest live
   replicas and the first success wins.

Latency is *virtual*: the pipeline charges
``per_hop_latency × hops + service_time`` per probe (plus
``failure_penalty`` for probes that die in routing) on the caller's
clock, so every run is deterministic and reports are bit-identical
under a fixed seed — there is no wall clock anywhere in the pipeline.

With ``config.enabled == False`` (the default) every call delegates
straight to the wrapped network and returns its result untouched inside
the :class:`ResilientOutcome` envelope: results are byte-identical to
calling the raw network, and no admission, breaker or metric state is
created.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.network import (GredError, check_batch_args, draw_entries,
                            entry_index)
from ..core.results import PlacementResult
from ..dataplane import ForwardingError
from ..hashing import replica_id, server_index
from ..obs import TIME_BUCKETS, default_registry
from ..obs.spans import Span, default_recorder as span_recorder
from .admission import AdmissionController
from .breaker import BreakerBoard, BreakerKey
from .config import ResilienceConfig
from .deadline import DeadlineBudget, RetryPolicy

#: Shed reason when the entry switch cannot take requests (crashed,
#: unknown or relay-only).
SHED_ENTRY_DOWN = "entry_down"
#: What :meth:`ResilientNetwork._quiet` enters when nothing records.
_UNTRACED = nullcontext()


@dataclass
class ResilientOutcome:
    """Envelope around one request's journey through the pipeline.

    ``result`` holds the wrapped network's ``PlacementResult`` /
    ``RetrievalResult`` when the request reached the data plane and
    succeeded (for placement: *all* copies acknowledged).  ``latency``
    is virtual seconds from arrival to completion — admission queue
    wait plus modeled probe service times plus retry backoffs.
    ``deadline_missed`` is True when that latency exceeds the
    request's budget (a late success still misses its SLO).
    """

    kind: str
    data_id: str
    admitted: bool = True
    shed_reason: Optional[str] = None
    ok: bool = False
    result: Any = None
    latency: float = 0.0
    queue_wait: float = 0.0
    attempts: int = 0
    retries: int = 0
    hedged: bool = False
    hedge_won: bool = False
    deadline_missed: bool = False
    records: List[Any] = field(default_factory=list)


def _placed(data_id: str, result, **timing) -> ResilientOutcome:
    """Envelope of a placement the wrapped network acknowledged."""
    return ResilientOutcome(kind="place", data_id=data_id, ok=True,
                            result=result, attempts=1, **timing)


def _retrieved(data_id: str, result, **timing) -> ResilientOutcome:
    """Envelope of a retrieval the wrapped network answered."""
    return ResilientOutcome(kind="retrieve", data_id=data_id,
                            ok=result.found, result=result,
                            attempts=result.attempts, **timing)


class ResilientNetwork:
    """Resilience pipeline over a :class:`~repro.core.GredNetwork`.

    Parameters
    ----------
    net:
        The wrapped network.  The pipeline registers itself as
        ``net._resilience`` so a snapshot can refuse to save while
        breakers are tripped.
    config:
        Pipeline policy; a default (disabled) config makes the wrapper
        a transparent passthrough.

    The pipeline keeps a monotonically advancing virtual clock.  Every
    request accepts an explicit arrival time ``now`` (open-loop
    harnesses pass their arrival process); when omitted, the internal
    clock is used and advanced by each request's latency (a closed-loop
    single client).
    """

    def __init__(self, net, config: Optional[ResilienceConfig] = None
                 ) -> None:
        self.net = net
        self.config = config or ResilienceConfig()
        cfg = self.config
        self.admission = AdmissionController(
            rate=cfg.rate_per_switch,
            burst=cfg.burst,
            queue_limit=cfg.queue_limit,
            max_priority=cfg.max_priority,
        )
        self.breakers = BreakerBoard(
            failure_threshold=cfg.breaker_failure_threshold,
            recovery_time=cfg.breaker_recovery_time,
            half_open_probes=cfg.breaker_half_open_probes,
        )
        self.retry_policy = RetryPolicy(
            base=cfg.backoff_base,
            multiplier=cfg.backoff_multiplier,
            jitter=cfg.backoff_jitter,
            max_attempts=cfg.max_attempts,
        )
        self._rng = np.random.default_rng(cfg.seed)
        self._clock = 0.0
        net._resilience = self

    def absorb_faults(self, now: Optional[float] = None) -> int:
        """Force-open breakers for the wrapped network's current fault
        ground truth (``net.fault_state``); returns breakers tripped."""
        return self.breakers.absorb(self.net.fault_state,
                                    self._time(now))

    # ------------------------------------------------------------------
    # scalar requests
    # ------------------------------------------------------------------
    def retrieve(self, data_id: str, entry_switch: Optional[int] = None,
                 copies: int = 1, priority: int = 1,
                 deadline: Optional[float] = None,
                 now: Optional[float] = None,
                 rng: Optional[np.random.Generator] = None,
                 max_hops: Optional[int] = None) -> ResilientOutcome:
        timeout = self._timeout(deadline)
        return self._request(
            "retrieve", data_id, entry_switch, priority, now, rng,
            lambda: _retrieved(data_id, self.net.retrieve(
                data_id, entry_switch=entry_switch, copies=copies,
                rng=rng, max_hops=max_hops,
                read_repair=self.config.read_repair)),
            lambda *admitted: self._retrieve_admitted(
                data_id, copies, timeout, max_hops, *admitted))

    def place(self, data_id: str, payload: Any = None,
              entry_switch: Optional[int] = None, copies: int = 1,
              priority: int = 1, deadline: Optional[float] = None,
              now: Optional[float] = None,
              rng: Optional[np.random.Generator] = None
              ) -> ResilientOutcome:
        timeout = self._timeout(deadline)
        return self._request(
            "place", data_id, entry_switch, priority, now, rng,
            lambda: _placed(data_id, self.net.place(
                data_id, payload=payload, entry_switch=entry_switch,
                copies=copies, rng=rng)),
            lambda *admitted: self._place_admitted(
                data_id, payload, copies, timeout, *admitted))

    def _request(self, kind: str, data_id: str,
                 entry_switch: Optional[int], priority: int,
                 now: Optional[float],
                 rng: Optional[np.random.Generator],
                 passthrough, serve) -> ResilientOutcome:
        """The one scalar request body.  Disabled: ``passthrough()``,
        the wrapped network's own call.  Enabled: admit (or shed) at
        the entry switch, then ``serve(entry, arrival, queue wait,
        recorder, root span)`` runs the kind's retry loop.  A
        non-integral entry raises before either, never sheds."""
        entry_switch = entry_index(entry_switch)
        if not self.config.enabled:
            return passthrough()
        arrival = self._time(now)
        recorder, root = self._open_root(kind, data_id, arrival)
        entry, wait, shed = self._admit(entry_switch, arrival, priority,
                                        rng)
        if shed is not None:
            outcome = self._shed_outcome(kind, data_id, shed)
        else:
            if root is not None:
                recorder.add_span(
                    "admission.queue", start=arrival,
                    end=arrival + wait, parent=root, entry=entry,
                    wait=wait)
            outcome = serve(entry, arrival, wait, recorder, root)
            self._finish([outcome], arrival)
        self._close_root(root, arrival, outcome)
        return outcome

    # ------------------------------------------------------------------
    # batch requests
    # ------------------------------------------------------------------
    def retrieve_many(self, data_ids: Sequence[str],
                      entry_switches: Optional[Sequence[int]] = None,
                      copies: int = 1,
                      priorities: Optional[Sequence[int]] = None,
                      deadline: Optional[float] = None,
                      now: Optional[float] = None,
                      rng: Optional[np.random.Generator] = None,
                      max_hops: Optional[int] = None
                      ) -> List[ResilientOutcome]:
        """Batch retrieval.  Disabled: one delegated ``retrieve_many``
        call, results untouched.  Enabled and healthy (no tripped
        breaker): one admission pass, then one delegated batch call
        for the admitted subset — single attempt, no hedging (the
        throughput path).  Enabled with tripped breakers: every item
        takes the full scalar resilient path.  The arguments, deadline
        too, are validated before any token is spent."""
        data_ids, entry_switches = check_batch_args(
            data_ids, copies, entry_switches)
        timeout = self._timeout(deadline)

        def many(picked, entries, rng=None):
            return self.net.retrieve_many(
                [data_ids[i] for i in picked], entry_switches=entries,
                copies=copies, rng=rng, max_hops=max_hops)

        def settle(i, result, start):
            service = self._retrieval_service_time(result)
            self._feed_breakers_retrieval(data_ids[i], result,
                                          start + service)
            return service

        return self._batch(
            "retrieve", data_ids, entry_switches, priorities, timeout,
            now, rng, many, _retrieved, settle,
            lambda i, *admitted: self._retrieve_admitted(
                data_ids[i], copies, timeout, max_hops, *admitted))

    def place_many(self, data_ids: Sequence[str],
                   payloads: Optional[Sequence[Any]] = None,
                   entry_switches: Optional[Sequence[int]] = None,
                   copies: int = 1,
                   priorities: Optional[Sequence[int]] = None,
                   deadline: Optional[float] = None,
                   now: Optional[float] = None,
                   rng: Optional[np.random.Generator] = None
                   ) -> List[ResilientOutcome]:
        """Batch placement; same structure as :meth:`retrieve_many`."""
        data_ids, entry_switches = check_batch_args(
            data_ids, copies, entry_switches, payloads)
        timeout = self._timeout(deadline)
        cfg = self.config

        def many(picked, entries, rng=None):
            return self.net.place_many(
                [data_ids[i] for i in picked],
                payloads=(None if payloads is None
                          else [payloads[i] for i in picked]),
                entry_switches=entries, copies=copies, rng=rng)

        def settle(i, result, start):
            service = sum(
                cfg.per_hop_latency * 2 * rec.physical_hops
                + cfg.service_time for rec in result.records)
            when = start + service
            for rec in () if self.breakers.quiet() else result.records:
                self.breakers.success(
                    ("switch", rec.destination_switch), when)
                self.breakers.success(("server", rec.server_id), when)
            return service

        return self._batch(
            "place", data_ids, entry_switches, priorities, timeout,
            now, rng, many, _placed, settle,
            lambda i, *admitted: self._place_admitted(
                data_ids[i], None if payloads is None else payloads[i],
                copies, timeout, *admitted))

    def _batch(self, kind: str, data_ids: List[str],
               entry_switches: Optional[Sequence[int]],
               priorities: Optional[Sequence[int]], timeout: float,
               now: Optional[float], rng: Optional[np.random.Generator],
               many, wrap, settle, admitted) -> List[ResilientOutcome]:
        """The one batch request body, over validated arguments.
        ``many(indices, entries, rng)`` is the wrapped network's batch
        call over a subset, ``wrap`` the kind's outcome envelope,
        ``settle(index, result, start)`` feeds the breakers and
        returns the modeled service time, and ``admitted(index, entry,
        arrival, queue wait[, recorder, root])`` is the kind's scalar
        retry loop — what every item takes while a breaker is
        tripped."""
        count = len(data_ids)
        if priorities is not None and len(priorities) != count:
            raise GredError(
                f"priorities has {len(priorities)} entries for "
                f"{count} data ids"
            )
        if not self.config.enabled:
            return [wrap(d, r) for d, r in zip(
                data_ids, many(range(count), entry_switches, rng))]
        if priorities is None:
            priorities = [1] * count
        if entry_switches is None:
            entry_switches = [None] * count
        if self.breakers.any_tripped():
            return [
                self._request(kind, data_ids[i], entry, priority, now,
                              rng, None, partial(admitted, i))
                for i, (entry, priority)
                in enumerate(zip(entry_switches, priorities))]
        arrival = self._time(now)
        entries = self._resolve_entries(entry_switches, rng)
        live = [i for i, entry in enumerate(entries) if entry is not None]
        verdicts = iter(self.admission.offer_many(
            [entries[i] for i in live], arrival,
            [priorities[i] for i in live]))
        outcomes: List[Optional[ResilientOutcome]] = [None] * count
        picked: List[int] = []
        waits: List[float] = []
        for i, entry in enumerate(entries):
            wait, shed, _ = ((0.0, SHED_ENTRY_DOWN, 0) if entry is None
                             else next(verdicts))
            if shed is not None:
                outcomes[i] = self._shed_outcome(kind, data_ids[i],
                                                 shed)
            else:
                picked.append(i)
                waits.append(wait)
        if not picked:
            return outcomes
        try:
            results = many(picked, [entries[i] for i in picked])
        except (GredError, ForwardingError):
            # A mid-batch failure means some node is sick: fall back
            # to the scalar resilient path per item so breakers and
            # retries engage.
            served = [admitted(i, entries[i], arrival, wait)
                      for i, wait in zip(picked, waits)]
        else:
            served = []
            for i, result, wait in zip(picked, results, waits):
                service = settle(i, result, arrival + wait)
                served.append(wrap(
                    data_ids[i], result, latency=wait + service,
                    queue_wait=wait,
                    deadline_missed=wait + service > timeout))
        for i, outcome in zip(picked, served):
            outcomes[i] = outcome
        self._finish(served, arrival)
        return outcomes

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """JSON-friendly pipeline state for ``gred stats``."""
        return {
            "enabled": self.config.enabled,
            "clock": self._clock,
            "breakers": self.breakers.states(),
            "tripped": [f"{kind}:{ident}" for kind, ident
                        in self.breakers.tripped()],
        }

    # ------------------------------------------------------------------
    # internals — tracing
    # ------------------------------------------------------------------
    @staticmethod
    def _open_root(kind: str, data_id: str, arrival: float):
        """Open the request's root span (virtual-time).  The pipeline
        narrates the whole journey itself, so nested network-level span
        sites are suppressed around every data-plane call (see
        :meth:`_quiet`) — otherwise each probe would start its own
        wall-clock trace and the timelines would not compose."""
        recorder = span_recorder()
        if recorder is None:
            return None, None
        root = recorder.record_trace(f"request.{kind}", key=data_id,
                                     start=arrival, kind=kind,
                                     pipeline="resilient")
        return recorder, root

    @staticmethod
    def _close_root(root: Optional[Span], arrival: float,
                    outcome: ResilientOutcome) -> None:
        if root is None:
            return
        root.end = arrival + outcome.latency
        root.attrs.update(
            admitted=outcome.admitted, ok=outcome.ok,
            attempts=outcome.attempts, retries=outcome.retries,
            hedged=outcome.hedged, hedge_won=outcome.hedge_won,
            queue_wait=outcome.queue_wait,
            deadline_missed=outcome.deadline_missed)
        if not outcome.admitted:
            root.status = "shed"
            root.attrs["shed_reason"] = outcome.shed_reason
        elif not outcome.ok:
            root.status = "error"

    @staticmethod
    def _quiet(recorder):
        """Context manager silencing network-level span sites for one
        wrapped data-plane call."""
        return _UNTRACED if recorder is None else recorder.suppress()

    # ------------------------------------------------------------------
    # internals — admission
    # ------------------------------------------------------------------
    def _time(self, now: Optional[float]) -> float:
        if now is None:
            return self._clock
        self._clock = max(self._clock, now)
        return now

    def _timeout(self, deadline: Optional[float]) -> float:
        """A request's deadline budget in seconds (``None``: the default);
        a non-positive or non-finite one raises ``ValueError``."""
        if deadline is None:
            return self.config.default_deadline
        if not 0.0 < deadline < math.inf:
            raise ValueError(f"deadline must be a positive, finite "
                             f"number of seconds, got {deadline!r}")
        return deadline

    def _admit(self, entry_switch: Optional[int], arrival: float,
               priority: int, rng: Optional[np.random.Generator]
               ) -> Tuple[Optional[int], float, Optional[str]]:
        """Resolve the entry switch and offer the request to admission
        control: ``(entry, queue wait, shed reason)``, the reason
        ``None`` for an admitted request."""
        try:
            entry = self.net._resolve_entry(entry_switch, rng)
        except GredError:
            return None, 0.0, SHED_ENTRY_DOWN
        verdict = self.admission.offer(entry, arrival, priority)
        return entry, verdict.queued_delay, verdict.shed_reason

    def _resolve_entries(self, entry_switches: Sequence[Optional[int]],
                         rng: Optional[np.random.Generator]
                         ) -> List[Optional[int]]:
        """:meth:`_admit`'s entry resolution for a batch (``None``: entry
        down), once per distinct entry; the ``None`` entries take one
        :func:`draw_entries`, consuming ``rng`` like a draw per item."""
        resolved: Dict[int, Optional[int]] = {}
        for entry in set(entry_switches) - {None}:
            try:
                resolved[entry] = self.net._resolve_entry(entry, rng)
            except GredError:
                resolved[entry] = None
        draws = entry_switches.count(None)
        try:
            drawn = iter(draw_entries(self.net._entry_pool(), draws, rng)
                         if draws else ())
        except GredError:  # no live switch to enter at
            drawn = iter([None] * draws)
        return [next(drawn) if entry is None else resolved[entry]
                for entry in entry_switches]

    def _shed_outcome(self, kind: str, data_id: str,
                      reason: str) -> ResilientOutcome:
        registry = default_registry()
        if registry.enabled:
            registry.counter("resilience.requests", kind=kind).inc()
            if reason == SHED_ENTRY_DOWN:  # admission counts the rest
                registry.counter("resilience.shed", reason=reason).inc()
        return ResilientOutcome(kind=kind, data_id=data_id,
                                admitted=False, shed_reason=reason,
                                ok=False)

    # ------------------------------------------------------------------
    # internals — retrieval
    # ------------------------------------------------------------------
    def _retry(self, outcome: ResilientOutcome, arrival: float,
               timeout: float, attempt, recorder,
               root: Optional[Span]) -> ResilientOutcome:
        """The retry loop of one admitted request: run ``attempt(clock,
        budget, tries) -> (clock, done)`` until it is done, the
        deadline budget is spent or the retry policy gives up, backing
        off in between; then stamp ``outcome`` with the result."""
        budget = DeadlineBudget(arrival, timeout)
        registry = default_registry()
        clock = arrival + outcome.queue_wait
        tries = 0
        while True:
            tries += 1
            clock, outcome.ok = attempt(clock, budget, tries)
            if outcome.ok:
                break
            delay = self.retry_policy.next_delay(
                tries, budget.remaining(clock), self._rng)
            if delay is None or budget.expired(clock):
                break
            if root is not None:
                recorder.add_span("retry.backoff", start=clock,
                                  end=clock + delay, parent=root,
                                  attempt=tries, delay=delay)
            clock += delay
            outcome.retries += 1
            if registry.enabled:
                registry.counter("resilience.retries").inc()
        outcome.latency = clock - arrival
        outcome.deadline_missed = outcome.latency > budget.timeout
        return outcome

    def _retrieve_admitted(self, data_id: str, copies: int,
                           timeout: float,
                           max_hops: Optional[int], entry: int,
                           arrival: float, queue_wait: float,
                           recorder=None, root: Optional[Span] = None
                           ) -> ResilientOutcome:
        outcome = ResilientOutcome(kind="retrieve", data_id=data_id,
                                   queue_wait=queue_wait)

        def attempt(clock, budget, tries):
            clock, result = self._attempt_retrieve(
                data_id, entry, copies, clock, budget, max_hops,
                retrying=tries > 1, outcome=outcome,
                recorder=recorder, root=root)
            if result is not None:
                outcome.result = result  # the hit, or the latest miss
            return clock, result is not None and result.found

        return self._retry(outcome, arrival, timeout, attempt,
                           recorder, root)

    def _attempt_retrieve(self, data_id: str, entry: int, copies: int,
                          clock: float, budget: DeadlineBudget,
                          max_hops: Optional[int], retrying: bool,
                          outcome: ResilientOutcome, recorder=None,
                          root: Optional[Span] = None):
        """One failover walk over the (breaker-filtered) replica order.
        Returns ``(clock, best_result_or_None)``; ``outcome`` collects
        attempt/hedge accounting."""
        cfg = self.config
        registry = default_registry()
        order = self.net.replica_order(data_id, copies, entry)
        open_order = order if self.breakers.quiet() else [
            i for i in order if self._replica_allowed(data_id, i, clock)]
        if open_order and len(open_order) < len(order) \
                and root is not None:
            recorder.add_span(
                "breaker.route_around", start=clock, end=clock,
                parent=root,
                skipped=[i for i in order if i not in open_order])
        if not open_order:
            # Every replica sits behind an open breaker.  Correctness
            # beats fail-fast: probe the original order anyway (the
            # breakers may be wrong, e.g. opened by misses on a
            # never-placed item).
            open_order = order
            if registry.enabled:
                registry.counter("resilience.breaker_overrides").inc()
            if root is not None:
                recorder.add_span("breaker.override", start=clock,
                                  end=clock, parent=root)
        walk = list(open_order)
        miss_result = None
        # Hedge: fork the read to the two nearest live replicas when
        # the deadline is at risk or this is already a retry.
        hedge = (cfg.hedge_enabled and len(walk) > 1
                 and (retrying or budget.remaining(clock)
                      <= cfg.hedge_fraction * budget.timeout))
        if hedge:
            outcome.hedged = True
            if registry.enabled:
                registry.counter("resilience.hedges").inc()
            first, second = walk[0], walk[1]
            outcome.attempts += 2
            r1, l1 = self._probe_retrieve(data_id, first, entry,
                                          outcome.attempts - 1,
                                          max_hops, clock,
                                          recorder=recorder, root=root,
                                          hedged=True)
            r2, l2 = self._probe_retrieve(data_id, second, entry,
                                          outcome.attempts, max_hops,
                                          clock, recorder=recorder,
                                          root=root, hedged=True)
            hits = [(l, r) for l, r in ((l1, r1), (l2, r2))
                    if r is not None and r.found]
            if hits:
                lat, best = min(hits, key=lambda pair: pair[0])
                if best is r2:
                    outcome.hedge_won = True
                    if registry.enabled:
                        registry.counter("resilience.hedge_wins").inc()
                if root is not None:
                    recorder.add_span(
                        "retrieve.hedge", start=clock, end=clock + lat,
                        parent=root, won=best is r2, forks=2)
                self._maybe_read_repair(data_id, copies, recorder)
                return clock + lat, best
            # Both forks failed; the client waited for the slower one.
            if root is not None:
                recorder.add_span(
                    "retrieve.hedge", start=clock,
                    end=clock + max(l1, l2), parent=root,
                    status="error", won=False, forks=2)
            clock += max(l1, l2)
            for r in (r1, r2):
                if r is not None:
                    miss_result = r
            walk = walk[2:]
        for copy_index in walk:
            if budget.expired(clock):
                break
            outcome.attempts += 1
            result, latency = self._probe_retrieve(
                data_id, copy_index, entry, outcome.attempts, max_hops,
                clock, recorder=recorder, root=root)
            clock += latency
            if result is not None and result.found:
                self._maybe_read_repair(data_id, copies, recorder)
                return clock, result
            if result is not None:
                miss_result = result
        return clock, miss_result

    def _maybe_read_repair(self, data_id: str, copies: int,
                           recorder) -> None:
        """Opt-in read-path anti-entropy: after a successful read,
        synchronize the item's replicas to the newest stamp observed
        among them.  A background write-back — it charges no latency
        and records no request spans."""
        if self.config.read_repair and copies > 1:
            with self._quiet(recorder):
                self.net.read_repair(data_id, copies)

    def _probe_retrieve(self, data_id: str, copy_index: int,
                        entry: int, attempt_no: int,
                        max_hops: Optional[int], now: float,
                        recorder=None, root: Optional[Span] = None,
                        hedged: bool = False):
        """Probe one replica; returns ``(result_or_None, latency)``
        and feeds the breakers."""
        with self._quiet(recorder):
            result = self.net.probe_replica(data_id, copy_index, entry,
                                            max_hops=max_hops,
                                            attempts=attempt_no)
        if result is None:
            latency, status = self.config.failure_penalty, "route_error"
        else:
            latency = self._retrieval_service_time(result)
            status = "ok" if result.found else "miss"
        if status == "ok" and root is None and self.breakers.quiet():
            return result, latency  # both success feeds are no-ops
        dest, switch_key, server_key = self._breaker_keys(
            replica_id(data_id, copy_index))
        if result is None:
            # The route itself failed: the destination's neighborhood
            # is sick.
            self.breakers.failure(switch_key, now)
        elif result.found:
            self.breakers.success(switch_key, now + latency)
            self.breakers.success(server_key, now + latency)
        else:
            # Routed but the copy is gone (crashed/lost server data).
            self.breakers.failure(server_key, now + latency)
        self._probe_span(recorder, root, now, latency, copy_index,
                         attempt_no, dest, hedged, status, result)
        return result, latency

    @staticmethod
    def _probe_span(recorder, root: Optional[Span], start: float,
                    latency: float, copy_index: int, attempt_no: int,
                    dest: int, hedged: bool, status: str,
                    result) -> None:
        """One ``retrieve.probe`` span under the request root, with a
        ``hop.transit`` child per switch the probe's route visited
        (laid out proportionally inside the probe's virtual window)."""
        if root is None:
            return
        attrs = {"copy": copy_index, "attempt": attempt_no,
                 "destination": dest}
        if hedged:
            attrs["hedged"] = True
        probe = recorder.add_span(
            "retrieve.probe", start=start, end=start + latency,
            parent=root, status=status, **attrs)
        if probe is None or result is None or not result.trace:
            return
        step = latency / max(1, len(result.trace))
        for k, sid in enumerate(result.trace):
            recorder.add_span(
                "hop.transit", start=start + k * step,
                end=start + (k + 1) * step, parent=probe, switch=sid)

    def _replica_allowed(self, data_id: str, copy_index: int,
                         now: float) -> bool:
        _, switch_key, server_key = self._breaker_keys(
            replica_id(data_id, copy_index))
        return (self.breakers.allow(switch_key, now)
                and self.breakers.allow(server_key, now))

    def _breaker_keys(self, copy_id: str, dest: Optional[int] = None
                      ) -> Tuple[int, BreakerKey, BreakerKey]:
        """``(destination, switch key, server key)`` of one replica: an
        owner lookup (unless ``dest`` is known) and a hash."""
        if dest is None:
            dest = self.net.destination_switch(copy_id)
        count = len(self.net.server_map.get(dest, ()))
        serial = server_index(copy_id, count) if count else 0
        return dest, ("switch", dest), ("server", (dest, serial))

    def _retrieval_service_time(self, result) -> float:
        cfg = self.config
        if result.found:
            return (cfg.per_hop_latency * result.round_trip_hops
                    + cfg.service_time)
        return (cfg.per_hop_latency * 2 * result.request_hops
                + cfg.service_time)

    def _feed_breakers_retrieval(self, data_id: str, result,
                                 now: float) -> None:
        if not result.found:
            self.breakers.failure(self._breaker_keys(
                replica_id(data_id, result.copy_used),
                result.destination_switch)[2], now)
        elif not self.breakers.quiet():  # else both feeds are no-ops
            self.breakers.success(("switch", result.destination_switch),
                                  now)
            self.breakers.success(("server", result.server_id), now)

    # ------------------------------------------------------------------
    # internals — placement
    # ------------------------------------------------------------------
    def _place_admitted(self, data_id: str, payload: Any, copies: int,
                        timeout: float, entry: int,
                        arrival: float, queue_wait: float,
                        recorder=None, root: Optional[Span] = None
                        ) -> ResilientOutcome:
        cfg = self.config
        registry = default_registry()
        outcome = ResilientOutcome(kind="place", data_id=data_id,
                                   queue_wait=queue_wait)
        placed: Dict[int, Any] = {}
        # One stamp per logical operation, shared by every copy and
        # every retry (``GredNetwork.place`` semantics).
        stamp = self.net._op_stamp(entry)

        def attempt(clock, budget, tries):
            for copy_index in range(copies):
                if copy_index in placed:
                    continue
                if budget.expired(clock):
                    break
                copy_id = replica_id(data_id, copy_index)
                # Nothing feeds the board before this copy lands, so a
                # board quiet now allows it and ignores its success.
                keys = (self._breaker_keys(copy_id)
                        if root is not None or not self.breakers.quiet()
                        else None)
                if keys is not None and not (
                        self.breakers.allow(keys[1], clock)
                        and self.breakers.allow(keys[2], clock)):
                    # Fail fast on an open breaker: no data-plane
                    # traffic, no latency burned; the retry loop comes
                    # back after backoff (by when the breaker may
                    # admit a probe).
                    if registry.enabled:
                        registry.counter(
                            "resilience.breaker_fast_fails").inc()
                    if root is not None:
                        recorder.add_span(
                            "breaker.fast_fail", start=clock,
                            end=clock, parent=root, copy=copy_index,
                            destination=keys[0])
                    continue
                outcome.attempts += 1
                try:
                    with self._quiet(recorder):
                        record = self.net._place_one(
                            copy_id, payload, entry, stamp)
                except (GredError, ForwardingError):
                    dest, _, server_key = (keys
                                           or self._breaker_keys(copy_id))
                    if root is not None:
                        recorder.add_span(
                            "place.copy", start=clock,
                            end=clock + cfg.failure_penalty,
                            parent=root, status="route_error",
                            copy=copy_index, destination=dest,
                            attempt=outcome.attempts)
                    clock += cfg.failure_penalty
                    self.breakers.failure(server_key, clock)
                    continue
                latency = (cfg.per_hop_latency * 2
                           * record.physical_hops + cfg.service_time)
                if root is not None:
                    recorder.add_span(
                        "place.copy", start=clock,
                        end=clock + latency, parent=root,
                        copy=copy_index, destination=keys[0],
                        server=record.server_id,
                        physical_hops=record.physical_hops,
                        attempt=outcome.attempts)
                clock += latency
                if keys is not None:
                    self.breakers.success(keys[1], clock)
                    self.breakers.success(("server", record.server_id),
                                          clock)
                placed[copy_index] = record
            return clock, len(placed) == copies

        self._retry(outcome, arrival, timeout, attempt, recorder, root)
        outcome.records = [placed[i] for i in sorted(placed)]
        if outcome.ok:
            outcome.result = PlacementResult(
                data_id=data_id,
                records=[placed[i] for i in range(copies)])
        return outcome

    # ------------------------------------------------------------------
    # internals — completion accounting
    # ------------------------------------------------------------------
    def _finish(self, outcomes: Sequence[ResilientOutcome],
                arrival: float) -> None:
        """Count requests admitted at ``arrival``; advance the clock."""
        registry = default_registry()
        if registry.enabled:
            for outcome in outcomes:
                registry.counter("resilience.requests",
                                 kind=outcome.kind).inc()
                if not outcome.ok:
                    registry.counter("resilience.failures",
                                     kind=outcome.kind).inc()
                if outcome.deadline_missed:
                    registry.counter("resilience.deadline_misses").inc()
                registry.histogram("resilience.latency_seconds",
                                   buckets=TIME_BUCKETS).observe(
                    outcome.latency)
        self._clock = max(self._clock, arrival + max(
            outcome.latency for outcome in outcomes))
