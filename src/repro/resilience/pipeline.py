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
   deadline, ``arrival + timeout``, checked before every probe and
   every backoff.
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

Latency is *virtual*: the pipeline charges each probe through
``config.latency`` (:class:`repro.simulation.LatencyModel`, one probe
or a batch's columns: the per-hop delay of its request and response
paths, the server's service time, and the extra delay of every slow
link of the wrapped network's fault state on those paths), plus
``failure_penalty`` for probes that die in routing, on the caller's
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
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.network import (GredError, check_batch_args, draw_entries,
                            entry_index)
from ..core.results import PlacementResult, compared_as_read
from ..dataplane import ForwardingError
from ..graph import bfs_path
from ..hashing import replica_id, server_index
from ..obs import TIME_BUCKETS, default_registry
from ..obs.spans import Span, default_recorder as span_recorder
from ..simulation.latency import slow_excess
from .admission import AdmissionController
from .breaker import BreakerBoard, BreakerKey
from .config import ResilienceConfig
from .deadline import RetryPolicy

#: Shed reason when the entry switch cannot take requests (crashed,
#: unknown or relay-only).
SHED_ENTRY_DOWN = "entry_down"


@compared_as_read
@dataclass(slots=True, eq=False, repr=False)
class ResilientOutcome:
    """Envelope around one request's journey through the pipeline.

    ``result`` holds the wrapped network's ``PlacementResult`` /
    ``RetrievalResult`` when the request reached the data plane and
    succeeded (for placement: *all* copies acknowledged).  ``latency``
    is virtual seconds from arrival to completion — admission queue
    wait plus modeled probe service times plus retry backoffs.
    ``deadline_missed`` is True when that latency exceeds the
    request's budget (a late success still misses its SLO).
    ``records`` lists the copies a placement stored: the list the
    pipeline gave it (a scalar placement), else an acknowledged
    placement's ``result.records``, else ``[]`` — an outcome holds
    no list of its own otherwise.
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
    _records: Optional[List[Any]] = None

    @property
    def records(self) -> List[Any]:
        if self._records is not None:
            return self._records
        if self.kind == "place" and self.result is not None:
            return self.result.records
        return []

    @records.setter
    def records(self, value: List[Any]) -> None:
        self._records = value


def _passed(kind: str, data_id: str, result) -> ResilientOutcome:
    """Envelope of a request the wrapped network served on its own: a
    placement it acknowledged or a retrieval it answered."""
    if kind == "place":
        return ResilientOutcome(kind, data_id, True, None, True, result,
                                0.0, 0.0, 1)
    return ResilientOutcome(kind, data_id, True, None, result.found,
                            result, 0.0, 0.0, result.attempts)


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
        #: ``(controller, version, {(holder, entry): reply path})``
        #: (see :meth:`_reply`).
        self._replies: Tuple[Any, int, Dict] = (None, -1, {})
        net._resilience = self

    def absorb_faults(self, now: Optional[float] = None) -> int:
        """Force-open breakers for the wrapped network's current fault
        ground truth (``net.fault_state``); returns breakers tripped."""
        self._check_now(now)
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
        self._check_now(now)
        return self._request(
            "retrieve", data_id, entry_switch, priority, now, rng,
            lambda: self.net.retrieve(
                data_id, entry_switch=entry_switch, copies=copies,
                rng=rng, max_hops=max_hops,
                read_repair=self.config.read_repair),
            lambda *admitted: self._retrieve_admitted(
                data_id, copies, timeout, max_hops, *admitted))

    def place(self, data_id: str, payload: Any = None,
              entry_switch: Optional[int] = None, copies: int = 1,
              priority: int = 1, deadline: Optional[float] = None,
              now: Optional[float] = None,
              rng: Optional[np.random.Generator] = None
              ) -> ResilientOutcome:
        timeout = self._timeout(deadline)
        self._check_now(now)
        return self._request(
            "place", data_id, entry_switch, priority, now, rng,
            lambda: self.net.place(
                data_id, payload=payload, entry_switch=entry_switch,
                copies=copies, rng=rng),
            lambda *admitted: self._place_admitted(
                data_id, payload, copies, timeout, *admitted))

    def _request(self, kind: str, data_id: str,
                 entry_switch: Optional[int], priority: int,
                 now: Optional[float],
                 rng: Optional[np.random.Generator],
                 passthrough, serve) -> ResilientOutcome:
        """The one scalar request body.  Disabled: the envelope of
        ``passthrough()``, the wrapped network's own call.  Enabled:
        admit (or shed) at the entry switch — a batch of one through
        ``offer_many`` — then ``serve(entry, arrival, queue wait,
        recorder, root span)`` runs the kind's retry loop.  A
        non-integral entry raises before either, never sheds."""
        entry_switch = entry_index(entry_switch)
        if not self.config.enabled:
            return _passed(kind, data_id, passthrough())
        arrival = self._time(now)
        recorder = span_recorder()
        # The root span is in virtual time and the pipeline narrates the
        # journey under it, so the wrapped calls record no span (a probe
        # is handed no recorder, the rest run suppressed): each would
        # start its own wall-clock trace, and timelines would not compose.
        root = None if recorder is None else recorder.record_trace(
            f"request.{kind}", key=data_id, start=arrival, kind=kind,
            pipeline="resilient")
        try:
            entry = self.net._resolve_entry(entry_switch, rng)
        except GredError:
            shed = SHED_ENTRY_DOWN
        else:
            [(wait, shed, _)] = self.admission.offer_many(
                (entry,), arrival, (priority,))
        if shed is not None:
            outcome = self._shed_outcome(kind, data_id, shed)
        else:
            if root is not None:
                recorder.add_span(
                    "admission.queue", start=arrival,
                    end=arrival + wait, parent=root, entry=entry,
                    wait=wait)
            outcome = serve(entry, arrival, wait, recorder, root)
            self._finish((outcome,), arrival, outcome.latency)
        if root is not None:
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
        breaker): one admission loop, one delegated batch call for the
        admitted subset — single attempt, no hedging — and one settle
        pass that charges the batch in columns, bit for bit what each
        probe would be charged.  With a tripped breaker every item
        takes the full scalar resilient path.  The arguments, deadline
        and ``now`` too, are validated before any token is spent."""
        data_ids, entry_switches = check_batch_args(
            data_ids, copies, entry_switches)
        timeout = self._timeout(deadline)
        self._check_now(now)
        return self._batch(
            "retrieve", data_ids, None, entry_switches, priorities,
            timeout, now, rng,
            lambda ids, _, entries, rng=None: self.net.retrieve_many(
                ids, entry_switches=entries, copies=copies, rng=rng,
                max_hops=max_hops),
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
        self._check_now(now)
        return self._batch(
            "place", data_ids, payloads, entry_switches, priorities,
            timeout, now, rng,
            lambda ids, column, entries, rng=None: self.net.place_many(
                ids, payloads=column, entry_switches=entries,
                copies=copies, rng=rng),
            lambda i, *admitted: self._place_admitted(
                data_ids[i], None if payloads is None else payloads[i],
                copies, timeout, *admitted))

    def _batch(self, kind: str, data_ids: List[str],
               payloads: Optional[Sequence[Any]],
               entry_switches: Optional[Sequence[int]],
               priorities: Optional[Sequence[int]], timeout: float,
               now: Optional[float], rng: Optional[np.random.Generator],
               many, admitted) -> List[ResilientOutcome]:
        """The one batch request body, over validated arguments.
        ``many(ids, payloads, entries, rng)`` is the wrapped network's
        batch call — handed the caller's own columns when every
        request is admitted — and ``admitted(index, entry, arrival,
        queue wait[, recorder, root])`` is the kind's scalar retry
        loop, what every item takes while a breaker is tripped."""
        count = len(data_ids)
        if priorities is not None and len(priorities) != count:
            raise GredError(f"priorities has {len(priorities)} entries "
                            f"for {count} data ids")
        if not self.config.enabled:
            return [_passed(kind, d, r) for d, r in zip(
                data_ids, many(data_ids, payloads, entry_switches, rng))]
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
        decided = iter(self.admission.offer_many(
            [entries[i] for i in live], arrival,
            [priorities[i] for i in live]))
        verdicts = [(0.0, SHED_ENTRY_DOWN, 0) if entry is None
                    else next(decided) for entry in entries]
        waits = [wait for wait, shed, _ in verdicts if shed is None]
        picked, ids, column, chosen = range(count), data_ids, payloads, entries
        if len(waits) < count or not waits:  # a shed, or no request
            outcomes = [None if shed is None
                        else self._shed_outcome(kind, data_id, shed)
                        for data_id, (_, shed, _)
                        in zip(data_ids, verdicts)]
            if not waits:
                return outcomes
            picked = [i for i, outcome in enumerate(outcomes)
                      if outcome is None]
            ids = [data_ids[i] for i in picked]
            column = None if payloads is None else [payloads[i]
                                                    for i in picked]
            chosen = [entries[i] for i in picked]
        try:
            results = many(ids, column, chosen)
        except (GredError, ForwardingError):
            # A mid-batch failure means some node is sick: fall back
            # to the scalar resilient path per item so breakers and
            # retries engage.
            served = [admitted(i, entries[i], arrival, wait)
                      for i, wait in zip(picked, waits)]
            latencies = [outcome.latency for outcome in served]
        else:
            served, latencies = self._settle(kind, ids, results, waits,
                                             arrival, timeout)
        self._finish(served, arrival, max(latencies))
        if len(served) == count:  # every request admitted
            return served
        for i, outcome in zip(picked, served):
            outcomes[i] = outcome
        return outcomes

    def _settle(self, kind: str, ids: List[str], results, waits,
                arrival: float, timeout: float):
        """The settle pass of a served batch, in columns (DESIGN.md
        §5f): each request's legs charged and summed, its breaker feeds
        and its envelope.  Returns the outcomes and their latencies."""
        model, slowed, count = self.config.latency, self._slowed(), len(ids)
        if kind == "place":
            # Every leg, result-major: a one-copy result's record is
            # read without a list per result.
            legs = ([result.primary for result in results]
                    if results[0].num_copies == 1 else
                    [leg for result in results for leg in result.records])
            copies = len(legs) // count
            out = back = np.array([leg.physical_hops for leg in legs]
                                  ).reshape(count, copies)
            found, tries = (True,) * count, (1,) * count
        else:
            found, out, back, tries = zip(*[
                (r.found, r.request_hops, r.response_hops, r.attempts)
                for r in results])
            out = np.array(out)[:, None]
            back = np.where(np.array(found), back, out[:, 0])[:, None]
            legs, copies = results, 1
        service = 0
        for k in range(copies):
            delay = model.nominal(out[:, k], back[:, k])
            if slowed is not None:
                delay = delay + np.array([
                    slow_excess(slowed, leg.trace,
                                *self._return(leg, slowed))
                    for leg in legs[k::copies]]) * model.link_delay
            service = service + delay
        latency = np.asarray(waits) + service
        missed, latency = (latency > timeout).tolist(), latency.tolist()
        service, board = service.tolist(), self.breakers
        first = found.index(False) if False in found else count
        for i in range(first if board.quiet() else 0, count):
            result, at = results[i], arrival + waits[i] + service[i]
            if not found[i]:
                board.failure(self._breaker_keys(
                    replica_id(ids[i], result.copy_used),
                    result.destination_switch)[2], at)
            elif not board.quiet():
                for leg in legs[i * copies:(i + 1) * copies]:
                    self._succeeded(leg.destination_switch, leg.server_id,
                                    at)
        return list(map(  # one column per ResilientOutcome field
            ResilientOutcome, repeat(kind), ids, repeat(True), repeat(None),
            found, results, latency, waits, tries, repeat(0), repeat(False),
            repeat(False), missed)), latency

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

    # ------------------------------------------------------------------
    # internals — admission
    # ------------------------------------------------------------------
    def _time(self, now: Optional[float]) -> float:
        if now is None:
            return self._clock
        self._clock = max(self._clock, now)
        return now

    @staticmethod
    def _check_now(now: Optional[float]) -> None:
        """Refuse a non-finite arrival time (``None``: the pipeline's
        clock) before it spends a token or moves the clock."""
        if now is not None and not -math.inf < now < math.inf:
            raise ValueError(f"now must be None or a finite number of "
                             f"seconds, got {now!r}")

    def _timeout(self, deadline: Optional[float]) -> float:
        """A request's deadline budget in seconds (``None``: the default);
        a non-positive or non-finite one raises ``ValueError``."""
        if deadline is None:
            return self.config.default_deadline
        if not 0.0 < deadline < math.inf:
            raise ValueError(f"deadline must be a positive, finite "
                             f"number of seconds, got {deadline!r}")
        return deadline

    def _resolve_entries(self, entry_switches: Sequence[Optional[int]],
                         rng: Optional[np.random.Generator]
                         ) -> List[Optional[int]]:
        """:meth:`_request`'s entry resolution for a batch (``None``:
        entry down), once per distinct entry; the ``None`` entries take
        one :func:`draw_entries`, consuming ``rng`` like a draw per
        item."""
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
        return ResilientOutcome(kind, data_id, False, reason)

    # ------------------------------------------------------------------
    # internals — retrieval
    # ------------------------------------------------------------------
    def _retry(self, outcome: ResilientOutcome, arrival: float,
               timeout: float, recorder, root: Optional[Span], attempt,
               *args) -> ResilientOutcome:
        """The one retry loop of an admitted request: ``attempt(clock,
        deadline, tries, outcome, recorder, root, *args) -> clock`` runs
        until it sets ``outcome.ok``, the deadline passes or the retry
        policy gives up (one ``rng`` draw per pause it computes), with
        a backoff pause in between.  The first attempt runs straight:
        the budget is the float ``deadline``, and the clock adds the
        queue wait, each probe and each pause to ``arrival`` in that
        order, so ``latency = clock - arrival`` keeps its bits."""
        deadline = arrival + timeout
        clock = arrival + outcome.queue_wait
        tries = 1
        while True:
            clock = attempt(clock, deadline, tries, outcome, recorder, root,
                            *args)
            if outcome.ok:
                break
            delay = self.retry_policy.next_delay(
                tries, max(0.0, deadline - clock), self._rng)
            if delay is None or clock >= deadline:
                break
            if root is not None:
                recorder.add_span("retry.backoff", start=clock,
                                  end=clock + delay, parent=root,
                                  attempt=tries, delay=delay)
            clock += delay
            tries += 1
            outcome.retries += 1
            registry = default_registry()
            if registry.enabled:
                registry.counter("resilience.retries").inc()
        outcome.latency = clock - arrival
        outcome.deadline_missed = outcome.latency > timeout
        return outcome

    def _retrieve_admitted(self, data_id: str, copies: int,
                           timeout: float,
                           max_hops: Optional[int], entry: int,
                           arrival: float, queue_wait: float,
                           recorder=None, root: Optional[Span] = None
                           ) -> ResilientOutcome:
        return self._retry(
            ResilientOutcome("retrieve", data_id, True, None, False, None,
                             0.0, queue_wait), arrival, timeout, recorder,
            root, self._attempt_retrieve, data_id, entry, copies,
            timeout, max_hops,
            None if copies == 1 else self.net._replica_keys(data_id, copies))

    def _attempt_retrieve(self, clock: float, deadline: float,
                          tries: int, outcome: ResilientOutcome,
                          recorder, root: Optional[Span], data_id: str,
                          entry: int, copies: int, timeout: float,
                          max_hops: Optional[int], keys) -> float:
        """One failover walk over the (breaker-filtered) replica order,
        ranked and routed on the request's replica ``keys`` (one
        SHA-256 per copy, taken once per request): ``outcome`` takes
        the hit (``ok``) or the latest miss, and the attempt/hedge
        accounting.  One copy on a quiet board has one replica to
        walk: nothing to rank, filter or hedge."""
        cfg = self.config
        walk = order = ((0,) if copies == 1 else
                        self.net._walk_order(data_id, copies, entry, keys))
        if not self.breakers.quiet():
            walk = [i for i in order
                    if self._replica_allowed(data_id, i, clock)]
            if not walk:
                # Every replica sits behind an open breaker.
                # Correctness beats fail-fast: probe the original order
                # anyway (the breakers may be wrong, e.g. opened by
                # misses on a never-placed item).
                walk = order
                registry = default_registry()
                if registry.enabled:
                    registry.counter("resilience.breaker_overrides").inc()
                if root is not None:
                    recorder.add_span("breaker.override", start=clock,
                                      end=clock, parent=root)
            elif len(walk) < len(order) and root is not None:
                recorder.add_span(
                    "breaker.route_around", start=clock, end=clock,
                    parent=root,
                    skipped=[i for i in order if i not in walk])
        miss_result = None
        # Hedge: fork the read to the two nearest live replicas when
        # the deadline is at risk or this is already a retry.
        if len(walk) > 1 and cfg.hedge_enabled and (
                tries > 1 or max(0.0, deadline - clock)
                <= cfg.hedge_fraction * timeout):
            outcome.hedged = True
            registry = default_registry()
            if registry.enabled:
                registry.counter("resilience.hedges").inc()
            outcome.attempts += 2
            (r1, l1), (r2, l2) = [
                self._probe_retrieve(data_id, copy_index, entry,
                                     outcome.attempts - 1 + fork, max_hops,
                                     clock, keys, recorder, root, True)
                for fork, copy_index in enumerate(walk[:2])]
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
                outcome.result, outcome.ok = best, True
                return clock + lat
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
            if clock >= deadline:
                break
            outcome.attempts += 1
            result, latency = self._probe_retrieve(
                data_id, copy_index, entry, outcome.attempts, max_hops,
                clock, keys, recorder, root)
            clock += latency
            if result is not None and result.found:
                self._maybe_read_repair(data_id, copies, recorder)
                outcome.result, outcome.ok = result, True
                return clock
            if result is not None:
                miss_result = result
        if miss_result is not None:
            outcome.result = miss_result
        return clock

    def _maybe_read_repair(self, data_id: str, copies: int,
                           recorder) -> None:
        """Opt-in read-path anti-entropy: after a successful read,
        synchronize the item's replicas to the newest stamp observed
        among them.  A background write-back — it charges no latency
        and records no request spans."""
        if not self.config.read_repair or copies == 1:
            return
        if recorder is None:
            self.net.read_repair(data_id, copies)
        else:
            with recorder.suppress():
                self.net.read_repair(data_id, copies)

    def _probe_retrieve(self, data_id: str, copy_index: int,
                        entry: int, attempt_no: int,
                        max_hops: Optional[int], now: float, keys=None,
                        recorder=None, root: Optional[Span] = None,
                        hedged: bool = False):
        """Probe one replica (routed on ``keys[copy_index]`` when the
        request hashed its replicas); returns ``(result_or_None,
        latency)`` and feeds the breakers.  The probe is handed no
        recorder, so it records no span of its own: the pipeline
        narrates it."""
        result = self.net._probe(data_id, copy_index, entry, max_hops,
                                 attempt_no, keys and keys[copy_index])
        if result is None:
            latency, status = self.config.failure_penalty, "route_error"
        else:
            slowed = self._slowed()
            retraced, reply = self._return(result, slowed)
            latency = self.config.latency.round_trip(
                result.trace, result.request_hops,
                None if retraced else result.response_hops, slowed, reply)
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

    def _slowed(self):
        """The wrapped network's fault state if it slows a link (what
        the latency model reads), else ``None``."""
        faults = self.net.fault_state
        return faults if faults is not None and faults.slow else None

    def _return(self, leg, slowed) -> Tuple[bool, Optional[List[int]]]:
        """``(retraced, reply)`` of one leg: a stored copy's ack and a
        miss retrace the request; a hit answers along the shortest path
        home, searched only while a link is slow."""
        if not getattr(leg, "found", False):  # a PlacementRecord has none
            return True, None
        return False, None if slowed is None else self._reply(
            leg.server_id[0], leg.entry_switch)

    def _reply(self, holder: int, entry: int) -> List[int]:
        """The shortest path from ``holder`` to ``entry``, cached per
        pair for as long as the wrapped network's controller (object
        and ``version``) stands: any topology change bumps the version
        and drops every reply."""
        controller = self.net.controller
        owner, version, replies = self._replies
        if owner is not controller or version != controller.version:
            replies = {}
            self._replies = (controller, controller.version, replies)
        path = replies.get((holder, entry))
        if path is None:
            path = replies[holder, entry] = bfs_path(
                self.net.topology, holder, entry)
        return path

    def _succeeded(self, switch: int, server, now: float) -> None:
        """Feed one success to a switch's and a server's breakers."""
        self.breakers.success(("switch", switch), now)
        self.breakers.success(("server", server), now)

    # ------------------------------------------------------------------
    # internals — placement
    # ------------------------------------------------------------------
    def _place_admitted(self, data_id: str, payload: Any, copies: int,
                        timeout: float, entry: int,
                        arrival: float, queue_wait: float,
                        recorder=None, root: Optional[Span] = None
                        ) -> ResilientOutcome:
        placed: Dict[int, Any] = {}
        # One stamp per logical operation, shared by every copy and
        # every retry (``GredNetwork.place`` semantics).
        outcome = self._retry(
            ResilientOutcome("place", data_id, True, None, False, None,
                             0.0, queue_wait), arrival, timeout, recorder,
            root, self._attempt_place, data_id, payload, copies, entry,
            self.net._op_stamp(entry), placed)
        outcome.records = [placed[i] for i in sorted(placed)]
        if outcome.ok:
            outcome.result = PlacementResult(data_id, outcome.records)
        return outcome

    def _attempt_place(self, clock: float, deadline: float, tries: int,
                       outcome: ResilientOutcome, recorder,
                       root: Optional[Span], data_id: str, payload: Any,
                       copies: int, entry: int, stamp,
                       placed: Dict[int, Any]) -> float:
        """One pass over the copies not yet ``placed``: each is stored
        (and added) unless an open breaker fails it fast or its route
        fails; ``outcome`` is ``ok`` once every copy is."""
        cfg = self.config
        for copy_index in range(copies):
            if copy_index in placed:
                continue
            if clock >= deadline:
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
                # Fail fast on an open breaker: no data-plane traffic,
                # no latency burned; the retry loop comes back after
                # backoff (by when the breaker may admit a probe).
                registry = default_registry()
                if registry.enabled:
                    registry.counter("resilience.breaker_fast_fails").inc()
                if root is not None:
                    recorder.add_span(
                        "breaker.fast_fail", start=clock, end=clock,
                        parent=root, copy=copy_index, destination=keys[0])
                continue
            outcome.attempts += 1
            try:
                if recorder is None:
                    record = self.net._place_one(copy_id, payload, entry,
                                                 stamp)
                else:
                    with recorder.suppress():
                        record = self.net._place_one(copy_id, payload,
                                                     entry, stamp)
            except (GredError, ForwardingError):
                dest, _, server_key = keys or self._breaker_keys(copy_id)
                if root is not None:
                    recorder.add_span(
                        "place.copy", start=clock,
                        end=clock + cfg.failure_penalty, parent=root,
                        status="route_error", copy=copy_index,
                        destination=dest, attempt=outcome.attempts)
                clock += cfg.failure_penalty
                self.breakers.failure(server_key, clock)
                continue
            latency = cfg.latency.round_trip(
                record.trace, record.physical_hops, None, self._slowed())
            if root is not None:
                recorder.add_span(
                    "place.copy", start=clock, end=clock + latency,
                    parent=root, copy=copy_index, destination=keys[0],
                    server=record.server_id,
                    physical_hops=record.physical_hops,
                    attempt=outcome.attempts)
            clock += latency
            if keys is not None:
                self._succeeded(keys[0], record.server_id, clock)
            placed[copy_index] = record
        outcome.ok = len(placed) == copies
        return clock

    # ------------------------------------------------------------------
    # internals — completion accounting
    # ------------------------------------------------------------------
    def _finish(self, outcomes: Sequence[ResilientOutcome],
                arrival: float, latest: float) -> None:
        """Count requests admitted at ``arrival``; advance the clock to
        the end of the ``latest`` (the largest latency)."""
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
        self._clock = max(self._clock, arrival + latest)
