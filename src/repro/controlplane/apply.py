"""The applier of the plan/diff/apply pipeline.

``apply_delta`` pushes a :class:`~repro.controlplane.diff.RuleDelta`
through the southbound interface message by message, optionally
recording every message on a channel (the control-traffic accounting
used by the churn experiment), and publishes delta telemetry:

* ``controlplane.delta.events`` — reconfigurations applied;
* ``controlplane.delta.messages`` — southbound messages shipped;
* ``controlplane.delta.switches_touched`` — switches that received at
  least one message;
* ``controlplane.delta.switches_removed`` — switches dropped from the
  plan (left the network).

``apply_delta`` assumes a perfect synchronous channel.  The
:class:`TransactionalApplier` is its reliable counterpart for a lossy
:class:`~repro.controlplane.channel.FaultyChannel`: each delta is
applied per switch as a generation-tagged transaction — ship the
switch's messages, collect acks, retry only the unacked ones with
jittered exponential backoff, give up on the switch when the retry
budget or the per-delta deadline runs out (it goes on the caller's
pending queue and keeps serving stale rules), and treat switches that
departed mid-flight as acked no-ops.  With every channel fault knob at
zero the applier transmits exactly the message sequence ``apply_delta``
would (the recorded-channel equality test pins this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

import numpy as np

from ..dataplane import GredSwitch
from ..obs import default_registry
from .diff import RuleDelta
from .southbound import RecordingChannel, apply_message


def apply_delta(switches: Dict[int, GredSwitch], delta: RuleDelta,
                channel: Optional[RecordingChannel] = None) -> int:
    """Apply ``delta`` to the data plane; returns the message count.

    Messages are applied in the differ's order (per switch: removals,
    then installs).  ``channel`` observes every message before it is
    applied.  With request tracing on, the reconfiguration is recorded
    as a ``controlplane.apply_delta`` span (its own trace when no
    request is open).
    """
    from contextlib import nullcontext

    from ..obs.spans import default_recorder

    recorder = default_recorder()
    span = (recorder.span("controlplane.apply_delta",
                          messages=len(delta.messages),
                          touched=len(delta.touched),
                          removed=len(delta.removed))
            if recorder is not None else nullcontext())
    with span:
        for message in delta.messages:
            if channel is not None:
                channel.send(message)
            apply_message(switches, message)
    registry = default_registry()
    if registry.enabled:
        _count_delta(registry, delta)
    return len(delta.messages)


def _count_delta(registry, delta: RuleDelta) -> None:
    """The ``controlplane.delta.*`` counters of one shipped delta."""
    registry.counter("controlplane.delta.events").inc()
    registry.counter("controlplane.delta.messages").inc(
        len(delta.messages))
    registry.counter("controlplane.delta.switches_touched").inc(
        len(delta.touched))
    if delta.removed:
        registry.counter("controlplane.delta.switches_removed").inc(
            len(delta.removed))


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff knobs of the transactional applier.

    Backoff is *simulated* time: the applier never sleeps, it
    accumulates ``base_backoff * backoff_factor**attempt`` (scaled by a
    seeded jitter in ``[1, 1 + jitter]``) and abandons the delta's
    remaining switches once the accumulated backoff exceeds
    ``delta_deadline`` — they land on the pending queue for
    :meth:`~repro.controlplane.controller.Controller.reconcile` to
    drain.
    """

    max_attempts: int = 6
    base_backoff: float = 0.005
    backoff_factor: float = 2.0
    jitter: float = 0.5
    delta_deadline: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_backoff < 0 or self.delta_deadline <= 0:
            raise ValueError("backoff must be >= 0 and deadline > 0")
        if self.backoff_factor < 1.0 or self.jitter < 0.0:
            raise ValueError("backoff_factor must be >= 1, jitter >= 0")


@dataclass
class ApplyReport:
    """Outcome of one transactional delta apply."""

    generation: int
    #: Unique messages in the delta.
    messages: int = 0
    #: Transmissions including retries.
    transmissions: int = 0
    #: Message retransmissions (transmissions beyond the first).
    retries: int = 0
    #: Simulated seconds spent backing off.
    backoff_time: float = 0.0
    #: Switches whose transaction fully acked.
    acked: FrozenSet[int] = frozenset()
    #: Switches left unconverged (unreachable, or the retry budget /
    #: delta deadline ran out) — the caller's pending queue.
    pending: FrozenSet[int] = frozenset()
    #: Switches that departed before delivery (acked as no-ops).
    departed: FrozenSet[int] = frozenset()

    @property
    def converged(self) -> bool:
        return not self.pending


class TransactionalApplier:
    """Reliable per-switch delta application over a lossy channel.

    Messages are grouped by target switch (the differ already orders
    removals-then-installs within a switch) and each group is applied
    as one generation-tagged transaction with acks and bounded,
    jitter-backed retries.  Applying any group twice equals applying it
    once — every southbound message is an idempotent upsert/absent-ok
    delete — so retransmission after a lost ack is safe by
    construction.
    """

    def __init__(self, channel, policy: Optional[RetryPolicy] = None,
                 seed: int = 0) -> None:
        self.channel = channel
        self.policy = policy or RetryPolicy()
        self._rng = np.random.default_rng(seed)

    def apply(self, switches: Dict[int, GredSwitch], delta: RuleDelta,
              *, generation: int = 0) -> ApplyReport:
        """Apply ``delta`` transactionally; returns the outcome."""
        from contextlib import nullcontext

        from ..obs.spans import default_recorder

        policy = self.policy
        report = ApplyReport(generation=generation,
                             messages=len(delta.messages))
        groups: Dict[int, List] = {}
        for message in delta.messages:
            groups.setdefault(message.switch, []).append(message)
        acked: List[int] = []
        pending: List[int] = []
        departed: List[int] = []
        recorder = default_recorder()
        span = (recorder.span("controlplane.apply_transactional",
                              generation=generation,
                              messages=len(delta.messages),
                              touched=len(delta.touched))
                if recorder is not None else nullcontext())
        with span:
            for switch_id in sorted(groups):
                if switch_id not in switches:
                    departed.append(switch_id)
                    continue
                if not self.channel.is_reachable(switch_id):
                    pending.append(switch_id)
                    continue
                unacked = groups[switch_id]
                attempts = 0
                while unacked and attempts < policy.max_attempts \
                        and report.backoff_time <= policy.delta_deadline:
                    if attempts > 0:
                        report.retries += len(unacked)
                        backoff = (policy.base_backoff
                                   * policy.backoff_factor
                                   ** (attempts - 1))
                        backoff *= 1.0 + policy.jitter * float(
                            self._rng.random())
                        report.backoff_time += backoff
                        if report.backoff_time > policy.delta_deadline:
                            break
                    acks = self.channel.ship(switches, unacked)
                    report.transmissions += len(unacked)
                    attempts += 1
                    unacked = [m for m, ok in zip(unacked, acks)
                               if not ok]
                if unacked:
                    pending.append(switch_id)
                else:
                    acked.append(switch_id)
        report.acked = frozenset(acked)
        report.pending = frozenset(pending)
        report.departed = frozenset(departed)
        registry = default_registry()
        if registry.enabled:
            _count_delta(registry, delta)
            if report.retries:
                registry.counter("controlplane.southbound.retries").inc(
                    report.retries)
            if pending:
                registry.counter("controlplane.southbound.pending").inc(
                    len(pending))
        return report
