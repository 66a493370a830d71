"""A lossy southbound control channel.

The paper's controller programs switches over generated Thrift calls
and assumes every install lands.  Real SDN control channels do not
behave that way: messages are dropped, duplicated, reordered inside the
switch agent's receive queue, or delayed long enough to arrive after a
newer reconfiguration.  :class:`FaultyChannel` models exactly those
failure modes, deterministically under a seed, so the plan/diff/apply
pipeline can be exercised against them:

* **drop** — the message never reaches the switch (no ack);
* **dup** — the message is applied twice (rule installs must be
  idempotent for this to be harmless);
* **reorder** — delivery order is permuted within a sliding window,
  which can invert a removals-then-installs pair and leave divergent
  state even though every message was acked;
* **delay** — the message is held over and delivered at the *next*
  transmission, possibly interleaving with a newer generation's
  messages (no ack on the round that sent it).

A switch can also be marked **unreachable**: nothing addressed to it is
delivered or acked until it is marked reachable again — the
transactional applier parks its delta on the pending queue and the data
plane keeps serving on stale rules.

The channel is the unit the reliability stack is built on: the
:class:`~repro.controlplane.apply.TransactionalApplier` retries unacked
messages with jittered exponential backoff, and
:meth:`~repro.controlplane.controller.Controller.reconcile` repairs
whatever ordering faults survive the retries via digest-based
anti-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..dataplane import GredSwitch
from ..obs import default_registry
from .southbound import SouthboundMessage, apply_message


class ControlChannelError(Exception):
    """Raised for invalid channel configuration."""


@dataclass
class ChannelStats:
    """Cumulative delivery accounting of one channel (pure data)."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    delayed: int = 0
    unreachable: int = 0
    #: Messages whose target switch left the network while the message
    #: was in flight — acked as no-ops.
    departed_noops: int = 0
    acks: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
            "delayed": self.delayed,
            "unreachable": self.unreachable,
            "departed_noops": self.departed_noops,
            "acks": self.acks,
        }


class FaultyChannel:
    """Seedable lossy delivery of southbound messages.

    With every fault knob at its default (``drop=dup=delay=0``,
    ``reorder_window=1``) the channel is perfect: every message is
    delivered exactly once, in order, and acked — byte-identical to
    the direct ``apply_message`` loop.

    Parameters
    ----------
    drop, dup, delay:
        Per-message fault probabilities in ``[0, 1]``.
    reorder_window:
        Sliding-window size for delivery permutation; ``1`` preserves
        order.
    seed:
        Seeds the channel's fault generator — two channels with the
        same seed and the same traffic inject identical faults.
    observer:
        Optional :class:`~repro.controlplane.southbound.
        RecordingChannel` observing every *transmission* (including
        retries), the control-traffic accounting surface.
    """

    def __init__(self, *, drop: float = 0.0, dup: float = 0.0,
                 delay: float = 0.0, reorder_window: int = 1,
                 seed: int = 0, observer=None) -> None:
        self.drop = 0.0
        self.dup = 0.0
        self.delay = 0.0
        self.reorder_window = 1
        self.configure(drop=drop, dup=dup, delay=delay,
                       reorder_window=reorder_window)
        self.observer = observer
        self.stats = ChannelStats()
        self._rng = np.random.default_rng(seed)
        self._unreachable: Set[int] = set()
        #: Delayed messages held over for the next transmission.
        self._holdover: List[SouthboundMessage] = []

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def configure(self, *, drop: Optional[float] = None,
                  dup: Optional[float] = None,
                  delay: Optional[float] = None,
                  reorder_window: Optional[int] = None) -> None:
        """Set fault knobs (used by ``control_*`` fault-plan events)."""
        for name, value in (("drop", drop), ("dup", dup),
                            ("delay", delay)):
            if value is None:
                continue
            if not 0.0 <= value <= 1.0:
                raise ControlChannelError(
                    f"{name} probability must be in [0, 1], got {value}")
            setattr(self, name, float(value))
        if reorder_window is not None:
            if int(reorder_window) < 1:
                raise ControlChannelError(
                    f"reorder window must be >= 1, got {reorder_window}")
            self.reorder_window = int(reorder_window)

    @property
    def faultless(self) -> bool:
        """True when every knob is at its perfect-delivery default."""
        return (self.drop == 0.0 and self.dup == 0.0
                and self.delay == 0.0 and self.reorder_window == 1
                and not self._holdover)

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------
    def mark_unreachable(self, switch_id: int) -> None:
        """Sever the control channel to one switch (its data plane
        keeps serving on whatever rules it already has)."""
        self._unreachable.add(switch_id)

    def mark_reachable(self, switch_id: int) -> None:
        """Restore the control channel to one switch."""
        self._unreachable.discard(switch_id)

    def is_reachable(self, switch_id: int) -> bool:
        return switch_id not in self._unreachable

    @property
    def unreachable_switches(self) -> Set[int]:
        return set(self._unreachable)

    @property
    def in_flight(self) -> int:
        """Delayed messages not yet delivered."""
        return len(self._holdover)

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def ship(self, switches: Dict[int, GredSwitch],
             messages: Sequence[SouthboundMessage]) -> List[bool]:
        """Transmit ``messages``; returns one ack flag per message.

        Unacked messages were dropped, delayed, or addressed to an
        unreachable switch — the sender must retry them.  A message
        whose target switch no longer exists is acked as a no-op (the
        switch left the network; there is nothing to converge).
        Holdover (delayed) messages from earlier transmissions are
        delivered first, modelling late arrival.
        """
        registry = default_registry()
        acked = [False] * len(messages)
        # (ack index or None, message); None = dup/holdover copies that
        # have no pending ack slot.
        schedule: List[tuple] = [(None, m) for m in self._holdover]
        self._holdover = []
        for i, message in enumerate(messages):
            self.stats.sent += 1
            if self.observer is not None:
                self.observer.send(message)
            if message.switch in self._unreachable:
                self.stats.unreachable += 1
                continue
            if self.drop > 0.0 and self._rng.random() < self.drop:
                self.stats.dropped += 1
                if registry.enabled:
                    registry.counter(
                        "controlplane.southbound.dropped").inc()
                continue
            if self.delay > 0.0 and self._rng.random() < self.delay:
                self.stats.delayed += 1
                self._holdover.append(message)
                continue
            schedule.append((i, message))
            if self.dup > 0.0 and self._rng.random() < self.dup:
                self.stats.duplicated += 1
                schedule.append((None, message))
        if self.reorder_window > 1 and len(schedule) > 1:
            for start in range(0, len(schedule), self.reorder_window):
                chunk = schedule[start:start + self.reorder_window]
                order = self._rng.permutation(len(chunk))
                moved = sum(1 for j, k in enumerate(order) if j != k)
                if moved:
                    self.stats.reordered += moved
                    schedule[start:start + self.reorder_window] = [
                        chunk[k] for k in order]
        for index, message in schedule:
            if message.switch not in switches:
                # Delivered after the switch departed: ack as a no-op.
                if index is not None:
                    acked[index] = True
                    self.stats.departed_noops += 1
                continue
            apply_message(switches, message)
            self.stats.delivered += 1
            if index is not None:
                acked[index] = True
                self.stats.acks += 1
        if registry.enabled:
            delivered_acks = sum(1 for a in acked if a)
            if delivered_acks:
                registry.counter("controlplane.southbound.acks").inc(
                    delivered_acks)
        return acked
