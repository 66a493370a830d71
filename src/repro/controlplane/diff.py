"""The differ of the plan/diff/apply pipeline.

``diff_plans`` compares an installed :class:`~repro.controlplane.plan.
RulePlan` (typically a :func:`~repro.controlplane.plan.snapshot_plan`
of the live switches) against a desired one and emits a
:class:`RuleDelta`: the exact southbound messages that converge the
data plane to the desired plan, nothing more.  An untouched switch
produces zero messages — the property that makes churn cost
neighborhood-sized instead of O(network).

Per switch the messages are ordered removals first (stale ports, DT
candidates, relay tuples), then installs; switches are visited in id
order.  Applying the delta is idempotent: diffing again afterwards
yields an empty delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .plan import RulePlan, SwitchPlan
from .southbound import (
    InstallDtNeighbor,
    InstallPhysical,
    InstallVirtual,
    RemoveDtNeighbor,
    RemovePhysical,
    RemoveVirtual,
    SetPosition,
    SetServerCount,
    SouthboundMessage,
)


@dataclass(frozen=True)
class RuleDelta:
    """The southbound messages separating two plans.

    ``touched`` names every switch receiving at least one message;
    ``removed`` names switches present in the old plan but absent from
    the new one (they left the network — no messages are addressed to
    them, but every cache keyed on them must drop).
    """

    messages: Tuple[SouthboundMessage, ...]
    touched: FrozenSet[int]
    removed: FrozenSet[int]

    def __len__(self) -> int:
        return len(self.messages)

    @property
    def is_empty(self) -> bool:
        return not self.messages and not self.removed


def diff_plans(old: Optional[RulePlan], new: RulePlan,
               only: Optional[FrozenSet[int]] = None) -> RuleDelta:
    """Messages converging the ``old`` plan's state to ``new``'s.

    ``old`` may be ``None`` (nothing installed): every switch gets a
    full install.  Switches only in ``old`` are reported in
    ``removed``.  ``only`` restricts the diff to a switch subset, and
    the diff then costs the subset, not the plans: the anti-entropy
    sweep re-ships exactly the digest-divergent switches, and a scoped
    event diffs only the switches it may have to change (``old`` then
    needs to cover just those; ``removed`` is filtered the same way).
    """
    old_plans = old.plans if old is not None else {}
    messages: List[SouthboundMessage] = []
    touched: List[int] = []
    ids = (new.plans if only is None
           else [s for s in only if s in new.plans])
    for switch_id in sorted(ids):
        switch_messages = _switch_messages(
            old_plans.get(switch_id), new.plans[switch_id])
        if switch_messages:
            touched.append(switch_id)
            messages.extend(switch_messages)
    if only is None:
        removed = frozenset(old_plans) - frozenset(new.plans)
    else:
        removed = frozenset(s for s in only
                            if s in old_plans and s not in new.plans)
    return RuleDelta(messages=tuple(messages),
                     touched=frozenset(touched),
                     removed=frozenset(removed))


def _switch_messages(old: Optional[SwitchPlan],
                     new: SwitchPlan) -> List[SouthboundMessage]:
    """Removals-then-installs converging one switch to its new plan."""
    if old is not None and old == new:
        return []
    sid = new.switch
    old_ports: Dict[int, int] = dict(old.ports) if old else {}
    old_cands = dict(old.candidates) if old else {}
    old_dt = dict(old.dt_neighbors) if old else {}
    old_virtuals = {e.dest: e for e in old.virtuals} if old else {}
    new_ports = dict(new.ports)
    new_cands = dict(new.candidates)
    new_dt = dict(new.dt_neighbors)
    new_virtuals = {e.dest: e for e in new.virtuals}

    messages: List[SouthboundMessage] = []
    # A neighbor that lost its greedy-candidate role (left the DT) but
    # kept its port must be fully removed and reinstalled: an
    # InstallPhysical with position=None would leave the stale
    # candidate position behind.
    demoted = {n for n in old_cands
               if n in new_ports and n not in new_cands}
    for neighbor in sorted(set(old_ports) - set(new_ports) | demoted):
        messages.append(RemovePhysical(switch=sid, neighbor=neighbor))
    for neighbor in sorted(set(old_dt) - set(new_dt)):
        messages.append(RemoveDtNeighbor(switch=sid, neighbor=neighbor))
    for dest in sorted(set(old_virtuals) - set(new_virtuals)):
        messages.append(RemoveVirtual(switch=sid, dest=dest))

    if old is None or old.position != new.position:
        messages.append(SetPosition(switch=sid, position=new.position))
    if new.num_servers is not None and (
            old is None or old.num_servers != new.num_servers):
        messages.append(SetServerCount(switch=sid,
                                       count=new.num_servers))
    for neighbor in sorted(new_ports):
        if (neighbor not in demoted
                and old_ports.get(neighbor) == new_ports[neighbor]
                and old_cands.get(neighbor) == new_cands.get(neighbor)):
            continue
        messages.append(InstallPhysical(
            switch=sid, neighbor=neighbor, port=new_ports[neighbor],
            position=new_cands.get(neighbor)))
    for neighbor in sorted(new_dt):
        if old_dt.get(neighbor) != new_dt[neighbor]:
            messages.append(InstallDtNeighbor(
                switch=sid, neighbor=neighbor,
                position=new_dt[neighbor]))
    for dest in sorted(new_virtuals):
        entry = new_virtuals[dest]
        if old_virtuals.get(dest) != entry:
            messages.append(InstallVirtual(
                switch=sid, sour=entry.sour, pred=entry.pred,
                succ=entry.succ, dest=dest))
    return messages
