"""The pure planner of the plan/diff/apply pipeline.

The legacy install path (:func:`repro.controlplane.rules.
install_all_rules`) clears and rewrites every switch on every
reconfiguration — O(network) southbound traffic for a join that the
paper argues "only affects its neighbors" (Section VI).  This module is
the first stage of the incremental replacement: it compiles the
*desired* per-switch forwarding state into plain values without ever
touching a switch.

A :class:`RulePlan` maps each switch id to a :class:`SwitchPlan` — its
virtual position, deterministic port map, greedy candidate positions,
DT neighbors and relay 4-tuples — exactly the state
``install_all_rules`` would install, expressed as data.  Because plans
are pure values they can be diffed (:mod:`repro.controlplane.diff`) and
the difference applied as a bounded set of southbound messages
(:mod:`repro.controlplane.apply`).

``snapshot_plan`` reads the *installed* state back out of live
switches in the same shape, so the differ always compares desired
against reality rather than against what the controller believes it
installed — out-of-band table mutations are repaired, not preserved.

A compiled plan also remembers, compactly, the relay walks it was
compiled from.  Handed back as ``previous``, it lets the next compile
re-walk only the destinations a scoped event can change and carry
every other walk and :class:`SwitchPlan` forward — with a result equal
to a from-scratch compile (DESIGN.md §5a has the reuse rule and why it
holds).
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from ..dataplane import GredSwitch, VirtualLinkEntry
from ..geometry import Point
from ..graph import Graph
from ..obs import default_registry
from .rules import compile_port_map


@dataclass(frozen=True)
class SwitchPlan:
    """Desired forwarding state of one switch, as a comparable value.

    ``ports`` pairs ``(neighbor, port)``; ``candidates`` pairs
    ``(neighbor, position)`` for physical neighbors that are greedy
    candidates (DT members); ``dt_neighbors`` pairs
    ``(neighbor, position)``; ``virtuals`` holds the relay 4-tuples
    keyed by destination (one entry per dest, like the table).
    ``num_servers`` is ``None`` when the planner has no server view
    (standalone compilation) — the differ then leaves the switch's
    server count alone.
    """

    switch: int
    position: Point
    ports: Tuple[Tuple[int, int], ...]
    candidates: Tuple[Tuple[int, Point], ...]
    dt_neighbors: Tuple[Tuple[int, Point], ...]
    virtuals: Tuple[VirtualLinkEntry, ...]
    num_servers: Optional[int] = None


class _Tree(NamedTuple):
    """What the reuse rule reads of one destination's truncated walk.

    ``code`` has one entry per switch slot: 0 for a switch the walk
    never discovered, else ``2 * (depth + 1)``, plus 1 if the switch
    became a parent.  ``deepest`` is the farthest source's depth (*K*);
    ``holders`` maps each switch holding one of its relay tuples to
    that tuple.
    """

    sources: Tuple[int, ...]
    code: array
    deepest: int
    holders: Dict[int, VirtualLinkEntry]


@dataclass(frozen=True)
class _Walks:
    """The walks a plan was compiled from.  Switch slots stay put
    across scoped events: a leaver's slot is freed, a joiner takes the
    lowest free one, and every ``code`` is ``size`` long."""

    slots: Dict[int, int]
    size: int
    members: FrozenSet[int]
    trees: Dict[int, _Tree]


@dataclass(frozen=True)
class RulePlan:
    """Desired state of the whole switch plane: switch id -> plan.

    ``walks`` is the compiler's memory for the next compile; it takes
    no part in equality (a carried-forward plan ``==`` a fresh one).
    """

    plans: "Dict[int, SwitchPlan]"
    walks: Optional[_Walks] = field(default=None, compare=False,
                                    repr=False)

    def __len__(self) -> int:
        return len(self.plans)

    def __contains__(self, switch_id: int) -> bool:
        return switch_id in self.plans

    def get(self, switch_id: int) -> Optional[SwitchPlan]:
        return self.plans.get(switch_id)

    def switch_ids(self):
        return sorted(self.plans)


def compile_plan(
    topology: Graph,
    positions: Dict[int, Point],
    dt_adjacency: Dict[int, Set[int]],
    server_counts: Optional[Dict[int, int]] = None,
    previous: Optional[RulePlan] = None,
) -> RulePlan:
    """Compile the desired forwarding state of every switch.

    Pure: reads the control-plane view, touches nothing.  The result
    describes exactly the state ``install_all_rules`` would install —
    same deterministic port numbering, same per-destination BFS trees,
    same later-source-wins overwrite for relay tuples sharing a
    destination — which the differential tests assert.

    ``previous`` is the plan compiled last.  The topology delta is read
    off the two port maps; a destination whose sources are unchanged
    and whose walk the delta cannot alter keeps its walk.  A switch
    keeps its :class:`SwitchPlan` object unless its port row, DT row,
    server count or a neighbour's DT membership changed, or one of the
    relay tuples it holds was added, dropped or changed — so a plan is
    rebuilt exactly where it differs from ``previous``'s.  The result
    ``==`` a compile without ``previous``.  That compile is the same
    code with nothing to reuse, and so is one after a moved position.
    """
    ports = compile_port_map(topology)
    rows = {node: tuple(row.items()) for node, row in ports.items()}
    delta = _Delta.between(previous, rows, positions)
    if delta is None:
        slots = {node: slot for slot, node in enumerate(rows)}
        size, before, old_plans = len(slots), {}, {}
    else:
        slots, size = delta.slots, delta.size
        before, old_plans = previous.walks.trees, previous.plans
    ids = [0] * size
    adjacency: List[List[int]] = [[]] * size
    for node, row in rows.items():
        ids[slots[node]] = node
        adjacency[slots[node]] = [slots[n] for n, _ in row]
    parent = [0] * size
    trees: Dict[int, _Tree] = {}
    # switch -> {dest: its new relay tuple, or None for none}, only
    # where the tuple differs from the one it held before.
    updates: Dict[int, Dict[int, Optional[VirtualLinkEntry]]] = {}
    walked = 0
    for dest, nbrs in dt_adjacency.items():
        sources = nbrs - ports[dest].keys()
        if not sources:
            continue  # every DT neighbour is one physical hop away
        sources = tuple(sorted(sources, reverse=True))
        old = before.get(dest)
        tree = (delta.carry(old) if old is not None
                and old.sources == sources else None)
        if tree is None:
            tree = _walk(adjacency, ids, slots, dest, sources, parent)
            walked += 1
            _note(updates, dest, {} if old is None else old.holders,
                  tree.holders)
        trees[dest] = tree
    for dest in before.keys() - trees.keys():
        _note(updates, dest, before[dest].holders, {})
    members = frozenset(dt_adjacency)
    regrouped: Set[int] = set()  # switches whose candidates changed
    if delta is not None:
        for node in members ^ previous.walks.members:
            regrouped.update(n for n, _ in rows.get(node, ()))
    plans: Dict[int, SwitchPlan] = {}
    for node, row in rows.items():
        old = old_plans.get(node)
        count = None if server_counts is None else server_counts.get(node, 0)
        dt_nbrs = dt_adjacency.get(node, ())
        update = updates.get(node)
        if (old is not None and update is None and node not in regrouped
                and old.ports == row and old.num_servers == count
                and len(old.dt_neighbors) == len(dt_nbrs)
                and all(o in dt_nbrs for o, _ in old.dt_neighbors)):
            plans[node] = old
            continue
        entries = {} if old is None else {e.dest: e for e in old.virtuals}
        for dest, entry in (update or {}).items():
            if entry is None:
                del entries[dest]
            else:
                entries[dest] = entry
        plans[node] = SwitchPlan(
            switch=node,
            position=positions[node],
            ports=row,
            candidates=tuple((n, positions[n]) for n, _ in row
                             if n in members),
            dt_neighbors=tuple((o, positions[o]) for o in sorted(dt_nbrs)),
            virtuals=tuple(entries[d] for d in sorted(entries)),
            num_servers=count,
        )
    registry = default_registry()
    if registry.enabled:
        kept = sum(plan is old_plans.get(node)
                   for node, plan in plans.items())
        for name, outcome, value in (
                ("relay_trees", "walked", walked),
                ("relay_trees", "reused", len(trees) - walked),
                ("switch_plans", "built", len(plans) - kept),
                ("switch_plans", "reused", kept)):
            registry.counter(
                "controlplane.plan." + name, help=_COUNTER_HELP[name],
                outcome=outcome).inc(value)
    return RulePlan(plans=plans,
                    walks=_Walks(slots, size, members, trees))


_COUNTER_HELP = {
    "relay_trees": "Relay trees per compile: walked or carried forward",
    "switch_plans": "Switch plans per compile: built or carried forward",
}

#: The depth the reuse rule gives a switch its walk never discovered
#: (deeper than any walk goes).
_UNSEEN = 1 << 30


def _note(updates: Dict[int, Dict[int, Optional[VirtualLinkEntry]]],
          dest: int, old: Dict[int, VirtualLinkEntry],
          new: Dict[int, VirtualLinkEntry]) -> None:
    """Record in ``updates`` every switch whose relay tuple for
    ``dest`` differs between the holder maps ``old`` and ``new``."""
    for node, entry in new.items():
        held = old.get(node)
        if held is None or held != entry:
            updates.setdefault(node, {})[dest] = entry
    for node in old.keys() - new.keys():
        updates.setdefault(node, {})[dest] = None


def _walk(adjacency: List[List[int]], ids: List[int],
          slots: Dict[int, int], dest: int, sources: Tuple[int, ...],
          parent: List[int]) -> _Tree:
    """Walk ``dest``'s BFS tree over the slot rows (each in ascending
    switch id, as the port map numbers them) only until every source
    has a parent, and return its record with its relay tuples.
    ``parent`` is scratch, read only where written.

    A parent is final once assigned and every switch on a source's
    path is discovered before it, so the paths are the full tree's.
    The legacy installer takes the sources in ascending order and lets
    a later one overwrite an earlier one's tuples wherever their tree
    paths meet — which is from the meeting switch all the way to
    ``dest``.  Descending order, each path cut at the first switch that
    already holds a tuple for ``dest``, writes the same tuples and
    builds none to be discarded.
    """
    root = slots[dest]
    code = [0] * len(ids)  # packed into the record's array at the end
    code[root] = mark = 2
    waiting = {slots[s] for s in sources}
    frontier = [root]
    while frontier and waiting:
        mark += 2
        level: List[int] = []
        for u in frontier:
            found = False
            for v in adjacency[u]:
                if not code[v]:
                    code[v] = mark
                    parent[v] = u
                    level.append(v)
                    found = True
                    if v in waiting:
                        waiting.remove(v)
            if found:
                code[u] |= 1
                if not waiting:
                    break
        frontier = level
    if waiting:
        raise ValueError(f"{ids[waiting.pop()]} cannot reach {dest}")
    holders: Dict[int, VirtualLinkEntry] = {}
    for sour in sources:
        pred, node = None, slots[sour]
        while ids[node] not in holders:
            succ = None if node == root else parent[node]
            holders[ids[node]] = VirtualLinkEntry(
                sour=sour, pred=pred,
                succ=None if succ is None else ids[succ], dest=dest)
            if succ is None:
                break
            pred, node = ids[node], succ
    return _Tree(sources, array("H", code), mark // 2 - 1, holders)


class _Delta(NamedTuple):
    """How the topology moved since the previous plan, as the switch
    slots the reuse rule tests: ``no_parent`` (removed switches and the
    ends of removed links) must have parented no switch on a walk,
    ``unseen`` (the ends of new links between existing switches) must
    not have been discovered, and a joiner (at most one) is tested
    against the depths of its ``links``."""

    slots: Dict[int, int]
    size: int
    no_parent: List[int]
    unseen: List[int]
    joiner: Optional[int]
    links: List[int]

    @classmethod
    def between(cls, previous: Optional[RulePlan],
                rows: Dict[int, Tuple[Tuple[int, int], ...]],
                positions: Dict[int, Point]) -> Optional["_Delta"]:
        """The delta from ``previous`` to the port map ``rows``, or
        ``None`` when nothing can be reused: no previous walks, a moved
        position or more than one joiner."""
        walks = None if previous is None else previous.walks
        if walks is None:
            return None
        old = previous.plans
        added = [node for node in rows if node not in old]
        if len(added) > 1:
            return None
        removed = [node for node in old if node not in rows]
        lost: List[int] = []
        gained: List[int] = []
        for node, row in rows.items():
            plan = old.get(node)
            if plan is None:
                continue
            if plan.position != positions[node]:
                return None
            if plan.ports != row:
                before = {n for n, _ in plan.ports}
                after = {n for n, _ in row}
                if before.difference(after, removed):
                    lost.append(node)
                if after.difference(before, added):
                    gained.append(node)
        slots, size = walks.slots, walks.size
        if removed or added:
            slots = dict(slots)
            for node in removed:
                del slots[node]
            for node in added:  # the lowest free slot
                slots[node] = min(set(range(size + 1)) - set(slots.values()))
                size = max(size, slots[node] + 1)
        return cls(slots, size,
                   no_parent=[walks.slots[n] for n in removed + lost],
                   unseen=[slots[n] for n in gained],
                   joiner=slots[added[0]] if added else None,
                   links=[slots[n] for n, _ in rows[added[0]]]
                   if added else [])

    def carry(self, tree: _Tree) -> Optional[_Tree]:
        """``tree`` as the changed topology walks it, or ``None`` when
        the change may alter the walk and it must be walked again."""
        code = tree.code
        if any(code[s] & 1 for s in self.no_parent) or \
                any(code[s] for s in self.unseen):
            return None
        if self.joiner is None:
            return tree
        # The joiner sits one below its shallowest neighbour.  It
        # parents a switch only if one of its neighbours is deeper
        # still, and that matters only above the deepest source.
        depths = [code[s] // 2 - 1 if code[s] else _UNSEEN
                  for s in self.links]
        depth = min(depths, default=_UNSEEN) + 1
        if depth < tree.deepest and max(depths) > depth:
            return None
        # A copy, since the previous plan still holds the record; the
        # joiner's slot may be a leaver's, so it is always written.
        code = code + array("H", bytes(2 * (self.size - len(code))))
        code[self.joiner] = 2 * depth + 2 if depth <= tree.deepest else 0
        return tree._replace(code=code)


def switch_digest(plan: SwitchPlan) -> str:
    """Content hash of one switch's forwarding state.

    Two plans (or a plan and a :func:`snapshot_plan` row) digest
    equally iff their installed state is byte-identical — the
    anti-entropy comparison unit: the controller compares per-switch
    digests of desired vs installed state and re-ships only the
    switches whose digests diverge.
    """
    rows = (
        plan.switch,
        plan.position,
        plan.ports,
        plan.candidates,
        plan.dt_neighbors,
        tuple((e.sour, e.pred, e.succ, e.dest) for e in plan.virtuals),
        plan.num_servers,
    )
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def plan_digests(plan: RulePlan) -> Dict[int, str]:
    """Per-switch digests of a whole plan (switch id -> hex digest)."""
    return {switch_id: switch_digest(switch_plan)
            for switch_id, switch_plan in plan.plans.items()}


def snapshot_plan(switches: Dict[int, GredSwitch]) -> RulePlan:
    """The *installed* state of live switches, in plan form.

    The differ's baseline: comparing the desired plan against this
    snapshot (rather than a remembered plan) makes apply converge the
    data plane to the plan even if tables were mutated out of band.
    """
    plans: Dict[int, SwitchPlan] = {}
    for switch_id, switch in switches.items():
        table = switch.table
        plans[switch_id] = SwitchPlan(
            switch=switch_id,
            position=switch.position,
            ports=tuple(sorted(
                (neighbor, table.physical_port(neighbor))
                for neighbor in table.physical_neighbors())),
            candidates=tuple(sorted(
                switch.physical_neighbor_positions.items())),
            dt_neighbors=tuple(sorted(
                switch.dt_neighbor_positions.items())),
            virtuals=tuple(sorted(
                table.virtual_entries(), key=lambda e: e.dest)),
            num_servers=switch.num_servers,
        )
    return RulePlan(plans=plans)
