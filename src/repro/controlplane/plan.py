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
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from ..dataplane import GredSwitch, VirtualLinkEntry
from ..geometry import Point
from ..graph import Graph
from ..obs import default_registry
from .rules import port_row


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
    """A destination's walk besides its ``code`` row: its sources, and
    each switch holding one of its relay tuples with that tuple."""

    sources: Tuple[int, ...]
    holders: Dict[int, VirtualLinkEntry]


@dataclass(frozen=True)
class _Walks:
    """The walks a plan was compiled from, over switch slots that stay
    put across scoped events: a leaver's slot is freed (``ids`` holds
    ``None``), a joiner takes the lowest free one.  ``code`` has a row
    per destination slot (read only for a tree) and a column per switch
    slot: 0 for a switch the walk never discovered, else ``2 * (depth +
    1)``, plus 1 if it became a parent; ``deepest`` is per row the
    farthest source's depth (*K*)."""

    slots: Dict[int, int]
    ids: List[Optional[int]]
    adjacency: List[List[int]]
    members: FrozenSet[int]
    trees: Dict[int, _Tree]
    code: np.ndarray
    deepest: np.ndarray


_NO_WALKS = _Walks({}, [], [], frozenset(), {},
                   np.zeros((0, 0), np.uint16), np.zeros(0, np.int64))


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
    changed: Optional[Set[int]] = None,
) -> RulePlan:
    """Compile the desired forwarding state of every switch.

    Pure: reads the control-plane view, touches nothing.  The result
    describes exactly the state ``install_all_rules`` would install —
    same deterministic port numbering, same per-destination BFS trees,
    same later-source-wins overwrite for relay tuples sharing a
    destination — which the differential tests assert.

    ``previous`` is the plan compiled last, and ``changed`` a superset
    of the switches whose port row, DT row, position or server count
    may differ from it (``None``: unknown, so every switch is read).
    Only the changed rows are read; every other row, walk and
    :class:`SwitchPlan` is carried forward by reference.  The topology
    delta is read off the changed port rows, and one array pass over
    the walk matrix finds the walks it may alter; those and the
    destinations whose sources changed are walked again.  A switch
    keeps its :class:`SwitchPlan` object unless its port row, DT row,
    server count or a neighbour's DT membership changed, or one of the
    relay tuples it holds was added, dropped or changed — so a plan is
    rebuilt exactly where it differs from ``previous``'s.  The result
    ``==`` a compile without ``previous``.  That compile is the same
    code with nothing to reuse, and so is one after a moved position.
    """
    walks = None if previous is None else previous.walks
    old = {} if walks is None else previous.plans
    if changed is None or walks is None:
        changed = old.keys() | topology.nodes()
    walks = walks or _NO_WALKS
    rows = {node: tuple(port_row(topology, node).items())
            for node in changed if topology.has_node(node)}
    delta = _Delta.between(walks, old, rows, changed, positions)
    if delta is None:  # a moved position or two joiners: start afresh
        return compile_plan(topology, positions, dt_adjacency,
                            server_counts)
    slots, ids = delta.slots, delta.ids
    trees = dict(walks.trees)
    # switch -> {dest: its new relay tuple, or None for none}, only
    # where the tuple differs from the one it held before.
    updates: Dict[int, Dict[int, Optional[VirtualLinkEntry]]] = {}
    walk: Dict[int, Tuple[int, ...]] = {}  # dest -> sources, to re-walk
    code, deepest, column = walks.code, walks.deepest, None
    if trees:
        stale, column = delta.stale(code, deepest)
        walk = {dest: trees[dest].sources for dest in map(
            walks.ids.__getitem__, np.flatnonzero(stale).tolist())
            if dest in trees}
    for dest in changed:
        nbrs, row = dt_adjacency.get(dest), rows.get(dest)
        sources = () if not nbrs or row is None else tuple(
            sorted(nbrs.difference(n for n, _ in row), reverse=True))
        tree = trees.get(dest)
        if sources and (tree is None or tree.sources != sources):
            walk[dest] = sources
        elif not sources and tree is not None:
            # every DT neighbour is one physical hop away, or it left
            walk.pop(dest, None)
            del trees[dest]
            _note(updates, dest, tree.holders, {})
    if walk or column is not None or len(code) != len(ids):
        grow = (0, len(ids) - len(code))  # a copy, even if no wider
        code, deepest = np.pad(code, grow), np.pad(deepest, grow)
        if column is not None:
            code[:len(column), delta.joiner] = column
    parent = [0] * len(ids)
    for dest, sources in walk.items():
        slot = slots[dest]
        code[slot], deepest[slot], holders = _walk(
            delta.adjacency, ids, slots, dest, sources, parent)
        tree = trees.get(dest)
        _note(updates, dest, {} if tree is None else tree.holders, holders)
        trees[dest] = _Tree(sources, holders)
    # A switch whose DT membership flipped regroups its neighbours.
    flips = [n for n in changed
             if (n in dt_adjacency) != (n in walks.members)]
    members = walks.members.symmetric_difference(flips)
    regrouped = {n for node in flips for n, _ in rows.get(node, ())}
    plans = dict(old)
    for node in delta.removed:
        del plans[node]
    built = 0
    for node in (rows.keys() | updates.keys() | regrouped).difference(
            delta.removed):
        prior = old.get(node)
        row = rows[node] if node in rows else prior.ports
        servers = (None if server_counts is None
                   else server_counts.get(node, 0))
        dt_nbrs = dt_adjacency.get(node, ())
        update = updates.get(node)
        if (prior is not None and update is None and node not in regrouped
                and prior.ports == row and prior.num_servers == servers
                and len(prior.dt_neighbors) == len(dt_nbrs)
                and all(o in dt_nbrs for o, _ in prior.dt_neighbors)):
            continue
        entries = {} if prior is None else {e.dest: e for e in prior.virtuals}
        for dest, entry in (update or {}).items():
            if entry is None:
                del entries[dest]
            else:
                entries[dest] = entry
        built += 1
        plans[node] = SwitchPlan(
            switch=node,
            position=positions[node],
            ports=row,
            candidates=tuple((n, positions[n]) for n, _ in row
                             if n in members),
            dt_neighbors=tuple((o, positions[o]) for o in sorted(dt_nbrs)),
            virtuals=tuple(entries[d] for d in sorted(entries)),
            num_servers=servers,
        )
    registry = default_registry()
    if registry.enabled:
        for name, outcome, value in (
                ("relay_trees", "walked", len(walk)),
                ("relay_trees", "reused", len(trees) - len(walk)),
                ("switch_plans", "built", built),
                ("switch_plans", "reused", len(plans) - built),
                ("switch_rows", "read", len(rows)),
                ("switch_rows", "carried", len(plans) - len(rows))):
            registry.counter(
                "controlplane.plan." + name, help=_COUNTER_HELP[name],
                outcome=outcome).inc(value)
    return RulePlan(plans=plans, walks=_Walks(
        slots, ids, delta.adjacency, members, trees, code, deepest))


_COUNTER_HELP = {
    "relay_trees": "Relay trees per compile: walked or carried forward",
    "switch_plans": "Switch plans per compile: built or carried forward",
    "switch_rows": "Switch rows per compile: read or carried forward",
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


def _walk(adjacency: List[List[int]], ids: List[Optional[int]],
          slots: Dict[int, int], dest: int, sources: Tuple[int, ...],
          parent: List[int]
          ) -> Tuple[List[int], int, Dict[int, VirtualLinkEntry]]:
    """Walk ``dest``'s BFS tree over the slot rows (each in ascending
    switch id, as the port map numbers them) only until every source
    has a parent, and return its ``code`` row, its deepest source's
    depth and its relay tuples.  ``parent`` is scratch, read only
    where written.

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
    code = [0] * len(ids)
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
    return code, mark // 2 - 1, holders


class _Delta(NamedTuple):
    """How the topology moved since the previous plan: the new slots,
    the removed switches, and the switch slots the reuse rule tests.
    ``no_parent`` (removed switches and the ends of removed links) must
    have parented no switch on a walk, ``unseen`` (the ends of new
    links between existing switches) must not have been discovered,
    and a joiner (at most one while walks exist) is tested against the
    depths of its ``links``."""

    slots: Dict[int, int]
    ids: List[Optional[int]]
    adjacency: List[List[int]]
    removed: List[int]
    no_parent: List[int]
    unseen: List[int]
    joiner: Optional[int]
    links: List[int]

    @classmethod
    def between(cls, walks: _Walks, old: Dict[int, SwitchPlan],
                rows: Dict[int, Tuple[Tuple[int, int], ...]],
                changed: Set[int], positions: Dict[int, Point]
                ) -> Optional["_Delta"]:
        """The delta from the plans ``old`` walked by ``walks`` to the
        changed port ``rows``, or ``None`` when nothing can be reused:
        a moved position, or more than one joiner while walks exist."""
        added = [node for node in rows if node not in old]
        if len(added) > 1 and walks.trees:
            return None
        removed = [node for node in changed
                   if node in old and node not in rows]
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
        slots, ids = walks.slots, list(walks.ids)
        if removed or added:
            slots = dict(slots)
            for node in removed:
                ids[slots.pop(node)] = None
            for node in added:  # the lowest free slot
                slots[node] = slot = (ids.index(None) if None in ids
                                      else len(ids))
                ids[slot:slot + 1] = [node]
        adjacency = walks.adjacency + [[]] * (len(ids) - len(walks.ids))
        for node, row in rows.items():
            adjacency[slots[node]] = [slots[n] for n, _ in row]
        joiner = added[0] if len(added) == 1 else None
        return cls(slots, ids, adjacency, removed,
                   no_parent=[walks.slots[n] for n in removed + lost],
                   unseen=[slots[n] for n in gained],
                   joiner=None if joiner is None else slots[joiner],
                   links=[] if joiner is None
                   else [slots[n] for n, _ in rows[joiner]])

    def stale(self, code: np.ndarray, deepest: np.ndarray
              ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The reuse rule over every walk at once: per row of ``code``,
        whether the change may alter that walk, which must then be
        walked again; and the joiner's column for the walks kept."""
        stale = ((code[:, self.no_parent] & 1).any(axis=1)
                 | code[:, self.unseen].any(axis=1))
        if self.joiner is None:
            return stale, None
        # The joiner sits one below its shallowest neighbour.  It
        # parents a switch only if one of its neighbours is deeper
        # still, and that matters only above the deepest source.
        seen = code[:, self.links].astype(np.int64)
        depths = np.where(seen > 0, seen // 2 - 1, _UNSEEN)
        depth = depths.min(axis=1, initial=_UNSEEN) + 1
        stale |= (depth < deepest) & (depths.max(axis=1, initial=0) > depth)
        return stale, np.where(depth <= deepest, 2 * depth + 2, 0)


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
