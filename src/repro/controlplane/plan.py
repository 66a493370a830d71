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
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from ..dataplane import GredSwitch, VirtualLinkEntry
from ..geometry import Point
from ..graph import Graph
from .rules import (
    _multi_hop_destinations,
    compile_port_map,
    path_toward,
    relay_parent_tree,
)


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


@dataclass(frozen=True)
class RulePlan:
    """Desired state of the whole switch plane: switch id -> plan."""

    plans: "Dict[int, SwitchPlan]"

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
) -> RulePlan:
    """Compile the desired forwarding state of every switch.

    Pure: reads the control-plane view, touches nothing.  The result
    describes exactly the state ``install_all_rules`` would install —
    same deterministic port numbering, same per-destination BFS trees,
    same later-source-wins overwrite for relay tuples sharing a
    destination — which the differential tests assert.
    """
    ports = compile_port_map(topology)
    dt_members = set(dt_adjacency)
    candidates: Dict[int, Dict[int, Point]] = {}
    virtuals: Dict[int, Dict[int, VirtualLinkEntry]] = {}
    for node in topology.nodes():
        candidates[node] = {
            neighbor: positions[neighbor]
            for neighbor in ports[node]
            if neighbor in dt_members
        }
        virtuals[node] = {}
    # One BFS tree per multi-hop destination, walked over the port
    # map's sorted rows and only until its last source is reached.
    # The legacy installer takes the sources in ascending order and
    # lets a later one overwrite an earlier one's tuples wherever
    # their tree paths meet — which is from the meeting switch all the
    # way to ``dest``.  Descending order, each path cut at the first
    # switch that already holds a tuple for ``dest``, writes the same
    # tuples and builds none to be discarded.
    for dest in sorted(_multi_hop_destinations(topology, dt_adjacency)):
        sources = sorted(dt_adjacency[dest] - ports[dest].keys(),
                         reverse=True)
        parent = relay_parent_tree(ports, dest, sources)
        for sour in sources:
            path = path_toward(parent, sour, dest)
            for i, node in enumerate(path):
                if dest in virtuals[node]:
                    break
                virtuals[node][dest] = VirtualLinkEntry(
                    sour=sour,
                    pred=path[i - 1] if i > 0 else None,
                    succ=path[i + 1] if i < len(path) - 1 else None,
                    dest=dest,
                )
    plans: Dict[int, SwitchPlan] = {}
    for node in topology.nodes():
        dt_nbrs = dt_adjacency.get(node, ())
        plans[node] = SwitchPlan(
            switch=node,
            position=positions[node],
            ports=tuple(sorted(ports[node].items())),
            candidates=tuple(sorted(candidates[node].items())),
            dt_neighbors=tuple(sorted(
                (other, positions[other]) for other in dt_nbrs)),
            virtuals=tuple(
                virtuals[node][dest] for dest in sorted(virtuals[node])),
            num_servers=(None if server_counts is None
                         else server_counts.get(node, 0)),
        )
    return RulePlan(plans=plans)


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
