"""Installed-state verification: a consistency checker for the data
plane.

An SDN controller that pushes rules proactively needs a way to audit
what is actually installed — misconfigured relay chains or stale greedy
candidates cause loops or misdeliveries that only appear under
traffic.  ``verify_installed_state`` checks the invariants the GRED
data plane relies on and returns structured violations (empty list =
consistent).  The chaos tests corrupt switches deliberately and assert
the verifier catches every class of fault.

Checked invariants:

1. every DT participant's greedy candidates carry the controller's
   positions (no stale/forged coordinates);
2. every multi-hop DT neighbor has a virtual-link start entry whose
   successor is a physical neighbor;
3. every relay chain, followed hop by hop, terminates at its declared
   destination without revisiting a switch;
4. DT adjacency is symmetric and matches the controller's view;
5. extension entries point at existing servers on physical neighbors
   (one kept across a lost link, because what it redirected could not
   move home, is a :class:`DetachedExtension` with its hop distance);
6. (with ``fault_state``) no installed rule references a crashed
   switch — dead greedy candidates, relay successors or extension
   targets mean a repair sweep has not yet run;
7. every switch's installed port map equals the deterministic
   compiler's output for the current topology, exactly — a stale
   entry for a removed link or a missing entry for a new one means a
   delta update retracted too little or installed too few rules;
8. (with ``desired_plan``) every switch's installed-state digest
   equals the desired plan's — the anti-entropy comparison: a
   mismatch means southbound faults (loss, reordering, stale delayed
   messages) left divergent state that ``Controller.reconcile`` has
   not yet repaired.
9. (federation, :func:`verify_region_scope`) no installed rule on a
   shard's switch references a switch outside that shard — greedy
   candidates, DT neighbors, relay tuples, ports and extension
   targets must all stay region-local.  Only the federation's own
   overlay table may name gateway switches of other regions; shard
   rule tables never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..graph import hop_count
from .controller import Controller
from .plan import RulePlan, plan_digests, snapshot_plan


@dataclass(frozen=True)
class Violation:
    """One detected inconsistency."""

    kind: str
    switch: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] switch {self.switch}: {self.detail}"


@dataclass(frozen=True)
class DetachedExtension(Violation):
    """A range extension on ``switch`` whose takeover switch is
    ``hops`` physical hops away instead of a neighbour: its link was
    lost and what it redirected did not fit back home, so it serves
    on, ``hops - 1`` relays further than the paper's extension."""

    serial: int
    hops: int


def verify_installed_state(
    controller: Controller,
    fault_state: Optional[object] = None,
    desired_plan: Optional[RulePlan] = None,
) -> List[Violation]:
    """Audit the data-plane state against the controller's intent.

    With ``fault_state`` (a :class:`repro.faults.FaultState`), also
    flag rules that reference crashed switches as ``dead-reference``
    violations; with ``desired_plan``, also compare per-switch
    installed-state digests against the plan and flag divergence as
    ``digest-mismatch``; without them the audit is unchanged.
    """
    violations: List[Violation] = []
    topology = controller.topology
    positions = controller.positions
    adjacency = controller.dt_adjacency()

    for switch_id, switch in controller.switches.items():
        # 1. candidate positions match the controller's.
        for nid, pos in switch.physical_neighbor_positions.items():
            if nid not in positions or positions[nid] != pos:
                violations.append(Violation(
                    "stale-position", switch_id,
                    f"physical candidate {nid} at {pos}, controller "
                    f"says {positions.get(nid)}"))
        for nid, pos in switch.dt_neighbor_positions.items():
            if nid not in positions or positions[nid] != pos:
                violations.append(Violation(
                    "stale-position", switch_id,
                    f"DT candidate {nid} at {pos}, controller says "
                    f"{positions.get(nid)}"))
        # 4. DT adjacency matches.
        if switch.in_dt:
            expected = adjacency.get(switch_id, set())
            installed = set(switch.dt_neighbor_positions)
            if installed != expected:
                violations.append(Violation(
                    "dt-adjacency", switch_id,
                    f"installed DT neighbors {sorted(installed)} != "
                    f"expected {sorted(expected)}"))
        # 2. virtual-link start entries for multi-hop DT neighbors.
        for nid in switch.dt_neighbor_positions:
            if topology.has_edge(switch_id, nid):
                continue
            entry = switch.table.virtual_entry(nid)
            if entry is None or entry.succ is None:
                violations.append(Violation(
                    "missing-vl-start", switch_id,
                    f"no virtual-link entry toward DT neighbor {nid}"))
            elif not topology.has_edge(switch_id, entry.succ):
                violations.append(Violation(
                    "bad-vl-succ", switch_id,
                    f"virtual-link successor {entry.succ} toward "
                    f"{nid} is not physically adjacent"))
        # 5. extensions point at real neighbor servers.
        for ext in switch.table.extensions():
            if not topology.has_node(ext.target_switch):
                violations.append(Violation(
                    "bad-extension", switch_id,
                    f"extension target switch {ext.target_switch} "
                    f"does not exist"))
                continue
            if not topology.has_edge(switch_id, ext.target_switch):
                hops = hop_count(topology, switch_id, ext.target_switch)
                violations.append(DetachedExtension(
                    "detached-extension", switch_id,
                    f"extension of serial {ext.local_serial} reaches "
                    f"switch {ext.target_switch} {hops} hops away",
                    ext.local_serial, hops))
                continue
            servers = controller.server_map.get(ext.target_switch, [])
            if ext.target_serial >= len(servers):
                violations.append(Violation(
                    "bad-extension", switch_id,
                    f"extension target serial {ext.target_serial} "
                    f"does not exist on switch {ext.target_switch}"))

    # 7. installed ports match the deterministic port map exactly.
    from .rules import compile_port_map

    expected_ports = compile_port_map(topology)
    for switch_id, switch in controller.switches.items():
        table = switch.table
        installed_ports = {
            neighbor: table.physical_port(neighbor)
            for neighbor in table.physical_neighbors()
        }
        if installed_ports != expected_ports.get(switch_id, {}):
            violations.append(Violation(
                "port-map", switch_id,
                f"installed ports {sorted(installed_ports.items())} != "
                f"compiled {sorted(expected_ports.get(switch_id, {}).items())}"))

    # 3. relay chains terminate.
    violations.extend(_verify_relay_chains(controller))
    # 6. nothing references a crashed switch.
    if fault_state is not None:
        violations.extend(_verify_liveness(controller, fault_state))
    # 8. installed digests match the desired plan (anti-entropy view).
    if desired_plan is not None:
        violations.extend(_verify_digests(controller, desired_plan))
    return violations


def _verify_digests(controller: Controller,
                    desired_plan: RulePlan) -> List[Violation]:
    """Flag switches whose installed-state digest diverges from the
    desired plan's — in either direction."""
    violations: List[Violation] = []
    want = plan_digests(desired_plan)
    have = plan_digests(snapshot_plan(controller.switches))
    for switch_id in sorted(set(want) | set(have)):
        if want.get(switch_id) == have.get(switch_id):
            continue
        if switch_id not in have:
            detail = "desired plan has no installed counterpart"
        elif switch_id not in want:
            detail = "installed state has no desired counterpart"
        else:
            detail = (f"installed digest {have[switch_id][:12]} != "
                      f"desired {want[switch_id][:12]}")
        violations.append(Violation("digest-mismatch", switch_id,
                                    detail))
    return violations


def _verify_liveness(controller: Controller,
                     fault_state) -> List[Violation]:
    """Flag installed rules that reference crashed switches."""
    violations: List[Violation] = []
    for switch_id, switch in controller.switches.items():
        dead_refs = set()
        for nid in switch.physical_neighbor_positions:
            if not fault_state.switch_alive(nid):
                dead_refs.add(nid)
        for nid in switch.dt_neighbor_positions:
            if not fault_state.switch_alive(nid):
                dead_refs.add(nid)
        for entry in switch.table.virtual_entries():
            for nid in (entry.succ, entry.dest):
                if nid is not None and \
                        not fault_state.switch_alive(nid):
                    dead_refs.add(nid)
        for ext in switch.table.extensions():
            if not fault_state.switch_alive(ext.target_switch):
                dead_refs.add(ext.target_switch)
        for nid in sorted(dead_refs):
            violations.append(Violation(
                "dead-reference", switch_id,
                f"installed state references crashed switch {nid}"))
    return violations


def _verify_relay_chains(controller: Controller) -> List[Violation]:
    violations: List[Violation] = []
    topology = controller.topology
    for switch_id, switch in controller.switches.items():
        for entry in switch.table.virtual_entries():
            if entry.succ is None:
                continue
            # Follow successors toward entry.dest.
            seen = {switch_id}
            current = entry.succ
            ok = False
            for _ in range(topology.num_nodes() + 1):
                if current == entry.dest:
                    ok = True
                    break
                if current in seen:
                    break  # loop
                seen.add(current)
                next_switch = controller.switches.get(current)
                if next_switch is None:
                    break
                hop = next_switch.table.virtual_entry(entry.dest)
                if hop is None or hop.succ is None:
                    break
                current = hop.succ
            if not ok:
                violations.append(Violation(
                    "broken-relay-chain", switch_id,
                    f"chain toward {entry.dest} via {entry.succ} never "
                    f"reaches its destination"))
    return violations


def verify_region_scope(controller: Controller, members,
                        region: int = 0) -> List[Violation]:
    """Invariant 9: every switch reference installed on a shard stays
    inside that shard.

    ``members`` is the shard's switch set.  Any installed greedy
    candidate, DT neighbor, relay tuple endpoint, port-map neighbor or
    extension target outside it is a ``region-scope`` violation: a
    shard controller that leaks references to another region would
    re-couple the shards and break churn isolation.  (Gateway switches
    are themselves shard members; the *overlay* table that names
    gateways of other regions lives in the federation, never in a
    shard's rule tables.)
    """
    allowed = set(members)
    violations: List[Violation] = []
    for switch_id, switch in controller.switches.items():
        foreign = set()
        table = switch.table
        foreign.update(n for n in table.physical_neighbors()
                       if n not in allowed)
        foreign.update(n for n in switch.physical_neighbor_positions
                       if n not in allowed)
        foreign.update(n for n in switch.dt_neighbor_positions
                       if n not in allowed)
        for entry in table.virtual_entries():
            for ref in (entry.sour, entry.pred, entry.succ, entry.dest):
                if ref is not None and ref not in allowed:
                    foreign.add(ref)
        for ext in table.extensions():
            if ext.target_switch not in allowed:
                foreign.add(ext.target_switch)
        for ref in sorted(foreign):
            violations.append(Violation(
                "region-scope", switch_id,
                f"installed state references switch {ref} outside "
                f"region {region}"))
    return violations
