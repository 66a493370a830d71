"""Churn-under-loss convergence of the reliable southbound path.

The paper's controller assumes every rule install lands.  This
experiment drops that assumption: a randomized churn sequence (joins,
leaves, link flaps) is driven through the control plane while the
southbound channel drops, duplicates, delays, and reorders messages —
and the claim under test is that the reliability stack (ack/retry in
the :class:`~repro.controlplane.apply.TransactionalApplier`, digest
anti-entropy in :meth:`~repro.controlplane.controller.Controller.
reconcile`) still converges every switch to **byte-identical** state
with the pre-refactor :func:`~repro.controlplane.rules.
install_all_rules` oracle.

The committed ``CONVERGENCE_report.json`` (CI artifact of the
``gred reconcile`` command) records, per churn event, the retry and
transmission counts, then the divergence before/after the final
reconcile, the sweep count (the divergence window), and the oracle
verdict.  Everything is deterministic under the seed.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

import numpy as np

from ..controlplane import (
    ControlPlaneError,
    Controller,
    ControllerConfig,
    FaultyChannel,
    RetryPolicy,
    install_all_rules,
    verify_installed_state,
)
from ..dataplane import GredSwitch
from ..edge import EdgeServer, attach_uniform
from ..obs import default_registry, scoped_registry
from .common import build_topology

#: Format marker of the ``gred reconcile`` JSON report.
CONVERGENCE_FORMAT = "gred-convergence-v1"


def canonical_state(switch) -> FrozenSet:
    """Every installed fact of one switch as a comparable frozenset
    (the same canonicalization the differential test suite uses)."""
    table = switch.table
    entries = {
        ("pos", switch.position),
        ("num-servers", switch.num_servers),
    }
    for neighbor in table.physical_neighbors():
        entries.add(("port", neighbor, table.physical_port(neighbor)))
    for neighbor, pos in switch.physical_neighbor_positions.items():
        entries.add(("phys-cand", neighbor, pos))
    for neighbor, pos in switch.dt_neighbor_positions.items():
        entries.add(("dt-cand", neighbor, pos))
    for entry in table.virtual_entries():
        entries.add(("vl", entry.sour, entry.pred, entry.succ,
                     entry.dest))
    for ext in table.extensions():
        entries.add(("ext", ext.local_serial, ext.target_switch,
                     ext.target_serial))
    return frozenset(entries)


def blank_switches(controller: Controller) -> Dict[int, GredSwitch]:
    """A switch per topology node, holding only its position and server
    count (what a southbound install starts from)."""
    return {
        node: GredSwitch(
            switch_id=node,
            position=controller.positions[node],
            num_servers=len(controller.server_map.get(node, [])),
        )
        for node in controller.topology.nodes()
    }


def oracle_switches(controller: Controller) -> Dict[int, GredSwitch]:
    """From-scratch rebuild through the pre-refactor full installer.

    Range extensions are operator decisions, not a function of the
    control view, so the oracle holds the controller's own."""
    switches = blank_switches(controller)
    install_all_rules(controller.topology, switches,
                      controller.positions, controller.dt_adjacency())
    for node, live in controller.switches.items():
        for entry in live.table.extensions():
            switches[node].table.install_extension(entry)
    return switches


def mismatched_switches(controller: Controller) -> List[int]:
    """Switches whose live state differs from the oracle's."""
    oracle = oracle_switches(controller)
    live = controller.switches
    bad = sorted(set(live) ^ set(oracle))
    for switch_id in sorted(set(live) & set(oracle)):
        if canonical_state(live[switch_id]) != \
                canonical_state(oracle[switch_id]):
            bad.append(switch_id)
    return sorted(bad)


@scoped_registry()
def run_convergence(
    switches: int = 200,
    events: int = 30,
    drop: float = 0.2,
    dup: float = 0.05,
    delay: float = 0.0,
    reorder_window: int = 4,
    servers_per_switch: int = 2,
    cvt_iterations: int = 15,
    seed: int = 0,
    max_sweeps: int = 12,
    policy: Optional[RetryPolicy] = None,
) -> Dict:
    """Random churn over a seeded lossy channel, then reconcile.

    Returns the deterministic ``gred-convergence-v1`` report.  The run
    swaps in a fresh enabled metrics registry (restored on exit) so the
    ``controlplane.southbound.*`` counters in the report belong to this
    experiment alone.
    """
    topology = build_topology(switches, 3, seed)
    controller = Controller(
        topology, attach_uniform(topology.nodes(), servers_per_switch),
        config=ControllerConfig(cvt_iterations=cvt_iterations,
                                seed=seed),
    )
    channel = FaultyChannel(drop=drop, dup=dup, delay=delay,
                            reorder_window=reorder_window,
                            seed=seed + 1)
    controller.attach_transport(channel, policy=policy)
    rng = np.random.default_rng(seed + 2)
    joined: List[int] = []
    event_rows: List[Dict] = []
    skipped = 0
    for j in range(events):
        kind = str(rng.choice(
            ["join", "leave", "add_link", "remove_link"],
            p=[0.4, 0.2, 0.2, 0.2]))
        detail: Dict = {"event": j, "kind": kind}
        try:
            if kind == "join":
                new_id = 100_000 + j
                ids = sorted(controller.switches)
                peers = [int(ids[int(k)]) for k in rng.choice(
                    len(ids), size=min(2, len(ids)), replace=False)]
                controller.add_switch(
                    new_id, links=peers,
                    servers=[EdgeServer(new_id, s)
                             for s in range(servers_per_switch)])
                joined.append(new_id)
                detail["switch"] = new_id
            elif kind == "leave":
                pool = joined if joined else sorted(controller.switches)
                victim = int(pool[int(rng.integers(0, len(pool)))])
                controller.remove_switch(victim)
                if victim in joined:
                    joined.remove(victim)
                detail["switch"] = victim
            elif kind == "add_link":
                ids = sorted(controller.switches)
                u, v = (int(ids[int(k)]) for k in rng.choice(
                    len(ids), size=2, replace=False))
                controller.add_link(u, v)
                detail["u"], detail["v"] = u, v
            else:  # remove_link
                edges = sorted((u, v) for u, v, _ in
                               controller.topology.edges())
                u, v = edges[int(rng.integers(0, len(edges)))]
                controller.remove_link(u, v)
                detail["u"], detail["v"] = int(u), int(v)
        except ControlPlaneError as exc:
            # The random pick was structurally impossible (would
            # partition, duplicate link, last participant...) — the
            # event is skipped, not silently dropped.
            skipped += 1
            detail["skipped"] = str(exc)
            event_rows.append(detail)
            continue
        report = controller.last_apply_report
        if report is not None:
            detail.update({
                "generation": report.generation,
                "messages": report.messages,
                "transmissions": report.transmissions,
                "retries": report.retries,
                "pending_after": sorted(controller.pending_deltas),
            })
        event_rows.append(detail)

    divergence_before = len(controller.divergent_switches())
    reconcile = controller.reconcile(max_sweeps=max_sweeps)
    divergence_after = len(controller.divergent_switches())
    mismatched = mismatched_switches(controller)
    violations = verify_installed_state(
        controller, desired_plan=controller.desired_plan())
    return {
        "format": CONVERGENCE_FORMAT,
        "config": {
            "switches": switches,
            "events": events,
            "drop": drop,
            "dup": dup,
            "delay": delay,
            "reorder_window": reorder_window,
            "servers_per_switch": servers_per_switch,
            "cvt_iterations": cvt_iterations,
            "seed": seed,
            "max_sweeps": max_sweeps,
        },
        "events": event_rows,
        "events_applied": len(event_rows) - skipped,
        "events_skipped": skipped,
        "channel": channel.stats.to_dict(),
        "totals": {
            "transmissions": sum(r.get("transmissions", 0)
                                 for r in event_rows),
            "retries": sum(r.get("retries", 0) for r in event_rows),
        },
        "divergence": {
            "before_reconcile": divergence_before,
            "after_reconcile": divergence_after,
        },
        "reconcile": reconcile.to_dict(),
        # Headline verdicts (acceptance criteria of ``gred reconcile``).
        "oracle_match": not mismatched,
        "mismatched_switches": mismatched,
        "verifier_violations": len(violations),
        "final_switches": len(controller.switches),
        "southbound_metrics": default_registry().counter_values(
            "controlplane.southbound."),
    }
