"""X6 — control-plane update cost of a node join.

When an edge node joins, how much installed routing state must change
across the network?

* **GRED**: the controller computes the join position locally and the
  DT insertion only affects the new switch's neighborhood (paper §VI:
  a new node "only affects its neighbors").  We diff the semantic
  per-switch state (position, greedy candidates, relay tuples, ports)
  before and after the join.
* **Chord**: a new ring node takes over part of its successor's key
  range and appears in the finger tables of O(log n) other nodes; we
  diff all finger tables before and after.

Both counts are *semantic* diffs of installed state, independent of how
each implementation schedules its updates.

Since the control plane moved to the plan/diff/apply pipeline, the
experiment also counts what the controller *actually ships*: every
southbound message is recorded on a channel, so the reported delta is
the real control traffic, not just the semantic diff.
:func:`run_churn_scaling` runs the same join workload across network
sizes and reports, per size, the delta message count against the
pre-refactor full-reinstall message count — the locality claim of the
refactor (delta flat in n, full reinstall O(n)) as a committed JSON
report (``gred churn``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from ..chord import ChordRing
from ..edge import EdgeServer, attach_uniform
from ..report import Gate, check_bounds, echo, flag
from .common import build_topology, format_table, mean_or_zero
from .convergence import blank_switches, canonical_state

#: Format marker of the ``gred churn`` JSON report.
CHURN_FORMAT = "gred-churn-v1"


def _diff_states(before: Dict[int, FrozenSet],
                 after: Dict[int, FrozenSet]) -> Tuple[int, int]:
    """(switches touched, entries added+removed) between two snapshots,
    ignoring switches present on only one side (the joiner itself)."""
    touched = 0
    entries = 0
    for switch_id in before:
        if switch_id not in after:
            continue
        delta = len(before[switch_id] ^ after[switch_id])
        if delta:
            touched += 1
            entries += delta
    return touched, entries


def _chord_finger_state(ring: ChordRing) -> Dict[str, Tuple]:
    """owner -> tuple of (position id, finger target owners...)."""
    state: Dict[str, Tuple] = {}
    for node in ring.ring_nodes():
        fingers = tuple(f.owner for f in ring.finger_table(node.node_id))
        state.setdefault(node.owner, ())
        state[node.owner] = state[node.owner] + ((node.node_id,)
                                                 + fingers,)
    return state


def run_control_churn(
    num_switches: int = 50,
    servers_per_switch: int = 4,
    num_joins: int = 5,
    seed: int = 0,
) -> List[Dict]:
    """Average installed-state changes per join, GRED vs Chord."""
    from ..controlplane import (Controller, ControllerConfig,
                                RecordingChannel)

    # ---------------- GRED ------------------------------------------
    topology = build_topology(num_switches, 3, seed)
    controller = Controller(
        topology, attach_uniform(topology.nodes(), servers_per_switch),
        config=ControllerConfig(cvt_iterations=30, seed=seed),
    )
    # Record the actual southbound traffic of every join, so the row
    # reports what the controller ships, not just the semantic diff.
    channel = RecordingChannel()
    controller.southbound_channel = channel
    rng = np.random.default_rng(seed + 1)
    meter = _JoinMeter()
    for _ in range(num_joins):
        peers = [int(p) for p in rng.choice(num_switches, size=2,
                                            replace=False)]
        meter.measure(controller, channel, controller.add_switch, peers,
                      servers_per_switch)
    rows = [{
        "protocol": "GRED",
        "avg_nodes_touched": mean_or_zero(meter.semantic_touched),
        "avg_entries_changed": mean_or_zero(meter.semantic_entries),
        "avg_messages_sent": mean_or_zero(meter.delta_messages),
        "avg_switches_messaged": mean_or_zero(meter.touched_counts),
        "population": num_switches,
    }]
    # ---------------- Chord -----------------------------------------
    members = {
        f"server-{sw}-{s}": sw
        for sw in range(num_switches)
        for s in range(servers_per_switch)
    }
    touched_total = 0
    entries_total = 0
    for j in range(num_joins):
        ring_before = ChordRing(members, bits=32)
        state_before = _chord_finger_state(ring_before)
        members[f"server-{1000 + j}-0"] = 1000 + j
        ring_after = ChordRing(members, bits=32)
        state_after = _chord_finger_state(ring_after)
        touched = 0
        entries = 0
        for owner, fingers in state_before.items():
            new_fingers = state_after.get(owner)
            if new_fingers is None or new_fingers == fingers:
                continue
            touched += 1
            for old_pos, new_pos in zip(fingers, new_fingers):
                entries += sum(
                    1 for a, b in zip(old_pos, new_pos) if a != b
                )
        touched_total += touched
        entries_total += entries
    rows.append({
        "protocol": "Chord",
        "avg_nodes_touched": touched_total / num_joins,
        "avg_entries_changed": entries_total / num_joins,
        "population": num_switches * servers_per_switch,
    })
    return rows


class _JoinMeter:
    """What X6 (:func:`run_control_churn`) and both arms of
    :func:`run_churn_scaling` measure per join, and the row the joins
    of one network size average into.  The arms differ only in how they
    build the deployment, pick the joiner's peers and account foreign
    regions."""

    def __init__(self) -> None:
        self.delta_messages: List[int] = []
        self.touched_counts: List[int] = []
        self.full_messages: List[int] = []
        self.semantic_touched: List[int] = []
        self.semantic_entries: List[int] = []
        self.generations_preserved = True

    def measure(self, home, channel, add_switch, peers: List[int],
                servers_per_switch: int) -> None:
        """One join event: ``add_switch`` (the deployment's) links a
        new switch to ``peers`` under the ``home`` controller, whose
        recording ``channel`` then holds what the join shipped."""
        from ..controlplane import install_all_rules
        from ..controlplane.southbound import Probe

        before = {
            sid: canonical_state(sw) for sid, sw in home.switches.items()
        }
        generations_before = home.generations
        new_id = 100_000 + len(self.delta_messages)
        channel.clear()
        add_switch(new_id, peers,
                   servers=[EdgeServer(new_id, s)
                            for s in range(servers_per_switch)])
        # Exclude liveness probes: the row reports rule traffic, and a
        # failure-detector sweep sharing the channel must not inflate
        # the join's apparent cost.
        self.delta_messages.append(channel.count(exclude=(Probe,)))
        touched = set(channel.per_switch(exclude=(Probe,)))
        self.touched_counts.append(len(touched))
        # The pre-refactor path cleared and reinstalled every switch
        # of the home controller (a region was the unit of blast
        # radius even before the delta pipeline): its cost is the
        # writes of a full install over the post-join network.
        self.full_messages.append(install_all_rules(
            home.topology, blank_switches(home), home.positions,
            home.dt_adjacency()))
        after = {
            sid: canonical_state(sw) for sid, sw in home.switches.items()
        }
        touched_sem, entries_sem = _diff_states(before, after)
        self.semantic_touched.append(touched_sem)
        self.semantic_entries.append(entries_sem)
        generations_after = home.generations
        for sid, generation in generations_before.items():
            if sid not in touched and \
                    generations_after.get(sid) != generation:
                self.generations_preserved = False

    def row(self, switches: int, regions: int, index_builds: int,
            foreign_touched: Sequence[int] = (),
            foreign_messages: Sequence[int] = (),
            router_reused=None, avg_router_recompiles=None,
            route_cache_survival=None, **extra) -> Dict:
        return {
            "switches": switches,
            "regions": regions,
            "avg_delta_messages": mean_or_zero(self.delta_messages),
            "avg_switches_touched": mean_or_zero(self.touched_counts),
            "avg_foreign_touched": mean_or_zero(foreign_touched),
            "avg_foreign_messages": mean_or_zero(foreign_messages),
            "avg_full_reinstall_messages":
                mean_or_zero(self.full_messages),
            "avg_semantic_switches_touched":
                mean_or_zero(self.semantic_touched),
            "avg_semantic_entries_changed":
                mean_or_zero(self.semantic_entries),
            "index_builds_during_joins": index_builds,
            "router_reused": router_reused,
            "avg_router_recompiles": avg_router_recompiles,
            "route_cache_survival": route_cache_survival,
            "untouched_generations_preserved":
                self.generations_preserved,
            **extra,
        }


@dataclass
class ChurnConfig:
    """The join workload of :func:`run_churn_scaling`."""

    sizes: Tuple[int, ...] = flag(
        (50, 100, 200, 400), "network sizes (switch counts) to sweep",
        nargs="+")
    num_joins: int = flag(5, "node joins per size", name="--joins")
    servers_per_switch: int = flag(2, "servers per switch",
                                   name="--servers")
    cvt_iterations: int = flag(30)
    seed: int = flag(0)
    regions: int = flag(
        1, "shard the control plane into this many regions (metro "
           "topology); joins then round-robin across regions and the "
           "report adds a per-region touched breakdown")

    def __post_init__(self) -> None:
        check_bounds(self, sizes=(4, None), num_joins=(1, None),
                     servers_per_switch=(1, None),
                     cvt_iterations=(0, None), regions=(1, None))


def run_churn_scaling(config: ChurnConfig) -> Dict:
    """Churn locality across network sizes: delta vs full reinstall.

    For each size, a network is built, the request fast path is warmed,
    and ``num_joins`` switches join one by one while a recording
    channel counts the actual southbound messages.  Each row reports:

    * ``avg_delta_messages`` / ``avg_switches_touched`` — what the
      plan/diff/apply pipeline actually shipped (neighborhood-sized,
      flat in n);
    * ``avg_full_reinstall_messages`` — what the pre-refactor
      clear-and-reinstall path would have shipped (O(n));
    * ``avg_semantic_*`` — the installed-state diff of surviving
      switches (the paper's §VI locality claim);
    * ``index_builds_during_joins`` — full routing-index rebuilds
      triggered by the joins (0 = updated in place);
    * ``router_reused`` / ``avg_router_recompiles`` — whether the
      compiled fast-path router object survived all joins and how many
      per-switch recompilations each join cost;
    * ``route_cache_survival`` — fraction of cached routes that
      survived the joins' scoped eviction;
    * ``untouched_generations_preserved`` — no un-messaged switch had
      its generation counter bumped.

    With ``regions > 1`` the same workload runs against a
    :class:`~repro.controlplane.FederatedNetwork` over a metro
    topology: joins round-robin across regions, per-region recording
    channels split the southbound traffic into home vs foreign, and
    each row gains ``per_region_touched`` (per join event: which
    regions saw messages and how many switches each) plus
    ``avg_foreign_touched`` / ``avg_foreign_messages`` — the
    cross-shard locality gate of ``gred churn --max-foreign-touched``
    (both must be exactly zero).  The fast-path cache fields are the
    monolith's and are ``None`` in federated rows.
    """
    arm = (_monolith_churn_row if config.regions == 1
           else _federated_churn_row)
    return {
        "format": CHURN_FORMAT,
        **echo(config),
        "rows": [arm(size, config) for size in config.sizes],
    }


def check_churn(report: Dict) -> List[str]:
    """The invariant every churn row must keep: a join bumps no
    generation of a switch it did not message."""
    return [f"untouched switch generations were bumped at "
            f"n={row['switches']} (scoped invalidation leak)"
            for row in report["rows"]
            if not row["untouched_generations_preserved"]]


#: ``gred churn``'s CI thresholds.
GATES = (
    Gate("--max-touched", "rows.avg_switches_touched", False,
         "avg switches touched per join at n={row[switches]} is "
         "{value:.1f} > --max-touched {limit:g}",
         "exit nonzero when the average switches touched per join "
         "exceeds N at any size (CI gate for delta locality)",
         after="seed"),
    Gate("--max-foreign-touched", "rows.avg_foreign_touched", False,
         "churn at n={row[switches]} touched {value:.1f} switch(es) "
         "outside the joining region > --max-foreign-touched "
         "{limit:g} (cross-shard locality leak)",
         "exit nonzero when a join touches more than N switches "
         "outside its home region (cross-shard locality gate; default "
         "0, only meaningful with --regions > 1)",
         default=0, checks=check_churn),
)


def render_churn(report: Dict) -> str:
    """The churn report as a table: per size, delta vs full-reinstall
    traffic (and the foreign-region columns when federated)."""
    columns = ["switches", "avg_delta_messages", "avg_switches_touched",
               "avg_full_reinstall_messages", "route_cache_survival"]
    if report["regions"] > 1:
        columns = ["switches", "regions", "avg_delta_messages",
                   "avg_switches_touched", "avg_foreign_touched",
                   "avg_foreign_messages", "avg_full_reinstall_messages"]
    return format_table(report["rows"], columns,
                        "churn: delta vs full-reinstall control traffic")


def _monolith_churn_row(num_switches: int, config: ChurnConfig) -> Dict:
    """The ``regions == 1`` arm of :func:`run_churn_scaling`: one
    controller, whose compiled router and route cache the joins must
    preserve."""
    from ..controlplane import RecordingChannel
    from ..core import GredNetwork

    topology = build_topology(num_switches, 3, config.seed)
    net = GredNetwork(
        topology, servers_per_switch=config.servers_per_switch,
        cvt_iterations=config.cvt_iterations, seed=config.seed,
    )
    controller = net.controller
    channel = RecordingChannel()
    controller.southbound_channel = channel
    # Warm the scoped caches so the joins have something to
    # preserve: the routing index, the compiled router, and a
    # populated route cache.
    controller.closest_switch((0.5, 0.5))
    ids = [f"churn/{num_switches}/{i}" for i in range(256)]
    net.place_many(ids, rng=np.random.default_rng(config.seed + 2))
    router_before = net._fastpath.router
    compiles_before = router_before.switch_compiles
    cached_before = set(net._fastpath.routes)
    index_builds_before = controller.index_builds
    rng = np.random.default_rng(config.seed + 1)
    meter = _JoinMeter()
    for _ in range(config.num_joins):
        peers = [int(p) for p in rng.choice(num_switches, size=2,
                                            replace=False)]
        meter.measure(controller, channel, controller.add_switch, peers,
                      config.servers_per_switch)
        controller.closest_switch((0.25, 0.75))
    # Force the scoped fast-path update and measure what survived.
    state = net._fast_state()
    router_reused = state.router is router_before
    surviving = len(cached_before & set(state.routes))
    return meter.row(
        num_switches, config.regions,
        controller.index_builds - index_builds_before,
        router_reused=router_reused,
        avg_router_recompiles=(
            (state.router.switch_compiles - compiles_before)
            / config.num_joins
            if router_reused else None),
        route_cache_survival=(surviving / len(cached_before)
                              if cached_before else None))


def _federated_churn_row(num_switches: int, config: ChurnConfig) -> Dict:
    """The ``regions > 1`` arm of :func:`run_churn_scaling`.

    The size becomes a metro federation (``size // regions`` switches
    per region); every join homes into one region and the per-region
    recording channels prove the cross-shard locality claim: all
    southbound traffic lands in the home region, zero elsewhere.
    """
    from ..controlplane import FederatedNetwork
    from ..controlplane.southbound import Probe
    from ..topology import federated_topology

    per_region = max(4, num_switches // config.regions)
    topology, assignment = federated_topology(
        config.regions, per_region, min_degree=3, seed=config.seed)
    fed = FederatedNetwork(
        topology, assignment=assignment,
        servers_per_switch=config.servers_per_switch,
        cvt_iterations=config.cvt_iterations, seed=config.seed)
    channels = fed.controller.attach_channels()
    index_builds_before = {
        rid: shard.controller.index_builds
        for rid, shard in fed.shards.items()
    }
    # Warm every shard's planes so the joins exercise the scoped
    # invalidation paths, exactly like the monolithic arm.
    ids = [f"churn/{num_switches}/{i}" for i in range(256)]
    fed.place_many(ids, rng=np.random.default_rng(config.seed + 2))
    rng = np.random.default_rng(config.seed + 1)
    region_ids = sorted(fed.shards)
    meter = _JoinMeter()
    foreign_touched: List[int] = []
    foreign_messages: List[int] = []
    join_events: List[Dict] = []
    for j in range(config.num_joins):
        rid = region_ids[j % config.regions]
        members = fed.shard(rid).net.switch_ids()
        peers = [int(members[int(v)]) for v in
                 rng.choice(len(members), size=2, replace=False)]
        for channel in channels.values():
            channel.clear()
        meter.measure(fed.shard(rid).net.controller, channels[rid],
                      fed.add_switch, peers, config.servers_per_switch)
        per_region_touched = {
            str(other): len(channels[other].per_switch(
                exclude=(Probe,)))
            for other in region_ids
            if channels[other].count(exclude=(Probe,))
        }
        foreign_touched.append(sum(
            count for other, count in per_region_touched.items()
            if other != str(rid)))
        foreign_messages.append(sum(
            channels[other].count(exclude=(Probe,))
            for other in region_ids if other != rid))
        join_events.append({
            "join": j,
            "home_region": rid,
            "touched_per_region": per_region_touched,
        })
    return meter.row(
        num_switches, config.regions,
        sum(shard.controller.index_builds - index_builds_before[rid]
            for rid, shard in fed.shards.items()),
        foreign_touched, foreign_messages, join_events=join_events)
