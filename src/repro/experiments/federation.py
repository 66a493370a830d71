"""Federation scaling: flat per-shard cost as the edge grows.

The federated control plane's claim is that every per-shard cost —
embedding recompute, join handling, southbound traffic — depends on the
*region* size, not the total switch count, while churn stays perfectly
region-local (zero southbound messages into any foreign region).  This
experiment grows the federation from 1k to 5k switches at a constant
region size and measures, per total size:

* per-shard full-recompute wall time (flat: the shard never sees the
  other regions);
* per-join southbound message count and touched switches in the
  joining region (flat: PR 5's delta pipeline, now per shard);
* southbound messages observed in *foreign* regions per join (must be
  exactly zero — each join mutates one shard controller);
* cross-region request behavior: fraction of requests whose home
  region differs from the entry region and the gateway-overlay hop
  overhead they pay;
* a single-region differential: a 1-region federation and a
  monolithic :class:`~repro.core.GredNetwork`, same topology and
  seed, compared record-for-record and message-for-message.

``gred federate`` renders the report and gates on the foreign-message
count (``--max-foreign-touched``, default 0).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..controlplane import FederatedNetwork, RecordingChannel
from ..controlplane.southbound import Probe
from ..core import GredNetwork
from ..edge import EdgeServer
from ..topology import federated_topology
from ..report import Gate, check_bounds, echo, flag
from .common import build_topology, format_table, mean_or_zero

#: Format marker of the ``gred federate`` JSON report.
FEDERATE_FORMAT = "gred-federate-v1"


def single_region_differential(num_switches: int = 40,
                               servers_per_switch: int = 3,
                               cvt_iterations: int = 10,
                               num_requests: int = 64,
                               seed: int = 0) -> Dict:
    """Byte-identity of a 1-region federation vs the monolith.

    Same topology, servers and seed; compares batch placement records,
    retrieval results, the load vector, and the southbound message
    stream of one join.  All four must be exactly equal — the 1-region
    federation *is* the monolithic controller.
    """
    mono = GredNetwork(build_topology(num_switches, 3, seed),
                       servers_per_switch=servers_per_switch,
                       cvt_iterations=cvt_iterations, seed=seed)
    fed = FederatedNetwork(build_topology(num_switches, 3, seed),
                           num_regions=1,
                           servers_per_switch=servers_per_switch,
                           cvt_iterations=cvt_iterations, seed=seed)
    ids = [f"diff/{i}" for i in range(num_requests)]
    placed_equal = (
        mono.place_many(ids, copies=2, rng=np.random.default_rng(seed))
        == fed.place_many(ids, copies=2,
                          rng=np.random.default_rng(seed)))
    retrieved_equal = (
        mono.retrieve_many(ids, copies=2,
                           rng=np.random.default_rng(seed + 1))
        == fed.retrieve_many(ids, copies=2,
                             rng=np.random.default_rng(seed + 1)))
    mono_channel = RecordingChannel()
    mono.controller.southbound_channel = mono_channel
    fed_channels = fed.controller.attach_channels()
    joiner = 10_000
    mono.add_switch(joiner, links=[0, 1],
                    servers=[EdgeServer(joiner, 0)])
    fed.add_switch(joiner, links=[0, 1],
                   servers=[EdgeServer(joiner, 0)])
    rid = next(iter(fed_channels))
    messages_equal = (mono_channel.messages
                      == fed_channels[rid].messages)
    return {
        "switches": num_switches,
        "placements_identical": placed_equal,
        "retrievals_identical": retrieved_equal,
        "load_identical": mono.load_vector() == fed.load_vector(),
        "join_messages_identical": messages_equal,
    }


@dataclass
class FederationConfig:
    """The sweep of :func:`run_federation_scaling`."""

    total_switches: Tuple[int, ...] = flag(
        (1000, 5000), "total switch counts to sweep (default: 1000 5000)",
        name="--sizes", nargs="+", metavar="N")
    switches_per_region: int = flag(
        250, "switches per region (default: 250)", name="--per-region",
        metavar="N")
    min_regions: int = 4
    servers_per_switch: int = flag(2, "servers per switch",
                                   name="--servers")
    cvt_iterations: int = flag(8)
    num_joins: int = flag(8, "switch joins, round-robin across regions",
                          name="--joins")
    num_requests: int = flag(
        256, "data items placed and retrieved through the overlay",
        name="--requests")
    copies: int = flag(2)
    seed: int = flag(0)

    #: ``--quick``: the CI smoke preset's shape (see SloConfig.QUICK).
    QUICK = dict(total_switches=(48, 96), switches_per_region=12,
                 cvt_iterations=4, num_joins=4, num_requests=96)

    def __post_init__(self) -> None:
        check_bounds(self, total_switches=(1, None),
                     switches_per_region=(1, None), min_regions=(1, None),
                     servers_per_switch=(1, None),
                     cvt_iterations=(0, None), num_joins=(0, None),
                     num_requests=(1, None), copies=(1, None))


def run_federation_scaling(config: FederationConfig) -> Dict:
    """The federation scaling report (see module docstring).

    Region count grows with the total (``total // switches_per_region``,
    at least ``min_regions``); the per-shard metrics must stay flat
    across rows while the totals grow 5x.
    """
    seed, copies = config.seed, config.copies
    rows: List[Dict] = []
    for total in config.total_switches:
        regions = max(config.min_regions,
                      total // config.switches_per_region)
        per_region = max(4, total // regions)
        topology, assignment = federated_topology(
            regions, per_region, min_degree=3, seed=seed)
        fed = FederatedNetwork(
            topology, assignment=assignment,
            servers_per_switch=config.servers_per_switch,
            cvt_iterations=config.cvt_iterations, seed=seed)
        # Per-shard full recompute: the cost of rebuilding one region's
        # embedding + DT + rules from scratch, which in the monolith
        # grew with the global n.
        recompute_seconds: List[float] = []
        for rid in sorted(fed.shards):
            start = time.perf_counter()
            fed.shards[rid].controller.recompute()
            recompute_seconds.append(time.perf_counter() - start)
        channels = fed.controller.attach_channels()
        # Warm each shard's planes with a batch round before churn.
        ids = [f"fed/{total}/{i}" for i in range(config.num_requests)]
        digests = fed.shards[sorted(fed.shards)[0]].net.prehash(
            ids, copies)
        place_results = fed.place_many(
            ids, copies=copies, rng=np.random.default_rng(seed + 2),
            digests=digests)
        # Joins round-robin across regions: per-join home cost and the
        # foreign-region message count (the churn-isolation claim).
        rng = np.random.default_rng(seed + 1)
        home_messages: List[int] = []
        home_touched: List[int] = []
        foreign_messages_total = 0
        join_seconds: List[float] = []
        for j in range(config.num_joins):
            rid = sorted(fed.shards)[j % regions]
            members = fed.shards[rid].net.switch_ids()
            peers = [int(members[int(v)]) for v in
                     rng.choice(len(members), size=2, replace=False)]
            for channel in channels.values():
                channel.clear()
            new_id = 1_000_000 + j
            start = time.perf_counter()
            fed.add_switch(new_id, peers, servers=[
                EdgeServer(new_id, s)
                for s in range(config.servers_per_switch)])
            join_seconds.append(time.perf_counter() - start)
            home_messages.append(
                channels[rid].count(exclude=(Probe,)))
            home_touched.append(
                len(channels[rid].per_switch(exclude=(Probe,))))
            foreign_messages_total += fed.controller.foreign_messages(
                channels, rid)
        # Request-path behavior across the overlay.
        retrieved = fed.retrieve_many(
            ids, copies=copies, rng=np.random.default_rng(seed + 3),
            digests=digests)
        found = sum(1 for r in retrieved if r.found)
        cross = 0
        cross_hops: List[int] = []
        intra_hops: List[int] = []
        for result in place_results:
            for record in result.records:
                entry_region = fed.region_of(record.entry_switch)
                home = fed.region_of(record.destination_switch)
                if home != entry_region:
                    cross += 1
                    cross_hops.append(record.physical_hops)
                else:
                    intra_hops.append(record.physical_hops)
        total_records = cross + len(intra_hops)
        rows.append({
            "total_switches": total + config.num_joins,
            "regions": regions,
            "switches_per_region": per_region,
            "mean_shard_recompute_s": round(mean_or_zero(recompute_seconds),
                                            4),
            "max_shard_recompute_s": round(max(recompute_seconds), 4),
            "avg_join_messages": mean_or_zero(home_messages),
            "avg_join_switches_touched": mean_or_zero(home_touched),
            "avg_join_seconds": round(mean_or_zero(join_seconds), 4),
            "foreign_messages": foreign_messages_total,
            "cross_region_fraction": round(cross / total_records, 4),
            "avg_intra_place_hops": round(mean_or_zero(intra_hops), 3),
            "avg_cross_place_hops": round(mean_or_zero(cross_hops), 3),
            "retrieved_found": found,
            "requests": len(ids),
        })
    return {
        "format": FEDERATE_FORMAT,
        **echo(config),
        "single_region_differential": single_region_differential(
            seed=seed),
        "rows": rows,
    }


def check_federation(report: Dict) -> List[str]:
    """The invariants of a federation report: every retrieval found its
    item, and a 1-region federation is the monolithic controller."""
    failures = [
        f"{row['requests'] - row['retrieved_found']} of "
        f"{row['requests']} retrievals missed at "
        f"n={row['total_switches']}"
        for row in report["rows"]
        if row["retrieved_found"] != row["requests"]]
    return failures + [
        f"single-region differential mismatch: {key}={value} "
        f"(1-region federation must be identical to the monolithic "
        f"controller)"
        for key, value in report["single_region_differential"].items()
        if key != "switches" and value is not True]


#: ``gred federate``'s CI threshold.
GATES = (
    Gate("--max-foreign-touched", "rows.foreign_messages", False,
         "churn at n={row[total_switches]} shipped {value} southbound "
         "message(s) into foreign regions > --max-foreign-touched "
         "{limit:g}",
         "exit nonzero when churn ships more than N southbound messages "
         "into foreign regions (default 0: perfect isolation)",
         default=0, checks=check_federation),
)


def render_federation(report: Dict) -> str:
    """The federation report's table and differential verdicts."""
    table = format_table(
        report["rows"],
        ["total_switches", "regions", "mean_shard_recompute_s",
         "avg_join_messages", "foreign_messages",
         "cross_region_fraction", "retrieved_found"],
        "federation: flat per-shard cost, zero foreign churn traffic")
    differential = report["single_region_differential"]
    return (f"{table}\nsingle-region differential vs monolith: "
            + ", ".join(f"{key}={value}"
                        for key, value in differential.items()
                        if key != "switches"))
