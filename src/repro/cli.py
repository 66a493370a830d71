"""Command-line interface for the GRED reproduction.

File-backed workflows over a saved deployment snapshot::

    gred generate --switches 30 --servers 4 -o net.json
    gred place -n net.json videos/a.mp4 --payload '"h264..."' --entry 0
    gred retrieve -n net.json videos/a.mp4 --entry 7
    gred stats -n net.json [--json]
    gred extend -n net.json 4 0
    gred experiment fig9a [--metrics-out m.json]
    gred metrics -n net.json            # or: --from m.json [--json]
    gred chaos --switches 30 --copies 3 [--plan plan.json]
               [--control-plan cp.json] [--json]
    gred reconcile -n net.json [--max-divergence 0]   # anti-entropy
    gred reconcile [--quick] [-o CONVERGENCE_report.json]
                   [--max-divergence 0]   # churn-under-loss experiment
    gred scrub -n net.json [--max-divergence 0]   # storage anti-entropy
    gred scrub [--quick] [-o DURABILITY_report.json]
               [--max-divergence 0]   # crash+partition+delete churn
    gred loadtest [--quick] [--min-goodput 0.99] [-o SLO_report.json]
                  [--trace-out traces.jsonl [--trace-sample 0.05]]
    gred trace -n net.json [data_id] [--summary]
               [--spans-out t.jsonl] [--chrome-out t.json]
    gred churn [--sizes 50 100 200 400] [--max-touched 25]
               [--regions 4 --max-foreign-touched 0]
    gred federate [--quick] [-o FEDERATION_report.json]
                  [--max-foreign-touched 0]

(Installed as the ``gred`` console script; also runnable via
``python -m repro.cli``.)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np


def _shared_flags(cmd, *, servers, output=None, quick=False,
                  what="report", summary="summary") -> None:
    """The flags several commands declare with one type and help text;
    defaults stay per command."""
    cmd.add_argument("--servers", type=int, default=servers,
                     help="servers per switch")
    if quick:
        cmd.add_argument("--quick", action="store_true",
                         help="tiny CI smoke preset (overrides the "
                              "workload-shape flags)")
    if output is not None:
        cmd.add_argument("-o", "--output", default=output, metavar="FILE",
                         help=f"{what} path (default: {output})")
        cmd.add_argument("--json", action="store_true",
                         help=f"print the full report instead of the "
                              f"{summary}")


def _build_parser() -> argparse.ArgumentParser:
    from .experiments.catalog import GROUPS, TABLES

    parser = argparse.ArgumentParser(
        prog="gred",
        description="GRED: data placement/retrieval for edge computing "
                    "(ICDCS'19 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate",
                         help="generate a network and save a snapshot")
    gen.add_argument("--switches", type=int, default=20)
    gen.add_argument("--min-degree", type=int, default=3)
    _shared_flags(gen, servers=4)
    gen.add_argument("--cvt-iterations", type=int, default=50)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)

    place = sub.add_parser("place", help="place a data item")
    place.add_argument("-n", "--network", required=True)
    place.add_argument("data_id")
    place.add_argument("--payload", default=None,
                       help="JSON-encoded payload")
    place.add_argument("--entry", type=int, default=None)
    place.add_argument("--copies", type=int, default=1)

    retrieve = sub.add_parser("retrieve", help="retrieve a data item")
    retrieve.add_argument("-n", "--network", required=True)
    retrieve.add_argument("data_id")
    retrieve.add_argument("--entry", type=int, default=None)
    retrieve.add_argument("--copies", type=int, default=1)

    delete = sub.add_parser("delete", help="delete a data item")
    delete.add_argument("-n", "--network", required=True)
    delete.add_argument("data_id")
    delete.add_argument("--copies", type=int, default=1)

    stats = sub.add_parser("stats", help="deployment statistics")
    stats.add_argument("-n", "--network", required=True)
    stats.add_argument("--json", action="store_true",
                       help="machine-readable JSON instead of text")
    stats.add_argument("--sweep", action="store_true",
                       help="run one OverloadManager sweep and report "
                            "its extend/retract actions (persists any "
                            "range changes back to the snapshot)")
    stats.add_argument("--high-watermark", type=float, default=0.85,
                       help="utilization that triggers an extension "
                            "during --sweep")
    stats.add_argument("--low-watermark", type=float, default=0.4,
                       help="utilization that allows a retraction "
                            "during --sweep")

    metrics = sub.add_parser(
        "metrics",
        help="render telemetry as Prometheus text (or JSON)")
    metrics.add_argument("-n", "--network", default=None,
                         help="probe a snapshot: restore it with "
                              "telemetry enabled and report the "
                              "resulting registry")
    metrics.add_argument("--from", dest="from_file", default=None,
                         help="render a JSON dump previously written "
                              "by --metrics-out")
    metrics.add_argument("--json", action="store_true",
                         help="emit the JSON dump instead of "
                              "Prometheus text")

    extend = sub.add_parser("extend",
                            help="activate a range extension")
    extend.add_argument("-n", "--network", required=True)
    extend.add_argument("switch", type=int)
    extend.add_argument("serial", type=int)

    retract = sub.add_parser("retract",
                             help="retract a range extension")
    retract.add_argument("-n", "--network", required=True)
    retract.add_argument("switch", type=int)
    retract.add_argument("serial", type=int)

    verify = sub.add_parser(
        "verify", help="audit installed data-plane state")
    verify.add_argument("-n", "--network", required=True)

    render = sub.add_parser(
        "render", help="render the virtual space to an SVG file")
    render.add_argument("-n", "--network", required=True)
    render.add_argument("-o", "--output", required=True)
    render.add_argument("--voronoi", action="store_true",
                        help="draw exact Voronoi cell boundaries")
    render.add_argument("--data", nargs="*", default=[],
                        help="data ids to mark as crosses")
    render.add_argument("--route", default=None,
                        help="highlight the route of this data id")
    render.add_argument("--entry", type=int, default=None,
                        help="entry switch for --route")

    trace = sub.add_parser(
        "trace",
        help="explain a request's forwarding decisions, or record "
             "request spans and join them with telemetry")
    trace.add_argument("-n", "--network", required=True)
    trace.add_argument("data_id", nargs="?", default=None,
                       help="item to trace (optional with --summary / "
                            "--spans-out / --chrome-out: a sampled "
                            "workload over stored items is traced "
                            "instead)")
    trace.add_argument("--entry", type=int, default=None,
                       help="entry switch (default: first switch)")
    trace.add_argument("--summary", action="store_true",
                       help="print hop-histogram quantiles joined "
                            "with the recorded exemplar traces")
    trace.add_argument("--spans-out", default=None, metavar="FILE",
                       help="write recorded spans as JSONL")
    trace.add_argument("--chrome-out", default=None, metavar="FILE",
                       help="write recorded spans as a Chrome "
                            "trace-event file (chrome://tracing, "
                            "Perfetto)")
    trace.add_argument("--sample-rate", type=float, default=1.0,
                       help="head-based trace sampling rate")
    trace.add_argument("--requests", type=int, default=32,
                       help="stored items to retrieve when no data_id "
                            "is given")
    trace.add_argument("--seed", type=int, default=0)

    experiment = sub.add_parser(
        "experiment", help="run a paper-figure experiment")
    experiment.add_argument("figure", choices=[*TABLES, *GROUPS],
                            help="one table, or a group of them")
    experiment.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="run with telemetry enabled and write the JSON metrics "
             "dump next to the results")

    chaos = sub.add_parser(
        "chaos",
        help="replay a workload under injected faults and report "
             "availability / recovery")
    chaos.add_argument("--switches", type=int, default=30)
    chaos.add_argument("--min-degree", type=int, default=3)
    _shared_flags(chaos, servers=2)
    chaos.add_argument("--cvt-iterations", type=int, default=20)
    chaos.add_argument("--items", type=int, default=60)
    chaos.add_argument("--copies", type=int, default=3)
    chaos.add_argument("--requests", type=int, default=120)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--plan", default=None, metavar="FILE",
                       help="JSON fault plan; default crashes one "
                            "random switch mid-trace")
    chaos.add_argument("--control-plan", default=None, metavar="FILE",
                       help="JSON fault plan of control_* events that "
                            "degrade the southbound channel for the "
                            "whole run; the harness finishes with an "
                            "anti-entropy reconcile")
    chaos.add_argument("--duration", type=float, default=1.0,
                       help="request window in simulated seconds")
    chaos.add_argument("--detection-interval", type=float, default=0.1,
                       help="heartbeat period of the failure detector")
    chaos.add_argument("--json", action="store_true",
                       help="emit the full report as JSON")
    chaos.add_argument("--min-availability", type=float, default=None,
                       metavar="FRACTION",
                       help="exit nonzero when recovered availability "
                            "falls below this threshold (CI gate)")

    loadtest = sub.add_parser(
        "loadtest",
        help="drive open-loop arrivals through the resilience "
             "pipeline and report goodput / shed rate / latency / "
             "SLO attainment")
    loadtest.add_argument("--switches", type=int, default=200)
    loadtest.add_argument("--entry-switches", type=int, default=20,
                          help="access gateways policed by admission "
                               "control")
    _shared_flags(loadtest, servers=4, quick=True,
                  output="SLO_report.json")
    loadtest.add_argument("--min-degree", type=int, default=3)
    loadtest.add_argument("--cvt-iterations", type=int, default=20)
    loadtest.add_argument("--items", type=int, default=1000)
    loadtest.add_argument("--copies", type=int, default=2)
    loadtest.add_argument("--requests", type=int, default=8000,
                          help="requests per load point")
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument("--load-factors", type=float, nargs="+",
                          default=None, metavar="FACTOR",
                          help="offered load as fractions of capacity "
                               "(default: 0.8 1.5)")
    loadtest.add_argument("--deadline", type=float, default=0.25,
                          help="per-request SLO deadline in seconds")
    loadtest.add_argument("--rate", type=float, default=200.0,
                          help="admission tokens/second per entry "
                               "switch")
    loadtest.add_argument("--burst", type=float, default=40.0,
                          help="admission token-bucket capacity")
    loadtest.add_argument("--queue-limit", type=int, default=32,
                          help="pending-queue bound per entry switch")
    loadtest.add_argument("--plan", default=None, metavar="FILE",
                          help="JSON fault plan replayed on the "
                               "arrival clock")
    loadtest.add_argument("--min-goodput", type=float, default=None,
                          metavar="FRACTION",
                          help="exit nonzero when goodput at any "
                               "at-or-below-capacity point falls below "
                               "this threshold (CI gate)")
    loadtest.add_argument("--min-attainment", type=float, default=None,
                          metavar="FRACTION",
                          help="exit nonzero when SLO attainment at "
                               "any point falls below this threshold "
                               "(CI gate)")
    loadtest.add_argument("--trace-out", default=None, metavar="FILE",
                          help="record sampled request traces and "
                               "write them as JSONL spans")
    loadtest.add_argument("--trace-sample", type=float, default=None,
                          metavar="RATE",
                          help="head-based trace sampling rate "
                               "(default 0.05 when --trace-out is "
                               "given)")

    churn = sub.add_parser(
        "churn",
        help="measure per-join control traffic (delta vs full "
             "reinstall) across network sizes and write "
             "CHURN_report.json")
    churn.add_argument("--sizes", type=int, nargs="+",
                       default=[50, 100, 200, 400],
                       help="network sizes (switch counts) to sweep")
    churn.add_argument("--joins", type=int, default=5,
                       help="node joins per size")
    _shared_flags(churn, servers=2, output="CHURN_report.json",
                  summary="summary table")
    churn.add_argument("--cvt-iterations", type=int, default=30)
    churn.add_argument("--seed", type=int, default=0)
    churn.add_argument("--max-touched", type=float, default=None,
                       metavar="N",
                       help="exit nonzero when the average switches "
                            "touched per join exceeds N at any size "
                            "(CI gate for delta locality)")
    churn.add_argument("--regions", type=int, default=1,
                       help="shard the control plane into this many "
                            "regions (metro topology); joins then "
                            "round-robin across regions and the "
                            "report adds a per-region touched "
                            "breakdown")
    churn.add_argument("--max-foreign-touched", type=float, default=0,
                       metavar="N",
                       help="exit nonzero when a join touches more "
                            "than N switches outside its home region "
                            "(cross-shard locality gate; default 0, "
                            "only meaningful with --regions > 1)")

    federate = sub.add_parser(
        "federate",
        help="federation scaling experiment: per-shard recompute "
             "time, per-join cost and cross-region traffic as the "
             "switch count grows at constant region size; writes "
             "FEDERATION_report.json")
    federate.add_argument("--sizes", type=int, nargs="+",
                          default=[1000, 5000], metavar="N",
                          help="total switch counts to sweep "
                               "(default: 1000 5000)")
    federate.add_argument("--per-region", type=int, default=250,
                          metavar="N",
                          help="switches per region (default: 250)")
    _shared_flags(federate, servers=2, quick=True,
                  output="FEDERATION_report.json",
                  summary="summary table")
    federate.add_argument("--cvt-iterations", type=int, default=8)
    federate.add_argument("--joins", type=int, default=8,
                          help="switch joins, round-robin across "
                               "regions")
    federate.add_argument("--requests", type=int, default=256,
                          help="data items placed and retrieved "
                               "through the overlay")
    federate.add_argument("--copies", type=int, default=2)
    federate.add_argument("--seed", type=int, default=0)
    federate.add_argument("--max-foreign-touched", type=float,
                          default=0, metavar="N",
                          help="exit nonzero when churn ships more "
                               "than N southbound messages into "
                               "foreign regions (default 0: perfect "
                               "isolation)")

    reconcile = sub.add_parser(
        "reconcile",
        help="anti-entropy reconcile of a snapshot (-n), or the "
             "churn-under-loss convergence experiment writing "
             "CONVERGENCE_report.json")
    reconcile.add_argument("-n", "--network", default=None,
                           help="snapshot to reconcile in place "
                                "(omit to run the convergence "
                                "experiment instead)")
    reconcile.add_argument("--switches", type=int, default=200)
    reconcile.add_argument("--events", type=int, default=30,
                           help="churn events (joins/leaves/link "
                                "flaps) to drive under loss")
    reconcile.add_argument("--drop", type=float, default=0.2,
                           help="southbound drop probability")
    reconcile.add_argument("--dup", type=float, default=0.05,
                           help="southbound duplication probability")
    reconcile.add_argument("--delay", type=float, default=0.0,
                           help="southbound delayed-delivery "
                                "probability")
    reconcile.add_argument("--reorder-window", type=int, default=4,
                           help="southbound reorder window (1 = "
                                "in order)")
    _shared_flags(reconcile, servers=2, quick=True,
                  output="CONVERGENCE_report.json",
                  what="experiment report")
    reconcile.add_argument("--cvt-iterations", type=int, default=15)
    reconcile.add_argument("--seed", type=int, default=0)
    reconcile.add_argument("--max-sweeps", type=int, default=12,
                           help="anti-entropy sweep budget")
    reconcile.add_argument("--max-divergence", type=int, default=None,
                           metavar="N",
                           help="exit nonzero when more than N "
                                "switches stay divergent after the "
                                "reconcile (CI gate; the experiment "
                                "mode additionally requires the "
                                "install_all_rules oracle to match)")

    scrub = sub.add_parser(
        "scrub",
        help="storage anti-entropy scrub of a snapshot (-n), or the "
             "crash+partition+delete durability experiment writing "
             "DURABILITY_report.json")
    scrub.add_argument("-n", "--network", default=None,
                       help="snapshot to scrub in place (omit to run "
                            "the durability experiment instead)")
    scrub.add_argument("--switches", type=int, default=40)
    _shared_flags(scrub, servers=2, quick=True,
                  output="DURABILITY_report.json",
                  what="experiment report")
    scrub.add_argument("--items", type=int, default=120,
                       help="items seeded before the fault schedule")
    scrub.add_argument("--copies", type=int, default=2,
                       help="replicas per item")
    scrub.add_argument("--ops", type=int, default=80,
                       help="delete-heavy write ops driven through "
                            "the partitioned network")
    scrub.add_argument("--crash-fraction", type=float, default=0.2,
                       help="fraction of edge servers crashed before "
                            "the partition window")
    scrub.add_argument("--partition-fraction", type=float,
                       default=0.3,
                       help="fraction of switches split away during "
                            "the write workload")
    scrub.add_argument("--late-crashes", type=int, default=3,
                       help="extra crashes inside the partition "
                            "window")
    scrub.add_argument("--cvt-iterations", type=int, default=10)
    scrub.add_argument("--seed", type=int, default=0)
    scrub.add_argument("--max-sweeps", type=int, default=6,
                       help="scrub sweep budget")
    scrub.add_argument("--max-divergence", type=int, default=None,
                       metavar="N",
                       help="exit nonzero when more than N "
                            "(server, hash-range) pairs stay "
                            "divergent after the scrub (CI gate; "
                            "the experiment mode additionally "
                            "requires the fault-free oracle to "
                            "match: zero resurrected, lost or "
                            "stale items)")
    return parser


def _load(path: str):
    from .io import load_network

    return load_network(path)


def _save(net, path: str) -> None:
    from .io import save_network

    save_network(net, path)


def _cmd_generate(args) -> int:
    from . import GredNetwork, attach_uniform, brite_waxman_graph

    topology, _ = brite_waxman_graph(
        args.switches, min_degree=args.min_degree,
        rng=np.random.default_rng(args.seed),
    )
    servers = attach_uniform(topology.nodes(),
                             servers_per_switch=args.servers)
    net = GredNetwork(topology, servers,
                      cvt_iterations=args.cvt_iterations,
                      seed=args.seed)
    _save(net, args.output)
    print(f"generated {args.switches} switches x {args.servers} servers "
          f"-> {args.output}")
    return 0


def _cmd_place(args) -> int:
    net = _load(args.network)
    payload = json.loads(args.payload) if args.payload else None
    result = net.place(args.data_id, payload=payload,
                       entry_switch=args.entry, copies=args.copies,
                       rng=np.random.default_rng(0))
    _save(net, args.network)
    for record in result.records:
        print(f"placed {record.data_id} on server {record.server_id} "
              f"({record.physical_hops} hops"
              f"{', extended' if record.extended else ''})")
    return 0


def _cmd_retrieve(args) -> int:
    net = _load(args.network)
    result = net.retrieve(args.data_id, entry_switch=args.entry,
                          copies=args.copies,
                          rng=np.random.default_rng(0))
    if not result.found:
        print(f"not found: {args.data_id}")
        return 1
    print(f"found {args.data_id} on server {result.server_id} "
          f"(round trip {result.round_trip_hops} hops)")
    print(json.dumps(result.payload))
    return 0


def _cmd_delete(args) -> int:
    net = _load(args.network)
    removed = net.delete(args.data_id, copies=args.copies,
                         entry_switch=net.switch_ids()[0])
    _save(net, args.network)
    print(f"deleted {removed} copies of {args.data_id}")
    return 0 if removed else 1


def _cmd_stats(args) -> int:
    from .controlplane import average_table_entries
    from .metrics import load_imbalance_summary

    net = _load(args.network)
    overload_events = None
    if args.sweep:
        from .services import OverloadManager

        manager = OverloadManager(net,
                                  high_watermark=args.high_watermark,
                                  low_watermark=args.low_watermark)
        overload_events = manager.sweep()
        if overload_events:
            _save(net, args.network)
    topology = net.topology
    loads = net.load_vector()
    avg_entries = average_table_entries(
        net.controller.switches.values())
    extensions = sum(
        len(s.table.extensions())
        for s in net.controller.switches.values()
    )
    balance = load_imbalance_summary(loads) if sum(loads) else None
    from .dataplane import batch_fastpath_blockers, unabsorbed_faults

    blockers = batch_fastpath_blockers(net)
    # The engine one scalar place/retrieve would take right now, and
    # the reason it counts a stand-down under: the first blocker's.
    standdown = blockers[0] if blockers else None
    engine = "reference" if blockers else "compiled"
    # What the fault gate fires on, i.e. what to absorb or heal.
    unabsorbed = unabsorbed_faults(net)
    if args.json:
        payload = {
            "switches": topology.num_nodes(),
            "links": topology.num_edges(),
            "servers": len(loads),
            "stored_items": sum(loads),
            "avg_table_entries": avg_entries,
            "active_extensions": extensions,
            "load_balance": balance,
            "fastpath_blockers": blockers,
            "scalar_engine": engine,
            "scalar_standdown": standdown,
            "unabsorbed_faults": unabsorbed,
        }
        if overload_events is not None:
            payload["overload_events"] = [
                {"action": e.action, "switch": e.switch,
                 "serial": e.serial, "utilization": e.utilization}
                for e in overload_events
            ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"switches          : {topology.num_nodes()}")
    print(f"links             : {topology.num_edges()}")
    print(f"servers           : {len(loads)}")
    print(f"stored items      : {sum(loads)}")
    if balance is not None:
        print(f"load max/avg      : {balance['max_avg']:.3f}")
        print(f"load Jain index   : {balance['jain']:.3f}")
    print(f"avg table entries : {avg_entries:.1f}")
    print(f"active extensions : {extensions}")
    print(f"fastpath blockers : "
          f"{', '.join(blockers) if blockers else 'none'}")
    print(f"scalar engine     : {engine}"
          + (f" ({standdown})" if standdown else ""))
    for label, found, remedy in (
            ("crashed switches still installed",
             unabsorbed["crashed_switches"], "absorb (detector repair)"),
            ("down links still in the topology",
             unabsorbed["down_links"], "absorb, or restore the link"),
            ("partitioned switches",
             unabsorbed["partitioned_switches"], "heal the partition")):
        if found:
            print(f"  {label}: {found} -> {remedy}")
    if overload_events is not None:
        print(f"overload sweep    : {len(overload_events)} action(s)")
        for event in overload_events:
            print(f"  {event.action} ({event.switch}, {event.serial}) "
                  f"at utilization {event.utilization:.2f}")
    return 0


def _cmd_metrics(args) -> int:
    from . import obs

    if args.from_file is not None:
        dump = obs.load_json(args.from_file)
    elif args.network is not None:
        # Restore the snapshot under a fresh enabled registry so the
        # probe reports this deployment only (recompute-phase timings,
        # rule counts, per-server load gauges).
        with obs.scoped_registry() as registry:
            net = _load(args.network)
            net.record_load_gauges()
        dump = registry.to_dict()
    else:
        print("error: metrics needs --network or --from",
              file=sys.stderr)
        return 2
    if args.json:
        print(obs.to_json(dump))
    else:
        print(obs.render_prometheus(dump), end="")
    return 0


def _cmd_extend(args) -> int:
    net = _load(args.network)
    net.extend_range(args.switch, args.serial)
    _save(net, args.network)
    entry = net.controller.switches[args.switch].table.extension_for(
        args.serial)
    print(f"extended ({args.switch}, {args.serial}) -> "
          f"({entry.target_switch}, {entry.target_serial})")
    return 0


def _cmd_retract(args) -> int:
    net = _load(args.network)
    moved = net.retract_range(args.switch, args.serial)
    _save(net, args.network)
    print(f"retracted ({args.switch}, {args.serial}); "
          f"{moved} items migrated home")
    return 0


def _cmd_verify(args) -> int:
    from .controlplane import verify_installed_state

    net = _load(args.network)
    violations = verify_installed_state(net.controller)
    if not violations:
        print("installed state is consistent")
        return 0
    for violation in violations:
        print(violation)
    print(f"{len(violations)} violations found")
    return 1


def _cmd_render(args) -> int:
    from .viz import render_virtual_space

    net = _load(args.network)
    route_trace = None
    if args.route is not None:
        entry = args.entry if args.entry is not None \
            else net.switch_ids()[0]
        route_trace = net.route_for(args.route, entry).trace
    svg = render_virtual_space(
        net.controller,
        show_voronoi=args.voronoi,
        data_ids=args.data,
        route_trace=route_trace,
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(svg)
    print(f"wrote {args.output}")
    return 0


def _cmd_trace(args) -> int:
    net = _load(args.network)
    entry = args.entry if args.entry is not None \
        else net.switch_ids()[0]
    recording = bool(args.summary or args.spans_out or args.chrome_out)
    if args.data_id is None and not recording:
        print("error: trace needs a data_id (or --summary / "
              "--spans-out / --chrome-out)", file=sys.stderr)
        return 2
    if not recording:
        route, tracer = net.trace_route(args.data_id, entry)
        print(tracer.render())
        print(f"-> destination switch {route.destination_switch}, "
              f"{route.physical_hops} physical hops, "
              f"{route.overlay_hops} overlay hops")
        return 0

    from . import obs
    from .obs import spans as ospans

    recorder = ospans.SpanRecorder(sample_rate=args.sample_rate)
    previous_recorder = ospans.set_default_recorder(recorder)
    try:
        rng = np.random.default_rng(args.seed)
        if args.data_id is not None:
            targets = [args.data_id]
        else:
            stored = sorted({data_id for server in net.servers()
                             for data_id in server.stored_ids()})
            if not stored:
                print("error: snapshot stores no items to trace",
                      file=sys.stderr)
                return 1
            count = min(args.requests, len(stored))
            picks = rng.choice(len(stored), size=count, replace=False)
            targets = [stored[i] for i in sorted(picks.tolist())]
        found = 0
        with obs.scoped_registry() as registry:
            for data_id in targets:
                result = net.retrieve(
                    data_id, entry_switch=entry,
                    rng=np.random.default_rng(args.seed))
                found += int(result.found)
        dump = registry.to_dict(include_events=False)
    finally:
        ospans.set_default_recorder(previous_recorder)
    spans = recorder.spans()
    print(f"traced {len(targets)} request(s) from switch {entry}: "
          f"{found} found, {len(targets) - found} missed, "
          f"{len(spans)} spans recorded")
    if args.spans_out:
        ospans.write_jsonl(spans, args.spans_out)
        print(f"wrote {args.spans_out}")
    if args.chrome_out:
        ospans.write_chrome(spans, args.chrome_out)
        print(f"wrote {args.chrome_out}")
    if args.summary:
        print(_render_trace_summary(dump, spans))
    return 0


def _render_trace_summary(dump, spans) -> str:
    """Join hop-histogram quantiles with the recorded traces."""
    from . import obs
    from .obs import spans as ospans

    lines = []
    for name in ("dataplane.hops_per_request", "core.retrieve_hops"):
        quantiles = obs.dump_quantiles(dump, name)
        if quantiles:
            rendered = ", ".join(
                f"{key}={value:.1f}" if value is not None
                else f"{key}=-"
                for key, value in sorted(quantiles.items()))
            lines.append(f"{name:<28}: {rendered}")
    by_trace = ospans.traces(spans)
    lines.append(f"recorded traces             : {len(by_trace)}")
    for trace_id, members in sorted(by_trace.items()):
        root = next((s for s in members if s.parent_id is None),
                    members[0])
        closed = [s for s in members if s.end is not None]
        duration = (max(s.end for s in closed) - root.start
                    if closed else 0.0)
        key = root.attrs.get("key", root.attrs.get("data_id", "-"))
        lines.append(
            f"  {trace_id}: {root.name} key={key} "
            f"spans={len(members)} duration={duration * 1e3:.3f}ms "
            f"status={root.status}")
    return "\n".join(lines)


def _cmd_experiment(args) -> int:
    from . import obs
    from .experiments.catalog import show

    if args.metrics_out is None:
        show(args.figure)
        return 0
    with obs.scoped_registry() as registry:
        show(args.figure)
    obs.write_json(registry, args.metrics_out)
    print(f"\nwrote metrics to {args.metrics_out}")
    return 0


def _finish(args, report, render, failures, wrote=True) -> int:
    """The tail every report command ends in: write the report, print
    it (``--json``) or its rendered summary, name each failed gate on
    stderr, and exit 1 if any failed."""
    if wrote:
        from .slo import write_report

        write_report(report, args.output)
    print(json.dumps(report, indent=2, sort_keys=True) if args.json
          else render(report))
    if wrote:
        print(f"wrote {args.output}")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_chaos(args) -> int:
    from .faults import ChaosConfig, FaultPlan, run_chaos

    plan = FaultPlan.from_json(args.plan) if args.plan else None
    control_plan = (FaultPlan.from_json(args.control_plan)
                    if args.control_plan else None)
    config = ChaosConfig(
        switches=args.switches,
        min_degree=args.min_degree,
        servers_per_switch=args.servers,
        cvt_iterations=args.cvt_iterations,
        items=args.items,
        copies=args.copies,
        requests=args.requests,
        seed=args.seed,
        plan=plan,
        control_plan=control_plan,
        duration=args.duration,
        detection_interval=args.detection_interval,
    )
    report = run_chaos(config)
    failures = []
    if args.min_availability is not None \
            and report["availability"] < args.min_availability:
        failures.append(
            f"recovered availability {report['availability']:.4f} is "
            f"below the --min-availability gate {args.min_availability}")
    return _finish(args, report, _render_chaos, failures, wrote=False)


def _render_chaos(report) -> str:
    repair = report["repair"]
    events = report["plan"]["events"]
    lines = [
        f"baseline availability  : "
        f"{report['baseline']['availability']:.3f} "
        f"({report['baseline']['mean_round_trip_hops']:.2f} hops)",
        (f"fault plan             : {len(events)} event(s), "
         f"first at t={events[0]['time']:.3f}" if events
         else "fault plan             : empty"),
        f"under faults           : {report['under_faults']['completed']}"
        f"/{report['under_faults']['requests']} requests completed, "
        f"{report['under_faults']['failed']} failed",
        f"dead switches detected : {repair['dead_switches']}",
        f"stranded switches      : {repair['stranded_switches']}",
        f"servers replaced       : {repair['servers_replaced']}",
        f"re-replicated copies   : {report['re_replicated']}",
        f"items lost             : {report['items_lost']}",
        f"recovery time          : {report['recovery_time']:.3f}s",
        f"recovered availability : {report['availability']:.3f} "
        f"({report['recovered']['mean_round_trip_hops']:.2f} hops, "
        f"inflation x{report['hop_inflation']:.2f})",
        f"verifier violations    : {report['verifier_violations']}",
    ]
    southbound = report.get("southbound")
    if southbound is not None:
        stats = southbound["channel"]
        reconcile = southbound["reconcile"]
        lines += [
            f"southbound channel     : {stats['sent']} sent, "
            f"{stats['dropped']} dropped, "
            f"{stats['duplicated']} duplicated, "
            f"{stats['reordered']} reordered, "
            f"{stats['delayed']} delayed",
            f"reconcile              : "
            f"{reconcile['divergent_initial']} divergent, "
            f"{reconcile['sweeps']} sweep(s), "
            f"{reconcile['resynced']} resync(s), "
            f"{reconcile['drained']} drained, "
            f"converged={reconcile['converged']}",
        ]
    return "\n".join(lines)


def _cmd_loadtest(args) -> int:
    from .faults import FaultPlan
    from .obs import spans as ospans
    from .slo import (DEFAULT_LOAD_FACTORS, SloConfig, evaluate_gates,
                      render_summary, run_loadtest)

    config = SloConfig(
        switches=args.switches,
        entry_switches=args.entry_switches,
        servers_per_switch=args.servers,
        min_degree=args.min_degree,
        cvt_iterations=args.cvt_iterations,
        items=args.items,
        copies=args.copies,
        requests=args.requests,
        seed=args.seed,
        load_factors=(tuple(args.load_factors)
                      if args.load_factors is not None
                      else DEFAULT_LOAD_FACTORS),
        deadline=args.deadline,
        rate_per_switch=args.rate,
        burst=args.burst,
        queue_limit=args.queue_limit,
        plan=FaultPlan.from_json(args.plan) if args.plan else None,
    )
    recorder = None
    if args.trace_out is not None or args.trace_sample is not None:
        config.trace_sample_rate = (args.trace_sample
                                    if args.trace_sample is not None
                                    else 0.05)
        recorder = ospans.SpanRecorder(
            sample_rate=config.trace_sample_rate)
    report = run_loadtest(config, recorder=recorder)
    code = _finish(args, report, render_summary, evaluate_gates(
        report, min_goodput=args.min_goodput,
        min_attainment=args.min_attainment))
    if recorder is not None and args.trace_out is not None:
        ospans.write_jsonl(recorder.spans(), args.trace_out)
        summary = report["trace_summary"]
        print(f"wrote {summary['traces']} trace(s) "
              f"({summary['spans']} spans, sample rate "
              f"{summary['sample_rate']:g}) to {args.trace_out}")
    return code


def _cmd_churn(args) -> int:
    from .experiments.common import format_table
    from .experiments.control_churn import run_churn_scaling

    report = run_churn_scaling(
        sizes=tuple(args.sizes),
        servers_per_switch=args.servers,
        num_joins=args.joins,
        cvt_iterations=args.cvt_iterations,
        seed=args.seed,
        regions=args.regions,
    )
    columns = ["switches", "avg_delta_messages",
               "avg_switches_touched",
               "avg_full_reinstall_messages",
               "route_cache_survival"]
    if args.regions > 1:
        columns = ["switches", "regions", "avg_delta_messages",
                   "avg_switches_touched", "avg_foreign_touched",
                   "avg_foreign_messages",
                   "avg_full_reinstall_messages"]
    failures = []
    for row in report["rows"]:
        if args.max_touched is not None and \
                row["avg_switches_touched"] > args.max_touched:
            failures.append(
                f"avg switches touched per join at n={row['switches']} "
                f"is {row['avg_switches_touched']:.1f} > "
                f"--max-touched {args.max_touched:g}")
        if args.max_foreign_touched is not None and \
                row.get("avg_foreign_touched", 0) \
                > args.max_foreign_touched:
            failures.append(
                f"churn at n={row['switches']} touched "
                f"{row['avg_foreign_touched']:.1f} switch(es) outside "
                f"the joining region > --max-foreign-touched "
                f"{args.max_foreign_touched:g} (cross-shard locality "
                f"leak)")
        if not row["untouched_generations_preserved"]:
            failures.append(
                f"untouched switch generations were bumped at "
                f"n={row['switches']} (scoped invalidation leak)")
    return _finish(
        args, report,
        lambda report: format_table(
            report["rows"], columns,
            "churn: delta vs full-reinstall control traffic"),
        failures)


def _cmd_federate(args) -> int:
    from .experiments.federation import run_federation_scaling

    report = run_federation_scaling(
        total_switches=tuple(args.sizes),
        switches_per_region=args.per_region,
        servers_per_switch=args.servers,
        cvt_iterations=args.cvt_iterations,
        num_joins=args.joins, num_requests=args.requests,
        copies=args.copies, seed=args.seed)
    failures = []
    for row in report["rows"]:
        if args.max_foreign_touched is not None and \
                row["foreign_messages"] > args.max_foreign_touched:
            failures.append(
                f"churn at n={row['total_switches']} shipped "
                f"{row['foreign_messages']} southbound message(s) "
                f"into foreign regions > --max-foreign-touched "
                f"{args.max_foreign_touched:g}")
        if row["retrieved_found"] != row["requests"]:
            failures.append(
                f"{row['requests'] - row['retrieved_found']} of "
                f"{row['requests']} retrievals missed at "
                f"n={row['total_switches']}")
    for key, value in report["single_region_differential"].items():
        if key != "switches" and value is not True:
            failures.append(
                f"single-region differential mismatch: {key}={value} "
                f"(1-region federation must be identical to the "
                f"monolithic controller)")
    return _finish(args, report, _render_federate, failures)


def _render_federate(report) -> str:
    from .experiments.common import format_table

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


def _cmd_reconcile(args) -> int:
    """Anti-entropy sweep over a saved deployment (``-n``: repair any
    drift between the snapshot's installed state and the compiled plan,
    save it back), or the churn-under-loss convergence experiment that
    writes the committed CONVERGENCE_report.json CI artifact."""
    snapshot = args.network is not None
    if snapshot:
        net = _load(args.network)
        report = net.controller.reconcile(
            max_sweeps=args.max_sweeps).to_dict()
        _save(net, args.network)
        after = len(report["divergent_final"])
    else:
        from .experiments.convergence import run_convergence

        report = run_convergence(
            switches=args.switches, events=args.events, drop=args.drop,
            dup=args.dup, delay=args.delay,
            reorder_window=args.reorder_window,
            servers_per_switch=args.servers,
            cvt_iterations=args.cvt_iterations, seed=args.seed,
            max_sweeps=args.max_sweeps)
        after = report["divergence"]["after_reconcile"]
    failures = []
    if args.max_divergence is not None:
        if after > args.max_divergence:
            failures.append(
                f"{after} switch(es) stay divergent after reconcile, "
                f"above the --max-divergence gate "
                f"{args.max_divergence}")
        if not snapshot and not report["oracle_match"]:
            failures.append(
                f"switches {report['mismatched_switches']} diverge "
                f"from the install_all_rules oracle")
        if not snapshot and report["verifier_violations"]:
            failures.append(
                f"{report['verifier_violations']} verifier "
                f"violation(s) after reconcile")
    return _finish(
        args, report,
        _render_reconcile if snapshot else _render_convergence,
        failures, wrote=not snapshot)


def _render_reconcile(report) -> str:
    return "\n".join([
        f"divergent switches : {report['divergent_initial']}",
        f"sweeps             : {report['sweeps']}",
        f"resyncs shipped    : {report['resynced']}",
        f"pending drained    : {report['drained']}",
        f"still divergent    : {report['divergent_final'] or 'none'}",
    ])


def _render_convergence(report) -> str:
    config = report["config"]
    stats = report["channel"]
    divergence = report["divergence"]
    return "\n".join([
        f"churn              : {report['events_applied']} "
        f"event(s) applied ({report['events_skipped']} skipped) "
        f"over {config['switches']} switches",
        f"channel faults     : drop={config['drop']:g} "
        f"dup={config['dup']:g} delay={config['delay']:g} "
        f"reorder_window={config['reorder_window']}",
        f"southbound         : {stats['sent']} sent, "
        f"{stats['dropped']} dropped, "
        f"{stats['duplicated']} duplicated, "
        f"{stats['reordered']} reordered, "
        f"{stats['delayed']} delayed",
        f"retries            : {report['totals']['retries']}",
        f"divergence         : {divergence['before_reconcile']} "
        f"before reconcile, {divergence['after_reconcile']} "
        f"after ({report['reconcile']['sweeps']} sweep(s))",
        f"oracle match       : {report['oracle_match']}",
        f"verifier violations: {report['verifier_violations']}",
    ])


def _cmd_scrub(args) -> int:
    """Anti-entropy sweep over a saved deployment's storage plane
    (``-n``: drain parked hints, repair stale/missing/orphaned replicas
    and collect eligible tombstones, then save the snapshot back), or
    the crash+partition+delete durability experiment that writes the
    committed DURABILITY_report.json CI artifact."""
    snapshot = args.network is not None
    if snapshot:
        from .core import storage_divergence

        net = _load(args.network)
        report = net.scrub(max_sweeps=args.max_sweeps).to_dict()
        after = storage_divergence(net)
        _save(net, args.network)
    else:
        from .experiments.durability import run_durability

        report = run_durability(
            switches=args.switches,
            servers_per_switch=args.servers, items=args.items,
            copies=args.copies, ops=args.ops,
            crash_fraction=args.crash_fraction,
            partition_fraction=args.partition_fraction,
            late_crashes=args.late_crashes,
            cvt_iterations=args.cvt_iterations, seed=args.seed,
            max_sweeps=args.max_sweeps)
        after = report["divergence"]["after_scrub"]
    failures = []
    if args.max_divergence is not None:
        if after > args.max_divergence:
            failures.append(
                f"{after} (server, range) pair(s) stay divergent "
                f"after scrub, above the --max-divergence gate "
                f"{args.max_divergence}")
        if not snapshot and not report["oracle_match"]:
            failures.append(
                "storage plane diverges from the fault-free oracle: "
                + _oracle_verdicts(report))
    return _finish(
        args, report,
        (lambda report: _render_scrub(report, after)) if snapshot
        else _render_durability,
        failures, wrote=not snapshot)


def _render_scrub(report, divergent) -> str:
    return "\n".join([
        f"sweeps             : {report['sweeps']}",
        f"hints drained      : {report['hints_drained']}",
        f"repairs            : {report['repairs']}",
        f"resurrections cut  : {report['resurrections_removed']}",
        f"orphans removed    : {report['orphans_removed']}",
        f"tombstones gc'd    : {report['tombstones_gced']}",
        f"unreachable skips  : {report['skipped_unreachable']}",
        f"still divergent    : {divergent}",
    ])


def _oracle_verdicts(report) -> str:
    return (f"{len(report['resurrected'])} resurrected, "
            f"{len(report['lost'])} lost, "
            f"{len(report['stale'])} stale, "
            f"{len(report['unavailable'])} unavailable")


def _render_durability(report) -> str:
    config = report["config"]
    workload = report["workload"]
    divergence = report["divergence"]
    scrub_stats = report["scrub"]
    return "\n".join([
        f"workload           : {workload['items_placed']} "
        f"item(s), {workload['items_deleted']} deleted, "
        f"{config['ops']} op(s) under partition",
        f"faults             : {workload['crashes']} crash(es) "
        f"({workload['crash_fraction_actual']:.0%} of servers), "
        f"partition_fraction={config['partition_fraction']:g}",
        f"hints              : "
        f"{workload['hints_parked_pre_scrub']} parked, "
        f"{scrub_stats['hints_drained']} drained by scrub",
        f"divergence         : {divergence['before_scrub']} "
        f"before scrub, {divergence['after_scrub']} after "
        f"({scrub_stats['sweeps']} sweep(s), "
        f"{scrub_stats['repairs']} repair(s))",
        f"tombstones         : "
        f"{scrub_stats['resurrections_removed']} "
        f"resurrection(s) cut, {scrub_stats['tombstones_gced']} "
        f"gc'd",
        f"oracle verdicts    : {_oracle_verdicts(report)}",
        f"oracle match       : {report['oracle_match']}",
    ])


_COMMANDS = {
    "generate": _cmd_generate,
    "place": _cmd_place,
    "retrieve": _cmd_retrieve,
    "delete": _cmd_delete,
    "stats": _cmd_stats,
    "metrics": _cmd_metrics,
    "extend": _cmd_extend,
    "retract": _cmd_retract,
    "verify": _cmd_verify,
    "render": _cmd_render,
    "trace": _cmd_trace,
    "experiment": _cmd_experiment,
    "chaos": _cmd_chaos,
    "loadtest": _cmd_loadtest,
    "churn": _cmd_churn,
    "federate": _cmd_federate,
    "reconcile": _cmd_reconcile,
    "scrub": _cmd_scrub,
}


#: ``--quick``: the flags each command's tiny CI smoke preset
#: overrides before its one ``run_*`` call; every other flag stays
#: honoured.  (loadtest's row is ``SloConfig.quick()`` as flags.)
_QUICK = {
    "loadtest": dict(switches=16, entry_switches=6, servers=2,
                     min_degree=3, cvt_iterations=5, items=60, copies=2,
                     requests=400, deadline=0.25, rate=50.0, burst=20,
                     queue_limit=16),
    "federate": dict(sizes=[48, 96], per_region=12, cvt_iterations=4,
                     joins=4, requests=96),
    "reconcile": dict(switches=24, events=8, cvt_iterations=5),
    "scrub": dict(switches=24, items=60, ops=40, cvt_iterations=5),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "quick", False):
        vars(args).update(_QUICK[args.command])
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # surface library errors as CLI errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
