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

Item commands declare their flags here; a report command (``chaos`` …
``scrub``) is one :class:`Report` row, its flags derived from its
config's fields (:mod:`repro.report`).

(Installed as the ``gred`` console script; also runnable via
``python -m repro.cli``.)
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import GredNetwork, brite_waxman_graph, obs, slo
from .controlplane import average_table_entries, verify_installed_state
from .dataplane import batch_fastpath_blockers, unabsorbed_faults
from .experiments import control_churn, convergence, durability, federation
from .experiments.catalog import GROUPS, TABLES, show
from .faults import harness
from .io import load_network, save_network
from .metrics import load_imbalance_summary
from .obs import spans as ospans
from .report import Gate, gate_failures
from .services import OverloadManager
from .slo import write_report
from .viz import render_virtual_space


class Report(NamedTuple):
    """One report command: ``run(config)`` builds the report, ``render``
    summarizes it, ``gates`` are its CI thresholds, ``output`` is its
    file (``None``: printed only) and ``summary`` what ``--json``
    replaces.  With ``-n`` (help ``network``), ``sweep(net, config)``
    returns a snapshot's report, gated divergence and summary."""

    help: str
    config: type
    run: Callable[..., Dict]
    render: Callable[[Dict], str]
    gates: Tuple[Gate, ...]
    output: Optional[str] = None
    summary: str = "summary"
    network: Optional[str] = None
    sweep: Optional[Callable] = None


def _reports() -> Dict[str, Report]:
    """The report commands (looked up per call, so a test can patch a
    runner)."""
    return {
        "chaos": Report(
            "replay a workload under injected faults and report "
            "availability / recovery",
            harness.ChaosConfig, harness.run_chaos, harness.render_chaos,
            harness.GATES),
        "loadtest": Report(
            "drive open-loop arrivals through the resilience pipeline "
            "and report goodput / shed rate / latency / SLO attainment",
            slo.SloConfig, slo.run_loadtest, slo.render_summary,
            slo.GATES, output="SLO_report.json"),
        "churn": Report(
            "measure per-join control traffic (delta vs full reinstall) "
            "across network sizes and write CHURN_report.json",
            control_churn.ChurnConfig, control_churn.run_churn_scaling,
            control_churn.render_churn, control_churn.GATES,
            output="CHURN_report.json", summary="summary table"),
        "federate": Report(
            "federation scaling experiment: per-shard recompute time, "
            "per-join cost and cross-region traffic as the switch count "
            "grows at constant region size; writes "
            "FEDERATION_report.json",
            federation.FederationConfig, federation.run_federation_scaling,
            federation.render_federation, federation.GATES,
            output="FEDERATION_report.json", summary="summary table"),
        "reconcile": Report(
            "anti-entropy reconcile of a snapshot (-n), or the "
            "churn-under-loss convergence experiment writing "
            "CONVERGENCE_report.json",
            convergence.ConvergenceConfig, convergence.run_convergence,
            convergence.render_convergence, convergence.GATES,
            output="CONVERGENCE_report.json",
            network="snapshot to reconcile in place (omit to run the "
                    "convergence experiment instead)",
            sweep=convergence.reconcile_snapshot),
        "scrub": Report(
            "storage anti-entropy scrub of a snapshot (-n), or the "
            "crash+partition+delete durability experiment writing "
            "DURABILITY_report.json",
            durability.DurabilityConfig, durability.run_durability,
            durability.render_durability, durability.GATES,
            output="DURABILITY_report.json",
            network="snapshot to scrub in place (omit to run the "
                    "durability experiment instead)",
            sweep=durability.scrub_snapshot),
    }


def _report_parser(sub, name: str, row: Report) -> argparse.ArgumentParser:
    """A report command's flags: ``-n`` (if it sweeps snapshots), one
    per config field declared with :func:`repro.report.flag` (type and
    default from the field), the output flags after ``--servers``, and
    the gates after the field each names (default: the last)."""
    cmd = sub.add_parser(name, help=row.help)

    def add_gates(after: Optional[str]) -> None:
        for gate in row.gates:
            if gate.after == after:
                cmd.add_argument(gate.flag, type=gate.type,
                                 default=gate.default,
                                 metavar=gate.metavar, help=gate.help)

    if row.network:
        cmd.add_argument("-n", "--network", default=None,
                         help=row.network)
    hints = typing.get_type_hints(row.config)
    for field in dataclasses.fields(row.config):
        spec = field.metadata.get("flag")
        if spec is None:
            continue
        kind = hints[field.name]
        if typing.get_origin(kind) is tuple:
            kind = typing.get_args(kind)[0]
        flag = spec.get("name", "--" + field.name.replace("_", "-"))
        cmd.add_argument(
            flag, dest=field.name,
            type=kind if kind in (int, float) else None,
            default=spec.get("cli_default", field.default),
            nargs=spec.get("nargs"), help=spec["help"],
            metavar=spec.get("metavar",
                             flag[2:].replace("-", "_").upper()))
        if field.name == "servers_per_switch" and row.output:
            if hasattr(row.config, "QUICK"):
                cmd.add_argument("--quick", action="store_true",
                                 help="tiny CI smoke preset (overrides "
                                      "the workload-shape flags)")
            what = "experiment report" if row.network else "report"
            cmd.add_argument("-o", "--output", default=row.output,
                             metavar="FILE",
                             help=f"{what} path (default: {row.output})")
            cmd.add_argument("--json", action="store_true",
                             help=f"print the full report instead of "
                                  f"the {row.summary}")
        add_gates(field.name)
    if not row.output:
        cmd.add_argument("--json", action="store_true",
                         help="emit the full report as JSON")
    add_gates(None)
    return cmd


def _build_parser(reports: Optional[Dict[str, Report]] = None
                  ) -> argparse.ArgumentParser:
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
    gen.add_argument("--servers", type=int, default=4,
                     help="servers per switch")
    gen.add_argument("--cvt-iterations", type=int, default=50)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)

    for name in ("place", "retrieve", "delete"):
        item = sub.add_parser(name, help=f"{name} a data item")
        item.add_argument("-n", "--network", required=True)
        item.add_argument("data_id")
        if name == "place":
            item.add_argument("--payload", default=None,
                              help="JSON-encoded payload")
        if name != "delete":
            item.add_argument("--entry", type=int, default=None)
        item.add_argument("--copies", type=int, default=1)

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

    for name, verb in (("extend", "activate"), ("retract", "retract")):
        ranged = sub.add_parser(name, help=f"{verb} a range extension")
        ranged.add_argument("-n", "--network", required=True)
        ranged.add_argument("switch", type=int)
        ranged.add_argument("serial", type=int)

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

    commands = {name: _report_parser(sub, name, row)
                for name, row in (reports or _reports()).items()}
    loadtest = commands["loadtest"]
    loadtest.add_argument("--trace-out", default=None, metavar="FILE",
                          help="record sampled request traces and "
                               "write them as JSONL spans")
    loadtest.add_argument("--trace-sample", type=float, default=None,
                          metavar="RATE",
                          help="head-based trace sampling rate "
                               "(default 0.05 when --trace-out is "
                               "given)")
    return parser


def _cmd_generate(args) -> int:
    topology, _ = brite_waxman_graph(
        args.switches, min_degree=args.min_degree,
        rng=np.random.default_rng(args.seed))
    net = GredNetwork(topology, servers_per_switch=args.servers,
                      cvt_iterations=args.cvt_iterations, seed=args.seed)
    save_network(net, args.output)
    print(f"generated {args.switches} switches x {args.servers} servers "
          f"-> {args.output}")
    return 0


def _cmd_place(args) -> int:
    net = load_network(args.network)
    payload = json.loads(args.payload) if args.payload else None
    result = net.place(args.data_id, payload=payload,
                       entry_switch=args.entry, copies=args.copies,
                       rng=np.random.default_rng(0))
    save_network(net, args.network)
    for record in result.records:
        print(f"placed {record.data_id} on server {record.server_id} "
              f"({record.physical_hops} hops"
              f"{', extended' if record.extended else ''})")
    return 0


def _cmd_retrieve(args) -> int:
    net = load_network(args.network)
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
    net = load_network(args.network)
    removed = net.delete(args.data_id, copies=args.copies,
                         entry_switch=net.switch_ids()[0])
    save_network(net, args.network)
    print(f"deleted {removed} copies of {args.data_id}")
    return 0 if removed else 1


def _cmd_stats(args) -> int:
    net = load_network(args.network)
    overload_events = None
    if args.sweep:
        manager = OverloadManager(net,
                                  high_watermark=args.high_watermark,
                                  low_watermark=args.low_watermark)
        overload_events = manager.sweep()
        if overload_events:
            save_network(net, args.network)
    topology = net.topology
    loads = net.load_vector()
    avg_entries = average_table_entries(
        net.controller.switches.values())
    extensions = sum(
        len(s.table.extensions())
        for s in net.controller.switches.values()
    )
    balance = load_imbalance_summary(loads) if sum(loads) else None
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
    if args.from_file is not None:
        dump = obs.load_json(args.from_file)
    elif args.network is not None:
        # Restore the snapshot under a fresh enabled registry so the
        # probe reports this deployment only (recompute-phase timings,
        # rule counts, per-server load gauges).
        with obs.scoped_registry() as registry:
            net = load_network(args.network)
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
    net = load_network(args.network)
    net.extend_range(args.switch, args.serial)
    save_network(net, args.network)
    entry = net.controller.switches[args.switch].table.extension_for(
        args.serial)
    print(f"extended ({args.switch}, {args.serial}) -> "
          f"({entry.target_switch}, {entry.target_serial})")
    return 0


def _cmd_retract(args) -> int:
    net = load_network(args.network)
    moved = net.retract_range(args.switch, args.serial)
    save_network(net, args.network)
    print(f"retracted ({args.switch}, {args.serial}); "
          f"{moved} items migrated home")
    return 0


def _cmd_verify(args) -> int:
    net = load_network(args.network)
    violations = verify_installed_state(net.controller)
    if not violations:
        print("installed state is consistent")
        return 0
    for violation in violations:
        print(violation)
    print(f"{len(violations)} violations found")
    return 1


def _cmd_render(args) -> int:
    net = load_network(args.network)
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
    net = load_network(args.network)
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
        write_report(report, args.output)
    print(json.dumps(report, indent=2, sort_keys=True) if args.json
          else render(report))
    if wrote:
        print(f"wrote {args.output}")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _config(row: Report, args) -> Any:
    """The run's config from the flags given (one left at ``None``
    keeps the field's default); ``--quick`` then replaces the shape
    fields with the config's ``QUICK`` preset."""
    values = {}
    for field in dataclasses.fields(row.config):
        value = getattr(args, field.name, None)
        if "flag" in field.metadata and value is not None:
            parse = field.metadata["flag"].get("parse")
            values[field.name] = (parse(value) if parse
                                  else tuple(value) if isinstance(value, list)
                                  else value)
    if getattr(args, "quick", False):
        values.update(row.config.QUICK)
    return row.config(**values)


def _cmd_report(args, row: Report, config=None, **run_kw) -> int:
    """Run one report command: the experiment, or (``-n``) a sweep of
    a snapshot, which is saved back and writes no report."""
    config = config or _config(row, args)
    if row.sweep is not None and args.network is not None:
        net = load_network(args.network)
        report, divergence, summary = row.sweep(net, config)
        save_network(net, args.network)
        gate, = row.gates
        failure = gate.verdict(divergence, getattr(args, gate.dest))
        return _finish(args, report, lambda _: summary,
                       [failure] if failure else [], wrote=False)
    report = row.run(config, **run_kw)
    return _finish(args, report, row.render,
                   gate_failures(row.gates, report, vars(args)),
                   wrote=row.output is not None)


def _cmd_loadtest(args, row: Report) -> int:
    """The loadtest row, recording sampled request traces when
    ``--trace-out`` or ``--trace-sample`` asks for them."""
    if args.trace_out is None and args.trace_sample is None:
        return _cmd_report(args, row)
    config = _config(row, args)
    config.trace_sample_rate = (args.trace_sample
                                if args.trace_sample is not None else 0.05)
    recorder = ospans.SpanRecorder(sample_rate=config.trace_sample_rate)
    code = _cmd_report(args, row, config, recorder=recorder)
    if args.trace_out is not None:
        spans = recorder.spans()
        ospans.write_jsonl(spans, args.trace_out)
        print(f"wrote {len(ospans.traces(spans))} trace(s) "
              f"({len(spans)} spans, sample rate "
              f"{recorder.sample_rate:g}) to {args.trace_out}")
    return code


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
}


def main(argv: Optional[List[str]] = None) -> int:
    reports = _reports()
    args = _build_parser(reports).parse_args(argv)
    try:
        if args.command not in reports:
            return _COMMANDS[args.command](args)
        run = _cmd_loadtest if args.command == "loadtest" else _cmd_report
        return run(args, reports[args.command])
    except Exception as exc:  # surface library errors as CLI errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
