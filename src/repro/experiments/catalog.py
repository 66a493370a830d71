"""The catalog of tabular studies.

Every figure, ablation and extension table is one :data:`TABLES` row —
the ``run_*`` function, the columns it prints and its title — so
``gred experiment <name>``, the ``benchmarks/bench_*.py`` files and
EXPERIMENTS.md label and lay out a study the same way.  A new tabular
experiment is one more row.  (Studies that produce a gated JSON report
instead of a table are CLI commands of their own: ``gred churn``,
``federate``, ``reconcile``, ``scrub``, ``loadtest``, ``chaos``.)
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import (
    ablations,
    control_churn,
    extensions,
    fig7_testbed,
    fig8_response,
    fig9_stretch,
    fig10_load,
)
from .common import print_table


class Table(NamedTuple):
    run: Callable[..., List[Dict]]
    columns: Tuple[str, ...]
    title: str


TABLES: Dict[str, Table] = {
    "fig7a": Table(
        fig7_testbed.run_fig7a,
        ("protocol", "stretch_mean", "stretch_ci_low", "stretch_ci_high"),
        "Fig 7(a): testbed routing stretch"),
    "fig7b": Table(
        fig7_testbed.run_fig7b, ("protocol", "max_avg", "items", "servers"),
        "Fig 7(b): testbed load balance (max/avg)"),
    "fig8": Table(
        fig8_response.run_fig8,
        ("protocol", "requests", "avg_delay_ms", "avg_request_hops"),
        "Fig 8: average response delay vs number of retrieval requests"),
    "fig9a": Table(
        fig9_stretch.run_fig9a,
        ("switches", "protocol", "stretch_mean", "ci_low", "ci_high"),
        "Fig 9(a): routing stretch vs network size"),
    "fig9b": Table(
        fig9_stretch.run_fig9b,
        ("min_degree", "protocol", "stretch_mean", "ci_low", "ci_high"),
        "Fig 9(b): routing stretch vs minimum degree"),
    "fig9c": Table(
        fig9_stretch.run_fig9c, ("switches", "protocol", "stretch_mean"),
        "Fig 9(c): GRED vs extended-GRED stretch"),
    "fig9d": Table(
        fig9_stretch.run_fig9d,
        ("switches", "avg_entries", "ci_low", "ci_high", "max_entries"),
        "Fig 9(d): forwarding-table entries per switch"),
    "fig10a": Table(
        fig10_load.run_fig10a, ("servers", "protocol", "max_avg"),
        "Fig 10(a): load balance vs network size"),
    "fig10b": Table(
        fig10_load.run_fig10b, ("items", "protocol", "max_avg"),
        "Fig 10(b): load balance vs amount of data"),
    "fig10c": Table(
        fig10_load.run_fig10c, ("T", "protocol", "max_avg"),
        "Fig 10(c): load balance vs iterations T"),
    "A1": Table(
        ablations.run_cvt_samples,
        ("samples", "energy_at_10", "energy_at_30", "energy_final"),
        "A1: CVT convergence vs sample count"),
    "A2": Table(
        ablations.run_embedding_quality,
        ("switches", "protocol", "stress", "stretch_mean"),
        "A2: embedding stress vs routing stretch"),
    "A3": Table(
        ablations.run_chord_virtual_nodes,
        ("virtual_nodes", "max_avg", "avg_finger_entries"),
        "A3: Chord virtual nodes vs load balance"),
    "A4": Table(
        ablations.run_embedding_methods,
        ("switches", "embedding", "stress", "stretch_mean"),
        "A4: classical MDS vs SMACOF"),
    "A5": Table(
        ablations.run_topology_families,
        ("family", "gred_stretch", "chord_stretch", "gred_max_avg",
         "chord_max_avg"),
        "A5: robustness across topology families"),
    "X1": Table(
        extensions.run_mobility,
        ("copies", "mean_request_hops", "p_max"),
        "X1: mobility — retrieval hops vs replica count"),
    "X2": Table(
        extensions.run_failure_availability,
        ("failed_fraction", "copies", "availability"),
        "X2: availability under simultaneous switch failures"),
    "X3": Table(
        extensions.run_state_stretch_tradeoff,
        ("switches", "protocol", "state_per_node", "stretch_mean"),
        "X3: routing state vs stretch across designs"),
    "X4": Table(
        extensions.run_link_utilization,
        ("protocol", "total_link_traversals", "max_link_load",
         "mean_link_load", "links_used"),
        "X4: bandwidth cost and link congestion"),
    "X5": Table(
        extensions.run_saturation,
        ("rate_per_s", "protocol", "avg_delay_ms", "p99_delay_ms"),
        "X5: response delay vs offered load (packet level)"),
    "X6": Table(
        control_churn.run_control_churn,
        ("protocol", "avg_nodes_touched", "avg_entries_changed",
         "avg_messages_sent", "avg_switches_messaged", "population"),
        "X6: installed-state churn per node join"),
    "X7": Table(
        extensions.run_adaptive_replication,
        ("zipf", "static_mean_hops", "adaptive_mean_hops",
         "storage_overhead", "promotions"),
        "X7: adaptive replication under Zipf workloads"),
    "X8": Table(
        extensions.run_ght_comparison,
        ("topology", "protocol", "delivery_rate", "stretch_mean",
         "max_avg"),
        "X8: GHT/GPSR vs GRED across topology families"),
    "X9": Table(
        extensions.run_overflow_protection,
        ("small_fraction", "rejected_unmanaged", "rejected_managed",
         "extensions_used"),
        "X9: data loss prevented by range extension"),
}

#: Names that run several tables in a row.
GROUPS: Dict[str, Tuple[str, ...]] = {
    "fig7": ("fig7a", "fig7b"),
    "fig9": ("fig9a", "fig9b", "fig9c", "fig9d"),
    "fig10": ("fig10a", "fig10b", "fig10c"),
    "ablations": ("A1", "A2", "A3", "A4", "A5"),
    "extensions": ("X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8",
                   "X9"),
}


def show(name: str, rows: Optional[List[Dict]] = None, **kwargs) -> None:
    """Print table ``name``, or every table of group ``name``.

    The study runs with ``kwargs`` (its paper-scale defaults when none
    are given) unless the caller already holds its ``rows`` — the
    benches time the run themselves and only print through here.
    """
    for member in GROUPS.get(name, (name,)):
        table = TABLES[member]
        print_table(table.run(**kwargs) if rows is None else rows,
                    table.columns, table.title)
