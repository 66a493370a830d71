"""Experiment harness: one runner per paper figure plus ablations and
extensions, and the catalog that labels them.

Run any table, or a group of them, from the command line::

    gred experiment fig9a          # one table of catalog.TABLES
    gred experiment ablations      # a catalog.GROUPS name: A1 ... A5
    gred experiment --help         # every name

:func:`~repro.experiments.catalog.show` is the same entry point as a
library call; the ``benchmarks/bench_*.py`` files print through it.
"""

from .common import (
    build_chord,
    build_gred,
    build_topology,
    chord_load_vector,
    format_table,
    gred_load_vector,
    print_table,
)
from .fig7_testbed import run_fig7a, run_fig7b
from .fig8_response import run_fig8
from .fig9_stretch import run_fig9a, run_fig9b, run_fig9c, run_fig9d
from .fig10_load import run_fig10a, run_fig10b, run_fig10c
from .ablations import (
    run_chord_virtual_nodes,
    run_cvt_samples,
    run_embedding_methods,
    run_embedding_quality,
    run_topology_families,
)
from .control_churn import run_control_churn
from .convergence import run_convergence
from .durability import run_durability
from .federation import run_federation_scaling, single_region_differential
from .extensions import (
    run_adaptive_replication,
    run_failure_availability,
    run_ght_comparison,
    run_link_utilization,
    run_mobility,
    run_overflow_protection,
    run_saturation,
    run_state_stretch_tradeoff,
)
from .catalog import GROUPS, TABLES, show

__all__ = [
    "build_topology",
    "build_gred",
    "build_chord",
    "gred_load_vector",
    "chord_load_vector",
    "format_table",
    "print_table",
    "TABLES",
    "GROUPS",
    "show",
    "run_fig7a",
    "run_fig7b",
    "run_fig8",
    "run_fig9a",
    "run_fig9b",
    "run_fig9c",
    "run_fig9d",
    "run_fig10a",
    "run_fig10b",
    "run_fig10c",
    "run_cvt_samples",
    "run_embedding_quality",
    "run_chord_virtual_nodes",
    "run_mobility",
    "run_failure_availability",
    "run_state_stretch_tradeoff",
    "run_link_utilization",
    "run_embedding_methods",
    "run_saturation",
    "run_control_churn",
    "run_convergence",
    "run_durability",
    "run_federation_scaling",
    "single_region_differential",
    "run_adaptive_replication",
    "run_ght_comparison",
    "run_topology_families",
    "run_overflow_protection",
]
