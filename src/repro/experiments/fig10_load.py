"""Experiments E8-E10 — large-scale load balance (Figs. 10/11).

Fig. 10(a): ``max/avg`` vs network size (200-1000 servers) — Chord grows
with size; GRED(T=10) and GRED(T=50) stay low, T=50 below T=10.

Fig. 10(b): ``max/avg`` vs the number of data items (100k-1M, 1000
servers) — Chord worst (>6 in the paper), GRED(T=10) < 2.5,
GRED(T=50) < 2.

Fig. 10(c): ``max/avg`` vs the C-regulation iteration count ``T`` —
Chord and GRED-NoCVT are flat (independent of T); GRED decreases with T
and flattens around T ~ 70.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..metrics import max_avg_ratio
from .common import (
    build_chord,
    build_gred,
    build_topology,
    chord_load_vector,
    gred_load_vector,
)

SERVERS_PER_SWITCH = 10
DEFAULT_SERVER_COUNTS = (200, 400, 600, 800, 1000)
DEFAULT_DATA_COUNTS = (100_000, 250_000, 500_000, 750_000, 1_000_000)
DEFAULT_ITERATIONS = (0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)


def run_fig10a(
    server_counts: Sequence[int] = DEFAULT_SERVER_COUNTS,
    num_items: int = 100_000,
    min_degree: int = 3,
    seed: int = 0,
) -> List[Dict]:
    """Load balance vs network size: Chord vs GRED(T=10) vs GRED(T=50)."""
    rows = []
    for servers in server_counts:
        num_switches = servers // SERVERS_PER_SWITCH
        topology = build_topology(num_switches, min_degree, seed + servers)
        chord = build_chord(topology, SERVERS_PER_SWITCH)
        rows.append({
            "servers": servers,
            "protocol": "Chord",
            "max_avg": max_avg_ratio(
                chord_load_vector(chord, num_items)),
        })
        for t in (10, 50):
            gred = build_gred(topology, SERVERS_PER_SWITCH,
                              cvt_iterations=t, seed=seed)
            rows.append({
                "servers": servers,
                "protocol": f"GRED (T={t})",
                "max_avg": max_avg_ratio(
                    gred_load_vector(gred, num_items)),
            })
    return rows


def run_fig10b(
    data_counts: Sequence[int] = DEFAULT_DATA_COUNTS,
    num_servers: int = 1000,
    min_degree: int = 3,
    seed: int = 0,
) -> List[Dict]:
    """Load balance vs the amount of data (1000 servers)."""
    num_switches = num_servers // SERVERS_PER_SWITCH
    topology = build_topology(num_switches, min_degree, seed + 7)
    chord = build_chord(topology, SERVERS_PER_SWITCH)
    gred10 = build_gred(topology, SERVERS_PER_SWITCH,
                        cvt_iterations=10, seed=seed)
    gred50 = build_gred(topology, SERVERS_PER_SWITCH,
                        cvt_iterations=50, seed=seed)
    rows = []
    for count in data_counts:
        rows.append({
            "items": count,
            "protocol": "Chord",
            "max_avg": max_avg_ratio(chord_load_vector(chord, count)),
        })
        rows.append({
            "items": count,
            "protocol": "GRED (T=10)",
            "max_avg": max_avg_ratio(gred_load_vector(gred10, count)),
        })
        rows.append({
            "items": count,
            "protocol": "GRED (T=50)",
            "max_avg": max_avg_ratio(gred_load_vector(gred50, count)),
        })
    return rows


def run_fig10c(
    iterations: Sequence[int] = DEFAULT_ITERATIONS,
    num_servers: int = 1000,
    num_items: int = 100_000,
    min_degree: int = 3,
    seed: int = 0,
) -> List[Dict]:
    """Load balance vs the C-regulation iteration count ``T``.

    Chord and GRED-NoCVT do not depend on T, so they are computed once
    and repeated across the axis, exactly as the flat lines in the
    paper's figure.
    """
    num_switches = num_servers // SERVERS_PER_SWITCH
    topology = build_topology(num_switches, min_degree, seed + 7)
    chord = build_chord(topology, SERVERS_PER_SWITCH)
    chord_value = max_avg_ratio(chord_load_vector(chord, num_items))
    nocvt = build_gred(topology, SERVERS_PER_SWITCH,
                       cvt_iterations=0, seed=seed)
    nocvt_value = max_avg_ratio(gred_load_vector(nocvt, num_items))
    rows = []
    for t in iterations:
        rows.append({"T": t, "protocol": "Chord",
                     "max_avg": chord_value})
        rows.append({"T": t, "protocol": "GRED-NoCVT",
                     "max_avg": nocvt_value})
        gred = build_gred(topology, SERVERS_PER_SWITCH,
                          cvt_iterations=t, seed=seed)
        rows.append({
            "T": t,
            "protocol": "GRED",
            "max_avg": max_avg_ratio(gred_load_vector(gred, num_items)),
        })
    return rows
