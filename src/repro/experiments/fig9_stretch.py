"""Experiments E4-E7 — large-scale routing stretch and table sizes
(Fig. 9).

Fig. 9(a): routing stretch vs network size — Chord > 3.5 everywhere,
GRED and GRED-NoCVT < ~1.5 and flat.

Fig. 9(b): routing stretch vs the minimum switch degree (100 switches,
1000 servers) — modest impact; slight decrease with more ports.

Fig. 9(c): GRED vs extended-GRED — extension adds a small amount of
stretch, still far below Chord.

Fig. 9(d): average forwarding-table entries per switch vs network size —
grows only modestly (near-constant DT degree ~6 plus physical ports and
relay tuples).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..controlplane import table_entry_counts
from ..graph import hop_count
from ..metrics import (
    measure_chord_stretch,
    measure_gred_stretch,
    summarize,
)
from .common import build_chord, build_gred, build_topology

DEFAULT_SIZES = (20, 40, 60, 80, 100)
DEFAULT_DEGREES = (3, 4, 5, 6, 7, 8, 9, 10)
SERVERS_PER_SWITCH = 10
NUM_ITEMS = 100


def run_fig9a(
    sizes: Sequence[int] = DEFAULT_SIZES,
    min_degree: int = 3,
    num_items: int = NUM_ITEMS,
    seed: int = 0,
) -> List[Dict]:
    """Routing stretch vs network size for Chord / GRED / GRED-NoCVT."""
    rows = []
    for size in sizes:
        topology = build_topology(size, min_degree, seed + size)
        gred = build_gred(topology, SERVERS_PER_SWITCH,
                          cvt_iterations=50, seed=seed)
        nocvt = build_gred(topology, SERVERS_PER_SWITCH,
                           cvt_iterations=0, seed=seed)
        chord = build_chord(topology, SERVERS_PER_SWITCH)
        for label, samples in (
            ("Chord", measure_chord_stretch(
                chord, num_items, np.random.default_rng(seed + 1))),
            ("GRED", measure_gred_stretch(
                gred, num_items, np.random.default_rng(seed + 1))),
            ("GRED-NoCVT", measure_gred_stretch(
                nocvt, num_items, np.random.default_rng(seed + 1))),
        ):
            summary = summarize(samples)
            rows.append({
                "switches": size,
                "protocol": label,
                "stretch_mean": summary.mean,
                "ci_low": summary.ci_low,
                "ci_high": summary.ci_high,
            })
    return rows


def run_fig9b(
    degrees: Sequence[int] = DEFAULT_DEGREES,
    num_switches: int = 100,
    num_items: int = NUM_ITEMS,
    seed: int = 0,
) -> List[Dict]:
    """Routing stretch vs minimum switch degree (100 switches)."""
    rows = []
    for degree in degrees:
        topology = build_topology(num_switches, degree, seed + degree)
        gred = build_gred(topology, SERVERS_PER_SWITCH,
                          cvt_iterations=50, seed=seed)
        nocvt = build_gred(topology, SERVERS_PER_SWITCH,
                           cvt_iterations=0, seed=seed)
        chord = build_chord(topology, SERVERS_PER_SWITCH)
        for label, samples in (
            ("Chord", measure_chord_stretch(
                chord, num_items, np.random.default_rng(seed + 1))),
            ("GRED", measure_gred_stretch(
                gred, num_items, np.random.default_rng(seed + 1))),
            ("GRED-NoCVT", measure_gred_stretch(
                nocvt, num_items, np.random.default_rng(seed + 1))),
        ):
            summary = summarize(samples)
            rows.append({
                "min_degree": degree,
                "protocol": label,
                "stretch_mean": summary.mean,
                "ci_low": summary.ci_low,
                "ci_high": summary.ci_high,
            })
    return rows


def run_fig9c(
    sizes: Sequence[int] = DEFAULT_SIZES,
    min_degree: int = 3,
    num_items: int = NUM_ITEMS,
    seed: int = 0,
) -> List[Dict]:
    """GRED vs extended-GRED routing stretch vs network size.

    Extended-GRED models every placement being redirected by a range
    extension: the data ends at a server on a physical neighbor of the
    destination switch, adding the extra hop(s) to the route, and the
    stretch baseline becomes the shortest path to that neighbor.
    """
    rows = []
    for size in sizes:
        topology = build_topology(size, min_degree, seed + size)
        gred = build_gred(topology, SERVERS_PER_SWITCH,
                          cvt_iterations=50, seed=seed)
        rng = np.random.default_rng(seed + 1)
        plain: List[float] = []
        extended: List[float] = []
        switches = gred.switch_ids()
        for i in range(num_items):
            data_id = f"ext-item-{i}"
            entry = switches[int(rng.integers(0, len(switches)))]
            route = gred.route_for(data_id, entry)
            dest = route.destination_switch
            shortest = hop_count(topology, entry, dest)
            if shortest > 0:
                plain.append(route.physical_hops / shortest)
            # Extension target: the lowest-id physical neighbor (the
            # controller's deterministic choice for equal capacities).
            neighbor = min(topology.neighbors(dest))
            ext_hops = route.physical_hops + hop_count(topology, dest,
                                                       neighbor)
            ext_shortest = hop_count(topology, entry, neighbor)
            if ext_shortest > 0:
                extended.append(ext_hops / ext_shortest)
        rows.append({
            "switches": size,
            "protocol": "GRED",
            "stretch_mean": summarize(plain).mean,
        })
        rows.append({
            "switches": size,
            "protocol": "extended-GRED",
            "stretch_mean": summarize(extended).mean,
        })
    return rows


def run_fig9d(
    sizes: Sequence[int] = DEFAULT_SIZES,
    min_degree: int = 3,
    seed: int = 0,
) -> List[Dict]:
    """Average forwarding-table entries per switch vs network size."""
    rows = []
    for size in sizes:
        topology = build_topology(size, min_degree, seed + size)
        gred = build_gred(topology, SERVERS_PER_SWITCH,
                          cvt_iterations=50, seed=seed)
        counts = table_entry_counts(gred.controller.switches.values())
        summary = summarize([float(c) for c in counts])
        rows.append({
            "switches": size,
            "avg_entries": summary.mean,
            "ci_low": summary.ci_low,
            "ci_high": summary.ci_high,
            "max_entries": summary.maximum,
        })
    return rows
