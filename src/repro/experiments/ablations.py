"""Ablation experiments (A1-A3 in DESIGN.md) for the design decisions.

A1 — C-regulation sample count: convergence speed of the CVT energy for
different Monte-Carlo sample counts (the paper fixes 1000 and notes more
samples converge in fewer iterations at higher per-iteration cost).

A2 — Embedding quality vs routing stretch: how Kruskal stress of the
M-position embedding relates to greedy stretch, and what C-regulation
does to both.

A3 — Chord virtual nodes: the classical load-balance lever the paper
mentions; more virtual nodes improve Chord's max/avg at the price of
larger finger state.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..embedding import c_regulation, kruskal_stress, m_position
from ..graph import all_pairs_hop_matrix
from ..metrics import max_avg_ratio, measure_gred_stretch, summarize
from .common import (
    build_chord,
    build_gred,
    build_topology,
    chord_load_vector,
)


def run_cvt_samples(
    sample_counts: Sequence[int] = (100, 500, 1000, 5000),
    num_switches: int = 50,
    iterations: int = 60,
    seed: int = 0,
) -> List[Dict]:
    """A1: CVT energy trajectory vs Monte-Carlo sample count.

    Energies are evaluated at fixed iteration checkpoints against one
    common, independent evaluation sample set — the per-iteration
    estimates inside :func:`c_regulation` use each run's own samples
    and are not comparable across sample counts.
    """
    from ..geometry import cvt_energy, sample_unit_square

    topology = build_topology(num_switches, 3, seed)
    matrix, _ = all_pairs_hop_matrix(topology)
    sites = m_position(matrix)
    eval_samples = sample_unit_square(
        50_000, np.random.default_rng(seed + 99))
    checkpoints = [c for c in (10, 30, iterations) if c <= iterations]
    rows = []
    for samples in sample_counts:
        row = {"samples": samples}
        for checkpoint in checkpoints:
            result = c_regulation(
                sites, iterations=checkpoint,
                samples_per_iteration=samples,
                rng=np.random.default_rng(seed + samples),
            )
            key = ("energy_final" if checkpoint == iterations
                   else f"energy_at_{checkpoint}")
            row[key] = cvt_energy(result.sites, eval_samples)
        if "energy_final" not in row:
            row["energy_final"] = None
        rows.append(row)
    return rows


def run_embedding_quality(
    sizes: Sequence[int] = (20, 50, 80),
    num_items: int = 100,
    seed: int = 0,
) -> List[Dict]:
    """A2: embedding stress vs greedy routing stretch, with/without CVT."""
    rows = []
    for size in sizes:
        topology = build_topology(size, 3, seed + size)
        matrix, order = all_pairs_hop_matrix(topology)
        for label, t in (("GRED-NoCVT", 0), ("GRED", 50)):
            net = build_gred(topology, 10, cvt_iterations=t, seed=seed)
            points = [net.controller.positions[node] for node in order]
            stress = kruskal_stress(matrix, points)
            stretch = summarize(measure_gred_stretch(
                net, num_items, np.random.default_rng(seed + 3)
            )).mean
            rows.append({
                "switches": size,
                "protocol": label,
                "stress": stress,
                "stretch_mean": stretch,
            })
    return rows


def run_chord_virtual_nodes(
    virtual_node_counts: Sequence[int] = (1, 2, 4, 8, 16),
    num_switches: int = 50,
    num_items: int = 50_000,
    seed: int = 0,
) -> List[Dict]:
    """A3: Chord load balance and table size vs virtual nodes."""
    topology = build_topology(num_switches, 3, seed)
    rows = []
    for v in virtual_node_counts:
        chord = build_chord(topology, 10, virtual_nodes=v)
        rows.append({
            "virtual_nodes": v,
            "max_avg": max_avg_ratio(chord_load_vector(chord, num_items)),
            "avg_finger_entries": chord.average_finger_table_size() * v,
        })
    return rows


def run_embedding_methods(
    sizes: Sequence[int] = (20, 50, 80),
    num_items: int = 100,
    seed: int = 0,
) -> List[Dict]:
    """A4: classical MDS vs SMACOF stress majorization.

    Compares the two embedding back ends on distance preservation
    (Kruskal stress) and the routing stretch of the resulting GRED
    network (both without CVT, to isolate the embedding itself).
    """
    from ..controlplane import ControllerConfig
    from ..core import GredNetwork
    from ..edge import attach_uniform

    rows = []
    for size in sizes:
        topology = build_topology(size, 3, seed + size)
        matrix, order = all_pairs_hop_matrix(topology)
        for method in ("classical", "smacof"):
            servers = attach_uniform(topology.nodes(), 10)
            net = GredNetwork.__new__(GredNetwork)
            from ..hashing import data_position
            from ..controlplane import Controller

            net._init_request_state()
            net._position_fn = data_position
            net.controller = Controller(
                topology, servers,
                config=ControllerConfig(cvt_iterations=0, seed=seed,
                                        embedding=method),
            )
            points = [net.controller.positions[node] for node in order]
            stretch = summarize(measure_gred_stretch(
                net, num_items, np.random.default_rng(seed + 3))).mean
            rows.append({
                "switches": size,
                "embedding": method,
                "stress": kruskal_stress(matrix, points),
                "stretch_mean": stretch,
            })
    return rows


def run_topology_families(
    num_items: int = 100,
    load_items: int = 20_000,
    seed: int = 0,
) -> List[Dict]:
    """A5: robustness of the headline results across topology families.

    The paper evaluates on BRITE/Waxman only; this ablation re-runs the
    stretch and load-balance comparison on structurally different
    families (denser Waxman, grid, random-regular, unit-disk geometric)
    to show the conclusions aren't an artifact of one generator.
    """
    from ..core import GredNetwork
    from ..chord import ChordNetwork
    from ..edge import attach_uniform
    from ..metrics import (
        max_avg_ratio,
        measure_chord_stretch,
        measure_gred_stretch,
    )
    from ..topology import (
        grid_graph,
        random_geometric_graph,
        random_regular_graph,
    )
    from .common import chord_load_vector, gred_load_vector

    families = []
    families.append(("waxman-d3", build_topology(64, 3, seed)))
    families.append(("waxman-d6", build_topology(64, 6, seed + 1)))
    families.append(("grid-8x8", grid_graph(8, 8)))
    families.append((
        "regular-4",
        random_regular_graph(64, 4, rng=np.random.default_rng(seed)),
    ))
    geometric, _ = random_geometric_graph(
        64, 0.22, rng=np.random.default_rng(seed + 2))
    families.append(("geometric", geometric))

    rows = []
    for label, topology in families:
        gred = GredNetwork(topology,
                           attach_uniform(topology.nodes(), 5),
                           cvt_iterations=50, seed=seed)
        chord = ChordNetwork(topology,
                             attach_uniform(topology.nodes(), 5))
        gred_s = summarize(measure_gred_stretch(
            gred, num_items, np.random.default_rng(seed + 9))).mean
        chord_s = summarize(measure_chord_stretch(
            chord, num_items, np.random.default_rng(seed + 9))).mean
        rows.append({
            "family": label,
            "gred_stretch": gred_s,
            "chord_stretch": chord_s,
            "gred_max_avg": max_avg_ratio(
                gred_load_vector(gred, load_items)),
            "chord_max_avg": max_avg_ratio(
                chord_load_vector(chord, load_items)),
        })
    return rows
