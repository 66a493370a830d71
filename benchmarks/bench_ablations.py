"""Ablation benchmarks A1-A5 (DESIGN.md Section 5), the tables of
``gred experiment ablations``.

A1 — C-regulation sample count: more Monte-Carlo samples per iteration
converge in fewer iterations (the paper's remark in Section IV-B).

A2 — Embedding quality: C-regulation trades a little distance fidelity
(higher stress) for load balance; stretch stays low for both variants.

A3 — Chord virtual nodes: the classical load-balance lever the paper
contrasts against ("it also increases the routing table space usage").
"""

from repro.experiments import (
    run_chord_virtual_nodes,
    run_cvt_samples,
    run_embedding_quality,
    show,
)


def test_ablation_cvt_sample_count(benchmark):
    rows = benchmark.pedantic(
        run_cvt_samples,
        kwargs={"sample_counts": (100, 1000, 5000), "iterations": 40},
        rounds=1, iterations=1,
    )
    show("A1", rows)
    # More samples -> better (or equal) energy by iteration 10, within
    # Monte-Carlo noise.
    low = next(r for r in rows if r["samples"] == 100)
    high = next(r for r in rows if r["samples"] == 5000)
    assert high["energy_at_10"] <= low["energy_at_10"] * 1.25
    for row in rows:
        assert row["energy_final"] <= row["energy_at_10"] * 1.2


def test_ablation_embedding_quality(benchmark):
    rows = benchmark.pedantic(
        run_embedding_quality, kwargs={"sizes": (20, 50)},
        rounds=1, iterations=1,
    )
    show("A2", rows)
    for size in (20, 50):
        sized = [r for r in rows if r["switches"] == size]
        nocvt = next(r for r in sized if r["protocol"] == "GRED-NoCVT")
        gred = next(r for r in sized if r["protocol"] == "GRED")
        # C-regulation sacrifices some distance fidelity...
        assert gred["stress"] >= nocvt["stress"] * 0.9
        # ...but greedy stretch stays low for both variants.
        assert gred["stretch_mean"] < 2.0
        assert nocvt["stretch_mean"] < 2.0


def test_ablation_chord_virtual_nodes(benchmark):
    rows = benchmark.pedantic(
        run_chord_virtual_nodes,
        kwargs={"virtual_node_counts": (1, 4, 16),
                "num_items": 30_000},
        rounds=1, iterations=1,
    )
    show("A3", rows)
    base = rows[0]
    most = rows[-1]
    # Virtual nodes improve balance but multiply routing state — the
    # trade-off the paper calls out against Chord.
    assert most["max_avg"] < base["max_avg"]
    assert most["avg_finger_entries"] > 4 * base["avg_finger_entries"]


def test_ablation_embedding_methods(benchmark):
    from repro.experiments import run_embedding_methods

    rows = benchmark.pedantic(
        run_embedding_methods, kwargs={"sizes": (20, 50)},
        rounds=1, iterations=1,
    )
    show("A4", rows)
    for size in (20, 50):
        sized = [r for r in rows if r["switches"] == size]
        classical = next(r for r in sized
                         if r["embedding"] == "classical")
        smacof_row = next(r for r in sized
                          if r["embedding"] == "smacof")
        # Stress majorization must not lose to classical on stress.
        assert smacof_row["stress"] <= classical["stress"] + 0.05
        assert smacof_row["stretch_mean"] < 2.0


def test_ablation_topology_families(benchmark):
    from repro.experiments import run_topology_families

    rows = benchmark.pedantic(run_topology_families,
                              rounds=1, iterations=1)
    show("A5", rows)
    for row in rows:
        assert row["gred_stretch"] < 0.5 * row["chord_stretch"], \
            row["family"]
        assert row["gred_max_avg"] < row["chord_max_avg"], row["family"]
