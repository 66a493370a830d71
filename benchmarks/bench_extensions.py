"""Benchmarks X1-X9: the extension experiments (mobility, failure
availability, state/stretch design space, ...), the tables of
``gred experiment extensions``.

These complete the evaluation beyond the paper's figures: Section VI
sketches replication and nearest-copy retrieval without measuring them;
the introduction argues the state/stretch design space without
quantifying it.
"""

from repro.experiments import (
    run_failure_availability,
    run_mobility,
    run_state_stretch_tradeoff,
    show,
)


def test_x1_mobility(benchmark):
    rows = benchmark.pedantic(
        run_mobility, kwargs={"copies_list": (1, 2, 3, 5)},
        rounds=1, iterations=1,
    )
    show("X1", rows)
    one = next(r for r in rows if r["copies"] == 1)
    five = next(r for r in rows if r["copies"] == 5)
    assert five["mean_request_hops"] < one["mean_request_hops"], (
        "nearest-copy retrieval must shorten mobile users' routes"
    )


def test_x2_failure_availability(benchmark):
    rows = benchmark.pedantic(
        run_failure_availability,
        kwargs={"copies_list": (1, 2, 3),
                "failure_fractions": (0.05, 0.1, 0.2, 0.3)},
        rounds=1, iterations=1,
    )
    show("X2", rows)
    for fraction in (0.05, 0.1, 0.2, 0.3):
        at = [r for r in rows if r["failed_fraction"] == fraction]
        by_copies = {r["copies"]: r["availability"] for r in at}
        assert by_copies[3] >= by_copies[2] >= by_copies[1]
    worst = next(r for r in rows
                 if r["failed_fraction"] == 0.3 and r["copies"] == 3)
    assert worst["availability"] > 0.9, (
        "3 replicas must keep >90% availability at 30% failures"
    )


def test_x3_state_stretch_tradeoff(benchmark):
    rows = benchmark.pedantic(
        run_state_stretch_tradeoff, kwargs={"sizes": (20, 60, 100)},
        rounds=1, iterations=1,
    )
    show("X3", rows)
    at_100 = [r for r in rows if r["switches"] == 100]
    gred = next(r for r in at_100 if r["protocol"] == "GRED")
    onehop = next(r for r in at_100 if r["protocol"] == "OneHop-CH")
    chord = next(r for r in at_100 if r["protocol"] == "Chord")
    # GRED sits on the Pareto frontier: ~50x less state than one-hop
    # CH at <2x its stretch, and ~4x less stretch than Chord.
    assert gred["state_per_node"] < onehop["state_per_node"] / 20
    assert gred["stretch_mean"] < 2 * onehop["stretch_mean"]
    assert gred["stretch_mean"] < chord["stretch_mean"] / 2


def test_x4_link_utilization(benchmark):
    from repro.experiments import run_link_utilization

    rows = benchmark.pedantic(
        run_link_utilization,
        kwargs={"num_switches": 60, "num_requests": 500},
        rounds=1, iterations=1,
    )
    show("X4", rows)
    gred = next(r for r in rows if r["protocol"] == "GRED")
    chord = next(r for r in rows if r["protocol"] == "Chord")
    # The paper's <30% routing-cost claim, measured as bandwidth.
    assert gred["total_link_traversals"] < \
        0.45 * chord["total_link_traversals"]
    assert gred["max_link_load"] < chord["max_link_load"]


def test_x5_saturation(benchmark):
    from repro.experiments import run_saturation

    rows = benchmark.pedantic(
        run_saturation,
        kwargs={"rates_per_s": (500, 1000, 2000, 4000, 8000)},
        rounds=1, iterations=1,
    )
    show("X5", rows)
    # At the highest load, GRED must be faster on average and at the
    # tail — its shorter paths consume less aggregate bandwidth.
    top = [r for r in rows if r["rate_per_s"] == 8000]
    gred = next(r for r in top if r["protocol"] == "GRED")
    chord = next(r for r in top if r["protocol"] == "Chord")
    assert gred["avg_delay_ms"] < chord["avg_delay_ms"]
    assert gred["p99_delay_ms"] < chord["p99_delay_ms"]


def test_x6_control_churn(benchmark):
    from repro.experiments import run_control_churn

    rows = benchmark.pedantic(
        run_control_churn, kwargs={"num_switches": 50, "num_joins": 5},
        rounds=1, iterations=1,
    )
    show("X6", rows)
    for row in rows:
        assert row["avg_nodes_touched"] < row["population"] / 2


def test_x7_adaptive_replication(benchmark):
    from repro.experiments import run_adaptive_replication

    rows = benchmark.pedantic(
        run_adaptive_replication,
        kwargs={"zipf_exponents": (0.0, 0.8, 1.2)},
        rounds=1, iterations=1,
    )
    show("X7", rows)
    flat = next(r for r in rows if r["zipf"] == 0.0)
    skewed = next(r for r in rows if r["zipf"] == 1.2)
    flat_gain = flat["static_mean_hops"] - flat["adaptive_mean_hops"]
    skew_gain = (skewed["static_mean_hops"]
                 - skewed["adaptive_mean_hops"])
    # The hotter the head, the bigger the saving.
    assert skew_gain >= flat_gain
    assert skewed["adaptive_mean_hops"] < skewed["static_mean_hops"]


def test_x8_ght_comparison(benchmark):
    from repro.experiments import run_ght_comparison

    rows = benchmark.pedantic(
        run_ght_comparison, kwargs={"num_switches": 50,
                                    "num_items": 300},
        rounds=1, iterations=1,
    )
    show("X8", rows)
    for topology in ("unit-disk", "waxman"):
        at = [r for r in rows if r["topology"] == topology]
        ght = next(r for r in at if r["protocol"] == "GHT")
        gred = next(r for r in at if r["protocol"] == "GRED")
        assert gred["delivery_rate"] == 1.0
        # GRED's virtual-space greedy beats geographic greedy +
        # perimeter by a wide stretch margin on both families.
        assert gred["stretch_mean"] < 0.5 * ght["stretch_mean"]


def test_x9_overflow_protection(benchmark):
    from repro.experiments import run_overflow_protection

    rows = benchmark.pedantic(run_overflow_protection,
                              rounds=1, iterations=1)
    show("X9", rows)
    for row in rows:
        assert row["rejected_unmanaged"] > 0
        # Range extension absorbs (nearly) all of the overflow.
        assert row["rejected_managed"] <= \
            0.1 * row["rejected_unmanaged"]
