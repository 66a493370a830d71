"""Benchmark E8 — Fig. 10(a): load balance vs network size.

Paper result: Chord's ``max/avg`` rises with the network size; GRED
(T=10) and GRED (T=50) stay low with very little increase, and T=50
balances at least as well as T=10.
"""

from repro.experiments import run_fig10a, show


def test_fig10a_load_balance_vs_size(benchmark, scale):
    rows = benchmark.pedantic(
        run_fig10a,
        kwargs={"server_counts": scale["fig10a_servers"],
                "num_items": scale["fig10a_items"]},
        rounds=1, iterations=1,
    )
    show("fig10a", rows)
    servers = scale["fig10a_servers"]
    largest = [r for r in rows if r["servers"] == servers[-1]]
    chord = next(r for r in largest if r["protocol"] == "Chord")
    t10 = next(r for r in largest if r["protocol"] == "GRED (T=10)")
    t50 = next(r for r in largest if r["protocol"] == "GRED (T=50)")
    assert t50["max_avg"] < chord["max_avg"], (
        "GRED(T=50) must beat Chord at the largest size"
    )
    assert t50["max_avg"] <= t10["max_avg"] * 1.1, (
        "more C-regulation iterations must not hurt"
    )
    # Chord degrades with size; GRED(T=50) stays low.
    chord_small = next(r for r in rows
                       if r["servers"] == servers[0]
                       and r["protocol"] == "Chord")
    assert chord["max_avg"] >= chord_small["max_avg"]
    assert t50["max_avg"] < 2.5
