"""Benchmark E9 — Fig. 10(b): load balance vs the amount of data.

Paper result: with 1000 servers and 100k-1M items, Chord's ``max/avg``
stays above 6 (worst), GRED (T=10) stays below ~2.5-3, and GRED (T=50)
below 2.
"""

from repro.experiments import run_fig10b, show


def test_fig10b_load_balance_vs_data(benchmark, scale):
    rows = benchmark.pedantic(
        run_fig10b,
        kwargs={"data_counts": scale["fig10b_counts"],
                "num_servers": scale["fig10b_servers"]},
        rounds=1, iterations=1,
    )
    show("fig10b", rows)
    for count in scale["fig10b_counts"]:
        at_count = [r for r in rows if r["items"] == count]
        chord = next(r for r in at_count if r["protocol"] == "Chord")
        t10 = next(r for r in at_count
                   if r["protocol"] == "GRED (T=10)")
        t50 = next(r for r in at_count
                   if r["protocol"] == "GRED (T=50)")
        assert chord["max_avg"] > t10["max_avg"] > t50["max_avg"], (
            f"ordering must hold at {count} items"
        )
        assert chord["max_avg"] > 4.0
        assert t50["max_avg"] < 2.0
