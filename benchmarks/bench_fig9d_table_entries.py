"""Benchmark E7 — Fig. 9(d): forwarding-table entries per switch.

Paper result: the average number of forwarding entries per switch grows
only modestly with network size — it is driven by the physical degree
and the near-constant average DT degree (< 6), not by the number of
flows, giving GRED its scalability advantage.
"""

from repro.experiments import run_fig9d, show


def test_fig9d_forwarding_table_entries(benchmark, scale):
    rows = benchmark.pedantic(
        run_fig9d, kwargs={"sizes": scale["fig9_sizes"]},
        rounds=1, iterations=1,
    )
    show("fig9d", rows)
    sizes = scale["fig9_sizes"]
    first = next(r for r in rows if r["switches"] == sizes[0])
    last = next(r for r in rows if r["switches"] == sizes[-1])
    growth = last["avg_entries"] / first["avg_entries"]
    size_growth = sizes[-1] / sizes[0]
    assert growth < 0.6 * size_growth, (
        "table size must grow much slower than the network"
    )
    for row in rows:
        # Entries stay tiny in absolute terms (no per-flow state).
        assert row["avg_entries"] < 40
