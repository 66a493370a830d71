"""Benchmark E10 — Fig. 10(c): load balance vs C-regulation iterations.

Paper result: Chord and GRED-NoCVT are independent of T (flat lines);
GRED's ``max/avg`` decreases as T grows, drops below 2 past T ~ 20, and
stops improving around T ~ 70.
"""

from repro.experiments import run_fig10c, show


def test_fig10c_load_balance_vs_iterations(benchmark, scale):
    rows = benchmark.pedantic(
        run_fig10c,
        kwargs={"iterations": scale["fig10c_iterations"],
                "num_servers": scale["fig10c_servers"],
                "num_items": scale["fig10c_items"]},
        rounds=1, iterations=1,
    )
    show("fig10c", rows)
    iterations = list(scale["fig10c_iterations"])
    chord = {r["T"]: r["max_avg"] for r in rows
             if r["protocol"] == "Chord"}
    nocvt = {r["T"]: r["max_avg"] for r in rows
             if r["protocol"] == "GRED-NoCVT"}
    gred = {r["T"]: r["max_avg"] for r in rows
            if r["protocol"] == "GRED"}
    # Flat baselines.
    assert len(set(chord.values())) == 1
    assert len(set(nocvt.values())) == 1
    # GRED improves substantially from T=0 to the largest T.
    assert gred[iterations[-1]] < 0.5 * gred[0]
    # Past T ~ 30 the curve is well below 2.5 (converged regime).
    for t in iterations:
        if t >= 30:
            assert gred[t] < 2.5
    # Diminishing returns: second half of the axis improves the balance
    # far less than the first half.
    mid = iterations[len(iterations) // 2]
    first_half_gain = gred[0] - gred[mid]
    second_half_gain = gred[mid] - gred[iterations[-1]]
    assert second_half_gain < first_half_gain
