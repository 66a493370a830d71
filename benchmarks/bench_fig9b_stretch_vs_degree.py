"""Benchmark E5 — Fig. 9(b): routing stretch vs minimum switch degree.

Paper result: with 100 switches and 1000 servers, the minimum
interconnection degree has only a modest impact on stretch; GRED and
GRED-NoCVT stay far below Chord, with a slight decrease as the degree
grows (more ports let greedy find shorter paths).
"""

from repro.experiments import run_fig9b, show


def test_fig9b_stretch_vs_min_degree(benchmark, scale):
    rows = benchmark.pedantic(
        run_fig9b,
        kwargs={"degrees": scale["fig9_degrees"],
                "num_items": scale["fig9_items"],
                "num_switches": 100},
        rounds=1, iterations=1,
    )
    show("fig9b", rows)
    gred_values = []
    for degree in scale["fig9_degrees"]:
        at_degree = [r for r in rows if r["min_degree"] == degree]
        chord = next(r for r in at_degree if r["protocol"] == "Chord")
        gred = next(r for r in at_degree if r["protocol"] == "GRED")
        assert gred["stretch_mean"] < 0.5 * chord["stretch_mean"]
        gred_values.append(gred["stretch_mean"])
    # Modest impact of the degree: the GRED spread stays small.
    assert max(gred_values) - min(gred_values) < 0.6
    # Slight decreasing trend: the densest topology is no worse than
    # the sparsest.
    assert gred_values[-1] <= gred_values[0] + 0.1
