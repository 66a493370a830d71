"""Benchmark E4 — Fig. 9(a): routing stretch vs network size.

Paper result: Chord's average stretch is above 3.5 at every network
size; GRED and GRED-NoCVT stay below ~1.5 and roughly flat, i.e. GRED
uses <30% of Chord's routing path length.
"""

from repro.experiments import run_fig9a, show


def test_fig9a_stretch_vs_network_size(benchmark, scale):
    rows = benchmark.pedantic(
        run_fig9a,
        kwargs={"sizes": scale["fig9_sizes"],
                "num_items": scale["fig9_items"]},
        rounds=1, iterations=1,
    )
    show("fig9a", rows)
    for size in scale["fig9_sizes"]:
        sized = [r for r in rows if r["switches"] == size]
        chord = next(r for r in sized if r["protocol"] == "Chord")
        gred = next(r for r in sized if r["protocol"] == "GRED")
        nocvt = next(r for r in sized if r["protocol"] == "GRED-NoCVT")
        assert chord["stretch_mean"] > 3.0, (
            f"Chord stretch must stay high at n={size}"
        )
        assert gred["stretch_mean"] < 2.0
        assert nocvt["stretch_mean"] < 2.0
        # The headline <30% claim, with slack for the smaller scale.
        assert gred["stretch_mean"] < 0.5 * chord["stretch_mean"]
