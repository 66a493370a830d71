"""Benchmark E6 — Fig. 9(c): routing stretch of extended-GRED.

Paper result: when every placement is redirected to a server on a
neighbor of the destination switch (the worst case of range extension),
the stretch increases slightly but remains significantly below Chord.
"""

from repro.experiments import run_fig9a, run_fig9c, show


def test_fig9c_range_extension_stretch(benchmark, scale):
    rows = benchmark.pedantic(
        run_fig9c,
        kwargs={"sizes": scale["fig9_sizes"],
                "num_items": scale["fig9_items"]},
        rounds=1, iterations=1,
    )
    show("fig9c", rows)
    chord_rows = run_fig9a(sizes=(scale["fig9_sizes"][0],),
                           num_items=scale["fig9_items"])
    chord = next(r for r in chord_rows if r["protocol"] == "Chord")
    for size in scale["fig9_sizes"]:
        sized = [r for r in rows if r["switches"] == size]
        gred = next(r for r in sized if r["protocol"] == "GRED")
        ext = next(r for r in sized
                   if r["protocol"] == "extended-GRED")
        assert gred["stretch_mean"] <= ext["stretch_mean"], (
            "range extension must not shorten routes"
        )
        assert ext["stretch_mean"] < chord["stretch_mean"], (
            "extended-GRED must remain well below Chord"
        )
