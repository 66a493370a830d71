"""Benchmark E1/E2 — Fig. 7: testbed routing stretch and load balance.

Paper result: both GRED variants have average stretch close to 1 on the
6-switch prototype; GRED's CVT refinement yields a visibly lower
``max/avg`` than GRED-NoCVT.
"""

from repro.experiments import run_fig7a, run_fig7b, show


def test_fig7a_testbed_stretch(benchmark, scale):
    rows = benchmark.pedantic(
        run_fig7a, kwargs={"num_items": scale["fig7_items"]},
        rounds=1, iterations=1,
    )
    show("fig7a", rows)
    for row in rows:
        assert row["stretch_mean"] < 1.5, (
            f"{row['protocol']} stretch should be near-optimal on the "
            f"testbed"
        )


def test_fig7b_testbed_load_balance(benchmark, scale):
    rows = benchmark.pedantic(
        run_fig7b, kwargs={"num_items": scale["fig7b_items"]},
        rounds=1, iterations=1,
    )
    show("fig7b", rows)
    nocvt = next(r for r in rows if r["protocol"] == "GRED-NoCVT")
    gred = next(r for r in rows if r["protocol"] == "GRED")
    assert gred["max_avg"] <= nocvt["max_avg"], (
        "CVT refinement must not worsen the testbed load balance"
    )
    assert gred["max_avg"] < 2.0
