"""Benchmark E3 — Fig. 8: average response delay vs request count.

Paper result: the average response delay of retrieval requests is low
and changes only modestly as the number of requests grows, for both GRED
variants (the two curves are similar).
"""

from repro.experiments import run_fig8, show


def test_fig8_response_delay(benchmark, scale):
    rows = benchmark.pedantic(
        run_fig8, kwargs={"request_counts": scale["fig8_requests"]},
        rounds=1, iterations=1,
    )
    show("fig8", rows)
    for protocol in ("GRED", "GRED-NoCVT"):
        delays = [r["avg_delay_ms"] for r in rows
                  if r["protocol"] == protocol]
        assert max(delays) < 2.0 * min(delays), (
            f"{protocol} delay must change only modestly with load"
        )
    # The two variants are similar (same order of magnitude).
    gred = [r["avg_delay_ms"] for r in rows if r["protocol"] == "GRED"]
    nocvt = [r["avg_delay_ms"] for r in rows
             if r["protocol"] == "GRED-NoCVT"]
    assert 0.5 < (sum(gred) / len(gred)) / (sum(nocvt) / len(nocvt)) < 2.0
