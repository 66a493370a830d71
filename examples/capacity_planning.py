"""Capacity planning with the packet-level simulator.

An operator question the flow-level model cannot answer: *how many
requests per second can this deployment sustain before tail latency
blows past the SLO?*  This example sweeps offered load over a
packet-level simulation (finite link bandwidth, FIFO queues) for GRED
and Chord on the same physical network, finds each system's knee, and
persists the workload trace so the comparison is replayable.

Run with::

    python examples/capacity_planning.py
"""

import numpy as np

from repro import (
    ChordNetwork,
    GredNetwork,
    attach_uniform,
    brite_waxman_graph,
)
from repro.simulation import LatencyModel, PacketLevelSimulator
from repro.workloads import (
    read_trace,
    sequential_ids,
    trace_to_string,
    uniform_retrieval_trace,
)

NUM_SWITCHES = 35
SLO_P99_MS = 5.0
WINDOW = 0.1  # seconds of simulated injection per rate point
RATES = (500, 1000, 2000, 4000, 8000, 16000)


def main() -> None:
    rng = np.random.default_rng(31)
    topology, _ = brite_waxman_graph(NUM_SWITCHES, min_degree=3, rng=rng)
    gred = GredNetwork(topology, attach_uniform(topology.nodes(), 4),
                       cvt_iterations=50, seed=0)
    chord = ChordNetwork(topology, attach_uniform(topology.nodes(), 4))
    items = sequential_ids(120, prefix="plan")

    # A deliberately constrained physical network: 1 Gbps links and
    # 100 KB responses, so the knee is visible at simulation scale.
    model = LatencyModel(link_delay=5e-6, switch_delay=2e-6,
                         server_service_time=50e-6)

    print(f"{'rate/s':>8}  {'GRED p99 (ms)':>14}  {'Chord p99 (ms)':>15}")
    knees = {"GRED": None, "Chord": None}
    for rate in RATES:
        count = int(rate * WINDOW)
        trace = uniform_retrieval_trace(
            items, topology.nodes(), count, WINDOW,
            np.random.default_rng(1000 + rate),
        )
        # Round-trip the trace through its CSV form: what we simulate
        # is exactly what we could hand to another system.
        import io

        trace = read_trace(io.StringIO(trace_to_string(trace)))
        p99 = {}
        for label, net in (("GRED", gred), ("Chord", chord)):
            sim = PacketLevelSimulator(
                net, model, bandwidth_bytes_per_s=1.25e8)
            sim.run(trace, request_size=256, response_size=100_000)
            p99[label] = sim.p99_response_delay() * 1e3
            if knees[label] is None and p99[label] > SLO_P99_MS:
                knees[label] = rate
        print(f"{rate:>8}  {p99['GRED']:>14.2f}  {p99['Chord']:>15.2f}")

    print(f"\nSLO: p99 <= {SLO_P99_MS} ms")
    for label, knee in knees.items():
        if knee is None:
            print(f"  {label}: sustains every tested rate "
                  f"(>{RATES[-1]}/s)")
        else:
            print(f"  {label}: SLO violated at {knee} req/s")
    if knees["GRED"] is None and knees["Chord"] is not None:
        print("  GRED's shorter paths buy real capacity headroom.")
    elif (knees["GRED"] or 10 ** 9) > (knees["Chord"] or 0):
        print("  GRED sustains a higher request rate than Chord on the "
              "same hardware.")


if __name__ == "__main__":
    main()
