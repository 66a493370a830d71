"""Tests for the packet-level simulator with link contention."""

import math

import numpy as np
import pytest

from repro import GredNetwork, obs
from repro.chord import ChordNetwork
from repro.edge import attach_uniform
from repro.faults import FaultState
from repro.simulation import LatencyModel, PacketLevelSimulator
from repro.topology import grid_graph
from repro.workloads import RetrievalRequest, uniform_retrieval_trace


@pytest.fixture
def net():
    topology = grid_graph(3, 3)
    servers = attach_uniform(topology.nodes(), servers_per_switch=2)
    network = GredNetwork(topology, servers, cvt_iterations=5, seed=0)
    for i in range(10):
        network.place(f"pk-{i}", payload=b"x", entry_switch=0)
    return network


class TestBandwidth:
    def test_serialization_time(self, net):
        sim = PacketLevelSimulator(net, bandwidth_bytes_per_s=1e6)
        assert sim.serialization(1_000_000) == pytest.approx(1.0)
        unbounded = PacketLevelSimulator(net,
                                         bandwidth_bytes_per_s=math.inf)
        assert unbounded.serialization(1_000_000) == 0.0

    def test_invalid_params_rejected(self, net):
        for bandwidth in (0, -1.0, math.nan):
            with pytest.raises(ValueError, match="bandwidth_bytes_per_s"):
                PacketLevelSimulator(net, bandwidth_bytes_per_s=bandwidth)


class TestPacketLevelSimulator:
    def test_all_requests_complete(self, net, rng):
        items = [f"pk-{i}" for i in range(10)]
        trace = uniform_retrieval_trace(items, net.switch_ids(), 40,
                                        0.5, rng)
        sim = PacketLevelSimulator(net)
        completed = sim.run(trace)
        assert len(completed) == 40

    def test_isolated_request_delay_floor(self, net):
        """A single request's delay equals the deterministic sum of its
        components (no queueing)."""
        model = LatencyModel(link_delay=5e-6, switch_delay=2e-6,
                             server_service_time=100e-6)
        trace = [RetrievalRequest(time=0.0, data_id="pk-0",
                                  entry_switch=0)]
        sim = PacketLevelSimulator(net, model)
        (completion,) = sim.run(trace, request_size=256,
                                response_size=4096)
        expected = (
            completion.request_hops * (model.switch_delay
                                       + sim.serialization(256)
                                       + model.link_delay)
            + model.server_service_time
            + completion.response_hops * (model.switch_delay
                                          + sim.serialization(4096)
                                          + model.link_delay)
        )
        assert completion.response_delay == pytest.approx(expected,
                                                          rel=1e-9)
        assert completion.link_wait == 0.0

    def test_contention_creates_waiting(self, net):
        """Many simultaneous requests for the same item share links and
        the server, so waiting must appear."""
        trace = [RetrievalRequest(time=0.0, data_id="pk-0",
                                  entry_switch=0)
                 for _ in range(20)]
        sim = PacketLevelSimulator(net, bandwidth_bytes_per_s=1e7)
        completed = sim.run(trace, response_size=50_000)
        total_wait = sum(c.link_wait for c in completed)
        assert total_wait > 0
        delays = [c.response_delay for c in completed]
        assert max(delays) > 2 * min(delays)

    def test_delay_increases_with_load(self, net, rng):
        items = [f"pk-{i}" for i in range(10)]
        def avg_delay(count):
            trace = uniform_retrieval_trace(
                items, net.switch_ids(), count, 0.01,
                np.random.default_rng(3))
            sim = PacketLevelSimulator(net, bandwidth_bytes_per_s=1e7)
            sim.run(trace, response_size=50_000)
            return sim.average_response_delay()

        assert avg_delay(100) > avg_delay(5)

    def test_p99_at_least_average(self, net, rng):
        items = [f"pk-{i}" for i in range(10)]
        trace = uniform_retrieval_trace(items, net.switch_ids(), 50,
                                        0.1, rng)
        sim = PacketLevelSimulator(net)
        sim.run(trace)
        assert sim.p99_response_delay() >= sim.average_response_delay()

    def test_stats_require_run(self, net):
        sim = PacketLevelSimulator(net)
        with pytest.raises(ValueError):
            sim.average_response_delay()
        with pytest.raises(ValueError):
            sim.p99_response_delay()

    def test_chord_backend(self, rng):
        topology = grid_graph(3, 3)
        servers = attach_uniform(topology.nodes(), servers_per_switch=2)
        chord = ChordNetwork(topology, servers)
        items = [f"c-{i}" for i in range(5)]
        trace = uniform_retrieval_trace(items, topology.nodes(), 20,
                                        0.1, rng)
        sim = PacketLevelSimulator(chord)
        completed = sim.run(trace)
        assert len(completed) == 20
        # Chord expands overlay paths: hops must be >= direct distance.
        for c in completed:
            assert c.request_hops >= 0


class TestSaturationExperiment:
    def test_gred_degrades_slower_than_chord(self, catalogued):
        from repro.experiments import run_saturation

        rows = run_saturation(rates_per_s=(500, 8000),
                              num_switches=25, window=0.05)
        catalogued("X5", rows)
        def growth(protocol):
            low = next(r for r in rows
                       if r["protocol"] == protocol
                       and r["rate_per_s"] == 500)
            high = next(r for r in rows
                        if r["protocol"] == protocol
                        and r["rate_per_s"] == 8000)
            return high["p99_delay_ms"] / low["p99_delay_ms"]

        assert growth("Chord") > growth("GRED") * 0.9
        # At high load Chord is absolutely slower.
        gred_high = next(r for r in rows if r["protocol"] == "GRED"
                         and r["rate_per_s"] == 8000)
        chord_high = next(r for r in rows if r["protocol"] == "Chord"
                          and r["rate_per_s"] == 8000)
        assert gred_high["avg_delay_ms"] < chord_high["avg_delay_ms"]


class TestUnboundedBandwidth:
    """At ``math.inf`` with no fault state attached a packet's path is
    one event, and it completes exactly as the hop-by-hop walk (which
    a quiet fault state keeps) does: same delays, bit for bit, and one
    zero ``link_backlog_seconds`` sample per hop."""

    def run(self, net, trace, fault_state):
        with obs.scoped_registry() as registry:
            sim = PacketLevelSimulator(net, LatencyModel(),
                                       bandwidth_bytes_per_s=math.inf,
                                       fault_state=fault_state)
            completed = [(c.request, c.request_hops, c.response_hops,
                          c.response_delay, c.link_wait)
                         for c in sim.run(trace)]
        backlog = registry.lookup("histogram",
                                  "simulation.link_backlog_seconds")
        events = registry.counter_values("simulation.events_processed")
        return completed, (backlog.count, backlog.sum), sum(events.values())

    def test_one_event_per_path_is_the_hop_walk(self, net, rng):
        items = [f"pk-{i}" for i in range(10)]
        trace = uniform_retrieval_trace(items, net.switch_ids(), 200,
                                        0.005, rng)
        fast, backlog, events = self.run(net, trace, None)
        walked, walked_backlog, walked_events = self.run(
            net, trace, FaultState())
        assert fast == walked
        hops = sum(c[1] + c[2] for c in fast)
        assert backlog == walked_backlog == (hops, 0.0) and hops > 200
        assert events < walked_events
