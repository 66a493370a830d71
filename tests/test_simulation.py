"""Tests for the discrete-event simulator, the latency model, and the
response delays the packet-level simulator gives at unbounded bandwidth
(Fig. 8's setting)."""

import dataclasses
import math

import numpy as np
import pytest

from repro import GredNetwork
from repro.edge import attach_uniform
from repro.simulation import (
    LatencyModel,
    PacketLevelSimulator,
    SimulationError,
    Simulator,
)
from repro.topology import testbed_topology
from repro.workloads import RetrievalRequest, uniform_retrieval_trace


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        end = sim.run()
        assert fired == ["a", "b", "c"]
        assert end == 3.0

    def test_fifo_for_simultaneous_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(1.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1, 2]

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(("first", sim.now))
            sim.schedule(0.5, lambda: fired.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == [("first", 1.0), ("second", 1.5)]

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_schedule_at_past_raises(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: sim.schedule_at(1.0, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_runaway_detection(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.1, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError, match="exceeded"):
            sim.run(max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestLatencyModel:
    def test_path_delay_linear_in_hops(self):
        m = LatencyModel(link_delay=1e-3, switch_delay=1e-4,
                         server_service_time=0.0)
        assert m.path_delay(0) == 0.0
        assert m.path_delay(3) == pytest.approx(3 * 1.1e-3)

    def test_negative_hops_raises(self):
        with pytest.raises(ValueError):
            LatencyModel().path_delay(-1)

    def test_negative_component_raises(self):
        with pytest.raises(ValueError):
            LatencyModel(link_delay=-1.0)

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(LatencyModel)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_bad_component_names_the_field(self, name, value):
        with pytest.raises(ValueError,
                           match=f"^{name} must be a finite number >= 0"):
            LatencyModel(**{name: value})

    def test_round_trip_is_the_per_hop_sum(self):
        m = LatencyModel(link_delay=1e-3, switch_delay=1e-4,
                         server_service_time=5e-3)
        assert m.round_trip([0, 1, 2], 2) == m.path_delay(4) + 5e-3
        assert m.round_trip([0, 1, 2], 2, 3) == m.path_delay(5) + 5e-3


class _SlowLinks:
    """The part of a fault state the latency model reads."""

    def __init__(self, slow):
        self.slow = slow

    def delay_factor(self, u, v):
        return self.slow.get((min(u, v), max(u, v)), 1.0)


class TestSlowLinks:
    model = LatencyModel(link_delay=1e-3, switch_delay=1e-4,
                         server_service_time=5e-3)

    def test_each_traversal_of_a_slow_link_adds_its_excess(self):
        slow = _SlowLinks({(1, 2): 4.0})
        trace = [0, 1, 2, 3]
        nominal = self.model.round_trip(trace, 3)
        assert self.model.round_trip(trace, 3, None, slow) == \
            pytest.approx(nominal + 2 * 3.0 * 1e-3, rel=1e-12)
        one_way = self.model.round_trip(trace, 3, 3)
        assert self.model.round_trip(trace, 3, 3, slow) == \
            pytest.approx(one_way + 3.0 * 1e-3, rel=1e-12)

    def test_a_reply_path_charges_its_own_links(self):
        slow = _SlowLinks({(1, 2): 4.0, (3, 5): 2.0})
        trace = [0, 1, 2, 3]
        one_way = self.model.round_trip(trace, 3, 2)
        assert self.model.round_trip(trace, 3, 2, slow, [3, 5, 0]) == \
            pytest.approx(one_way + (3.0 + 1.0) * 1e-3, rel=1e-12)
        assert self.model.round_trip(trace, 3, 2, None, [3, 5, 0]) == \
            one_way

    def test_links_off_the_trace_change_nothing(self):
        slow = _SlowLinks({(5, 6): 10.0})
        trace = [0, 1, 2]
        assert self.model.round_trip(trace, 2, None, slow) == \
            self.model.round_trip(trace, 2)
        assert self.model.round_trip(trace, 2, None, _SlowLinks({})) == \
            self.model.round_trip(trace, 2)


class TestResponseDelay:
    """The packet-level simulator at unbounded bandwidth: no packet
    waits for a link, so each hop costs exactly its link and switch
    delay and only the servers queue."""

    @pytest.fixture
    def net(self):
        topology = testbed_topology()
        servers = attach_uniform(topology.nodes(), servers_per_switch=2)
        net = GredNetwork(topology, servers, cvt_iterations=5, seed=0)
        for i in range(20):
            net.place(f"sim-{i}", payload=b"x", entry_switch=0)
        return net

    @staticmethod
    def simulator(net, latency=None):
        return PacketLevelSimulator(net, latency or LatencyModel(),
                                    bandwidth_bytes_per_s=math.inf)

    def test_every_request_completes(self, net, rng):
        items = [f"sim-{i}" for i in range(20)]
        trace = uniform_retrieval_trace(items, net.switch_ids(), 50,
                                        1.0, rng)
        completed = self.simulator(net).run(trace)
        assert len(completed) == 50
        assert all(c.link_wait == 0.0 for c in completed)

    def test_delay_at_least_service_plus_path(self, net, rng):
        latency = LatencyModel()
        items = [f"sim-{i}" for i in range(20)]
        trace = uniform_retrieval_trace(items, net.switch_ids(), 30,
                                        1.0, rng)
        for c in self.simulator(net, latency).run(trace):
            floor = (latency.server_service_time
                     + latency.path_delay(c.request_hops)
                     + latency.path_delay(c.response_hops))
            assert c.response_delay >= floor - 1e-12

    def test_queueing_under_contention(self, net):
        """Many simultaneous requests for one item must queue at its
        server: they share one path, so the last completes nine
        service times after the first."""
        trace = [RetrievalRequest(time=0.0, data_id="sim-0",
                                  entry_switch=0)
                 for _ in range(10)]
        completed = self.simulator(net).run(trace)
        delays = [c.response_delay for c in completed]
        assert max(delays) - min(delays) >= \
            9 * LatencyModel().server_service_time - 1e-9

    def test_average_requires_run(self, net):
        with pytest.raises(ValueError):
            self.simulator(net).average_response_delay()

    def test_average_delay_positive(self, net, rng):
        items = [f"sim-{i}" for i in range(20)]
        trace = uniform_retrieval_trace(items, net.switch_ids(), 40,
                                        1.0, rng)
        sim = self.simulator(net)
        sim.run(trace)
        assert sim.average_response_delay() > 0

    def test_works_with_chord_backend(self, rng):
        from repro.chord import ChordNetwork

        topology = testbed_topology()
        servers = attach_uniform(topology.nodes(), servers_per_switch=2)
        chord = ChordNetwork(topology, servers)
        items = [f"c-{i}" for i in range(10)]
        for item in items:
            chord.place(item, entry_switch=0)
        trace = uniform_retrieval_trace(items, topology.nodes(), 20,
                                        1.0, rng)
        completed = self.simulator(chord).run(trace)
        assert len(completed) == 20
