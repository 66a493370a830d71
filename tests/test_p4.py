"""Tests for the P4 prototype model, including differential validation
against the behavioral data plane."""

import numpy as np
import pytest

from repro import GredNetwork, attach_uniform, brite_waxman_graph
from oracles.p4 import (
    GRED_HEADER,
    Header,
    HeaderType,
    P4Network,
    P4RuntimeError,
    P4TypeError,
    PacketContext,
    Table,
    fixed_point,
    from_fixed,
    make_gred_packet,
    make_header,
    squared_distance_fixed,
    to_fixed,
)
from repro.topology import grid_graph


class TestFixedPoint:
    def test_roundtrip_on_grid_points(self):
        for i in range(0, 65537, 4096):
            v = i / 65536
            assert from_fixed(to_fixed(v)) == v

    def test_clamping(self):
        assert to_fixed(-0.5) == 0
        assert to_fixed(1.5) == 65536

    def test_quantization_error_bounded(self):
        rng = np.random.default_rng(0)
        for v in rng.uniform(0, 1, size=200):
            assert abs(from_fixed(to_fixed(v)) - v) <= 0.5 / 65536

    def test_squared_distance_exact(self):
        a = fixed_point((0.0, 0.0))
        b = fixed_point((1.0, 0.0))
        assert squared_distance_fixed(*a, *b) == 65536 ** 2

    def test_squared_distance_symmetric(self):
        a = fixed_point((0.3, 0.7))
        b = fixed_point((0.9, 0.1))
        assert squared_distance_fixed(*a, *b) == \
            squared_distance_fixed(*b, *a)


class TestHeaders:
    def test_field_width_validation(self):
        h = Header(header_type=GRED_HEADER)
        h.set("kind", 1)
        with pytest.raises(P4TypeError):
            h.set("kind", 4)  # 2-bit field
        with pytest.raises(P4TypeError):
            h.set("kind", -1)

    def test_unknown_field_rejected(self):
        h = Header(header_type=GRED_HEADER)
        with pytest.raises(P4TypeError):
            h.set("bogus", 0)
        with pytest.raises(P4TypeError):
            h.get("bogus")

    def test_invalidate_clears_values(self):
        h = make_header(GRED_HEADER, kind=1)
        h.set_invalid()
        assert h.get("kind") == 0
        assert not h.valid

    def test_bit_width(self):
        assert GRED_HEADER.bit_width() == 2 + 32 + 32 + 64 + 1 + 32 * 3

    def test_non_int_rejected(self):
        h = Header(header_type=GRED_HEADER)
        with pytest.raises(P4TypeError):
            h.set("kind", 1.5)


class TestTable:
    def _table(self):
        log = []

        def act(ctx, params):
            log.append(params)

        t = Table("t", key_fields=[("meta", "k")],
                  actions={"a": act},
                  default_action=("a", (99,)))
        return t, log

    def test_hit_runs_entry_action(self):
        t, log = self._table()
        t.insert_entry((5,), "a", (1,))
        ctx = PacketContext()
        ctx.set_meta("k", 5)
        assert t.apply(ctx)
        assert log == [(1,)]

    def test_miss_runs_default(self):
        t, log = self._table()
        ctx = PacketContext()
        ctx.set_meta("k", 7)
        assert not t.apply(ctx)
        assert log == [(99,)]

    def test_unknown_action_rejected(self):
        t, _ = self._table()
        with pytest.raises(P4RuntimeError):
            t.insert_entry((1,), "nope")

    def test_key_arity_checked(self):
        t, _ = self._table()
        with pytest.raises(P4RuntimeError):
            t.insert_entry((1, 2), "a")

    def test_delete_and_clear(self):
        t, _ = self._table()
        t.insert_entry((1,), "a")
        t.insert_entry((2,), "a")
        t.delete_entry((1,))
        assert t.num_entries() == 1
        t.clear()
        assert t.num_entries() == 0

    def test_reinsert_overwrites(self):
        t, log = self._table()
        t.insert_entry((1,), "a", (10,))
        t.insert_entry((1,), "a", (20,))
        ctx = PacketContext()
        ctx.set_meta("k", 1)
        t.apply(ctx)
        assert log == [(20,)]


@pytest.fixture
def p4_net():
    topology = grid_graph(3, 3)
    servers = attach_uniform(topology.nodes(), servers_per_switch=2)
    net = GredNetwork(topology, servers, cvt_iterations=10, seed=0)
    return net, P4Network(net.controller)


class TestP4Routing:
    def test_route_delivers(self, p4_net):
        _, p4 = p4_net
        result = p4.route_for("some-item", entry_switch=0)
        assert result.destination_switch in p4.switches
        assert result.trace[0] == 0

    def test_unknown_entry_raises(self, p4_net):
        _, p4 = p4_net
        with pytest.raises(P4RuntimeError):
            p4.route_for("x", entry_switch=777)

    def test_delivery_serial_in_range(self, p4_net):
        _, p4 = p4_net
        for i in range(20):
            result = p4.route_for(f"sr-{i}", entry_switch=i % 9)
            assert 0 <= result.delivery.serial < 2

    def test_total_entries_positive(self, p4_net):
        _, p4 = p4_net
        assert p4.total_entries() > 0


class TestDifferential:
    """The compiled P4 pipeline must agree with the behavioral switch.

    Quantization to Q16 can in principle move a data position across a
    Voronoi boundary; the differential check therefore accepts a
    destination whose (float) distance to the target is within the
    quantization tolerance of the behavioral destination's distance.
    """

    TOLERANCE = 4.0 / 65536  # a few Q16 steps

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_destinations_agree_on_random_networks(self, seed):
        from repro.geometry import euclidean
        from repro.hashing import data_position

        rng = np.random.default_rng(seed)
        topology, _ = brite_waxman_graph(25, min_degree=3, rng=rng)
        servers = attach_uniform(topology.nodes(), servers_per_switch=3)
        net = GredNetwork(topology, servers, cvt_iterations=20,
                          seed=seed)
        p4 = P4Network(net.controller)
        for i in range(60):
            data_id = f"diff-{seed}-{i}"
            entry = int(rng.integers(0, 25))
            behavioral = net.route_for(data_id, entry)
            compiled = p4.route_for(data_id, entry)
            if compiled.destination_switch == \
                    behavioral.destination_switch:
                assert compiled.delivery.serial == \
                    behavioral.delivery.primary_serial
                continue
            target = data_position(data_id)
            d_behavioral = euclidean(
                net.controller.positions[
                    behavioral.destination_switch], target)
            d_compiled = euclidean(
                net.controller.positions[
                    compiled.destination_switch], target)
            assert abs(d_compiled - d_behavioral) < self.TOLERANCE, (
                f"P4 and behavioral divergence beyond quantization "
                f"tolerance for {data_id}"
            )

    def test_extension_rewrite_agrees(self):
        topology = grid_graph(3, 3)
        servers = attach_uniform(topology.nodes(), servers_per_switch=2)
        net = GredNetwork(topology, servers, cvt_iterations=10, seed=0)
        net.controller.extend_range(4, 0)
        p4 = P4Network(net.controller)
        # Find an item delivered to (4, 0).
        for i in range(2000):
            data_id = f"ext-{i}"
            behavioral = net.route_for(data_id, 0)
            if (behavioral.destination_switch == 4
                    and behavioral.delivery.primary_serial == 0):
                compiled = p4.route_for(data_id, 0)
                assert compiled.delivery.extension_switch == \
                    behavioral.delivery.extension.target_switch
                assert compiled.delivery.extension_serial == \
                    behavioral.delivery.extension.target_serial
                return
        pytest.skip("no probe item hit the extended server")

    def test_hop_counts_close(self):
        """Path lengths of the two data planes agree up to rare
        quantization-induced detours."""
        rng = np.random.default_rng(9)
        topology, _ = brite_waxman_graph(30, min_degree=3, rng=rng)
        servers = attach_uniform(topology.nodes(), servers_per_switch=3)
        net = GredNetwork(topology, servers, cvt_iterations=20, seed=9)
        p4 = P4Network(net.controller)
        diffs = []
        for i in range(50):
            data_id = f"hops-{i}"
            entry = int(rng.integers(0, 30))
            b = net.route_for(data_id, entry)
            c = p4.route_for(data_id, entry)
            diffs.append(abs(b.physical_hops - c.physical_hops))
        assert np.mean(diffs) < 0.2


def test_walkthrough_golden():
    """Compile a Waxman-15 plane, route one item through the pipeline,
    extend its server's range and recompile: the pinned tables, trace
    and rewrite, each equal to the behavioral data plane's."""
    rng = np.random.default_rng(21)
    topology, _ = brite_waxman_graph(15, min_degree=3, rng=rng)
    servers = attach_uniform(topology.nodes(), servers_per_switch=3)
    net = GredNetwork(topology, servers, cvt_iterations=30, seed=0)
    p4 = P4Network(net.controller)
    assert (len(p4.switches), p4.total_entries()) == (15, 187)
    switch = p4.switches[0]
    assert (len(switch.neighbors), switch.tbl_vl_relay.num_entries(),
            switch.tbl_vl_start.num_entries()) == (12, 10, 1)
    for got, want in zip(switch.position, net.controller.positions[0]):
        assert from_fixed(got) == pytest.approx(want, abs=2 ** -16)

    data_id = "telemetry/device-77/sample-9"
    result = p4.route_for(data_id, entry_switch=0)
    behavioral = net.route_for(data_id, entry_switch=0)
    assert result.trace == behavioral.trace == [0, 2]
    assert (result.destination_switch, result.delivery.serial) == (2, 1)
    assert behavioral.delivery.primary_serial == 1

    net.controller.extend_range(2, 1)
    p4.recompile()
    extended = p4.route_for(data_id, entry_switch=0).delivery
    rewrite = net.route_for(data_id, entry_switch=0).delivery.extension
    assert (extended.extension_switch, extended.extension_serial) == (
        rewrite.target_switch, rewrite.target_serial) == (0, 0)
