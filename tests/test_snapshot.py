"""Tests for snapshot serialization (save/load round trips)."""

import io
import json

import pytest

from repro import GredNetwork
from repro.edge import EdgeServer, attach_uniform
from repro.io import (
    SnapshotError,
    from_snapshot,
    load_network,
    save_network,
    to_snapshot,
)
from repro.topology import grid_graph


@pytest.fixture
def net():
    topology = grid_graph(3, 3)
    servers = attach_uniform(topology.nodes(), servers_per_switch=2)
    network = GredNetwork(topology, servers, cvt_iterations=10, seed=0)
    for i in range(20):
        network.place(f"snap-{i}", payload={"i": i}, entry_switch=0)
    return network


class TestRoundTrip:
    def test_snapshot_is_json_serializable(self, net):
        snapshot = to_snapshot(net)
        json.dumps(snapshot)  # must not raise

    def test_topology_restored(self, net):
        restored = from_snapshot(to_snapshot(net))
        assert set(restored.topology.nodes()) == \
            set(net.topology.nodes())
        original_edges = {frozenset((u, v))
                          for u, v, _ in net.topology.edges()}
        restored_edges = {frozenset((u, v))
                          for u, v, _ in restored.topology.edges()}
        assert original_edges == restored_edges

    def test_positions_restored_exactly(self, net):
        restored = from_snapshot(to_snapshot(net))
        assert restored.controller.positions == net.controller.positions

    def test_stored_items_restored(self, net):
        restored = from_snapshot(to_snapshot(net))
        for i in range(20):
            result = restored.retrieve(f"snap-{i}", entry_switch=1)
            assert result.found
            assert result.payload == {"i": i}

    def test_routing_identical_after_restore(self, net):
        restored = from_snapshot(to_snapshot(net))
        for i in range(30):
            data_id = f"probe-{i}"
            a = net.route_for(data_id, entry_switch=0)
            b = restored.route_for(data_id, entry_switch=0)
            assert a.destination_switch == b.destination_switch
            assert a.trace == b.trace

    def test_capacities_restored(self):
        topology = grid_graph(2, 2)
        servers = {n: [EdgeServer(n, 0, capacity=7)]
                   for n in topology.nodes()}
        net = GredNetwork(topology, servers, cvt_iterations=0)
        restored = from_snapshot(to_snapshot(net))
        assert restored.server(0, 0).capacity == 7

    def test_extensions_restored(self, net):
        net.extend_range(4, 0)
        restored = from_snapshot(to_snapshot(net))
        entry = restored.controller.switches[4].table.extension_for(0)
        assert entry is not None
        original = net.controller.switches[4].table.extension_for(0)
        assert entry.target_switch == original.target_switch

    def test_file_round_trip(self, net, tmp_path):
        path = str(tmp_path / "net.json")
        save_network(net, path)
        restored = load_network(path)
        assert restored.load_vector() == net.load_vector()

    def test_stream_round_trip(self, net):
        buffer = io.StringIO()
        save_network(net, buffer)
        buffer.seek(0)
        restored = load_network(buffer)
        assert restored.load_vector() == net.load_vector()


class TestErrors:
    def test_unknown_format_rejected(self):
        with pytest.raises(SnapshotError, match="format"):
            from_snapshot({"format": "something-else"})

    def test_unserializable_payload_rejected(self, net):
        net.place("bad-item", payload=object(), entry_switch=0)
        with pytest.raises(SnapshotError, match="JSON-serializable"):
            to_snapshot(net)

    def test_restore_initialises_every_field(self, net):
        # A restored network carries the same attributes as a built
        # one, so no reader needs a "snapshots predate the field" guard.
        restored = from_snapshot(to_snapshot(net))
        assert vars(restored).keys() == vars(net).keys()
        assert restored.fault_state is None
        assert restored.write_version == 0

    def test_missing_positions_rejected(self, net):
        snapshot = to_snapshot(net)
        del snapshot["positions"]["0"]
        with pytest.raises(SnapshotError, match="missing"):
            from_snapshot(snapshot)

    @pytest.mark.parametrize("doctor", [
        lambda s: s.update(edges=[e for e in s["edges"] if 8 not in e[:2]]),
        lambda s: s["servers"].append(
            {"switch": 99, "serial": 0, "capacity": None,
             "items": {"lost": 1}}),
        lambda s: s.update(extensions=[
            {"switch": 4, "serial": 0, "target_switch": 99,
             "target_serial": 0}]),
        lambda s: s.update(extensions=[
            {"switch": 4, "serial": 7, "target_switch": 1,
             "target_serial": 0}]),
    ], ids=["disconnected", "server-on-unknown-switch",
            "extension-to-unknown-switch", "extension-of-unknown-serial"])
    def test_inconsistent_snapshot_rejected(self, net, doctor):
        # Restore builds its controller through the constructor, so it
        # refuses what a build would, and checks every extension.
        snapshot = to_snapshot(net)
        doctor(snapshot)
        with pytest.raises(SnapshotError):
            from_snapshot(snapshot)

    @pytest.mark.parametrize("position", [
        [0.0, 0.0], [float("nan"), 0.5], [0.5, float("-inf")]],
        ids=["duplicate", "nan", "inf"])
    def test_bad_positions_rejected(self, net, position):
        snapshot = json.loads(json.dumps(to_snapshot(net)))
        snapshot["positions"]["0"] = position
        snapshot["positions"]["1"] = [0.0, 0.0]
        with pytest.raises(SnapshotError, match="position"):
            from_snapshot(snapshot)


class TestDegradedRoundTrip:
    """A degraded deployment must snapshot faithfully: crashed nodes
    stay dead across save/load, and unsaveable runtime state (tripped
    circuit breakers) is refused instead of silently dropped."""

    def test_fault_state_round_trips(self, net):
        from repro.faults import FaultInjector

        injector = FaultInjector(net, seed=0)
        injector.crash_switch(4)
        injector.crash_server(0, 1)
        injector.link_down(0, 1)
        restored = from_snapshot(to_snapshot(net))
        assert restored.fault_state is not None
        assert restored.fault_state.crashed_switches == {4}
        assert restored.fault_state.crashed_servers == {(0, 1)}
        assert not restored.fault_state.switch_alive(4)
        assert not restored.fault_state.can_forward(0, 1)

    def test_degraded_routing_matches_after_restore(self, net):
        from repro.faults import FaultInjector

        FaultInjector(net, seed=0).crash_switch(4)
        restored = from_snapshot(to_snapshot(net))
        original = net.retrieve("snap-3", entry_switch=0)
        again = restored.retrieve("snap-3", entry_switch=0)
        assert again.found == original.found
        assert again.trace == original.trace

    def test_healthy_network_has_no_faults_section(self, net):
        snapshot = to_snapshot(net)
        assert "faults" not in snapshot
        assert from_snapshot(snapshot).fault_state is None

    def test_repaired_faults_not_persisted(self, net):
        from repro.faults import FaultInjector

        injector = FaultInjector(net, seed=0)
        injector.crash_switch(4)
        net.fault_state.crashed_switches.discard(4)
        snapshot = to_snapshot(net)
        assert "faults" not in snapshot

    def test_tripped_breakers_refuse_snapshot(self, net):
        from repro.resilience import ResilienceConfig

        pipeline = net.resilient(ResilienceConfig(enabled=True))
        pipeline.breakers.force_open(("switch", 4), now=0.0)
        with pytest.raises(SnapshotError, match="tripped circuit"):
            to_snapshot(net)

    def test_closed_breakers_snapshot_fine(self, net):
        from repro.resilience import ResilienceConfig

        net.resilient(ResilienceConfig(enabled=True))
        snapshot = to_snapshot(net)
        assert snapshot["format"] == "gred-snapshot-v1"

    def test_malformed_faults_section_rejected(self, net):
        from repro.faults import FaultInjector

        FaultInjector(net, seed=0).crash_switch(4)
        snapshot = to_snapshot(net)
        snapshot["faults"]["crashed_servers"] = [["bad"]]
        with pytest.raises(SnapshotError, match="faults"):
            from_snapshot(snapshot)


class TestControlPlaneCounters:
    """Epoch/version/generation state survives a snapshot round trip."""

    def test_counters_roundtrip_after_dynamics(self, net):
        net.add_switch(100, links=[0, 4], servers_per_switch=2)
        net.add_switch(101, links=[100, 8], servers_per_switch=2)
        restored = from_snapshot(to_snapshot(net))
        assert restored.controller.epoch == net.controller.epoch
        assert restored.controller.version == net.controller.version
        assert restored.controller.generations == \
            net.controller.generations

    def test_no_legacy_epoch_attribute(self, net):
        restored = from_snapshot(to_snapshot(net))
        assert not hasattr(restored.controller, "_epoch")
        assert not hasattr(net.controller, "_epoch")

    def test_changes_since_conservative_after_restore(self, net):
        net.add_switch(100, links=[0, 4], servers_per_switch=2)
        restored = from_snapshot(to_snapshot(net))
        version = restored.controller.version
        # The changelog is not persisted: any pre-restore baseline must
        # answer "rebuild everything", never guess a partial set.
        assert restored.controller.changes_since(version - 1) is None
        assert restored.controller.changes_since(version) == set()

    def test_old_snapshot_without_section_still_loads(self, net):
        snapshot = to_snapshot(net)
        del snapshot["controlplane"]
        restored = from_snapshot(snapshot)
        assert restored.controller.epoch == 1
        assert restored.controller.version == 1
        for i in range(20):
            assert restored.retrieve(f"snap-{i}", entry_switch=0).found

    def test_dynamics_continue_after_restore(self, net):
        restored = from_snapshot(to_snapshot(net))
        version = restored.controller.version
        restored.add_switch(100, links=[0, 4], servers_per_switch=2)
        assert restored.controller.version == version + 1
        assert restored.controller.generation(100) == \
            restored.controller.version
