"""Integration tests for the GredNetwork placement/retrieval services."""

import numpy as np
import pytest

from repro import GredError, GredNetwork
from repro.edge import attach_uniform
from repro.hashing import data_position, server_index
from repro.topology import grid_graph


class TestPlacement:
    def test_place_then_retrieve_roundtrip(self, gred_small):
        result = gred_small.place("doc-1", payload={"v": 1},
                                  entry_switch=0)
        assert result.primary.server_id is not None
        got = gred_small.retrieve("doc-1", entry_switch=8)
        assert got.found
        assert got.payload == {"v": 1}
        assert got.server_id == result.primary.server_id

    def test_placement_lands_on_closest_switch(self, gred_small):
        """The destination switch of every placement must be the DT
        participant closest to H(d) — the delivery guarantee."""
        for i in range(40):
            data_id = f"guarantee-{i}"
            record = gred_small.place(data_id, entry_switch=i % 9).primary
            expected = gred_small.controller.closest_switch(
                data_position(data_id))
            assert record.destination_switch == expected

    def test_server_selection_is_hash_mod_s(self, gred_small):
        record = gred_small.place("sel-1", entry_switch=0).primary
        switch = record.destination_switch
        s = len(gred_small.server_map[switch])
        assert record.server_id == (switch, server_index("sel-1", s))

    def test_placement_from_any_entry_same_destination(self, gred_small):
        dests = {
            gred_small.route_for("same-dest", entry).destination_switch
            for entry in gred_small.switch_ids()
        }
        assert len(dests) == 1

    def test_random_entry_used_when_omitted(self, gred_small):
        result = gred_small.place("r-1", rng=np.random.default_rng(0))
        assert result.primary.entry_switch in gred_small.switch_ids()

    def test_unknown_entry_rejected(self, gred_small):
        with pytest.raises(GredError, match="unknown entry"):
            gred_small.place("x", entry_switch=404)

    def test_invalid_copies_rejected(self, gred_small):
        with pytest.raises(GredError):
            gred_small.place("x", copies=0)
        with pytest.raises(GredError):
            gred_small.retrieve("x", copies=-1)

    def test_load_vector_counts_placements(self, gred_small):
        for i in range(30):
            gred_small.place(f"lv-{i}", entry_switch=0)
        assert sum(gred_small.load_vector()) == 30


class TestRetrieval:
    def test_missing_item_not_found(self, gred_small):
        result = gred_small.retrieve("never-placed", entry_switch=0)
        assert not result.found
        assert result.payload is None
        assert result.server_id is None

    def test_round_trip_hops_consistent(self, gred_small):
        gred_small.place("rt-1", entry_switch=0)
        result = gred_small.retrieve("rt-1", entry_switch=3)
        assert result.round_trip_hops == (result.request_hops
                                          + result.response_hops)

    def test_retrieval_from_destination_switch_is_free(self, gred_small):
        gred_small.place("local-1", entry_switch=0)
        dest = gred_small.destination_switch("local-1")
        result = gred_small.retrieve("local-1", entry_switch=dest)
        assert result.request_hops == 0
        assert result.response_hops == 0

    def test_trace_starts_at_entry(self, gred_small):
        gred_small.place("tr-1", entry_switch=0)
        result = gred_small.retrieve("tr-1", entry_switch=5)
        assert result.trace[0] == 5
        assert result.trace[-1] == result.destination_switch


class TestDeletion:
    def test_delete_removes_item(self, gred_small):
        gred_small.place("del-1", entry_switch=0)
        assert gred_small.delete("del-1", entry_switch=1) == 1
        assert not gred_small.retrieve("del-1", entry_switch=0).found

    def test_delete_missing_returns_zero(self, gred_small):
        assert gred_small.delete("ghost", entry_switch=0) == 0

    def test_delete_all_copies(self, gred_small):
        gred_small.place("multi", entry_switch=0, copies=3)
        assert gred_small.delete("multi", copies=3, entry_switch=0) == 3

    @pytest.mark.parametrize("copies", [0, -3])
    def test_delete_rejects_copies_below_one(self, gred_small, copies):
        """Like ``place`` / ``retrieve`` (it used to return 0)."""
        gred_small.place("kept", entry_switch=0)
        with pytest.raises(GredError) as error:
            gred_small.delete("kept", copies=copies, entry_switch=0)
        assert str(error.value) == f"copies must be >= 1, got {copies}"
        assert gred_small.retrieve("kept", entry_switch=0).found


class TestReplication:
    def test_copies_stored_separately(self, gred_small):
        result = gred_small.place("rep-1", payload=b"p", entry_switch=0,
                                  copies=3)
        assert result.num_copies == 3
        server_ids = {r.server_id for r in result.records}
        # Copies hash to different positions; with 9 switches they land
        # on at least 2 distinct servers for this id (fixed hash).
        assert len(server_ids) >= 2

    def test_retrieve_uses_nearest_copy(self, gred_small):
        from repro.geometry import euclidean
        from repro.hashing import replica_id

        gred_small.place("near-1", payload=b"p", entry_switch=0, copies=3)
        entry = 7
        result = gred_small.retrieve("near-1", entry_switch=entry,
                                     copies=3)
        assert result.found
        entry_pos = gred_small.controller.switch_position(entry)
        distances = [
            euclidean(data_position(replica_id("near-1", i)), entry_pos)
            for i in range(3)
        ]
        assert result.copy_used == int(np.argmin(distances))

    def test_retrieve_falls_back_when_nearest_copy_missing(
            self, gred_small):
        """Regression: losing the nearest replica must not fail the
        whole retrieval — the remaining copies are probed in
        nearest-first order."""
        from repro.hashing import replica_id

        gred_small.place("fall-1", payload=b"p", entry_switch=0,
                         copies=2)
        entry = 7
        order = gred_small.replica_order("fall-1", 2, entry)
        nearest_id = replica_id("fall-1", order[0])
        # Delete the nearest copy straight off its server (no
        # control-plane involvement, as a fault would).
        for server in gred_small.servers():
            if server.has(nearest_id):
                server.delete(nearest_id)
        result = gred_small.retrieve("fall-1", entry_switch=entry,
                                     copies=2)
        assert result.found
        assert result.payload == b"p"
        assert result.copy_used == order[1]
        assert result.attempts == 2

    def test_copies_reduce_average_distance(self, gred_waxman):
        """More copies must not increase the mean retrieval hops."""
        rng = np.random.default_rng(0)
        items = [f"cdn-{i}" for i in range(30)]
        for item in items:
            gred_waxman.place(item, payload=b"x", entry_switch=0,
                              copies=4)
        switches = gred_waxman.switch_ids()

        def mean_hops(copies):
            total = 0
            for item in items:
                entry = switches[int(rng.integers(0, len(switches)))]
                result = gred_waxman.retrieve(item, entry_switch=entry,
                                              copies=copies)
                assert result.found
                total += result.request_hops
            return total / len(items)

        assert mean_hops(4) <= mean_hops(1) + 0.3


class TestEquivalenceWithClosedForm:
    def test_routing_agrees_with_destination_switch(self, gred_waxman):
        """route_for and the closed-form closest_switch must agree —
        this backs the vectorized load experiments."""
        for i in range(50):
            data_id = f"equiv-{i}"
            route = gred_waxman.route_for(data_id, entry_switch=0)
            assert route.destination_switch == \
                gred_waxman.destination_switch(data_id)


class TestServerAccess:
    def test_server_lookup(self, gred_small):
        server = gred_small.server(0, 1)
        assert server.server_id == (0, 1)

    def test_server_lookup_invalid(self, gred_small):
        with pytest.raises(GredError):
            gred_small.server(0, 99)
        with pytest.raises(GredError):
            gred_small.server(99, 0)

    def test_servers_flattened(self, gred_small):
        servers = gred_small.servers()
        assert len(servers) == 18  # 9 switches x 2
