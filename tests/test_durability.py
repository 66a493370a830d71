"""Tests for the self-healing storage plane.

Covers the versioned-replica stamps (last-writer-wins), tombstoned
deletes (no resurrection through repair), hinted handoff for writes and
deletes aimed at unreachable servers, the ``partition`` fault-plan
clauses, the anti-entropy scrubber, opt-in read repair, snapshot
round-tripping of all durability state, and a Hypothesis differential
test driving random interleavings of place/delete/crash/partition/heal
against a fault-free dict oracle.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import GredNetwork, attach_uniform, brite_waxman_graph
from repro.core import GredError, scrub_network, storage_divergence
from repro.core.scrub import infer_catalog
from repro.edge import NO_STAMP, EdgeServer, Hint, StorageFull
from repro.experiments.durability import DurabilityConfig, run_durability
from repro.faults import (
    FailureDetector,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultState,
)
from repro.faults.timeline import _crash_safe
from repro.hashing import parse_replica_id, replica_id
from repro.io import from_snapshot, to_snapshot
from repro.resilience import ResilienceConfig, ResilientNetwork


@pytest.fixture
def net():
    topology, _ = brite_waxman_graph(
        20, min_degree=3, rng=np.random.default_rng(5))
    servers = attach_uniform(topology.nodes(), servers_per_switch=2)
    return GredNetwork(topology, servers, cvt_iterations=10, seed=0)


def live_copies(net, data_id, copies, fault=None):
    """Replica ids of ``data_id`` stored on live servers."""
    wanted = {replica_id(data_id, i) for i in range(copies)}
    found = set()
    for servers in net.server_map.values():
        for server in servers:
            if fault is not None and \
                    not fault.server_alive(server.server_id):
                continue
            found |= wanted & set(server.stored_ids())
    return found


# ----------------------------------------------------------------------
# stamps: last-writer-wins replica versioning
# ----------------------------------------------------------------------
class TestStamps:
    def test_stamped_store_records_stamp(self):
        s = EdgeServer(switch=0, serial=0)
        assert s.store("a", "v1", stamp=(3, 0))
        assert s.stamp_of("a") == (3, 0)
        assert s.retrieve("a") == "v1"

    def test_older_stamp_is_ignored(self):
        s = EdgeServer(switch=0, serial=0)
        s.store("a", "new", stamp=(5, 0))
        assert not s.store("a", "old", stamp=(2, 0))
        assert s.retrieve("a") == "new"
        assert s.stamp_of("a") == (5, 0)

    def test_newer_stamp_overwrites(self):
        s = EdgeServer(switch=0, serial=0)
        s.store("a", "old", stamp=(2, 0))
        assert s.store("a", "new", stamp=(5, 1))
        assert s.retrieve("a") == "new"

    def test_unstamped_store_drops_stamp(self):
        # Legacy path: an unstamped overwrite always applies and the
        # item reverts to unversioned.
        s = EdgeServer(switch=0, serial=0)
        s.store("a", "v1", stamp=(3, 0))
        s.store("a", "v2")
        assert s.retrieve("a") == "v2"
        assert s.stamp_of("a") is None

    def test_fault_free_place_is_unstamped(self, net):
        net.place("d", payload="p", entry_switch=0, copies=2)
        for servers in net.server_map.values():
            for server in servers:
                for copy_id in server.stored_ids():
                    assert server.stamp_of(copy_id) is None
        assert net.write_version == 0

    def test_faulted_place_is_stamped(self, net):
        FaultInjector(net, seed=1)  # attaches a fault state
        net.place("d", payload="p", entry_switch=0, copies=2)
        stamps = set()
        for servers in net.server_map.values():
            for server in servers:
                for copy_id in server.stored_ids():
                    stamps.add(server.stamp_of(copy_id))
        # One operation, one stamp, shared by both copies.
        assert stamps == {(1, 0)}
        assert net.write_version == 1


# ----------------------------------------------------------------------
# tombstones
# ----------------------------------------------------------------------
class TestTombstones:
    def test_entomb_removes_live_item(self):
        s = EdgeServer(switch=0, serial=0)
        s.store("a", "v1", stamp=(1, 0))
        assert s.entomb("a", (2, 0))
        assert not s.has("a")
        assert s.tombstone_of("a") == (2, 0)
        with pytest.raises(KeyError):
            s.retrieve("a")

    def test_tombstone_blocks_older_write(self):
        s = EdgeServer(switch=0, serial=0)
        s.entomb("a", (5, 0))
        assert not s.store("a", "stale", stamp=(3, 0))
        assert not s.has("a")

    def test_newer_write_clears_tombstone(self):
        s = EdgeServer(switch=0, serial=0)
        s.entomb("a", (5, 0))
        assert s.store("a", "fresh", stamp=(7, 0))
        assert s.retrieve("a") == "fresh"
        assert s.tombstone_of("a") is None

    def test_old_tombstone_is_ignored(self):
        s = EdgeServer(switch=0, serial=0)
        s.store("a", "recreated", stamp=(9, 0))
        assert not s.entomb("a", (4, 0))
        assert s.retrieve("a") == "recreated"

    def test_gc_tombstone(self):
        s = EdgeServer(switch=0, serial=0)
        s.entomb("a", (5, 0))
        assert s.gc_tombstone("a")
        assert s.tombstone_of("a") is None
        assert not s.gc_tombstone("a")

    def test_migration_delete_leaves_no_tombstone(self):
        s = EdgeServer(switch=0, serial=0)
        s.store("a", "v1", stamp=(1, 0))
        assert s.delete("a") == "v1"
        assert s.tombstone_of("a") is None

    def test_clear_drops_durability_state(self):
        s = EdgeServer(switch=0, serial=0)
        s.store("a", stamp=(1, 0))
        s.entomb("b", (2, 0))
        s.park_hint(Hint("c", "store", (1, 0), (3, 0), "p"))
        s.clear()
        assert s.load == 0
        assert s.tombstones() == {}
        assert s.hint_count == 0


# ----------------------------------------------------------------------
# StorageFull partial-batch semantics (satellite S3)
# ----------------------------------------------------------------------
class TestStorageFullStored:
    def test_scalar_storagefull_has_empty_stored(self):
        s = EdgeServer(switch=0, serial=0, capacity=1)
        s.store("a")
        with pytest.raises(StorageFull) as excinfo:
            s.store("b")
        assert excinfo.value.stored == ()

    def test_store_many_reports_landed_ids(self):
        s = EdgeServer(switch=0, serial=0, capacity=2)
        with pytest.raises(StorageFull) as excinfo:
            s.store_many(["a", "b", "c", "d"])
        assert excinfo.value.stored == ("a", "b")
        assert excinfo.value.server_id == (0, 0)

    def test_store_many_matches_scalar_loop(self):
        batch = EdgeServer(switch=0, serial=0, capacity=3)
        scalar = EdgeServer(switch=0, serial=1, capacity=3)
        ids = ["a", "b", "c", "d", "e"]
        payloads = [f"p{i}" for i in ids]
        with pytest.raises(StorageFull):
            batch.store_many(ids, payloads)
        for data_id, payload in zip(ids, payloads):
            try:
                scalar.store(data_id, payload)
            except StorageFull:
                break
        assert batch.stored_ids() == scalar.stored_ids()
        assert [batch.retrieve(i) for i in batch.stored_ids()] == \
               [scalar.retrieve(i) for i in scalar.stored_ids()]

    @pytest.mark.parametrize("column", ["payloads", "stamps"])
    def test_store_many_rejects_a_short_column(self, column):
        """A column shorter than the ids used to truncate the ids
        silently (``zip``); nothing is stored now."""
        s = EdgeServer(switch=0, serial=0)
        with pytest.raises(ValueError) as error:
            s.store_many(["a", "b", "c"], **{column: [(1, 0)]})
        assert str(error.value) == f"{column} has 1 entries for 3 data ids"
        assert s.stored_ids() == ()

    @pytest.mark.parametrize("capacity", [None, 10],
                             ids=["unbounded", "roomy"])
    def test_stamped_store_many_is_a_loop_of_store(self, capacity):
        """``store_many(ids, payloads, stamps)`` ≡ sequential stamped
        ``store`` calls: items in order, stamps, tombstones cleared by
        the writes that apply, and last-writer-wins on an older
        stamp (also within the group)."""
        ids = ["a", "b", "c", "a", "d", "e"]
        payloads = [f"p{n}" for n in range(len(ids))]
        stamps = [(5, 0), (6, 1), (7, 0), (4, 2), (2, 0), (8, 1)]
        bulk, loop = (EdgeServer(switch=0, serial=n, capacity=capacity)
                      for n in range(2))
        for server in (bulk, loop):
            server.store("c", "old", stamp=(1, 0))
            server.store("d", "newer", stamp=(3, 0))  # beats (2, 0)
            server.store("e", "gone", stamp=(1, 0))
            server.entomb("e", (2, 0))                # cleared by (8, 1)
            server.entomb("b", (9, 0))                # beats (6, 1)
        bulk.store_many(ids, payloads, stamps)
        for data_id, payload, stamp in zip(ids, payloads, stamps):
            loop.store(data_id, payload, stamp=stamp)
        assert loop.retrieve("a") == "p0" and loop.retrieve("d") == "newer"
        assert not loop.has("b") and loop.retrieve("e") == "p5"
        for view in (
                lambda s: [(i, s.retrieve(i), s.stamp_of(i))
                           for i in s.stored_ids()],
                EdgeServer.tombstones):
            assert view(bulk) == view(loop)


# ----------------------------------------------------------------------
# partition fault plans
# ----------------------------------------------------------------------
class TestPartitionPlan:
    def test_round_trip(self):
        plan = FaultPlan([
            FaultEvent(time=0.5, kind="partition", switches=[3, 1, 4]),
            FaultEvent(time=0.9, kind="heal_partition"),
        ])
        again = FaultPlan.from_dict(plan.to_dict())
        assert again.to_dict() == plan.to_dict()
        assert again.events[0].switches == (3, 1, 4)

    def test_partition_requires_switches(self):
        with pytest.raises(FaultPlanError, match="missing"):
            FaultEvent(time=0.0, kind="partition")

    def test_partition_rejects_empty(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(time=0.0, kind="partition", switches=[])

    def test_partition_rejects_non_int(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(time=0.0, kind="partition", switches=[True])

    def test_injector_partition_blocks_cross_links(self, net):
        injector = FaultInjector(net, seed=0)
        side = sorted(net.switch_ids())[:5]
        group = injector.partition(side)
        assert group == 1
        state = injector.state
        inside, outside = side[0], sorted(net.switch_ids())[-1]
        assert not state.same_side(inside, outside)
        assert not state.can_forward(inside, outside)
        assert state.same_side(side[0], side[1])
        assert state.any_active()

    def test_heal_partition_restores(self, net):
        injector = FaultInjector(net, seed=0)
        injector.partition(sorted(net.switch_ids())[:5])
        assert injector.heal_partition() == 5
        state = injector.state
        a, b = sorted(net.switch_ids())[:2]
        assert state.same_side(a, sorted(net.switch_ids())[-1])
        assert not state.partitions

    def test_unknown_switch_rejected(self, net):
        injector = FaultInjector(net, seed=0)
        with pytest.raises(Exception):
            injector.partition([10 ** 6])


# ----------------------------------------------------------------------
# delete under faults: no resurrection (satellite S1)
# ----------------------------------------------------------------------
class TestDeleteResurrection:
    def _crashed_holder(self, net, injector, data_id, copies):
        """Crash the server holding the last replica of ``data_id``."""
        for servers in net.server_map.values():
            for server in servers:
                if replica_id(data_id, copies - 1) in server.stored_ids():
                    injector.crash_server(*server.server_id)
                    return server
        raise AssertionError("replica not found")

    def test_repair_does_not_resurrect_deleted_item(self, net):
        injector = FaultInjector(net, seed=3)
        net.place("doomed", payload="p", entry_switch=0, copies=2)
        detector = FailureDetector(net, catalog={"doomed": 2})
        self._crashed_holder(net, injector, "doomed", 2)
        # Delete while one replica's home is down: the reachable copy
        # is entombed, the unreachable one must not outlive the repair.
        net.delete("doomed", copies=2, entry_switch=0)
        detector.repair()
        assert live_copies(net, "doomed", 2, injector.state) == set()

    def test_partial_delete_suppresses_resurrection(self, net):
        """A delete that reached only one side of a partition must not
        be undone by repair rebuilding from the stale far side."""
        injector = FaultInjector(net, seed=3)
        net.hinted_handoff = True
        # Find an item whose two replicas live on different switches.
        data_id = None
        for i in range(50):
            candidate = f"doomed{i}"
            net.place(candidate, payload="p", entry_switch=0, copies=2)
            holders = {}
            for servers in net.server_map.values():
                for server in servers:
                    for j in range(2):
                        if replica_id(candidate, j) in \
                                server.stored_ids():
                            holders[j] = server
            if holders[0].switch != holders[1].switch:
                data_id = candidate
                break
        assert data_id is not None
        detector = FailureDetector(net, catalog={data_id: 2})
        # Split copy0's switch away, delete from copy1's side: copy1
        # is entombed, copy0 survives stale behind the partition.
        injector.partition([holders[0].switch])
        net.delete(data_id, copies=2, entry_switch=holders[1].switch)
        assert holders[0].has(replica_id(data_id, 0))
        injector.heal_partition()
        # A crash elsewhere forces a full repair sweep (a clean
        # detection returns early without re-replicating anything).
        bystander = next(
            server for servers in net.server_map.values()
            for server in servers
            if server not in holders.values()
            and not server.hint_count
            and not any(copy_id.startswith(data_id)
                        for copy_id in server.stored_ids()))
        injector.crash_server(*bystander.server_id)
        report = detector.repair()
        assert report.suppressed_resurrections >= 1
        net.scrub({data_id: 2})
        assert live_copies(net, data_id, 2, injector.state) == set()

    def test_repair_still_restores_live_items(self, net):
        injector = FaultInjector(net, seed=3)
        net.place("keep", payload="p", entry_switch=0, copies=2)
        detector = FailureDetector(net, catalog={"keep": 2})
        self._crashed_holder(net, injector, "keep", 2)
        detector.repair()
        assert live_copies(net, "keep", 2, injector.state) == \
            {replica_id("keep", i) for i in range(2)}


# ----------------------------------------------------------------------
# hinted handoff
# ----------------------------------------------------------------------
class TestHintedHandoff:
    def test_write_to_crashed_server_parks_hint(self, net):
        injector = FaultInjector(net, seed=4)
        net.hinted_handoff = True
        net.place("h", payload="p", entry_switch=0, copies=1)
        home = None
        for servers in net.server_map.values():
            for server in servers:
                if "h" in server.stored_ids():
                    home = server
        injector.crash_server(*home.server_id)
        result = net.place("h", payload="p2", entry_switch=0, copies=1)
        assert result.primary.hinted
        holder = net.server(*result.primary.server_id)
        assert holder.hint_count == 1
        hint = holder.hints()[0]
        assert hint.copy_id == "h" and hint.op == "store"
        assert hint.target == home.server_id

    def test_write_to_crashed_server_fails_without_handoff(self, net):
        injector = FaultInjector(net, seed=4)
        net.place("h", payload="p", entry_switch=0, copies=1)
        for servers in net.server_map.values():
            for server in servers:
                if "h" in server.stored_ids():
                    injector.crash_server(*server.server_id)
        with pytest.raises(GredError):
            net.place("h", payload="p2", entry_switch=0, copies=1)

    def test_drain_delivers_after_recovery(self, net):
        injector = FaultInjector(net, seed=4)
        net.hinted_handoff = True
        net.place("h", payload="p", entry_switch=0, copies=1)
        home = None
        for servers in net.server_map.values():
            for server in servers:
                if "h" in server.stored_ids():
                    home = server
        injector.crash_server(*home.server_id)
        net.place("h", payload="p2", entry_switch=0, copies=1)
        assert net.drain_hints() == 0  # home still down: hint kept
        injector.state.crashed_servers.discard(home.server_id)
        assert net.drain_hints() == 1
        assert home.retrieve("h") == "p2"

    def test_delete_hint_entombs_on_drain(self, net):
        injector = FaultInjector(net, seed=4)
        net.hinted_handoff = True
        net.place("h", payload="p", entry_switch=0, copies=1)
        home = None
        for servers in net.server_map.values():
            for server in servers:
                if "h" in server.stored_ids():
                    home = server
        injector.crash_server(*home.server_id)
        net.delete("h", copies=1, entry_switch=0)
        injector.state.crashed_servers.discard(home.server_id)
        assert net.drain_hints() == 1
        assert not home.has("h")
        assert home.tombstone_of("h") is not None


# ----------------------------------------------------------------------
# anti-entropy scrub
# ----------------------------------------------------------------------
class TestScrub:
    def _holder(self, net, copy_id):
        for servers in net.server_map.values():
            for server in servers:
                if copy_id in server.stored_ids():
                    return server
        raise AssertionError(f"{copy_id} not stored")

    def test_scrub_restores_missing_replica(self, net):
        FaultInjector(net, seed=6)
        net.place("m", payload="p", entry_switch=0, copies=2)
        catalog = {"m": 2}
        self._holder(net, replica_id("m", 1)).delete(replica_id("m", 1))
        assert storage_divergence(net, catalog) > 0
        report = net.scrub(catalog)
        assert report.converged
        assert storage_divergence(net, catalog) == 0
        assert live_copies(net, "m", 2) == \
            {replica_id("m", i) for i in range(2)}

    def test_scrub_removes_orphans_and_resurrections(self, net):
        FaultInjector(net, seed=6)
        net.place("a", payload="p", entry_switch=0, copies=1)
        net.place("b", payload="p", entry_switch=0, copies=1)
        net.delete("b", copies=1, entry_switch=0)
        catalog = {"a": 1, "b": 1}
        stray = net.server_map[sorted(net.server_map)[0]][0]
        # An orphaned extra copy of a live item, and a zombie copy of
        # a deleted one, both parked where they do not belong.
        stray.store(replica_id("a", 3), "p", stamp=(1, 0))
        stray.store("b", "zombie")
        report = net.scrub(catalog)
        assert report.orphans_removed >= 1
        assert report.resurrections_removed >= 1
        assert not stray.has(replica_id("a", 3))
        assert live_copies(net, "b", 1) == set()
        assert storage_divergence(net, catalog) == 0

    def test_scrub_is_idempotent(self, net):
        FaultInjector(net, seed=6)
        net.place("m", payload="p", entry_switch=0, copies=2)
        catalog = {"m": 2}
        self._holder(net, replica_id("m", 1)).delete(replica_id("m", 1))
        net.scrub(catalog)
        second = net.scrub(catalog)
        assert second.repairs == 0
        assert second.converged

    def test_scrub_gcs_tombstones_when_fully_dead(self, net):
        FaultInjector(net, seed=6)
        net.place("t", payload="p", entry_switch=0, copies=2)
        net.delete("t", copies=2, entry_switch=0)
        report = net.scrub({"t": 2})
        assert report.tombstones_gced >= 1
        for servers in net.server_map.values():
            for server in servers:
                assert server.tombstone_of("t") is None
                assert server.tombstone_of(replica_id("t", 1)) is None

    def test_scrub_skips_crashed_servers(self, net):
        injector = FaultInjector(net, seed=6)
        net.place("s", payload="p", entry_switch=0, copies=2)
        holder = self._holder(net, replica_id("s", 1))
        injector.crash_server(*holder.server_id)
        report = net.scrub({"s": 2})
        assert report.skipped_unreachable >= 1
        assert not report.converged

    def test_infer_catalog_sees_all_planes(self, net):
        FaultInjector(net, seed=6)
        net.place("x", payload="p", entry_switch=0, copies=3)
        net.place("y", payload="p", entry_switch=0, copies=1)
        net.delete("y", copies=1, entry_switch=0)
        catalog = infer_catalog(net)
        assert catalog["x"] == 3
        assert catalog["y"] == 1

    def test_scrub_repair_budget_bounds_sweep(self, net):
        FaultInjector(net, seed=6)
        for i in range(6):
            net.place(f"m{i}", payload="p", entry_switch=0, copies=2)
        catalog = {f"m{i}": 2 for i in range(6)}
        for i in range(6):
            copy = replica_id(f"m{i}", 1)
            self._holder(net, copy).delete(copy)
        report = scrub_network(net, catalog, max_repairs_per_sweep=2,
                               max_sweeps=10)
        assert report.converged
        assert report.sweeps > 1
        assert storage_divergence(net, catalog) == 0


# ----------------------------------------------------------------------
# read repair
# ----------------------------------------------------------------------
class TestReadRepair:
    def _make_stale(self, net):
        """Place 2 copies, then age copy1 back to a stale version."""
        FaultInjector(net, seed=7)
        net.place("r", payload="new", entry_switch=0, copies=2)
        copy1 = replica_id("r", 1)
        holder = None
        for servers in net.server_map.values():
            for server in servers:
                if copy1 in server.stored_ids():
                    holder = server
        fresh = holder.stamp_of(copy1)
        holder.delete(copy1)
        holder.store(copy1, "old", stamp=(fresh[0] - 1, fresh[1]))
        return holder, copy1

    def test_direct_read_repair(self, net):
        holder, copy1 = self._make_stale(net)
        assert net.read_repair("r", copies=2) == 1
        assert holder.retrieve(copy1) == "new"

    def test_retrieve_opt_in(self, net):
        holder, copy1 = self._make_stale(net)
        result = net.retrieve("r", entry_switch=0, copies=2,
                              read_repair=True)
        assert result.found
        assert holder.retrieve(copy1) == "new"

    def test_retrieve_default_leaves_stale(self, net):
        holder, copy1 = self._make_stale(net)
        net.retrieve("r", entry_switch=0, copies=2)
        assert holder.retrieve(copy1) == "old"

    def test_resilient_pipeline_opt_in(self, net):
        holder, copy1 = self._make_stale(net)
        resilient = ResilientNetwork(
            net, ResilienceConfig(read_repair=True))
        outcome = resilient.retrieve("r", entry_switch=0, copies=2)
        assert outcome.ok
        assert holder.retrieve(copy1) == "new"

    def test_tombstone_wins_read_repair(self, net):
        FaultInjector(net, seed=7)
        net.place("r", payload="p", entry_switch=0, copies=2)
        copy1 = replica_id("r", 1)
        holder = None
        for servers in net.server_map.values():
            for server in servers:
                if copy1 in server.stored_ids():
                    holder = server
        net.delete("r", copies=2, entry_switch=0)
        holder.store(copy1, "zombie")  # unstamped resurrection
        assert net.read_repair("r", copies=2) >= 1
        assert not holder.has(copy1)


class TestResilientWritesAreStamped:
    """An enabled pipeline's write carries its operation's stamp: one
    per logical write, so a later repair cannot roll it back to an
    older stamped value on a sibling copy (a lost update)."""

    @staticmethod
    def _overwrite_one_copy(net):
        FaultInjector(net, seed=7)
        net.place("x", payload="old", entry_switch=0, copies=2)
        resilient = ResilientNetwork(net, ResilienceConfig(enabled=True))
        for payload in ("newer", "new"):
            before = net.write_version
            assert resilient.place("x", payload=payload,
                                   entry_switch=0, copies=1).ok
            assert net.write_version == before + 1

    @staticmethod
    def _copies(net):
        return [(server.retrieve(copy_id), server.stamp_of(copy_id))
                for copy_id in (replica_id("x", 0), replica_id("x", 1))
                for server in [net._home_server(copy_id)]]

    def test_stamp_shared_by_copies_and_retries(self, net):
        FaultInjector(net, seed=7)
        resilient = ResilientNetwork(net, ResilienceConfig(enabled=True))
        assert resilient.place("y", payload="p", entry_switch=0,
                               copies=3).ok
        stamps = {server.stamp_of(copy_id)
                  for server in net.servers()
                  for copy_id in server.stored_ids()}
        assert stamps == {(1, 0)}
        assert net.write_version == 1

    def test_overwrite_survives_read_repair(self, net):
        self._overwrite_one_copy(net)
        assert net.read_repair("x", copies=2) == 1
        assert self._copies(net) == [("new", (3, 0))] * 2

    def test_overwrite_survives_scrub(self, net):
        self._overwrite_one_copy(net)
        net.scrub({"x": 2})
        assert self._copies(net) == [("new", (3, 0))] * 2


# ----------------------------------------------------------------------
# snapshot round-trip of durability state
# ----------------------------------------------------------------------
class TestSnapshotDurability:
    def test_round_trip(self, net):
        injector = FaultInjector(net, seed=8)
        net.hinted_handoff = True
        net.place("a", payload="p", entry_switch=0, copies=2)
        net.place("b", payload="q", entry_switch=0, copies=1)
        net.delete("b", copies=1, entry_switch=0)
        holder = net.server_map[sorted(net.server_map)[0]][0]
        holder.park_hint(Hint("a#copy9", "store", (1, 0), (9, 0), "pp"))
        injector.partition(sorted(net.switch_ids())[:4])
        snapshot = to_snapshot(net)
        again = from_snapshot(snapshot)

        assert again.write_version == net.write_version
        assert again.hinted_handoff
        assert again.fault_state.partitions == \
            net.fault_state.partitions
        for switch in net.server_map:
            for before, after in zip(net.server_map[switch],
                                     again.server_map[switch]):
                for copy_id in before.stored_ids():
                    assert after.stamp_of(copy_id) == \
                        before.stamp_of(copy_id)
                assert after.tombstones() == before.tombstones()
                assert after.hints() == before.hints()
        assert to_snapshot(again) == snapshot

    def test_fault_free_snapshot_has_no_durability_keys(self, net):
        net.place("a", payload="p", entry_switch=0, copies=1)
        snapshot = to_snapshot(net)
        assert "durability" not in snapshot
        for record in snapshot["servers"]:
            assert "stamps" not in record
            assert "tombstones" not in record
            assert "hints" not in record


# ----------------------------------------------------------------------
# differential test vs a fault-free oracle (satellite S4)
# ----------------------------------------------------------------------
_DELETED = object()


def _visible_max(net, fault, base, copies):
    """Newest stamp for ``base`` across live replicas, hints and
    tombstones, with the plane ('item'/'tomb') it belongs to."""
    best, kind = NO_STAMP, None
    for servers in net.server_map.values():
        for server in servers:
            if fault is not None and \
                    not fault.server_alive(server.server_id):
                continue
            for i in range(copies):
                copy_id = replica_id(base, i)
                stamp = server.stamp_of(copy_id)
                if stamp is not None and stamp > best:
                    best, kind = stamp, "item"
                tomb = server.tombstone_of(copy_id)
                if tomb is not None and tomb > best:
                    best, kind = tomb, "tomb"
            for hint in server.hints():
                if parse_replica_id(hint.copy_id)[0] != base:
                    continue
                if hint.stamp > best:
                    best = hint.stamp
                    kind = "tomb" if hint.op == "delete" else "item"
    return best, kind


class TestDifferentialDurability:
    """Random interleavings of place/update/delete/crash/partition/heal
    converge, after heal + repair + scrub, to a plain-dict oracle."""

    OPS = st.lists(
        st.tuples(st.sampled_from(["place", "update", "delete",
                                   "crash", "partition", "heal"]),
                  st.integers(0, 10 ** 6)),
        min_size=1, max_size=12)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=OPS, seed=st.integers(0, 3))
    # A delete issued across the partition is entombed on (9, 0) and
    # (9, 1) only: crashing both would let the stale copy on (0, 1)
    # win, so ``_crash_safe`` must count tombstones as stamp carriers.
    @example(ops=[("place", 0), ("partition", 2), ("delete", 224),
                  ("crash", 306), ("crash", 8896)], seed=2)
    def test_random_interleavings_converge(self, ops, seed):
        topology, _ = brite_waxman_graph(
            12, min_degree=3, rng=np.random.default_rng(seed))
        servers = attach_uniform(topology.nodes(),
                                 servers_per_switch=2)
        net = GredNetwork(topology, servers, cvt_iterations=5,
                          seed=seed)
        injector = FaultInjector(net, seed=seed)
        net.hinted_handoff = True
        oracle, catalog = {}, {}
        next_id = 0
        switch_ids = sorted(net.switch_ids())

        def entry(pick):
            return switch_ids[pick % len(switch_ids)]

        for op, pick in ops:
            if op == "place":
                data_id = f"d{next_id}"
                next_id += 1
                self._write(net, injector, oracle, data_id,
                            f"v1:{data_id}", entry(pick), 2)
                catalog[data_id] = 2
            elif op == "update" and catalog:
                keys = sorted(catalog)
                data_id = keys[pick % len(keys)]
                if oracle[data_id] is _DELETED:
                    continue
                self._write(net, injector, oracle, data_id,
                            f"v{pick}:{data_id}", entry(pick), 2)
            elif op == "delete" and catalog:
                keys = sorted(catalog)
                data_id = keys[pick % len(keys)]
                if oracle[data_id] is _DELETED:
                    continue
                self._erase(net, injector, oracle, data_id,
                            entry(pick))
            elif op == "crash":
                pool = [s for servers in net.server_map.values()
                        for s in servers
                        if injector.state.server_alive(s.server_id)]
                victim = pool[pick % len(pool)]
                if _crash_safe(net, injector, victim, catalog):
                    injector.crash_server(*victim.server_id)
            elif op == "partition":
                if not injector.state.partitions:
                    side = switch_ids[:2 + pick % 4]
                    injector.partition(side)
            elif op == "heal":
                injector.heal_partition()

        injector.heal_partition()
        detector = FailureDetector(net, catalog=dict(catalog))
        detector.repair()
        report = net.scrub(catalog, max_sweeps=8)
        assert report.converged, report.to_dict()
        assert storage_divergence(net, catalog) == 0

        fault = net.fault_state
        for data_id in sorted(catalog):
            want = oracle[data_id]
            live = live_copies(net, data_id, catalog[data_id], fault)
            if want is _DELETED:
                assert live == set(), \
                    f"{data_id} resurrected: {sorted(live)}"
                continue
            assert live, f"{data_id} lost"
            result = net.retrieve(data_id, entry_switch=switch_ids[0],
                                  copies=catalog[data_id])
            assert result.found and result.payload == want, \
                f"{data_id}: got {result.payload!r}, want {want!r}"

    def _write(self, net, injector, oracle, data_id, payload, entry,
               copies):
        """Place that mirrors partial failure into the oracle: a write
        that landed anywhere with the newest stamp eventually wins."""
        before = net.write_version
        try:
            net.place(data_id, payload=payload, entry_switch=entry,
                      copies=copies)
        except GredError:
            best, kind = _visible_max(net, injector.state, data_id,
                                      copies)
            if best[0] > before and kind == "item":
                oracle[data_id] = payload
            else:
                oracle.setdefault(data_id, _DELETED)
            return
        oracle[data_id] = payload

    def _erase(self, net, injector, oracle, data_id, entry):
        before = net.write_version
        try:
            net.delete(data_id, copies=2, entry_switch=entry)
        except (GredError, KeyError):
            best, kind = _visible_max(net, injector.state, data_id, 2)
            if best[0] > before and kind == "tomb":
                oracle[data_id] = _DELETED
            return
        oracle[data_id] = _DELETED


def test_committed_report_regenerates():
    """``run_durability`` at its defaults writes ``DURABILITY_report.json``
    byte for byte: every draw of the crash windows, the partition, the
    op mix and the entries comes in the same order."""
    committed = Path(__file__).resolve().parents[1] / "DURABILITY_report.json"
    report = run_durability(DurabilityConfig())
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == \
        committed.read_text()
