"""Federated control plane: region shards + gateway overlay.

Six claims, each with a differential or adversarial test:

0. **Batch ≡ scalar loop** — `place_many` / `retrieve_many` (one
   grouped pass per home region) leave results, per-server storage,
   replica stamps and the metrics registry equal to a loop of scalar
   `place` / `retrieve` on a twin, healthy, with a crashed switch and
   with a dead region; `home_regions` ≡ `home_region` per position.
1. **1-region identity** — a `FederatedNetwork` with one region is the
   monolithic `GredNetwork` byte for byte: placement records,
   retrieval results, load vectors and southbound message streams.
2. **Churn locality** — a join/leave in region A ships zero southbound
   messages into any region B, and each home shard stays byte-identical
   to a from-scratch `install_all_rules` rebuild (hypothesis
   interleavings of multi-region churn vs the full-reinstall oracle).
3. **Invariant 9** — no installed rule references a switch outside its
   shard; the verifier detects a planted foreign reference.
4. **Blast radius** — a partitioned/crashed region degrades alone: the
   other shards keep serving their homes and their channels stay
   silent.
5. **The request path is a lookup** — `home_region` ≡ the routing
   index's exact rule, a memoized gateway stitch ≡ a fresh one after
   every kind of event, and a scalar request with `copies=c` takes
   exactly `c` SHA-256 digests.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.controlplane import (
    ControlPlaneError,
    FederatedNetwork,
    RegionError,
    RegionMap,
    verify_region_scope,
)
from repro.controlplane.southbound import Probe
from repro.core import GredError, GredNetwork
from repro.edge import EdgeServer
from repro.experiments.convergence import mismatched_switches
from repro.faults import FaultInjector
from repro.hashing import replica_ids_flat, sha256_digests
from repro.obs import MetricsRegistry, set_default_registry
from repro.io import (
    SnapshotError,
    from_federation_snapshot,
    restore_shard,
    to_federation_snapshot,
)
from repro.topology import (
    brite_waxman_graph,
    federated_topology,
    partition_regions,
    region_members,
)
from test_telemetry_parity import _normalize


def make_fed(regions=3, per_region=10, servers=2, cvt=5, seed=0):
    topology, assignment = federated_topology(
        regions, per_region, min_degree=2, seed=seed)
    return FederatedNetwork(topology, assignment=assignment,
                            servers_per_switch=servers,
                            cvt_iterations=cvt, seed=seed)


@pytest.fixture(scope="module")
def fed3():
    """A shared read-mostly 3-region federation."""
    return make_fed()


# ---------------------------------------------------------------------
# partitioner + region map
# ---------------------------------------------------------------------
class TestPartitioning:
    def test_partition_covers_balanced_connected(self):
        topology, _ = brite_waxman_graph(
            40, min_degree=3, rng=np.random.default_rng(7))
        assignment = partition_regions(topology, 4, seed=1)
        assert set(assignment) == set(topology.nodes())
        members = region_members(assignment)
        assert sorted(members) == [0, 1, 2, 3]
        sizes = [len(m) for m in members.values()]
        assert max(sizes) - min(sizes) <= 1
        region_map = RegionMap(topology, assignment)
        for rid in region_map.region_ids:
            sub = region_map.subtopology(rid)
            assert sub.num_nodes() == len(members[rid])

    def test_federated_topology_contiguous_blocks(self):
        topology, assignment = federated_topology(3, 8, seed=0)
        assert topology.num_nodes() == 24
        for switch, rid in assignment.items():
            assert rid == switch // 8
        region_map = RegionMap(topology, assignment)
        # A ring backbone of 3 regions touches every pair.
        assert len(region_map.cross_links) >= 3

    def test_region_map_rejects_partial_assignment(self):
        topology, assignment = federated_topology(2, 6, seed=0)
        del assignment[0]
        with pytest.raises(RegionError):
            RegionMap(topology, assignment)

    def test_region_map_rejects_disconnected_region(self):
        topology, assignment = federated_topology(2, 6, seed=0)
        # Claim one far-side switch for region 0: the induced region-0
        # subgraph (intra-edges only) falls apart.
        assignment[11] = 0
        with pytest.raises(RegionError):
            RegionMap(topology, assignment)

    def test_gateway_is_deterministic(self, fed3):
        region_map = fed3.controller.region_map
        a, b = region_map.region_ids[:2]
        assert region_map.gateway(a, b) == region_map.gateway(a, b)
        egress, ingress = region_map.gateway(a, b)
        assert region_map.region_of(egress) == a
        assert region_map.region_of(ingress) == b


# ---------------------------------------------------------------------
# 1-region differential: the federation IS the monolith
# ---------------------------------------------------------------------
class TestSingleRegionIdentity:
    @pytest.fixture(autouse=True)
    def _oracle(self, reference_engine):
        # The monolith is the oracle: keep it on the reference engine.
        self.pin = reference_engine

    def build_pair(self, seed=0):
        def topo():
            graph, _ = brite_waxman_graph(
                18, min_degree=2, rng=np.random.default_rng(seed))
            return graph

        mono = self.pin(GredNetwork(topo(), servers_per_switch=2,
                                    cvt_iterations=5, seed=seed))
        fed = FederatedNetwork(topo(), num_regions=1,
                               servers_per_switch=2,
                               cvt_iterations=5, seed=seed)
        return mono, fed

    def test_requests_identical(self):
        mono, fed = self.build_pair()
        ids = [f"one/{i}" for i in range(40)]
        assert mono.place_many(ids, copies=2,
                               rng=np.random.default_rng(1)) == \
            fed.place_many(ids, copies=2, rng=np.random.default_rng(1))
        assert mono.retrieve_many(ids, copies=2,
                                  rng=np.random.default_rng(2)) == \
            fed.retrieve_many(ids, copies=2,
                              rng=np.random.default_rng(2))
        assert mono.load_vector() == fed.load_vector()
        assert mono.retrieve("one/3",
                             rng=np.random.default_rng(3)) == \
            fed.retrieve("one/3", rng=np.random.default_rng(3))
        assert mono.delete("one/3", copies=2) == \
            fed.delete("one/3", copies=2)
        assert mono.load_vector() == fed.load_vector()

    def test_scalar_prehashed_and_restored_requests_identical(self):
        """The 1-region federation has no private path: scalar
        multi-copy requests, a prehashed batch and a snapshot-restored
        federation all go through the general per-home-region code
        (and count as federation requests) yet equal the monolith."""
        mono, fed = self.build_pair(seed=1)
        registry = MetricsRegistry(enabled=True)
        previous = set_default_registry(registry)
        try:
            for i in range(6):
                assert mono.place(f"sc/{i}", payload=i, copies=3,
                                  rng=np.random.default_rng(i)) == \
                    fed.place(f"sc/{i}", payload=i, copies=3,
                              rng=np.random.default_rng(i))
            fed_intra = registry.counter_values("federation.")
        finally:
            set_default_registry(previous)
        (rid,) = fed.shards
        assert fed_intra == {
            f"federation.requests{{region={rid},scope=intra}}": 18}
        for i in range(6):
            assert mono.retrieve(f"sc/{i}", copies=2,
                                 rng=np.random.default_rng(9 + i)) == \
                fed.retrieve(f"sc/{i}", copies=2,
                             rng=np.random.default_rng(9 + i))
        assert mono.delete("sc/0", copies=3) == \
            fed.delete("sc/0", copies=3) == 3
        assert mono.load_vector() == fed.load_vector()
        ids = [f"pre/{i}" for i in range(30)]
        digests = mono.prehash(ids, copies=2)
        assert mono.place_many(ids, copies=2, digests=digests,
                               rng=np.random.default_rng(4)) == \
            fed.place_many(ids, copies=2, digests=digests,
                           rng=np.random.default_rng(4))
        restored = from_federation_snapshot(to_federation_snapshot(fed))
        assert restored.load_vector() == mono.load_vector()
        probe = ids + [f"sc/{i}" for i in range(6)]
        assert mono.retrieve_many(probe, copies=2,
                                  rng=np.random.default_rng(5)) == \
            restored.retrieve_many(probe, copies=2,
                                   rng=np.random.default_rng(5))
        assert restored.place("sc/new", copies=3,
                              rng=np.random.default_rng(6)) == \
            mono.place("sc/new", copies=3, rng=np.random.default_rng(6))
        # Restarting the one shard swaps the network every call uses.
        restore_shard(restored, rid,
                      to_federation_snapshot(restored)["shards"][str(rid)])
        assert restored.retrieve("sc/new", copies=3,
                                 rng=np.random.default_rng(7)) == \
            mono.retrieve("sc/new", copies=3,
                          rng=np.random.default_rng(7))

    def test_southbound_streams_identical(self):
        from repro.controlplane import RecordingChannel

        mono, fed = self.build_pair()
        mono_channel = RecordingChannel()
        mono.controller.southbound_channel = mono_channel
        fed_channels = fed.controller.attach_channels()
        (rid,) = fed_channels
        mono.add_switch(500, links=[0, 1],
                        servers=[EdgeServer(500, 0)])
        fed.add_switch(500, links=[0, 1],
                       servers=[EdgeServer(500, 0)])
        assert mono_channel.messages == fed_channels[rid].messages
        assert mono_channel.messages  # the join actually shipped rules

    def test_forwarding_identical(self):
        mono, fed = self.build_pair()
        ids = [f"fwd/{i}" for i in range(20)]
        mono_placed = mono.place_many(ids,
                                      rng=np.random.default_rng(4))
        fed_placed = fed.place_many(ids, rng=np.random.default_rng(4))
        for a, b in zip(mono_placed, fed_placed):
            assert a.records[0].trace == b.records[0].trace


# ---------------------------------------------------------------------
# multi-region behavior
# ---------------------------------------------------------------------
class TestMultiRegion:
    @pytest.mark.parametrize("copies", [0, -3])
    def test_delete_rejects_copies_below_one(self, fed3, copies):
        """Like ``place`` / ``retrieve`` (it used to return 0)."""
        with pytest.raises(GredError) as error:
            fed3.delete("multi/0", copies=copies)
        assert str(error.value) == f"copies must be >= 1, got {copies}"

    def test_place_retrieve_delete_round_trip(self, fed3):
        ids = [f"multi/{i}" for i in range(60)]
        placed = fed3.place_many(ids, copies=2,
                                 rng=np.random.default_rng(5),
                                 payloads=[f"payload-{i}"
                                           for i in range(60)])
        crossed = 0
        for result in placed:
            for record in result.records:
                home = fed3.region_of(record.destination_switch)
                if home != fed3.region_of(record.entry_switch):
                    crossed += 1
        assert crossed > 0, "workload never crossed a region"
        got = fed3.retrieve_many(ids, copies=2,
                                 rng=np.random.default_rng(6))
        assert all(r.found for r in got)
        assert [r.payload for r in got] == [f"payload-{i}"
                                            for i in range(60)]
        removed = fed3.delete(ids[0], copies=2)
        assert removed == 2
        miss = fed3.retrieve(ids[0], copies=2,
                             rng=np.random.default_rng(7))
        assert not miss.found

    def test_cross_region_read_repair_fails_closed(self):
        """Replica stamps come from per-shard write clocks, so a read
        repair across regions cannot be honoured — it must say so
        instead of silently dropping the flag."""
        fed = make_fed(seed=2)
        entry = fed.switch_ids()[0]
        region = fed.region_of(entry)

        def homes(d):
            return {fed.home_region_of(d, c) for c in range(2)}

        ids = [f"rr/{i}" for i in range(40)]
        spread = next(d for d in ids if homes(d) != {region})
        local = next(d for d in ids if homes(d) == {region})
        fed.place_many([spread, local], copies=2,
                       entry_switches=[entry, entry])
        with pytest.raises(GredError, match="cannot read-repair") as err:
            fed.retrieve(spread, entry_switch=entry, copies=2,
                         read_repair=True)
        assert f"regions {sorted(homes(spread))}" in str(err.value)
        assert fed.retrieve(local, entry_switch=entry, copies=2,
                            read_repair=True).found
        assert fed.retrieve(spread, entry_switch=entry, copies=2).found

    def test_batch_matches_scalar(self, reference_engine):
        fed_a = make_fed(seed=3)
        fed_b = make_fed(seed=3)
        ids = [f"par/{i}" for i in range(40)]
        batch = fed_a.place_many(ids, copies=2,
                                 rng=np.random.default_rng(8))
        scalar = [fed_b.place(d, copies=2,
                              rng=np.random.default_rng(8))
                  for d in ids]
        # One shared generator vs per-call fresh generators draw
        # different entries, so compare against the batch semantics:
        # same rng stream, one draw per replica.
        fed_c = make_fed(seed=3)
        for shard in fed_c.shards.values():
            reference_engine(shard.net)  # the scalar side is the oracle
        rng = np.random.default_rng(8)
        scalar = [fed_c.place(d, copies=2, rng=rng) for d in ids]
        assert batch == scalar
        assert fed_a.load_vector() == fed_c.load_vector()
        del fed_b, scalar

    @pytest.mark.parametrize("rows", [-1, 1])
    def test_batch_rejects_misshapen_digests(self, rows):
        """Caller-supplied digests are checked before any shard stores
        (a short array used to die mid-batch with an ``IndexError``,
        a long one was accepted)."""
        fed = make_fed(regions=2, per_region=6)
        ids = [f"dg/{i}" for i in range(12)]
        good = sha256_digests(replica_ids_flat(ids, 2))
        bad = np.resize(good, (len(good) + rows, 32))
        before = fed.load_vector()
        with pytest.raises(GredError, match="digests must be"):
            fed.place_many(ids, copies=2, digests=bad,
                           rng=np.random.default_rng(1))
        assert fed.load_vector() == before
        with pytest.raises(GredError, match="digests must be"):
            fed.retrieve_many(ids, copies=2, digests=bad,
                              rng=np.random.default_rng(1))
        assert fed.place_many(ids, copies=2, digests=good,
                              rng=np.random.default_rng(1)) == \
            make_fed(regions=2, per_region=6).place_many(
                ids, copies=2, rng=np.random.default_rng(1))

    def test_home_region_is_hash_deterministic(self, fed3):
        for data_id in ("a", "b", "c/d"):
            assert fed3.home_region_of(data_id) == \
                fed3.home_region_of(data_id)
            assert fed3.home_region_of(data_id) in \
                fed3.controller.region_map.region_ids

    def test_verify_clean(self, fed3):
        assert fed3.controller.verify() == []


# ---------------------------------------------------------------------
# batch region resolve == scalar region resolve
# ---------------------------------------------------------------------
class TestHomeRegions:
    def test_matches_scalar_on_random_positions(self, monkeypatch):
        controller = make_fed(regions=4, per_region=6).controller
        positions = np.random.default_rng(0).random((50_000, 2))
        closest = controller._region_index.closest
        calls = []
        monkeypatch.setattr(
            controller._region_index, "closest",
            lambda point: calls.append(point) or closest(point))
        got = controller.home_regions(positions)
        monkeypatch.undo()
        assert got == [controller.home_region((x, y))
                       for x, y in positions.tolist()]
        # The exact index is the tie-band fallback, not the resolver.
        assert len(calls) <= len(positions) // 100
        # ``home_region`` scans the sites under the index's key; the
        # index's grid search is its oracle.
        assert got[:5_000] == [closest((x, y))
                               for x, y in positions[:5_000].tolist()]

    @pytest.mark.parametrize("regions", [2, 3, 4])
    def test_ties_and_near_ties_take_the_exact_rule(self, regions):
        """Points on a bisector of two sites: exact float ties (found
        by search — a bare argmin gets a share of them wrong) and
        points pushed 1e-12 off the bisector."""
        import itertools
        import math

        controller = make_fed(regions=regions, per_region=6).controller
        sites = controller.sites
        ties, near = [], []
        for a, b in itertools.combinations(sorted(sites), 2):
            (ax, ay), (bx, by) = sites[a], sites[b]
            mx, my = (ax + bx) / 2, (ay + by) / 2
            for t in np.linspace(-1.0, 1.0, 801).tolist():
                x, y = mx - t * (by - ay), my + t * (bx - ax)
                if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
                    continue
                da = math.hypot(x - ax, y - ay)
                if da == math.hypot(x - bx, y - by) == min(
                        math.hypot(x - sx, y - sy)
                        for sx, sy in sites.values()):
                    ties.append((x, y))
                near.append((x + 1e-12 * (bx - ax),
                             y + 1e-12 * (by - ay)))
        assert ties, "no exact float tie on any bisector"
        oracle = controller._region_index.closest
        for points in (ties, near):
            want = [oracle(p) for p in points]
            assert controller.home_regions(np.asarray(points)) == want
            assert [controller.home_region(p) for p in points] == want


# ---------------------------------------------------------------------
# differential: federated batch == federated scalar loop
# ---------------------------------------------------------------------
def storage_state(fed):
    """Per server: items in insertion order, their stamps, hints."""
    return {
        server.server_id: (
            [(d, server.retrieve(d), server.stamp_of(d))
             for d in server.stored_ids()],
            server.hints(),
        )
        for rid in sorted(fed.shards)
        for server in fed.shard(rid).net.servers()
    }


def registry_state(registry):
    """Registry aggregates minus the batch-only extras."""
    dump = _normalize(registry.to_dict(include_events=False))
    dump["counters"] = {
        key: value for key, value in dump["counters"].items()
        if key[0] != "dataplane.fastpath_standdowns"}
    return dump


def crash_member(fed, region_index):
    """Crash one non-gateway switch of a region (hinted handoff on, so
    placements homed on it park instead of raising)."""
    rid = fed.controller.region_map.region_ids[region_index]
    shard = fed.shard(rid)
    shard.net.hinted_handoff = True
    victim = next(s for s in shard.net.switch_ids()
                  if s not in shard.gateways)
    FaultInjector.for_region(fed, rid).crash_switch(victim)
    return victim


def kill_region(fed, region_index):
    rid = fed.controller.region_map.region_ids[region_index]
    injector = FaultInjector.for_region(fed, rid)
    for switch in fed.shard(rid).net.switch_ids():
        injector.crash_switch(switch)
    return rid


WORKLOAD = st.fixed_dictionaries({
    "regions": st.integers(min_value=3, max_value=4),
    "copies": st.integers(min_value=1, max_value=3),
    "keys": st.lists(st.integers(min_value=0, max_value=60),
                     min_size=1, max_size=120),
    "payloads": st.booleans(),
    "prehashed": st.booleans(),
    "variant": st.sampled_from(["healthy", "crashed-switch",
                                "dead-region"]),
    "seed": st.integers(min_value=0, max_value=2 ** 16),
})


class TestBatchEqualsScalarLoop:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(w=WORKLOAD)
    # Shards see > 96 rows each: past the straggler tail, on the waves.
    @example(w={"regions": 3, "copies": 3, "payloads": True,
                "keys": list(range(61)) + list(range(59)),
                "prehashed": True, "variant": "healthy", "seed": 1})
    @example(w={"regions": 4, "copies": 2, "payloads": True,
                "keys": list(range(61)) * 2, "prehashed": False,
                "variant": "crashed-switch", "seed": 2})
    def test_place_many_and_retrieve_many(self, w, reference_engine):
        copies = w["copies"]
        batch = make_fed(regions=w["regions"], per_region=8, cvt=3)
        scalar = make_fed(regions=w["regions"], per_region=8, cvt=3)
        for shard in scalar.shards.values():
            reference_engine(shard.net)  # the scalar side is the oracle
        dead = set()
        if w["variant"] == "crashed-switch":
            dead = {crash_member(batch, 1), crash_member(scalar, 1)}
        ids = [f"diff/{k}" for k in w["keys"]]  # duplicates included
        payloads = ([{"i": i, "id": d} for i, d in enumerate(ids)]
                    if w["payloads"] else None)
        live = [s for s in batch.switch_ids() if s not in dead]
        rng = np.random.default_rng(w["seed"])
        entries = [live[int(v)]
                   for v in rng.integers(0, len(live), size=len(ids))]
        digests = (sha256_digests(replica_ids_flat(ids, copies))
                   if w["prehashed"] else None)

        def observe(fed, call):
            registry = MetricsRegistry(enabled=True)
            previous = set_default_registry(registry)
            try:
                return call(fed), registry_state(registry)
            finally:
                set_default_registry(previous)

        placed = observe(batch, lambda fed: fed.place_many(
            ids, payloads=payloads, entry_switches=entries,
            copies=copies, digests=digests))
        assert placed == observe(scalar, lambda fed: [
            fed.place(d, payload=payloads[i] if payloads else None,
                      entry_switch=entries[i], copies=copies)
            for i, d in enumerate(ids)])
        assert storage_state(batch) == storage_state(scalar)

        if w["variant"] == "dead-region":
            gone = {kill_region(batch, 1), kill_region(scalar, 1)}
            live = [s for s in live if batch.region_of(s) not in gone]
        probe = ids + [f"never-placed/{k}" for k in w["keys"][:20]]
        entries = [live[int(v)]
                   for v in rng.integers(0, len(live), size=len(probe))]
        digests = (sha256_digests(replica_ids_flat(probe, copies))
                   if w["prehashed"] else None)
        got = observe(batch, lambda fed: fed.retrieve_many(
            probe, entry_switches=entries, copies=copies,
            digests=digests))
        assert got == observe(scalar, lambda fed: [
            fed.retrieve(d, entry_switch=entries[i], copies=copies)
            for i, d in enumerate(probe)])
        assert storage_state(batch) == storage_state(scalar)
        if w["variant"] != "dead-region":
            found = {r.data_id for r in got[0] if r.found}
            assert found == set(ids)

    def test_federation_series_are_emitted(self):
        fed = make_fed()
        ids = [f"tel/{i}" for i in range(90)]
        registry = MetricsRegistry(enabled=True)
        previous = set_default_registry(registry)
        try:
            placed = fed.place_many(ids, copies=2,
                                    rng=np.random.default_rng(1))
        finally:
            set_default_registry(previous)
        records = [r for p in placed for r in p.records]
        crossings = [fed.controller.overlay_hops(
            fed.region_of(r.entry_switch),
            fed.region_of(r.destination_switch)) for r in records]
        counts = registry.counter_values("federation.requests")
        assert sum(counts.values()) == len(records)
        cross = sum(v for k, v in counts.items() if "cross" in k)
        assert cross == sum(1 for c in crossings if c) > 0
        hops = registry.lookup("histogram", "federation.overlay_hops")
        assert hops.count == cross and hops.sum == sum(crossings)


class TestUnreachableHome:
    def _cut_off(self):
        """A 6-region ring with regions 2 and 5 dead: from region 0,
        region 1 is one gateway away and regions 3 and 4 are cut off.
        Returns ids homed in 0/1 (reachable) followed by ids homed in
        3/4, all entering at one region-0 switch."""
        fed = make_fed(regions=6, per_region=6, seed=9)
        rids = fed.controller.region_map.region_ids
        for index in (2, 5):
            kill_region(fed, index)
        assert fed.controller.overlay_path(rids[0], rids[1]) is not None
        assert fed.controller.overlay_path(rids[0], rids[3]) is None
        homes = {f"cut/{i}": fed.home_region_of(f"cut/{i}")
                 for i in range(120)}
        near = [d for d, h in homes.items() if h in (rids[0], rids[1])]
        far = [d for d, h in homes.items() if h in (rids[3], rids[4])]
        assert {homes[d] for d in near} == {rids[0], rids[1]} and far
        entry = fed.shard(rids[0]).net.switch_ids()[0]
        return fed, near, far, entry, homes

    def test_place_many_fails_closed(self):
        fed, near, far, entry, homes = self._cut_off()
        ids = near + far
        before = fed.load_vector()
        with pytest.raises(GredError) as batch_error:
            fed.place_many(ids, entry_switches=[entry] * len(ids))
        assert str(batch_error.value) == (
            f"region {homes[far[0]]} is unreachable over the gateway "
            f"overlay; cannot place {far[0]}")
        # Nothing was stored on any shard, not even the reachable
        # intra- and cross-region items ahead of the offending one.
        assert fed.load_vector() == before
        with pytest.raises(GredError) as scalar_error:
            fed.place(far[0], entry_switch=entry)
        assert str(scalar_error.value) == str(batch_error.value)
        fed.place_many(near, entry_switches=[entry] * len(near))
        assert sum(fed.load_vector()) == len(near)

    def test_retrieve_many_skips_unreachable_replicas(self):
        fed, near, far, entry, _ = self._cut_off()
        fed.place_many(near, entry_switches=[entry] * len(near))
        ids = near + far
        got = fed.retrieve_many(ids, entry_switches=[entry] * len(ids),
                                copies=2)
        assert got == [fed.retrieve(d, entry_switch=entry, copies=2)
                       for d in ids]
        assert [r.found for r in got] == \
            [True] * len(near) + [False] * len(far)

    def test_crashed_ingress_gateway_is_unreachable(self):
        """A request never enters a shard at a dead gateway: placement
        fails closed, retrieval fails over to the next replica."""
        fed = make_fed(regions=3, per_region=8, seed=4)
        rids = fed.controller.region_map.region_ids
        entry = fed.shard(rids[0]).net.switch_ids()[0]
        ids = [f"gw/{i}" for i in range(80)]
        fed.place_many(ids, copies=2, rng=np.random.default_rng(2))
        _, ingress = fed.region_map.gateway(rids[0], rids[1])
        FaultInjector.for_region(fed, rids[1]).crash_switch(ingress)
        got = fed.retrieve_many(ids, entry_switches=[entry] * len(ids),
                                copies=2)
        assert got == [fed.retrieve(d, entry_switch=entry, copies=2)
                       for d in ids]
        for data_id, result in zip(ids, got):
            homes = [fed.home_region_of(data_id, c) for c in range(2)]
            assert result.found == any(h != rids[1] for h in homes)
        before = fed.load_vector()
        with pytest.raises(GredError, match="unreachable"):
            fed.place_many(ids, entry_switches=[entry] * len(ids))
        assert fed.load_vector() == before


# ---------------------------------------------------------------------
# the request path is a lookup: stitch memo, one digest per replica
# ---------------------------------------------------------------------
def all_stitches(fed):
    """``(entry, home) -> stitch`` over every switch and foreign home,
    through the request path's memo."""
    memo = fed._stitches()
    return {
        (entry, home): fed._stitch_via(memo, entry, home)
        for entry in fed.switch_ids()
        for home in fed.controller.region_map.region_ids
        if home != fed.region_of(entry)
    }


def fresh_stitches(fed):
    """The same pairs computed from scratch: no stitch memo, no leg
    cache, no overlay-path memo."""
    fed._legs = {}
    fed.region_map._paths = {}
    return {pair: fed._stitch(*pair) for pair in all_stitches(fed)}


def inner_switches(fed, stitches):
    """Non-gateway switches some memoized stitch walks through."""
    gateways = {g for shard in fed.shards.values() for g in shard.gateways}
    return sorted({s for stitched in stitches.values()
                   if stitched is not None
                   for s in stitched[0][1:-1]} - gateways)


def shortcut(fed, stitches):
    """Two unlinked switches of one region that the longest stitched
    leg walks between: a link or a joiner across them shortens it."""
    trace = max((s[0] for s in stitches.values() if s is not None),
                key=len)
    region = fed.region_of(trace[0])
    leg = [s for s in trace if fed.region_of(s) == region]
    assert len(leg) >= 3, leg
    return leg[0], leg[-1]


class TestStitchMemo:
    """A memoized stitch is the one a fresh computation gives, after
    every event that can change it."""

    def check(self, fed):
        got = all_stitches(fed)
        assert got == fresh_stitches(fed)
        return got

    def warm(self, fed):
        stitches = all_stitches(fed)
        assert stitches and all(fed._stitches()[pair] is stitched
                                for pair, stitched in stitches.items())
        return stitches

    def test_kept_across_calls_while_nothing_changes(self):
        fed = make_fed(regions=4, per_region=8, seed=3)
        stitches = self.warm(fed)
        memo = fed._stitches()
        fed.place_many([f"m/{i}" for i in range(50)],
                       rng=np.random.default_rng(0))
        assert fed._stitches() is memo
        assert all_stitches(fed) == stitches

    def test_join(self):
        fed = make_fed(regions=4, per_region=8, seed=3)
        stitches = self.warm(fed)
        fed.add_switch(990, links=list(shortcut(fed, stitches)),
                       servers=[EdgeServer(990, 0)])
        assert self.check(fed) != stitches

    def test_leave(self):
        fed = make_fed(regions=4, per_region=8, seed=3)
        stitches = self.warm(fed)
        fed.remove_switch(inner_switches(fed, stitches)[0])
        self.check(fed)

    def test_recompute(self):
        fed = make_fed(regions=4, per_region=8, seed=3)
        stitches = self.warm(fed)
        fed.controller.recompute(fed.controller.region_map.region_ids[1])
        assert self.check(fed) == stitches

    def test_restore_shard(self):
        """The restored shard lacks a link the live one has."""
        fed = make_fed(regions=4, per_region=8, seed=3)
        stitches = self.warm(fed)
        u, v = shortcut(fed, stitches)
        rid = fed.region_of(u)
        saved = to_federation_snapshot(fed)["shards"][str(rid)]
        fed.shard(rid).controller.add_link(u, v)
        assert self.warm(fed) != stitches
        restore_shard(fed, rid, saved)
        assert self.check(fed) == stitches

    def test_fault_state_and_crashed_gateway(self):
        fed = make_fed(regions=4, per_region=8, seed=3)
        stitches = self.warm(fed)
        rids = fed.controller.region_map.region_ids
        _, ingress = fed.region_map.gateway(rids[0], rids[1])
        injector = FaultInjector.for_region(fed, rids[1])
        # Attached but quiet: nothing is kept, answers are unchanged.
        assert fed._stitches() is not fed._stitches()
        assert self.check(fed) == stitches
        injector.crash_switch(ingress)
        got = self.check(fed)
        assert any(got[pair] is None and stitched is not None
                   for pair, stitched in stitches.items())

    def test_a_repeated_pair_runs_no_bfs(self, monkeypatch):
        """Call counts, not timing: requests over seen ``(entry,
        home)`` pairs run no BFS and stitch nothing; after a join the
        next request stitches its own pair again, once."""
        import repro.controlplane.federation as federation

        fed = make_fed(regions=4, per_region=8, seed=3)
        ids = [f"bfs/{i}" for i in range(40)]
        entries = [fed.switch_ids()[i % 7] for i in range(len(ids))]
        fed.place_many(ids, entry_switches=entries)
        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(federation, "bfs_path",
                            counted("bfs_path", federation.bfs_path))
        monkeypatch.setattr(fed.region_map, "_overlay_bfs", counted(
            "region bfs", fed.region_map._overlay_bfs))
        stitched, stitch = [], fed._stitch
        monkeypatch.setattr(fed, "_stitch", lambda *pair: (
            stitched.append(pair) or stitch(*pair)))
        for data_id, entry in zip(ids, entries):
            assert fed.retrieve(data_id, entry_switch=entry).found
            fed.place(data_id, entry_switch=entry)
        assert all(r.found for r in fed.retrieve_many(
            ids, entry_switches=entries))
        assert calls == [] and stitched == []
        cross = next(i for i, (d, e) in enumerate(zip(ids, entries))
                     if fed.home_region_of(d) != fed.region_of(e))
        region = fed.region_of(entries[cross])
        fed.add_switch(991, links=[fed.shard(region).net.switch_ids()[0]],
                       servers=[EdgeServer(991, 0)])
        assert fed.retrieve(ids[cross], entry_switch=entries[cross]).found
        assert stitched == [(entries[cross], fed.home_region_of(ids[cross]))]


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_one_digest_per_replica(copies, monkeypatch):
    """A scalar federated place / retrieve with ``copies=c`` takes
    exactly ``c`` SHA-256 digests: the home shard routes on the
    federation's, intra- and cross-region alike."""
    import hashlib

    fed = make_fed(regions=4, per_region=8, seed=3)
    ids = [f"sha/{i}" for i in range(24)]
    entries = fed.switch_ids()[::5]
    real = hashlib.sha256
    digests = []
    monkeypatch.setattr(hashlib, "sha256",
                        lambda data=b"": digests.append(data) or real(data))
    local = cross = 0
    for data_id in ids:
        for entry in entries:
            homes = {fed.home_region_of(data_id, c) for c in range(copies)}
            local += homes == {fed.region_of(entry)}
            cross += fed.region_of(entry) not in homes
            del digests[:]
            fed.place(data_id, entry_switch=entry, copies=copies)
            assert len(digests) == copies
            del digests[:]
            assert fed.retrieve(data_id, entry_switch=entry,
                                copies=copies).found
            assert len(digests) == copies
    assert local and cross


# ---------------------------------------------------------------------
# churn locality
# ---------------------------------------------------------------------
class TestChurnLocality:
    def test_join_ships_zero_foreign_messages(self):
        fed = make_fed(regions=3, per_region=8, seed=1)
        channels = fed.controller.attach_channels()
        home = fed.controller.region_map.region_ids[1]
        members = fed.shard(home).net.switch_ids()
        fed.add_switch(900, links=list(members[:2]),
                       servers=[EdgeServer(900, 0)])
        assert channels[home].count(exclude=(Probe,)) > 0
        assert fed.controller.foreign_messages(channels, home) == 0
        assert fed.region_of(900) == home

    def test_leave_ships_zero_foreign_messages(self):
        fed = make_fed(regions=3, per_region=8, seed=1)
        channels = fed.controller.attach_channels()
        home = fed.controller.region_map.region_ids[0]
        shard = fed.shard(home)
        victim = next(s for s in shard.net.switch_ids()
                      if s not in shard.gateways)
        fed.remove_switch(victim)
        assert fed.controller.foreign_messages(channels, home) == 0
        with pytest.raises(RegionError):
            fed.region_of(victim)

    def test_gateway_cannot_leave(self, fed3):
        gateway = fed3.shard(fed3.controller.region_map
                             .region_ids[0]).gateways[0]
        with pytest.raises(GredError):
            fed3.remove_switch(gateway)

    def test_join_with_another_switchs_server_rejected(self, fed3):
        home = fed3.controller.region_map.region_ids[0]
        members = fed3.shard(home).net.switch_ids()
        with pytest.raises(ControlPlaneError, match="joining switch 902"):
            fed3.add_switch(902, links=list(members[:2]),
                            servers=[EdgeServer(members[0], 0)])
        assert not fed3.shard(home).net.topology.has_node(902)
        assert 902 not in fed3.controller._assignment

    def test_join_must_stay_in_one_region(self, fed3):
        region_map = fed3.controller.region_map
        a, b = region_map.region_ids[:2]
        links = [region_map.members(a)[0], region_map.members(b)[0]]
        with pytest.raises(GredError):
            fed3.add_switch(901, links=links,
                            servers=[EdgeServer(901, 0)])


EVENTS = st.lists(
    st.tuples(st.sampled_from(["join", "leave"]),
              st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=10 ** 6)),
    min_size=1, max_size=8,
)


class TestChurnOracle:
    """Hypothesis: interleaved multi-region churn vs full reinstall."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(events=EVENTS)
    def test_interleaved_churn_matches_oracle(self, events):
        fed = make_fed(regions=3, per_region=8, seed=2)
        channels = fed.controller.attach_channels()
        rng = np.random.default_rng(9)
        next_id = 10_000
        for kind, region_idx, pick in events:
            rid = fed.controller.region_map.region_ids[region_idx]
            shard = fed.shard(rid)
            members = shard.net.switch_ids()
            for channel in channels.values():
                channel.clear()
            if kind == "join":
                peers = [int(members[int(v)]) for v in
                         rng.choice(len(members), size=2,
                                    replace=False)]
                fed.add_switch(next_id, peers,
                               servers=[EdgeServer(next_id, 0)])
                next_id += 1
            else:
                removable = [s for s in members
                             if s not in shard.gateways]
                if len(removable) <= 2 or len(members) <= 5:
                    continue
                try:
                    fed.remove_switch(removable[pick % len(removable)])
                except Exception:
                    # Cut vertices may not leave (the shard must stay
                    # connected); the event is a legal no-op.
                    continue
            assert fed.controller.foreign_messages(channels, rid) == 0
        for rid in fed.controller.region_map.region_ids:
            assert mismatched_switches(fed.shard(rid).controller) == []
        assert fed.controller.verify() == []


# ---------------------------------------------------------------------
# invariant 9
# ---------------------------------------------------------------------
class TestRegionScope:
    def test_clean_federation_in_scope(self, fed3):
        for rid in fed3.controller.region_map.region_ids:
            shard = fed3.shard(rid)
            assert verify_region_scope(shard.controller,
                                       shard.members,
                                       region=rid) == []

    def test_detects_planted_foreign_reference(self):
        fed = make_fed(regions=2, per_region=8, seed=4)
        rids = fed.controller.region_map.region_ids
        shard = fed.shard(rids[0])
        foreign = fed.controller.region_map.members(rids[1])[0]
        switch = shard.controller.switches[
            shard.net.switch_ids()[0]]
        switch.install_dt_neighbor(foreign, (0.5, 0.5))
        violations = verify_region_scope(shard.controller,
                                         shard.members,
                                         region=rids[0])
        assert violations
        assert any(v.kind == "region-scope" for v in violations)
        assert fed.controller.verify() != []


# ---------------------------------------------------------------------
# snapshots: round trip + single-shard restart
# ---------------------------------------------------------------------
class TestFederationSnapshot:
    def test_round_trip_preserves_behavior(self):
        fed = make_fed(regions=3, per_region=8, seed=5)
        ids = [f"snap/{i}" for i in range(30)]
        fed.place_many(ids, copies=2, rng=np.random.default_rng(10),
                       payloads=[i for i in range(30)])
        document = to_federation_snapshot(fed)
        restored = from_federation_snapshot(document)
        assert restored.num_regions == fed.num_regions
        assert restored.load_vector() == fed.load_vector()
        got = restored.retrieve_many(ids, copies=2,
                                     rng=np.random.default_rng(11))
        want = fed.retrieve_many(ids, copies=2,
                                 rng=np.random.default_rng(11))
        assert got == want
        assert all(r.found for r in got)
        for rid in fed.controller.region_map.region_ids:
            old = fed.shard(rid).controller
            new = restored.shard(rid).controller
            assert new.epoch == old.epoch
            assert new.version == old.version
            assert new.generations == old.generations

    def test_restore_one_shard_reconciles_alone(self):
        fed = make_fed(regions=3, per_region=8, seed=6)
        ids = [f"crash/{i}" for i in range(30)]
        fed.place_many(ids, copies=2, rng=np.random.default_rng(12))
        rid = fed.controller.region_map.region_ids[1]
        saved = to_federation_snapshot(fed)["shards"][str(rid)]
        # The region "crashes": wipe its installed rules in place.
        victim = fed.shard(rid).controller
        for switch in victim.switches.values():
            for neighbor in list(switch.dt_neighbor_positions):
                switch.remove_dt_neighbor(neighbor)
        channels = fed.controller.attach_channels()
        restore_shard(fed, rid, saved)
        reports = fed.controller.reconcile(region=rid)
        assert list(reports) == [rid]
        # Healing one shard never messages any other region.
        assert fed.controller.foreign_messages(channels, rid) == 0
        assert fed.controller.verify() == []
        got = fed.retrieve_many(ids, copies=2,
                                rng=np.random.default_rng(13))
        assert all(r.found for r in got)

    def test_restore_shard_rejects_switch_set_mismatch(self):
        fed = make_fed(regions=2, per_region=8, seed=7)
        rid = fed.controller.region_map.region_ids[0]
        other = fed.controller.region_map.region_ids[1]
        wrong = to_federation_snapshot(fed)["shards"][str(other)]
        with pytest.raises(SnapshotError):
            restore_shard(fed, rid, wrong)


# ---------------------------------------------------------------------
# blast radius: a partitioned region degrades alone
# ---------------------------------------------------------------------
class TestRegionChaos:
    def test_partitioned_region_degrades_alone(self):
        fed = make_fed(regions=3, per_region=8, seed=8)
        ids = [f"chaos/{i}" for i in range(45)]
        fed.place_many(ids, copies=1, rng=np.random.default_rng(14),
                       payloads=list(range(45)))
        homes = {d: fed.home_region_of(d) for d in ids}
        rids = fed.controller.region_map.region_ids
        victim_rid = rids[1]
        assert any(r == victim_rid for r in homes.values())
        assert any(r != victim_rid for r in homes.values())
        injector = FaultInjector.for_region(fed, victim_rid, seed=0)
        for switch in fed.shard(victim_rid).net.switch_ids():
            injector.crash_switch(switch)
        channels = fed.controller.attach_channels()
        assert not fed.shard(victim_rid).serving()
        for rid in rids:
            if rid != victim_rid:
                assert fed.shard(rid).serving()
        # Items homed in healthy regions survive, requested from a
        # healthy entry; items homed in the dead region are lost.
        healthy_entry = fed.shard(rids[0]).net.switch_ids()[0]
        for data_id in ids:
            result = fed.retrieve(data_id, entry_switch=healthy_entry,
                                  rng=np.random.default_rng(15))
            if homes[data_id] == victim_rid:
                assert not result.found
            else:
                assert result.found, (data_id, homes[data_id])
        # Degraded serving shipped no control traffic anywhere.
        assert sum(c.count(exclude=(Probe,))
                   for c in channels.values()) == 0

    def test_overlay_routes_around_dead_region(self):
        fed = make_fed(regions=4, per_region=6, seed=9)
        rids = fed.controller.region_map.region_ids
        # Kill a region that the ring overlay would otherwise transit.
        baseline = fed.controller.overlay_path(rids[0], rids[2])
        transit = [r for r in baseline[1:-1]]
        if not transit:
            pytest.skip("overlay path has no transit region to kill")
        injector = FaultInjector.for_region(fed, transit[0], seed=0)
        for switch in fed.shard(transit[0]).net.switch_ids():
            injector.crash_switch(switch)
        rerouted = fed.controller.overlay_path(rids[0], rids[2])
        assert rerouted is not None
        assert transit[0] not in rerouted

    def test_absorbed_region_keeps_its_plane(self):
        """Per shard, the fault gate follows the fault, not the
        attachment: a region that crashed a switch and absorbed it
        reports no blocker, one with the crash still installed stands
        down alone, and every region keeps answering."""
        from repro.dataplane import UNABSORBED_FAULT, federated_blockers

        fed = make_fed(regions=4, per_region=8, seed=9)
        ids = [f"gate/{i}" for i in range(120)]
        fed.place_many(ids, copies=2, rng=np.random.default_rng(3))
        rids = fed.controller.region_map.region_ids
        absorbed = crash_member(fed, 1)
        fed.shard(rids[1]).net.controller.absorb_failures([absorbed])
        crash_member(fed, 2)
        assert fed.shard(rids[0]).net.fault_state is None
        assert fed.shard(rids[1]).net.fault_state is not None
        assert federated_blockers(fed) == {
            rid: [UNABSORBED_FAULT] if rid == rids[2] else []
            for rid in rids}
        registry = MetricsRegistry(enabled=True)
        previous = set_default_registry(registry)
        try:
            got = fed.retrieve_many(ids, copies=2,
                                    rng=np.random.default_rng(4))
        finally:
            set_default_registry(previous)
        assert all(r.found for r in got)
        # One shard stood down (once per probe round that reached it);
        # the others, the absorbed one included, rode the waves.
        assert list(registry.counter_values(
            "dataplane.fastpath_standdowns")) == [
                "dataplane.fastpath_standdowns"
                "{reason=unabsorbed_routing_fault}"]
        assert registry.counter("dataplane.batch.waves").value > 0
