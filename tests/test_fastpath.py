"""Tests for the batch request fast path.

Pins the contracts the fast path is built on:

* batch hashing is bit-exact against the scalar SHA-256 helpers;
* ``place_many`` / ``retrieve_many`` / ``destinations_for`` return
  byte-identical per-request outcomes to the scalar loop under the
  same seed — including replicas, misses, and hop-budget failures;
* the epoch-scoped route cache is invalidated by every control-plane
  mutation (recompute, join, leave, failure absorption);
* the grid routing index agrees with the brute-force nearest-switch
  scan everywhere, ties included.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GredNetwork, utils
from repro.controlplane import RoutingIndex
from repro.dataplane import CompiledRouter, ExtensionEntry, ForwardingError
from repro.edge import attach_uniform
from repro.faults import FaultInjector
from repro.hashing import (
    batch_hash,
    data_position,
    data_positions,
    positions_from_digests,
    replica_id,
    replica_ids,
    serials_from_digests,
    server_index,
    server_indices,
    sha256_digests,
)
from repro.topology import brite_waxman_graph
from test_controlplane_model import wave_plane
from test_route_stage import durable_state, observe

IDS = ["videos/a.mp4", "sensor-42/frame-7", "x", "", "data#copy1",
       "ünïcode/πath", "a" * 300] + [f"bulk-{i}" for i in range(64)]


def build_pair(switches=40, servers=3, seed=0):
    """Two identical deployments for scalar-vs-batch comparison."""
    topology, _ = brite_waxman_graph(
        switches, min_degree=3, rng=np.random.default_rng(seed))

    def build():
        servers_map = attach_uniform(topology.nodes(),
                                     servers_per_switch=servers)
        return GredNetwork(topology, servers_map, cvt_iterations=10,
                           seed=seed)

    return build(), build()


class TestBatchHashing:
    def test_positions_match_scalar(self):
        batch = data_positions(IDS)
        for i, data_id in enumerate(IDS):
            assert tuple(batch[i]) == data_position(data_id)

    def test_server_indices_match_scalar(self):
        for s in (1, 2, 7, 64):
            batch = server_indices(IDS, s)
            for i, data_id in enumerate(IDS):
                assert batch[i] == server_index(data_id, s)

    def test_serials_are_leading_u64(self):
        serials = serials_from_digests(sha256_digests(IDS))
        for i, data_id in enumerate(IDS):
            digest = hashlib.sha256(data_id.encode("utf-8")).digest()
            assert int(serials[i]) == int.from_bytes(digest[:8], "big")

    def test_replica_ids_match_scalar(self):
        for row, data_id in zip(replica_ids(IDS, 3), IDS):
            assert row == [replica_id(data_id, c) for c in range(3)]

    def test_batch_hash_is_one_digest_pass(self):
        positions, serials, keys = batch_hash(IDS, 5)
        assert positions.shape == (len(IDS), 2)
        np.testing.assert_array_equal(positions, data_positions(IDS))
        np.testing.assert_array_equal(serials, server_indices(IDS, 5))

    def test_digests_are_hashlib_byte_for_byte(self):
        digests = sha256_digests(IDS)
        assert digests.dtype == np.uint8
        assert digests.shape == (len(IDS), 32)
        for row, data_id in zip(digests, IDS):
            assert row.tobytes() == hashlib.sha256(
                data_id.encode("utf-8")).digest()

    def test_non_string_identifier_rejected(self):
        # The first stranger in request order is the one named.
        for bad, name in ((7, "int"), (b"x", "bytes"),
                          (None, "NoneType")):
            with pytest.raises(TypeError) as err:
                sha256_digests(["ok", bad, 3.0])
            assert str(err.value) == \
                f"data identifier must be str, got {name}"

    def test_empty_batch(self):
        assert data_positions([]).shape == (0, 2)


class TestBatchScalarEquivalence:
    def test_place_many_matches_scalar_loop(self, reference_engine):
        scalar, batch = build_pair()
        reference_engine(scalar)
        ids = [f"eq/{i}" for i in range(300)]
        r1 = np.random.default_rng(3)
        r2 = np.random.default_rng(3)
        expected = [scalar.place(d, payload={"k": d}, rng=r1)
                    for d in ids]
        got = batch.place_many(ids, payloads=[{"k": d} for d in ids],
                               rng=r2)
        assert got == expected
        assert scalar.load_vector() == batch.load_vector()

    def test_place_many_with_replicas(self, reference_engine):
        scalar, batch = build_pair()
        reference_engine(scalar)
        ids = [f"rep/{i}" for i in range(120)]
        r1, r2 = (np.random.default_rng(4) for _ in range(2))
        expected = [scalar.place(d, copies=3, rng=r1) for d in ids]
        assert batch.place_many(ids, copies=3, rng=r2) == expected
        assert scalar.load_vector() == batch.load_vector()

    def test_retrieve_many_matches_scalar_loop(self, reference_engine):
        scalar, batch = build_pair()
        reference_engine(scalar)
        ids = [f"get/{i}" for i in range(200)]
        scalar.place_many(ids, rng=np.random.default_rng(5))
        batch.place_many(ids, rng=np.random.default_rng(5))
        # Interleave hits with never-placed ids so misses are
        # exercised in the same batch.
        probe = [d for pair in zip(ids, (f"miss/{i}" for i in
                                         range(len(ids))))
                 for d in pair]
        r1, r2 = (np.random.default_rng(6) for _ in range(2))
        expected = [scalar.retrieve(d, copies=2, rng=r1) for d in probe]
        got = batch.retrieve_many(probe, copies=2, rng=r2)
        assert got == expected
        assert sum(1 for r in got if r.found) == len(ids)

    def test_retrieve_many_respects_hop_budget(self, reference_engine):
        scalar, batch = build_pair()
        reference_engine(scalar)
        ids = [f"hop/{i}" for i in range(150)]
        scalar.place_many(ids, rng=np.random.default_rng(7))
        batch.place_many(ids, rng=np.random.default_rng(7))
        r1, r2 = (np.random.default_rng(8) for _ in range(2))
        expected = [scalar.retrieve(d, max_hops=2, rng=r1) for d in ids]
        got = batch.retrieve_many(ids, max_hops=2, rng=r2)
        assert got == expected
        # The tiny budget must fail at least one probe for the test
        # to mean anything.
        assert any(not r.found for r in got)

    def test_explicit_entry_switches(self, reference_engine):
        scalar, batch = build_pair()
        reference_engine(scalar)
        ids = [f"ent/{i}" for i in range(60)]
        entries = [scalar.switch_ids()[i % 40] for i in range(60)]
        expected = [scalar.place(d, entry_switch=e)
                    for d, e in zip(ids, entries)]
        assert batch.place_many(ids, entry_switches=entries) == expected

    def test_destinations_for_matches_scalar(self):
        net, _ = build_pair()
        ids = [f"dest/{i}" for i in range(200)]
        assert net.destinations_for(ids) == \
            [net.destination_switch(d) for d in ids]

    def test_cached_routes_are_stable(self, reference_engine):
        """A second identical batch is served from the route cache and
        must still equal the scalar outcome (shared traces are copied,
        never mutated)."""
        scalar, batch = build_pair()
        reference_engine(scalar)
        ids = [f"cache/{i}" for i in range(80)]
        scalar.place_many(ids, rng=np.random.default_rng(9))
        batch.place_many(ids, rng=np.random.default_rng(9))
        r1 = np.random.default_rng(10)
        expected = [scalar.retrieve(d, rng=r1) for d in ids]
        for _ in range(2):  # second pass hits the warm route cache
            got = batch.retrieve_many(ids,
                                      rng=np.random.default_rng(10))
            assert got == expected
            # Returned traces are private copies: mutating them must
            # not corrupt the cache for the next pass.
            for result in got:
                result.trace.clear()

    def test_batch_raises_like_scalar_on_invalid_input(self):
        net, _ = build_pair(switches=12)
        from repro import GredError

        with pytest.raises(GredError, match="copies"):
            net.place_many(["a"], copies=0)
        with pytest.raises(GredError, match="payloads"):
            net.place_many(["a", "b"], payloads=[1])
        with pytest.raises(GredError, match="entry_switches"):
            net.place_many(["a", "b"], entry_switches=[0])


class TestEpochInvalidation:
    def test_join_invalidates_cached_routes(self, reference_engine):
        scalar, batch = build_pair()
        reference_engine(scalar)
        ids = [f"join/{i}" for i in range(150)]
        scalar.place_many(ids, rng=np.random.default_rng(1))
        batch.place_many(ids, rng=np.random.default_rng(1))
        links = [scalar.switch_ids()[0], scalar.switch_ids()[1]]
        scalar.add_switch(999, links, servers_per_switch=3)
        batch.add_switch(999, links, servers_per_switch=3)
        r1, r2 = (np.random.default_rng(2) for _ in range(2))
        expected = [scalar.retrieve(d, rng=r1) for d in ids]
        assert batch.retrieve_many(ids, rng=r2) == expected
        assert scalar.load_vector() == batch.load_vector()

    def test_leave_invalidates_cached_routes(self, reference_engine):
        scalar, batch = build_pair()
        reference_engine(scalar)
        ids = [f"leave/{i}" for i in range(150)]
        scalar.place_many(ids, rng=np.random.default_rng(1))
        batch.place_many(ids, rng=np.random.default_rng(1))
        victim = scalar.destinations_for(ids)[0]
        scalar.remove_switch(victim)
        batch.remove_switch(victim)
        r1, r2 = (np.random.default_rng(2) for _ in range(2))
        expected = [scalar.retrieve(d, rng=r1) for d in ids]
        got = batch.retrieve_many(ids, rng=r2)
        assert got == expected
        # Stale cache entries must never route to the removed switch.
        for result in got:
            if result.found:
                assert result.server_id[0] != victim
        assert [r.found for r in got] == [True] * len(ids)

    def test_absorb_failures_invalidates_cached_routes(self, reference_engine):
        scalar, batch = build_pair()
        reference_engine(scalar)
        ids = [f"fail/{i}" for i in range(150)]
        scalar.place_many(ids, rng=np.random.default_rng(1))
        batch.place_many(ids, rng=np.random.default_rng(1))
        dead = batch.destinations_for(ids)[0]
        epoch_before = batch.controller.epoch
        version_before = batch.controller.version
        scalar.controller.absorb_failures(dead_switches=[dead])
        batch.controller.absorb_failures(dead_switches=[dead])
        # Failure absorption is a scoped event: the change counter
        # advances (invalidating affected routes) while the global
        # epoch — reserved for full recomputes — stays put.
        assert batch.controller.version > version_before
        assert batch.controller.epoch == epoch_before
        r1, r2 = (np.random.default_rng(2) for _ in range(2))
        expected = [scalar.retrieve(d, rng=r1) for d in ids]
        got = batch.retrieve_many(ids, rng=r2)
        assert got == expected
        assert dead not in batch.destinations_for(ids)

    def test_recompute_rebuilds_fast_state(self):
        net, _ = build_pair(switches=12)
        net.place_many([f"r/{i}" for i in range(20)],
                       rng=np.random.default_rng(0))
        state = net._fastpath
        net.controller.recompute()
        net.place_many([f"r2/{i}" for i in range(20)],
                       rng=np.random.default_rng(0))
        assert net._fastpath is not state
        assert net._fastpath.epoch == net.controller.epoch


class TestRoutingIndex:
    def test_grid_matches_bruteforce_on_controller(self):
        net, _ = build_pair(switches=60)
        controller = net.controller
        points = np.random.default_rng(11).random((1000, 2))
        for x, y in points:
            assert controller.closest_switch((x, y)) == \
                controller.closest_switch_bruteforce((x, y))

    def test_grid_matches_bruteforce_with_ties(self):
        # A lattice of participants and queries on cell boundaries:
        # equidistant pairs force the (distance, x, y) tie-break.
        positions = {i * 10 + j: (i / 4.0, j / 4.0)
                     for i in range(5) for j in range(5)}
        index = RoutingIndex(sorted(positions), positions)
        import math

        def brute(point):
            return min(
                sorted(positions),
                key=lambda n: (math.hypot(positions[n][0] - point[0],
                                          positions[n][1] - point[1]),
                               positions[n][0], positions[n][1]),
            )

        queries = [(x / 8.0, y / 8.0) for x in range(9)
                   for y in range(9)]
        queries += [(0.5 + 1e-12, 0.5), (-0.3, 1.7), (2.0, -1.0)]
        for q in queries:
            assert index.closest(q) == brute(q)

    def test_empty_index_rejects_queries(self):
        index = RoutingIndex([], {})
        assert len(index) == 0
        with pytest.raises(ValueError, match="no participants"):
            index.closest((0.5, 0.5))

    @staticmethod
    def _many_agrees(index, points):
        points = np.asarray(points, dtype=np.float64)
        got = index.closest_many(points)
        assert got.dtype == np.int64
        assert got.tolist() == [index.closest((x, y))
                                for x, y in points.tolist()]

    def test_closest_many_on_random_points(self):
        net, _ = build_pair(switches=60)
        index = net.controller.routing_index()
        self._many_agrees(
            index, np.random.default_rng(5).random((50_000, 2)))
        assert index.closest_many(np.empty((0, 2))).tolist() == []

    def test_closest_many_on_bisector_ties(self):
        """Exact float ties found by search on switch bisectors (a
        bare argmin gets a share of them wrong), and points pushed
        1e-12 off them."""
        import itertools
        import math

        positions = {i * 10 + j: (i / 4.0 + 0.01 * j, j / 4.0)
                     for i in range(4) for j in range(4)}
        index = RoutingIndex(sorted(positions), positions)
        ties, near = [], []
        for a, b in itertools.combinations(sorted(positions), 2):
            (ax, ay), (bx, by) = positions[a], positions[b]
            mx, my = (ax + bx) / 2, (ay + by) / 2
            for t in np.linspace(-1.0, 1.0, 201).tolist():
                x, y = mx - t * (by - ay), my + t * (bx - ax)
                da = math.hypot(x - ax, y - ay)
                if da == math.hypot(x - bx, y - by) == min(
                        math.hypot(x - sx, y - sy)
                        for sx, sy in positions.values()):
                    ties.append((x, y))
                near.append((x + 1e-12 * (bx - ax),
                             y + 1e-12 * (by - ay)))
        assert ties, "no exact float tie on any bisector"
        self._many_agrees(index, ties)
        self._many_agrees(index, near)

    def test_closest_many_follows_insert_and_remove(self):
        net, _ = build_pair(switches=30)
        index = net.controller.routing_index()
        points = np.random.default_rng(6).random((2_000, 2))
        self._many_agrees(index, points)
        index.insert(1000, (0.5, 0.5))
        self._many_agrees(index, points)
        assert 1000 in index.closest_many(points).tolist()
        index.remove(1000)
        index.remove(index.nodes()[0])
        self._many_agrees(index, points)

    def test_drop_and_nearer_answer_for_the_changed_index(self):
        """``closest_many(drop=n)`` is the index without ``n``, and
        ``nearer(site, ...)`` says where an index holding ``site``
        would pick it — on bisector ties, points 1e-12 off them and
        random points — without changing the index."""
        positions = {i * 10 + j: (i / 4.0 + 0.01 * j, j / 4.0)
                     for i in range(4) for j in range(4)}
        rng = np.random.default_rng(8)
        nodes = sorted(positions)
        points = np.concatenate([
            rng.random((2_000, 2)),
            [positions[n] for n in nodes],
            [((positions[a][0] + positions[b][0]) / 2,
              (positions[a][1] + positions[b][1]) / 2)
             for a, b in zip(nodes, nodes[1:])]])
        points = np.concatenate([points, points + 1e-12])
        index = RoutingIndex(nodes, positions)
        for node in nodes[::3]:
            rest = [n for n in nodes if n != node]
            without = RoutingIndex(rest, positions)
            got = index.closest_many(points, drop=node)
            assert got.tolist() == without.closest_many(points).tolist()
            assert got.tolist() == [index.closest(p, node)
                                    for p in points.tolist()]
            # The node, joining the index without it, wins exactly the
            # rows it wins in the full index.
            wins = without.nearer(positions[node], points, got)
            assert (wins == (index.closest_many(points) == node)).all()
        for site in [(0.5, 0.5), (0.125, 0.25), (0.26, 0.0), (2.0, 2.0)]:
            grown = RoutingIndex(nodes + [99], {**positions, 99: site})
            wins = index.nearer(site, points, index.closest_many(points))
            assert (wins == (grown.closest_many(points) == 99)).all()
        assert len(index) == len(nodes)

    def test_closest_many_with_one_participant(self):
        index = RoutingIndex([7], {7: (0.2, 0.9)})
        assert index.closest_many(
            np.random.default_rng(7).random((10, 2))).tolist() == [7] * 10

    def test_closest_many_on_empty_index(self):
        with pytest.raises(ValueError, match="no participants"):
            RoutingIndex([], {}).closest_many(np.zeros((3, 2)))

    def test_index_cached_per_epoch(self):
        net, _ = build_pair(switches=12)
        controller = net.controller
        first = controller.routing_index()
        assert controller.routing_index() is first
        controller.recompute()
        assert controller.routing_index() is not first


class TestSeededFallbackRng:
    def test_unseeded_operations_reproducible_after_reseed(self):
        """Omitting ``rng`` draws from the process-global seeded
        stream: two identically reseeded runs pick identical entries."""
        net, _ = build_pair(switches=12)
        ids = [f"seed/{i}" for i in range(30)]
        utils.reseed(77)
        first = [net.retrieve(d).attempts for d in ids]
        first_entries = net.place_many(
            [f"p/{i}" for i in range(30)])
        utils.reseed(77)
        second = [net.retrieve(d).attempts for d in ids]
        second_entries = net.place_many(
            [f"p2/{i}" for i in range(30)])
        utils.reseed()
        assert first == second
        assert [r.primary.entry_switch for r in first_entries] == \
            [r.primary.entry_switch for r in second_entries]

    def test_int_seed_coerced_per_call(self):
        assert utils.rng(5).integers(0, 1 << 30) == \
            utils.rng(5).integers(0, 1 << 30)

    def test_topology_generation_reproducible_after_reseed(self):
        utils.reseed(13)
        g1, pos1 = brite_waxman_graph(20, min_degree=3)
        utils.reseed(13)
        g2, pos2 = brite_waxman_graph(20, min_degree=3)
        utils.reseed()
        assert sorted(g1.edges()) == sorted(g2.edges())
        assert pos1 == pos2


class TestFastpathGates:
    """The ``(predicate, reason)`` gate list is the single source of
    truth: the engine the facade names and the operator-facing reason
    list must agree in every configuration."""

    def _agree(self, net):
        from repro.dataplane import batch_fastpath_blockers, scalar_standdown

        blockers = batch_fastpath_blockers(net)
        assert scalar_standdown(net) == (blockers or [None])[0]
        assert net._engine_attrs() == (
            {"engine": "reference", "standdown": blockers[0]}
            if blockers else {"engine": "compiled"})
        return blockers

    def test_clean_network_is_eligible(self):
        net, _ = build_pair(switches=12)
        assert self._agree(net) == []

    def test_fault_state_gate(self):
        """The fault gate fires only while a routing fault touches the
        installed plane: an attached state alone, a crashed server, or
        a fault the controller has absorbed leave the plane compiled."""
        from repro.dataplane import UNABSORBED_FAULT, unabsorbed_faults
        from repro.faults import FailureDetector, FaultInjector

        net, _ = build_pair(switches=12)
        injector = FaultInjector(net)
        quiet = unabsorbed_faults(net)
        assert not any(quiet.values())
        assert self._agree(net) == []
        injector.crash_server(3, 1)  # liveness, not routing
        assert self._agree(net) == []

        injector.crash_switch(7)
        assert self._agree(net) == [UNABSORBED_FAULT]
        assert unabsorbed_faults(net) == dict(quiet, crashed_switches=[7])
        assert net.controller.absorb_failures([7]) == []
        assert not net.fault_state.switch_alive(7)  # absorbed, not revived
        assert self._agree(net) == []

        u, v, _ = net.topology.edges()[0]
        injector.link_down(u, v)
        assert self._agree(net) == [UNABSORBED_FAULT]
        assert unabsorbed_faults(net) == dict(
            quiet, down_links=[sorted((u, v))])
        injector.link_up(u, v)
        assert self._agree(net) == []
        injector.link_down(u, v)
        assert FailureDetector(net).repair().stranded_switches == []
        assert not net.topology.has_edge(u, v)
        net.fault_state.down_links.add((u, v))  # names no installed link
        assert self._agree(net) == []

        injector.partition([5, 6])
        assert self._agree(net) == [UNABSORBED_FAULT]
        assert unabsorbed_faults(net) == dict(
            quiet, partitioned_switches=[5, 6])
        injector.heal_partition()
        assert self._agree(net) == []
        net.fault_state = None
        assert self._agree(net) == []
        assert unabsorbed_faults(net) == quiet

    def test_custom_position_fn_gate(self):
        topology, _ = brite_waxman_graph(
            12, min_degree=3, rng=np.random.default_rng(0))
        servers_map = attach_uniform(topology.nodes(),
                                     servers_per_switch=2)
        net = GredNetwork(topology, servers_map, cvt_iterations=5,
                          seed=0, position_fn=lambda d: (0.5, 0.5))
        assert self._agree(net) == ["custom position_fn"]

    def test_new_gate_reaches_both_views(self, monkeypatch):
        """A gate appended to ``FASTPATH_GATES`` must flip the boolean
        and the reason list together — neither view hardcodes the
        conditions."""
        from repro.dataplane import fastpath

        extended = fastpath.FASTPATH_GATES + (
            (lambda net: True, "always blocked"),)
        monkeypatch.setattr(fastpath, "FASTPATH_GATES", extended)
        net, _ = build_pair(switches=12)
        assert self._agree(net) == ["always blocked"]


class TestBatchFrontDoor:
    """Batch arguments are validated before anything is stored or
    admitted, with the same error on every path — compiled, stood
    down under an attached fault state, and through the resilient
    wrapper (healthy, and stood down by a tripped breaker)."""

    IDS = ["fd/0", "fd/1", "fd/2"]
    BAD = [
        (dict(entry_switches=[0, 1]),
         "entry_switches has 2 entries for 3 data ids"),
        (dict(entry_switches=[0, 1, 2, 3]),
         "entry_switches has 4 entries for 3 data ids"),
        (dict(copies=0), "copies must be >= 1, got 0"),
    ]

    @staticmethod
    def _stack(kind):
        from repro.faults import FaultState
        from repro.resilience import ResilienceConfig

        if kind == "federated":
            from repro.controlplane import FederatedNetwork
            from repro.topology import federated_topology

            topology, assignment = federated_topology(
                2, 6, min_degree=2, seed=0)
            net = FederatedNetwork(
                topology, assignment=assignment, servers_per_switch=2,
                cvt_iterations=4, seed=0)
            return net, net
        net, _ = build_pair(switches=12)
        target = net
        if kind == "faulted":
            net.fault_state = FaultState()
        elif kind != "compiled":
            target = net.resilient(ResilienceConfig(enabled=True))
            if kind == "tripped":
                target.breakers.force_open(("switch", 999), 0.0)
        return net, target

    @staticmethod
    def _untouched(net, target):
        assert not any(net.load_vector())
        # (A federation has no write clock of its own.)
        assert getattr(net, "write_version", 0) == 0
        if target is not net:
            assert target.admission._tat == {}

    @pytest.mark.parametrize("kind", ["compiled", "faulted",
                                      "resilient", "tripped"])
    def test_bad_arguments_raise_before_any_side_effect(self, kind):
        from repro import GredError

        net, target = self._stack(kind)
        for kwargs, text in self.BAD + [
                (dict(payloads=[b"x"]),
                 "payloads has 1 entries for 3 data ids")]:
            with pytest.raises(GredError) as err:
                target.place_many(self.IDS, **kwargs)
            assert str(err.value) == text
            self._untouched(net, target)
        for kwargs, text in self.BAD:
            with pytest.raises(GredError) as err:
                target.retrieve_many(self.IDS, **kwargs)
            assert str(err.value) == text
            self._untouched(net, target)

    KINDS = ["compiled", "faulted", "resilient", "tripped", "federated"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_bare_string_ids_rejected(self, kind):
        """A bare string is not a batch of its characters."""
        from repro import GredError

        net, target = self._stack(kind)
        for call in (target.place_many, target.retrieve_many):
            for bare in ("ab", b"ab"):
                with pytest.raises(GredError) as err:
                    call(bare)
                assert str(err.value) == (
                    f"data_ids must be a sequence of identifiers, got "
                    f"the bare {type(bare).__name__} {bare!r}")
            self._untouched(net, target)

    @pytest.mark.parametrize("kind", KINDS)
    def test_non_integral_entries_raise_everywhere(self, kind):
        from repro import GredError

        net, target = self._stack(kind)
        first = net.switch_ids()[0]
        for bad in (1.0, "1", np.float64(2.0), [1]):
            for entries in ([first, bad, 2.5], (first, bad, first)):
                for call in (target.place_many, target.retrieve_many):
                    with pytest.raises(GredError) as err:
                        call(self.IDS, entry_switches=entries)
                    assert str(err.value) == \
                        f"entry switch must be an integer, got {bad!r}"
            self._untouched(net, target)
        with pytest.raises(GredError, match="integer, got 0.0"):
            target.retrieve_many(self.IDS,
                                 entry_switches=np.zeros(3))

    @pytest.mark.parametrize("kind", KINDS)
    def test_integer_entries_of_any_type_come_back_as_int(self, kind):
        """An ndarray (or numpy scalars) of entries gives the scalar
        call's results: plain ``int`` entry switches, JSON-ready."""
        import json

        net, target = self._stack(kind)
        switches = net.switch_ids()[:3]

        def unwrap(results):
            return [getattr(r, "result", r) for r in results]

        want = unwrap(target.place_many(self.IDS,
                                        entry_switches=switches))
        reads = unwrap(target.retrieve_many(self.IDS,
                                            entry_switches=switches))
        for entries in (np.asarray(switches), tuple(switches),
                        [np.int64(s) for s in switches]):
            placed = unwrap(target.place_many(
                self.IDS, entry_switches=entries))
            assert placed == want
            got = unwrap(target.retrieve_many(
                self.IDS, entry_switches=entries))
            assert got == reads
            for entry in [r.entry_switch for r in got] + [
                    record.entry_switch for result in placed
                    for record in result.records]:
                assert type(entry) is int
                json.dumps(entry)

    @pytest.mark.parametrize("kind", ["compiled", "resilient",
                                      "federated"])
    def test_scalar_calls_take_the_batch_entry_rule(self, kind):
        """``place`` / ``retrieve`` / ``delete`` take an entry the way
        the batch front door does: any integer type is the ``int``
        call (JSON-ready results), anything else raises the batch's
        text before any side effect — never shed, never an
        ``OverflowError`` from the route memo."""
        import json

        from repro import GredError

        net, target = self._stack(kind)
        calls = [lambda entry: target.place("fd/0", b"x",
                                            entry_switch=entry),
                 lambda entry: target.retrieve("fd/0", entry_switch=entry)]
        if hasattr(target, "delete"):
            calls.append(lambda entry: target.delete("fd/0",
                                                     entry_switch=entry))
        for bad in (1.0, "1", np.float64(2)):
            for call in calls:
                with pytest.raises(GredError) as err:
                    call(bad)
                assert str(err.value) == \
                    f"entry switch must be an integer, got {bad!r}"
            self._untouched(net, target)

        def outcome(call, entry):
            got = call(entry)
            got = getattr(got, "result", got)
            entries = ([] if isinstance(got, int) else
                       [got.entry_switch] if hasattr(got, "found") else
                       [record.entry_switch for record in got.records])
            for entry_switch in entries:
                assert type(entry_switch) is int
                json.dumps(entry_switch)
            return got

        assert 1 in net.switch_ids()
        want = [outcome(call, 1) for call in calls]
        assert want[1].found
        for entry in (np.int64(1), np.int32(1), True):
            assert [outcome(call, entry) for call in calls] == want

    @pytest.mark.parametrize("kind", ["compiled", "faulted",
                                      "federated"])
    def test_first_bad_entry_in_request_order_is_named(self, kind):
        """Entries are validated once per distinct value; which one a
        failure names is still decided by the request order."""
        from repro import GredError

        net, target = self._stack(kind)
        good = net.switch_ids()[0]
        bad = [(777, "unknown entry switch 777"),
               (555, "unknown entry switch 555")]
        if kind == "faulted":
            down = net.switch_ids()[1]
            net.fault_state.crashed_switches.add(down)
            bad[1] = (down, f"entry switch {down} has crashed; requests "
                            f"must enter at a live access point")
        for (first, text), (second, _) in (bad, bad[::-1]):
            for call in (target.place_many, target.retrieve_many):
                with pytest.raises(GredError) as err:
                    call(["fd/0", "fd/1", "fd/2", "fd/3", "fd/4"],
                         entry_switches=[good, first, good, second,
                                         first])
                assert str(err.value) == text
        self._untouched(net, target)

    @pytest.mark.parametrize("kind", ["compiled", "federated"])
    def test_mixed_none_entries_draw_like_the_loop(self, kind):
        """A ``None`` entry draws from ``rng`` where it stands in the
        request order, so a mixed column takes the per-item path."""
        _, target = self._stack(kind)
        _, twin = self._stack(kind)
        fixed = target.switch_ids()[2:4]
        ids = [f"fd/{i}" for i in range(6)]
        entries = [None, fixed[0], None, None, fixed[1], None]
        ours, theirs = (np.random.default_rng(9) for _ in range(2))
        got = target.retrieve_many(ids, entry_switches=entries, rng=ours)
        want = [twin.retrieve(data_id, entry_switch=entry, rng=theirs)
                for data_id, entry in zip(ids, entries)]
        assert got == want
        assert [r.entry_switch for r in got][1::3] == fixed
        assert ours.integers(1 << 30) == theirs.integers(1 << 30)

    @pytest.mark.parametrize("kind", ["compiled", "faulted"])
    @pytest.mark.parametrize("rows", [-1, 1])
    def test_misshapen_digests_rejected(self, kind, rows):
        from repro import GredError

        net, _ = self._stack(kind)
        good = net.prehash(self.IDS, copies=2)
        bad = np.resize(good, (len(good) + rows, 32))
        for call in (net.place_many, net.retrieve_many):
            with pytest.raises(GredError, match="digests must be"):
                call(self.IDS, copies=2, digests=bad)
        self._untouched(net, net)

    @pytest.mark.parametrize("kind", ["resilient", "tripped"])
    def test_resilient_priorities_length_checked(self, kind):
        from repro import GredError

        net, pipeline = self._stack(kind)
        for call in (pipeline.place_many, pipeline.retrieve_many):
            with pytest.raises(GredError) as err:
                call(self.IDS, priorities=[1, 2])
            assert str(err.value) == \
                "priorities has 2 entries for 3 data ids"
        self._untouched(net, pipeline)

    @pytest.mark.parametrize("kind", ["resilient", "tripped"])
    @pytest.mark.parametrize("deadline", [0.0, -1.0, float("nan"),
                                          float("inf")])
    def test_resilient_deadline_checked(self, kind, deadline):
        """``None`` takes the default; anything else must be a positive
        finite number of seconds — checked before a token is spent,
        with one error on the scalar and the batch calls."""
        net, pipeline = self._stack(kind)
        calls = [
            lambda: pipeline.place_many(self.IDS, deadline=deadline),
            lambda: pipeline.retrieve_many(self.IDS, deadline=deadline),
            lambda: pipeline.place("fd/0", b"x", deadline=deadline),
            lambda: pipeline.retrieve("fd/0", deadline=deadline)]
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == (
                f"deadline must be a positive, finite number of "
                f"seconds, got {deadline!r}")
            self._untouched(net, pipeline)


class TestPlaneDtypeInvariants:
    def test_compiled_plane_dtypes(self):
        net, _ = build_pair(switches=12)
        net.place_many([f"dt/{i}" for i in range(8)],
                       rng=np.random.default_rng(0))
        flat = net._fast_state().router._ensure_flat()
        for name in ("lookup_sid", "lookup_row", "sid", "ns", "kind",
                     "nid", "nrow", "chain_off", "chain_len", "chain_err",
                     "chain_sids"):
            assert getattr(flat, name).dtype == np.int64, name
        for name in ("ox", "oy", "cx", "cy"):
            assert getattr(flat, name).dtype == np.float64, name

    def test_dtype_violation_is_rejected(self):
        net, _ = build_pair(switches=12)
        net.destinations_for(["dt/x"])
        flat = net._fast_state().router._ensure_flat()
        good = flat.ns
        flat.ns = good.astype(np.uint64)
        try:
            with pytest.raises(AssertionError, match="ns must be int64"):
                flat._assert_invariants()
        finally:
            flat.ns = good
        flat._assert_invariants()


class TestPlaneSlots:
    """The wave plane keeps one row slot per switch across patches: a
    leaver's row is freed, a joiner reuses it, and every case routes a
    batch exactly as the scalar walker does."""

    @staticmethod
    def _router():
        net, _ = build_pair(switches=30)
        router = CompiledRouter(net.controller.switches)
        router._ensure_flat()
        return net, router, net.controller.version

    @staticmethod
    def _patch(net, router, version):
        switches = net.controller.switches
        touched = net.controller.changes_since(version)
        present = frozenset(s for s in touched if s in switches)
        router.patch(switches, present, frozenset(touched) - present)
        return net.controller.version

    @staticmethod
    def _batch_is_scalar(router, switches):
        """2,000 probes from every switch: the waves == ``route``,
        failures by their text."""
        ids = [f"slot/{i}" for i in range(2000)]
        digests = sha256_digests(ids)
        positions = positions_from_digests(digests)
        serials = serials_from_digests(digests)
        sids = sorted(switches)
        entries = [sids[i % len(sids)] for i in range(len(ids))]
        bound = router._default_max_hops
        got = router.route_batch_packed(
            np.asarray(entries, dtype=np.int64), positions[:, 0],
            positions[:, 1], serials, bound).materialize(ids, bound)
        for i, outcome in enumerate(got):
            try:
                want = router.route(entries[i], ids[i], positions[i, 0],
                                    positions[i, 1], int(serials[i]))
            except ForwardingError as err:
                assert str(outcome) == str(err)
            else:
                assert outcome == want

    def _check(self, net, router):
        flat = router._ensure_flat()
        self._batch_is_scalar(router, net.controller.switches)
        assert router.plane_builds == 1
        assert wave_plane(flat) == wave_plane(
            CompiledRouter(net.controller.switches)._ensure_flat())
        return flat

    def test_a_joiner_reuses_a_leavers_slot(self):
        net, router, version = self._router()
        leaver = net.switch_ids()[5]
        row = router._flat.slot[leaver]
        net.remove_switch(leaver)
        version = self._patch(net, router, version)
        flat = self._check(net, router)
        assert leaver not in flat.slot and flat.free == [row]
        assert (flat.kind[row] == 2).all() and flat.sid[row] == -1
        net.add_switch(500, net.switch_ids()[:3], servers_per_switch=2)
        self._patch(net, router, version)
        flat = self._check(net, router)
        assert flat.slot[500] == row and flat.free == []

    def test_an_id_that_leaves_and_rejoins_before_a_batch(self):
        net, router, version = self._router()
        switch = net.switch_ids()[7]
        row = router._flat.slot[switch]
        links = sorted(net.topology.neighbors(switch))[:3]
        net.remove_switch(switch)
        net.add_switch(switch, links, servers_per_switch=3)
        self._patch(net, router, version)
        flat = self._check(net, router)
        assert flat.slot[switch] == row and flat.free == []

    def test_a_joiner_wider_than_the_padding(self):
        net, router, version = self._router()
        width = router._flat.kind.shape[1]
        net.add_switch(500, net.switch_ids()[:width + 4],
                       servers_per_switch=2)
        self._patch(net, router, version)
        flat = self._check(net, router)
        assert flat.kind.shape[1] > width
        assert len(router._states[500].cands) == flat.kind.shape[1]

    def test_a_stale_candidate_toward_a_freed_slot_fails_closed(self):
        """A patch naming only the leaver leaves its neighbours' rows
        listing it: their cells toward it read ``nrow == -1``, so the
        waves hand those requests to the walker, which raises.  When
        the id comes back, the same cells point at its new row."""
        net, router, _ = self._router()
        leaver = net.switch_ids()[5]
        router.patch(net.controller.switches, (), {leaver})
        flat = router._ensure_flat()
        stale = flat.nid == leaver
        assert stale.any() and (flat.nrow[stale] == -1).all()
        self._batch_is_scalar(router, router._states)
        router.patch(net.controller.switches, {leaver})
        flat = self._check(net, router)
        assert (flat.nrow[stale] == flat.slot[leaver]).all()

    def test_a_failed_chain_cell_resolves_once_repaired(self):
        """A failure is not cached, so no later patch can prune it: the
        sync re-resolves every flagged cell, and the cell of a relay
        chain repaired out of its source's sight carries its run again."""
        net, router, _ = self._router()
        flat = router._flat
        cells = zip(*np.nonzero((flat.kind == 1) & (flat.chain_len > 1)))
        r, c = next(cells)
        source, dest = int(flat.sid[r]), int(flat.nid[r, c])
        relay = router._chain(source, dest)[0][0]
        table = net.controller.switches[relay].table
        entry = table.virtual_entry(dest)
        table.remove_virtual(dest)
        router.patch(net.controller.switches, {relay})
        assert router._ensure_flat().chain_err[r, c]
        table.install_virtual(entry)
        router.patch(net.controller.switches, {relay})
        assert not self._check(net, router).chain_err[r, c]


class TestRouteCacheEviction:
    def test_stats_cache_follows_route_lru(self, monkeypatch):
        """The route LRU honours its cap, and every surviving entry
        still carries the decision mix recorded when it was walked."""
        import repro.core.network as core_network

        monkeypatch.setattr(core_network, "_ROUTE_CACHE_CAP", 32)
        net, _ = build_pair(switches=20)
        for _ in range(2):  # the first sighting marks, the second admits
            net.place_many([f"cap/{i}" for i in range(300)],
                           rng=np.random.default_rng(0), copies=2)
        memo = net._fastpath.routes
        assert 0 < len(memo) <= 32
        for key in memo:
            trace, overlay, _, _, (greedy, vl, relays) = memo.get(*key, 0)
            assert greedy + vl == overlay
            assert len(trace) - 1 == overlay + relays


def loop_twin(reference_engine, build, calls):
    """``calls`` on a network whose batches may ride the compiled
    bodies and on its twin served by the scalar loop (pinned):
    ``(got, want, net)`` where each side is results or exception
    texts, per-server items in insertion order, registry minus the
    engine-specific series, demand map, and the durable state (write
    clock, stamps, tombstones, hints)."""
    sides = []
    for net in (build(), reference_engine(build())):
        sides.append((observe(net, calls)[:4], durable_state(net)))
    return sides[0], sides[1], net


class TestGroupedStore:
    """The postures the grouped store serves — bounded-but-roomy
    servers, installed extensions, an attached fault state — each
    against the scalar loop."""

    def test_roomy_bounded_servers_ride_the_grouped_store(
            self, reference_engine, store_many_calls):
        """Bounded servers no longer decline the batch while the room
        check passes for every target's whole group."""
        topology, _ = brite_waxman_graph(
            16, min_degree=3, rng=np.random.default_rng(2))

        def build():
            servers_map = attach_uniform(topology.nodes(),
                                         servers_per_switch=2,
                                         capacity=100)
            return GredNetwork(topology, servers_map,
                               cvt_iterations=8, seed=2)

        ids = [f"cap/{i}" for i in range(80)]
        got, want, _ = loop_twin(reference_engine, build, [
            lambda net: net.place_many(ids, payloads=list(ids),
                                       rng=np.random.default_rng(3))])
        assert got == want
        assert store_many_calls
        assert len(got[0][0][0]) == len(ids)  # results, not an error

    @staticmethod
    def _extended(extensions, switches=20):
        """Serial 0 of ``extensions`` switches offloads to a neighbor
        — the first switch excepted, so that a takeover server can
        still be the home of its own deliveries."""
        def build():
            net = build_pair(switches=switches)[0]
            for switch in net.switch_ids()[1:extensions + 1]:
                net.extend_range(switch, 0)
            return net
        return build

    def test_extensions_ride_the_grouped_store_and_match_scalar(
            self, reference_engine, store_many_calls):
        """Installed extensions no longer decline the batch: the
        records say ``extended`` with the extra hops to the takeover
        switch, and the rewrite counter matches the loop's."""
        ids = [f"ext/{i}" for i in range(120)]
        got, want, _ = loop_twin(
            reference_engine, self._extended(1), [
                lambda net: net.place_many(
                    ids, copies=2, rng=np.random.default_rng(4))])
        assert got == want
        assert store_many_calls
        (outcomes, _, instruments, _), _ = got
        redirected = [record for result in outcomes[0]
                      for record in result.records if record.extended]
        assert redirected
        for record in redirected:
            assert record.server_id[0] != record.destination_switch
            assert record.physical_hops > len(record.trace) - 1
        assert instruments[
            ("counters", "dataplane.extension_rewrites", ())
        ]["value"] == len(redirected)

    def test_shared_target_keeps_the_loops_insertion_order(
            self, reference_engine, store_many_calls):
        """An extension redirects one delivery into a server that is
        also the home of another delivery of the same batch: stores
        are grouped by *target server* (not by delivery), so that
        server's items keep the order the loop inserts them in."""
        ids = [f"trap/{i}" for i in range(200)]
        got, want, net = loop_twin(reference_engine, self._extended(7), [
            lambda net: net.place_many(
                ids, payloads=[{"item": d} for d in ids], copies=2,
                rng=np.random.default_rng(4))])
        assert got == want
        assert store_many_calls
        origin = {record.data_id: record.extended
                  for result in got[0][0][0] for record in result.records}
        shared = [
            [origin[item] for item, _ in items]
            for _, items in got[0][1]
            if len({origin[item] for item, _ in items}) == 2]
        # The trap is live: some server took redirected and native
        # copies interleaved, which grouping by delivery would reorder.
        assert any(flags != sorted(flags) and
                   flags != sorted(flags, reverse=True)
                   for flags in shared)

    def test_unusable_takeover_still_counts_the_rewrite(
            self, reference_engine, store_many_calls):
        """The engine counts the rewrite at delivery whether or not
        the extension is then usable.  Entries toward a switch that
        crashed and was absorbed (hand-installed: the controller
        withdraws its own) are found unusable by ``_serving`` — the
        home server serves, ``extended`` is false — and
        ``dataplane.extension_rewrites`` still matches the loop's."""
        def build():
            net = build_pair(switches=20)[0]
            gone = net.switch_ids()[0]
            FaultInjector(net).crash_switch(gone)
            net.controller.absorb_failures([gone])
            for switch in net.switch_ids()[:6]:
                net.controller.switches[switch].table.install_extension(
                    ExtensionEntry(local_serial=0, target_switch=gone,
                                   target_serial=0))
            return net

        ids = [f"dead/{i}" for i in range(200)]
        entries = [build().switch_ids()[i % 5] for i in range(200)]
        got, want, _ = loop_twin(reference_engine, build, [
            lambda net: net.place_many(ids, entry_switches=entries,
                                       copies=2)])
        assert got == want
        assert store_many_calls
        (outcomes, _, instruments, _), _ = got
        assert not any(record.extended for result in outcomes[0]
                       for record in result.records)
        assert instruments[
            ("counters", "dataplane.extension_rewrites", ())]["value"] > 0

    def test_absorbed_faults_ride_the_grouped_store_stamped(
            self, reference_engine, store_many_calls):
        """A fault state with every crash absorbed no longer declines:
        the grouped store takes the stamps the loop would take — one
        per item in request order, shared by the item's copies."""
        def build():
            net = build_pair(switches=20)[0]
            injector = FaultInjector(net)
            for victim in net.switch_ids()[3:5]:
                injector.crash_switch(victim)
            net.controller.absorb_failures(net.switch_ids()[3:5])
            net.place("warm/0", entry_switch=net.switch_ids()[0])
            return net

        ids = [f"st/{i}" for i in range(150)]
        entries = [build().switch_ids()[i % 7] for i in range(150)]
        got, want, net = loop_twin(reference_engine, build, [
            lambda net: net.place_many(ids, payloads=list(ids),
                                       entry_switches=entries,
                                       copies=2)])
        assert got == want
        assert store_many_calls
        assert all(stamps is not None for _, stamps in store_many_calls)
        assert net.write_version == 1 + len(ids)
        for i, result in enumerate(got[0][0][0]):
            for record in result.records:
                assert net.server(*record.server_id).stamp_of(
                    record.data_id) == (2 + i, entries[i])

    def test_grouped_payloads_land_on_the_right_replica(self):
        net, _ = build_pair(switches=20)
        ids = [f"pay/{i}" for i in range(60)]
        payloads = [{"item": d} for d in ids]
        net.place_many(ids, payloads=payloads, copies=3,
                       rng=np.random.default_rng(5))
        results = net.retrieve_many(ids,
                                    rng=np.random.default_rng(6))
        for data_id, result in zip(ids, results):
            assert result.found
            assert result.payload == {"item": data_id}


class TestGroupedProbe:
    """Every round of ``retrieve_many`` is one grouped probe — one
    resolution and one bulk lookup per distinct delivery — and stays
    the scalar ``retrieve`` loop on the reference engine: records,
    registry and demand map byte-equal."""

    @staticmethod
    def _read(reference_engine, build, ids, copies, **kwargs):
        """``(results, instruments)`` of one read batch over a spread
        of entries, asserted equal to its scalar twin's."""
        switches = build().switch_ids()
        entries = [switches[i % 9] for i in range(len(ids))]
        got, want, _ = loop_twin(reference_engine, build, [
            lambda net: net.retrieve_many(
                ids, entry_switches=entries, copies=copies, **kwargs)])
        assert got == want
        (outcomes, _, instruments, _), _ = got
        return outcomes[0], instruments

    @staticmethod
    def _extended(before, after, copies=2, fault_state=False):
        """``before`` placed, serial 0 of six switches extended, then
        ``after`` placed (onto the takeover servers where redirected):
        both servers of a forked delivery hold items."""
        def build():
            net = build_pair(switches=20)[0]
            if fault_state:
                FaultInjector(net)
            net.place_many(before, payloads=list(before), copies=copies,
                           rng=np.random.default_rng(1))
            for switch in net.switch_ids()[1:7]:
                net.extend_range(switch, 0)
            net.place_many(after, payloads=[{"item": d} for d in after],
                           copies=copies, rng=np.random.default_rng(2))
            return net
        return build

    def test_home_takeover_miss_and_never_placed_in_one_batch(
            self, reference_engine):
        old = [f"old/{i}" for i in range(150)]
        new = [f"new/{i}" for i in range(150)]
        extended = self._extended(old, new)

        def build():
            net = extended()
            for data_id in old[::5]:
                net.delete(data_id, copies=2)
            for data_id in new[::5]:
                net.delete(data_id)  # copy 0 only: copy 1 answers
            return net

        ids = [d for trio in zip(old, new, (f"never/{i}"
                                            for i in range(150)))
               for d in trio]
        results, _ = self._read(reference_engine, build, ids, 2)
        hits = [r for r in results if r.found]
        at_home = [r for r in hits
                   if r.server_id[0] == r.destination_switch]
        at_takeover = [r for r in hits
                       if r.server_id[0] != r.destination_switch]
        assert [r for r in at_home if r.forked]
        assert [r for r in at_home if not r.forked]
        assert at_takeover and all(r.forked for r in at_takeover)
        for r in at_takeover:
            assert r.request_hops > len(r.trace) - 1
        assert [r for r in hits if r.attempts == 2]
        assert sum(not r.found for r in results) == 150 + 30
        assert {type(r.copy_used) for r in results} == {int}

    @pytest.mark.parametrize("copies", [2, 3])
    @pytest.mark.parametrize("down", ["home", "takeover"])
    def test_dead_server_is_skipped_like_the_loop(
            self, reference_engine, down, copies):
        """Under an attached fault state one server of each forked
        delivery is unreachable with its disk intact: only the
        liveness rule keeps a read from finding what it holds."""
        ids = [f"live/{i}" for i in range(240)]
        extended = self._extended(ids[:120], ids[120:], copies, True)
        dead = set()

        def build():
            net = extended()
            for switch in net.switch_ids()[1:7]:
                entry = net.controller.switches[switch] \
                    .table.extension_for(0)
                dead.add((switch, 0) if down == "home" else (
                    entry.target_switch, entry.target_serial))
            net.fault_state.crashed_servers.update(dead)
            return net

        results, _ = self._read(reference_engine, build, ids, copies)
        assert sum(build().server(*sid).load for sid in dead) > 0
        assert not any(r.server_id in dead for r in results)
        assert [r for r in results if r.found and r.attempts > 1]
        assert [r for r in results if r.found and r.forked]

    def test_route_failures_interleave_with_deliveries(
            self, reference_engine):
        ids = [f"hop/{i}" for i in range(200)]

        def build():
            net = build_pair(switches=20)[0]
            net.place_many(ids, payloads=list(ids), copies=2,
                           rng=np.random.default_rng(1))
            return net

        results, instruments = self._read(
            reference_engine, build, ids, 2, max_hops=1)
        failures = instruments[
            ("counters", "faults.route_failures", ())]["value"]
        assert 0 < failures < 2 * len(ids)
        assert [r for r in results if r.found and r.attempts == 2]
        # Every probe of these died in routing; others missed nothing.
        assert [r for r in results if r.destination_switch is None]
        assert [r for r in results if r.found and r.attempts == 1]

    def test_departed_takeover_counts_as_not_installed(
            self, reference_engine):
        """Entries toward a switch that has left (hand-installed: the
        controller withdraws its own) are unusable: the home server
        answers, nothing forks, the rewrite is still counted."""
        ids = [f"left/{i}" for i in range(200)]

        def build():
            net = build_pair(switches=20)[0]
            net.place_many(ids, payloads=list(ids), copies=2,
                           rng=np.random.default_rng(1))
            gone = net.switch_ids()[0]
            net.remove_switch(gone)
            for switch in net.switch_ids()[:6]:
                net.controller.switches[switch].table.install_extension(
                    ExtensionEntry(local_serial=0, target_switch=gone,
                                   target_serial=0))
            return net

        results, instruments = self._read(reference_engine, build, ids, 2)
        assert all(r.found and not r.forked for r in results)
        assert instruments[
            ("counters", "dataplane.extension_rewrites", ())]["value"] > 0

    def test_resolved_once_per_delivery_and_once_per_entry(
            self, monkeypatch):
        """A 10,000-item read batch resolves each distinct delivery
        and validates each distinct entry once, and never takes the
        scalar probe step."""
        from collections import Counter

        net, _ = build_pair(switches=20)
        switches = net.switch_ids()
        ids = [f"many/{i}" for i in range(10_000)]
        entries = [switches[i % 7] for i in range(len(ids))]
        net.place_many(ids[::2], entry_switches=entries[::2])
        calls = Counter()
        for name in ("_serving", "_resolve_entry", "_probe"):
            def counting(self, *args, _name=name,
                         _real=getattr(GredNetwork, name)):
                calls[_name] += 1
                return _real(self, *args)
            monkeypatch.setattr(GredNetwork, name, counting)
        results = net.retrieve_many(ids, entry_switches=entries)
        assert sum(r.found for r in results) == len(ids) // 2
        deliveries = {(r.destination_switch, server_index(r.data_id, 3))
                      for r in results}
        assert len(deliveries) < 61
        assert calls == {"_serving": len(deliveries),
                         "_resolve_entry": 7}


class TestReplicaOrders:
    def test_ties_and_near_ties_take_the_exact_path(self, monkeypatch):
        """The one-pass replica ranking trusts only a clear order: a
        row with an exact tie, or two replicas 1e-12 apart, is ranked
        by the scalar rule (ties by copy index)."""
        net, _ = build_pair(switches=12)
        entries = net.switch_ids()[:4] * 3
        positions = np.random.default_rng(0).random(
            (len(entries), 3, 2))
        positions[1, 2] = positions[1, 0]
        positions[4, 1] = positions[4, 2]
        positions[7, 1] = positions[7, 0] + (1e-12, 0.0)
        positions[9, 2] = positions[9, 1] - (0.0, 1e-12)
        exact = [net._nearest_first(entry, positions[i].tolist())
                 for i, entry in enumerate(entries)]
        assert exact[1].index(0) + 1 == exact[1].index(2)
        assert exact[4].index(1) + 1 == exact[4].index(2)
        sent = []
        real = net._nearest_first
        monkeypatch.setattr(
            net, "_nearest_first", lambda entry, row:
            sent.append((entry, row)) or real(entry, row))
        orders = net._replica_orders(
            entries, positions.reshape(-1, 2), 3)
        assert orders.tolist() == exact
        assert sent == [(entries[i], positions[i].tolist())
                        for i in (1, 4, 7, 9)]

    def test_batch_order_is_the_scalar_order(self):
        net, _ = build_pair(switches=16)
        ids = [f"order/{i}" for i in range(300)]
        switches = net.switch_ids()
        entries = [switches[i % 11] for i in range(len(ids))]
        for copies in (1, 2, 4):
            positions = data_positions(
                [replica_id(d, c) for d in ids for c in range(copies)])
            assert net._replica_orders(
                entries, positions, copies).tolist() == [
                net.replica_order(d, copies, e)
                for d, e in zip(ids, entries)]
        assert net._replica_orders([], np.empty((0, 2)), 3).shape == \
            (0, 3)


class TestDifferentialProperties:
    """S4: randomized differential sweep — for random topologies,
    batch sizes and replica counts, the vectorized batch pipeline is
    byte-identical to the scalar reference loop."""

    @given(
        seed=st.integers(min_value=0, max_value=50),
        switches=st.integers(min_value=8, max_value=26),
        batch=st.integers(min_value=1, max_value=48),
        copies=st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=8, deadline=None)
    def test_batch_pipeline_matches_scalar_reference(
            self, reference_engine, seed, switches, batch, copies):
        topology, _ = brite_waxman_graph(
            switches, min_degree=3, rng=np.random.default_rng(seed))

        def build():
            servers_map = attach_uniform(topology.nodes(),
                                         servers_per_switch=2)
            return GredNetwork(topology, servers_map,
                               cvt_iterations=4, seed=seed)

        scalar, vector = build(), build()
        reference_engine(scalar)
        ids = [f"d{seed}/{i}" for i in range(batch)]
        r1, r2 = (np.random.default_rng(seed + 1) for _ in range(2))
        expected = [scalar.place(d, payload=(d, seed), copies=copies,
                                 rng=r1) for d in ids]
        got = vector.place_many(ids, payloads=[(d, seed) for d in ids],
                                copies=copies, rng=r2)
        assert got == expected
        assert scalar.load_vector() == vector.load_vector()
        probe = [d for pair in zip(
            ids, (f"m{seed}/{i}" for i in range(batch)))
            for d in pair]
        r1, r2 = (np.random.default_rng(seed + 2) for _ in range(2))
        want = [scalar.retrieve(d, copies=copies, max_hops=6, rng=r1)
                for d in probe]
        assert vector.retrieve_many(probe, copies=copies, max_hops=6,
                                    rng=r2) == want
