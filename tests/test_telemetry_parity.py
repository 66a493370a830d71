"""Differential check: the vectorized batch telemetry plane — and the
scalar requests that ride the compiled plane — must produce aggregates
*identical* to a scalar-oracle run on the reference engine: same
instruments created, same counter/gauge values, same histogram state
(including reservoir order), same demand map."""

import numpy as np
import pytest

from repro import GredError, GredNetwork, attach_uniform, brite_waxman_graph
from repro.dataplane import ForwardingError
from repro.edge import StorageFull
from repro.faults import FaultInjector
from repro.obs import MetricsRegistry, default_registry, set_default_registry
from test_route_stage import durable_state


def _build(seed=0, switches=24, servers=2):
    topology, _ = brite_waxman_graph(
        switches, min_degree=3, rng=np.random.default_rng(seed))
    servers_map = attach_uniform(topology.nodes(),
                                 servers_per_switch=servers)
    return GredNetwork(topology, servers_map, cvt_iterations=8,
                       seed=seed)


def _workload(net, batch: bool):
    """The shared workload: placements with extensions active, a
    probe mix with misses, a cache-hit replay pass, and a tight hop
    budget that forces route failures."""
    sids = net.switch_ids()
    net.extend_range(sids[0], 0)
    net.extend_range(sids[1], 0)
    registry = MetricsRegistry(enabled=True)
    previous = set_default_registry(registry)
    try:
        ids = [f"eq/{i}" for i in range(120)]
        probe = [d for pair in zip(ids, (f"miss/{i}"
                                         for i in range(len(ids))))
                 for d in pair]
        if batch:
            net.place_many(ids, payloads=[{"k": d} for d in ids],
                           rng=np.random.default_rng(3), copies=2)
            net.retrieve_many(probe, copies=2,
                              rng=np.random.default_rng(6))
            # cache hits must replay identical telemetry
            net.retrieve_many(ids, copies=2,
                              rng=np.random.default_rng(7))
            # tight hop budget: partial decision counts on failures
            net.retrieve_many(ids, max_hops=2,
                              rng=np.random.default_rng(8))
        else:
            rng = np.random.default_rng(3)
            for data_id in ids:
                net.place(data_id, payload={"k": data_id}, copies=2,
                          rng=rng)
            rng = np.random.default_rng(6)
            for data_id in probe:
                net.retrieve(data_id, copies=2, rng=rng)
            rng = np.random.default_rng(7)
            for data_id in ids:
                net.retrieve(data_id, copies=2, rng=rng)
            rng = np.random.default_rng(8)
            for data_id in ids:
                net.retrieve(data_id, max_hops=2, rng=rng)
        return registry.to_dict(include_events=False)
    finally:
        set_default_registry(previous)


def _normalize(dump):
    """Key instruments by (name, labels); drop the engine-specific
    extras (``dataplane.batch.*`` counts waves/requests and
    ``dataplane.plane.*`` the wave plane's row and chain syncs, which
    the scalar path has no notion of; ``dataplane.scalar_standdowns``
    counts the oracle's own pin to the reference engine and
    ``dataplane.fastpath_standdowns`` the batches that ran its loop)."""
    out = {}
    for kind in ("counters", "gauges", "histograms"):
        items = {}
        for entry in dump[kind]:
            if entry["name"].startswith(("dataplane.batch.",
                                         "dataplane.plane.",
                                         "dataplane.scalar_standdowns",
                                         "dataplane.fastpath_standdowns")):
                continue
            key = (entry["name"],
                   tuple(sorted(entry["labels"].items())))
            items[key] = {k: v for k, v in entry.items()
                          if k not in ("name", "labels")}
        out[kind] = items
    out["demand"] = dump.get("demand")
    return out


class TestBatchScalarTelemetryParity:
    @pytest.fixture(scope="class")
    def dumps(self, reference_engine):
        scalar = _normalize(_workload(reference_engine(_build()),
                                      batch=False))
        batch = _normalize(_workload(_build(), batch=True))
        return scalar, batch

    def test_compiled_scalar_matches_reference(self, dumps):
        """Scalar requests on the compiled plane (a batch of one per
        request) leave the registry byte-equal to the oracle's."""
        scalar, _ = dumps
        assert _normalize(_workload(_build(), batch=False)) == scalar

    def test_same_instruments_created(self, dumps):
        scalar, batch = dumps
        for kind in ("counters", "gauges", "histograms"):
            assert set(scalar[kind]) == set(batch[kind]), kind

    def test_counters_and_gauges_identical(self, dumps):
        scalar, batch = dumps
        for kind in ("counters", "gauges"):
            for key in scalar[kind]:
                assert scalar[kind][key] == batch[kind][key], key

    def test_histograms_identical_including_reservoirs(self, dumps):
        scalar, batch = dumps
        for key in scalar["histograms"]:
            assert scalar["histograms"][key] == \
                batch["histograms"][key], key

    def test_demand_map_identical(self, dumps):
        scalar, batch = dumps
        assert scalar["demand"] == batch["demand"]

    def test_engine_aggregates_are_present(self, dumps):
        scalar, _ = dumps
        names = {key[0] for key in scalar["counters"]}
        assert {"dataplane.deliveries", "dataplane.greedy_forwards",
                "dataplane.vl_starts", "dataplane.requests_routed",
                "dataplane.extension_rewrites"} <= names
        hist_names = {key[0] for key in scalar["histograms"]}
        assert "dataplane.hops_per_request" in hist_names
        assert "dataplane.overlay_hops_per_request" in hist_names


class TestFastPathStaysFast:
    def test_telemetry_does_not_force_scalar_fallback(self):
        from repro.dataplane import batch_fastpath_blockers

        net = _build()
        registry = MetricsRegistry(enabled=True)
        previous = set_default_registry(registry)
        try:
            assert batch_fastpath_blockers(net) == []
            ids = [f"fp/{i}" for i in range(64)]
            net.place_many(ids, rng=np.random.default_rng(1))
            net.retrieve_many(ids, rng=np.random.default_rng(2))
            waves = registry.counter_values("dataplane.batch.")
            assert waves.get("dataplane.batch.waves", 0) > 0
            assert waves.get("dataplane.batch.requests", 0) >= len(ids)
        finally:
            set_default_registry(previous)

    def test_standdown_reasons_are_counted(self):
        """One count per stood-down batch, under the gate's reason:
        none for an attached-but-empty or an absorbed fault state
        (those batches ride the waves), one per batch while a crashed
        switch, a down link or a partition touches the plane."""
        from repro.faults import FaultInjector

        net = _build()
        injector = FaultInjector(net)
        u, v, _ = net.topology.edges()[0]
        label = ("dataplane.fastpath_standdowns"
                 "{reason=unabsorbed_routing_fault}")
        registry = MetricsRegistry(enabled=True)
        previous = set_default_registry(registry)
        try:
            ids = [f"sd/{i}" for i in range(128)]
            rng = np.random.default_rng(1)

            def standdowns():
                # (Reads: a degraded route that fails is a miss, not a
                # mid-batch raise.)
                net.retrieve_many(ids, rng=rng)
                return registry.counter_values(
                    "dataplane.fastpath_standdowns")

            assert standdowns() == {}
            waves = registry.counter("dataplane.batch.waves").value
            assert waves > 0
            for count, (inject, clear) in enumerate((
                    (lambda: injector.crash_switch(9),
                     lambda: net.controller.absorb_failures([9])),
                    (lambda: injector.link_down(u, v),
                     lambda: injector.link_up(u, v)),
                    (lambda: injector.partition([4, 5]),
                     injector.heal_partition)), start=1):
                inject()
                assert standdowns() == {label: count}
                clear()
                assert standdowns() == {label: count}
            # Every cleared batch was vectorized again (the absorbed
            # crash patched the plane, so fresh routes were walked).
            assert registry.counter("dataplane.batch.waves").value > waves
        finally:
            set_default_registry(previous)


def _unroutable(net, victim, room):
    # The victim's delivery switch loses its servers behind the
    # plane's back: its route fails.
    net.controller.switches[victim.destination_switch].num_servers = 0
    net._fastpath = None


def _crashed_target(net, victim, room):
    FaultInjector(net).crash_server(*victim.server_id)


def _one_slot_short(net, victim, room):
    net.server(*victim.server_id).capacity = room - 1


#: decline reason -> what makes one copy of the batch fail.
DECLINES = {"route_failed": _unroutable, "target_down": _crashed_target,
            "target_full": _one_slot_short}


class TestMidBatchFailureParity:
    """A batch that could die mid-way (a bounded server fills up, a
    copy cannot route, a target server is down) is declined by the
    compiled body before any side effect and served by the scalar
    loop: it raises what the loop raises, has stored and stamped the
    same prefix in the same order, and has reported the same
    registry."""

    @staticmethod
    def _run(net, batch: bool, ids=None, copies=1):
        """``(outcome, registry)``: results or exception text, the
        durable state and the normalized registry of the run — and the
        raw registry it reported to."""
        ids = ids or [f"full/{i}" for i in range(300)]
        entry = net.switch_ids()[0]
        registry = MetricsRegistry(enabled=True)
        previous = set_default_registry(registry)
        try:
            if batch:
                results = net.place_many(
                    ids, payloads=ids, copies=copies,
                    entry_switches=[entry] * len(ids))
            else:
                results = [net.place(data_id, payload=data_id,
                                     entry_switch=entry, copies=copies)
                           for data_id in ids]
        except (GredError, ForwardingError, StorageFull) as failure:
            results = (type(failure).__name__, str(failure))
        finally:
            set_default_registry(previous)
        return (results, durable_state(net), _normalize(
            registry.to_dict(include_events=False))), registry

    @staticmethod
    def _bounded(extensions):
        topology, _ = brite_waxman_graph(
            20, min_degree=3, rng=np.random.default_rng(0))
        servers = attach_uniform(topology.nodes(),
                                 servers_per_switch=2, capacity=3)
        net = GredNetwork(topology, servers, cvt_iterations=8, seed=0)
        for switch in net.switch_ids()[:extensions]:
            net.extend_range(switch, 0)
        return net

    @pytest.mark.parametrize("extensions", [0, 6])
    def test_storage_full_three_way(self, reference_engine, extensions):
        def build():
            return self._bounded(extensions)

        reference, _ = self._run(reference_engine(build()), False)
        (kind, _), (_, stored), dump = reference
        assert kind == "StorageFull"
        placed = sum(len(items) for _, items, _, _ in stored)
        assert 0 < placed < 300
        assert dump["counters"][("core.places", ())]["value"] == placed
        assert dump["counters"][
            ("dataplane.requests_routed", (("kind", "placement"),))
        ]["value"] == placed + 1
        assert self._run(build(), False)[0] == reference
        assert self._run(build(), True)[0] == reference

    @pytest.mark.parametrize("hinted", [False, True],
                             ids=["raise", "hint"])
    @pytest.mark.parametrize("reason", sorted(DECLINES))
    def test_declined_batch_is_the_loop(self, reference_engine,
                                        monkeypatch, store_many_calls,
                                        reason, hinted):
        """The decline matrix: the compiled body stores, stamps and
        tallies nothing (``store_many`` is never called; at the first
        scalar ``place`` the write clock, the servers and the shared
        registry series are untouched), says why once, and the loop's
        outcome follows exactly — mid-batch raise or hinted records."""
        ids = [f"dec/{i}" for i in range(160)]
        probe = _build(switches=20)
        victim = self._run(probe, True, ids, 2)[0][0][80].records[1]
        room = probe.server(*victim.server_id).load

        def build():
            net = _build(switches=20)
            if reason != "target_down":
                FaultInjector(net)  # stamps and hints need a state
            net.hinted_handoff = hinted
            DECLINES[reason](net, victim, room)
            return net

        reference, _ = self._run(reference_engine(build()), False, ids, 2)
        prefix = sum(len(items) for _, items, _, _ in reference[1][1])
        if reason == "target_full" or not hinted:
            assert reference[0][0] in ("StorageFull", "GredError",
                                       "ForwardingError")
            assert 0 < prefix < 2 * len(ids)
        else:
            assert any(record.hinted for result in reference[0]
                       for record in result.records)
        assert self._run(build(), False, ids, 2)[0] == reference

        at_decline = []
        scalar_place = GredNetwork.place

        def place(net, *args, **kwargs):
            if not at_decline:
                at_decline.append((durable_state(net), _normalize(
                    default_registry().to_dict(include_events=False))))
            return scalar_place(net, *args, **kwargs)

        monkeypatch.setattr(GredNetwork, "place", place)
        store_many_calls.clear()  # the probe's healthy batch made some
        got, registry = self._run(build(), True, ids, 2)
        assert got == reference
        assert not store_many_calls
        durable, shared = at_decline[0]
        assert durable == durable_state(build())
        assert not any(shared[kind] for kind in
                       ("counters", "gauges", "histograms"))
        assert shared["demand"]["total"] == 0
        assert registry.counter_values(
            "dataplane.fastpath_standdowns") == {
                f"dataplane.fastpath_standdowns{{reason={reason}}}": 1}
