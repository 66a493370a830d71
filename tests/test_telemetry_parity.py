"""Differential check: the vectorized batch telemetry plane — and the
scalar requests that ride the compiled plane — must produce aggregates
*identical* to a scalar-oracle run on the reference engine: same
instruments created, same counter/gauge values, same histogram state
(including reservoir order), same demand map."""

import numpy as np
import pytest

from repro import GredNetwork, attach_uniform, brite_waxman_graph
from repro.obs import MetricsRegistry, set_default_registry


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
    extras (``dataplane.batch.*`` counts waves/requests the scalar
    path has no notion of; ``dataplane.scalar_standdowns`` counts the
    oracle's own pin to the reference engine)."""
    out = {}
    for kind in ("counters", "gauges", "histograms"):
        items = {}
        for entry in dump[kind]:
            if entry["name"].startswith(("dataplane.batch.",
                                         "dataplane.scalar_standdowns")):
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


class TestMidBatchFailureParity:
    """A batch that dies mid-way (a bounded server fills up) raises
    what the scalar loop raises, has stored the same prefix in the
    same order, and has reported the same registry — the one flush
    runs on every exit."""

    @staticmethod
    def _run(net, batch: bool):
        from repro.edge import StorageFull

        ids = [f"full/{i}" for i in range(300)]
        entry = net.switch_ids()[0]
        registry = MetricsRegistry(enabled=True)
        previous = set_default_registry(registry)
        try:
            with pytest.raises(StorageFull) as failure:
                if batch:
                    net.place_many(ids, payloads=ids,
                                   entry_switches=[entry] * len(ids))
                else:
                    for data_id in ids:
                        net.place(data_id, payload=data_id,
                                  entry_switch=entry)
        finally:
            set_default_registry(previous)
        stored = {server.server_id: server.stored_ids()
                  for server in net.servers()}
        return (str(failure.value), stored,
                _normalize(registry.to_dict(include_events=False)))

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

        reference = self._run(reference_engine(build()), False)
        text, stored, dump = reference
        placed = sum(len(ids) for ids in stored.values())
        assert 0 < placed < 300
        assert dump["counters"][("core.places", ())]["value"] == placed
        assert dump["counters"][
            ("dataplane.requests_routed", (("kind", "placement"),))
        ]["value"] == placed + 1
        assert self._run(build(), False) == reference
        assert self._run(build(), True) == reference
