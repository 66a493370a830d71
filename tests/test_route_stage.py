"""The scalar route stage: one engine choice for ``place`` /
``retrieve`` / ``route_for`` / ``delete``.

* a hypothesis differential — the compiled walk (``CompiledRouter.
  route`` on the fast-path state, a batch of one) against the reference
  engine (``route_packet``, pinned with the ``reference_engine``
  fixture) under interleaved requests, range extensions and topology
  changes: equal results, equal errors, equal storage, equal registry;
* the selection rule itself — which observable states keep a request on
  ``route_packet``, what the spans / counters / ``gred stats`` say
  about it, and that the scalar path reads the route cache without
  growing it.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import GredError, GredNetwork, attach_uniform, brite_waxman_graph
from repro.controlplane import ControlPlaneError
from repro.core import network as network_module
from repro.dataplane import (
    CompiledRouter,
    ForwardingError,
    Packet,
    PacketKind,
    TraceEventKind,
    fastpath,
    route_packet,
    scalar_standdown,
)
from repro.faults import FaultState
from repro.hashing import (
    data_position,
    digest_keys,
    position_from_bits,
    positions_from_digests,
    serials_from_digests,
    sha256_digests,
)
from repro.obs import MetricsRegistry, set_default_registry
from repro.obs import spans as span_api

KEYS = 16
OPS = st.lists(
    st.tuples(
        st.sampled_from(["place", "place", "retrieve", "retrieve",
                         "retrieve", "route", "delete", "batch",
                         "trace", "extend", "retract", "join", "leave",
                         "link", "unlink"]),
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6)),
    min_size=8, max_size=32)

#: Instruments that differ by construction: batch-only extras, the
#: stand-down counters (the oracle *is* a stand-down) and wall-clock
#: control-plane timers.
ENGINE_SPECIFIC = ("dataplane.batch.", "dataplane.scalar_standdowns",
                   "dataplane.fastpath_standdowns", "controlplane.")


def build(seed, switches, servers=2):
    topology, _ = brite_waxman_graph(
        switches, min_degree=2, rng=np.random.default_rng(seed))
    return GredNetwork(
        topology, attach_uniform(topology.nodes(),
                                 servers_per_switch=servers),
        cvt_iterations=3, seed=seed)


def route_fields(route):
    d = route.delivery
    return (d.switch, d.primary_serial, d.extension, route.trace,
            route.physical_hops, route.overlay_hops)


def apply(net, step, op, a, b, c):
    """One operation, interpreted against the network's current state
    (both sides of a differential see identical states)."""
    ids = net.switch_ids()
    key = f"k{a % KEYS}"
    # Mostly one access switch per key, so scalar requests meet the
    # routes a batch cached (and any a topology change left stale).
    entry = ids[(a % KEYS if c % 3 else c) % len(ids)]
    copies = b % 3 + 1
    if op == "place":
        return net.place(key, payload=(key, step), copies=copies,
                         entry_switch=entry)
    if op == "retrieve":
        budget = (None, None, 1, 2, 4)[(a // KEYS) % 5]
        return net.retrieve(key, copies=copies, entry_switch=entry,
                            max_hops=budget)
    if op == "route":
        return route_fields(net.route_for(key, entry))
    if op == "delete":
        return net.delete(key, copies=copies, entry_switch=entry)
    if op == "batch":
        # Warms the compiled side's route cache (the pinned side runs
        # its scalar loop), so later scalar requests read cached routes.
        return net.retrieve_many(
            [f"k{k}" for k in range(KEYS)],
            entry_switches=[ids[k % len(ids)] for k in range(KEYS)])
    if op == "trace":
        route, tracer = net.trace_route(key, entry)
        return route_fields(route), tracer.render()
    if op == "extend":
        return net.extend_range(ids[a % len(ids)], b % 2)
    if op == "retract":
        return net.retract_range(ids[a % len(ids)], b % 2)
    if op == "join":
        links = sorted({ids[a % len(ids)], ids[b % len(ids)]})
        return net.add_switch(1000 + step, links,
                              servers_per_switch=c % 3)
    if op == "leave":
        return net.remove_switch(ids[a % len(ids)])
    u, v = ids[a % len(ids)], ids[b % len(ids)]
    if u == v:
        return None
    if op == "link":
        return net.controller.add_link(u, v)
    return net.controller.remove_link(u, v)


def run(net, ops):
    return observe(net, [
        lambda net, step=step, op=op: apply(net, step, *op)
        for step, op in enumerate(ops)])


def observe(net, calls):
    """Drive ``calls`` (each takes the network) under a private enabled
    registry; returns every outcome (or error type + text), the storage
    state, the registry contents minus :data:`ENGINE_SPECIFIC`, the
    demand map, and ``dataplane.batch.waves`` as it stood after each
    call."""
    registry = MetricsRegistry(enabled=True)
    previous = set_default_registry(registry)
    outcomes = []
    waves = []
    try:
        for call in calls:
            try:
                outcomes.append(call(net))
            except (GredError, ForwardingError, ControlPlaneError) as exc:
                outcomes.append((type(exc).__name__, str(exc)))
            waves.append(registry.counter("dataplane.batch.waves").value)
    finally:
        set_default_registry(previous)
    storage = [
        (server.server_id,
         [(item, server.retrieve(item)) for item in server.stored_ids()])
        for server in net.servers()]
    dump = registry.to_dict(include_events=False)
    instruments = {
        (kind, entry["name"], tuple(sorted(entry["labels"].items()))):
        {k: v for k, v in entry.items() if k not in ("name", "labels")}
        for kind in ("counters", "gauges", "histograms")
        for entry in dump[kind]
        if not entry["name"].startswith(ENGINE_SPECIFIC)}
    return outcomes, storage, instruments, dump.get("demand"), waves


def cached_then(*events):
    """Place every key, let a batch cache every sticky route, apply
    ``events``, then probe every key through the scalar path — the
    sequence that reads a stale route if the cache outlives a change."""
    keys = range(KEYS)
    return ([("place", k, 1, 1) for k in keys] + [("batch", 0, 0, 0)]
            + list(events)
            + [("retrieve", k, 1, 1) for k in keys]
            + [("route", k, 0, 1) for k in keys] + [("batch", 0, 0, 0)])


class TestCompiledStageMatchesReference:
    @example(seed=0, switches=12,
             ops=cached_then(("join", 0, 3, 2), ("leave", 1, 0, 0)))
    @example(seed=4, switches=10,
             ops=cached_then(("extend", 2, 0, 0), ("unlink", 0, 1, 0),
                             ("leave", 5, 0, 0), ("retract", 2, 0, 0)))
    @given(seed=st.integers(min_value=0, max_value=40),
           switches=st.integers(min_value=6, max_value=18), ops=OPS)
    @settings(max_examples=40, deadline=None)
    def test_interleaved_requests_and_dynamics(self, reference_engine,
                                               seed, switches, ops):
        want = run(reference_engine(build(seed, switches)), ops)
        compiled = build(seed, switches)
        got = run(compiled, ops)
        for step, (w, g) in enumerate(zip(want[0], got[0])):
            assert g == w, (step, ops[step])
        assert got[1] == want[1]  # storage
        assert got[2] == want[2]  # registry instruments
        assert got[3] == want[3]  # demand map
        assert compiled.fault_state is None  # stayed healthy throughout

    def test_hop_bound_error_text(self):
        """The batch of one raises what ``route_packet`` raises, text
        included (the trace in the message stops before the switch
        whose arrival breached the bound)."""
        net = build(3, 16)
        router = CompiledRouter(net.controller.switches)
        breaches = 0
        for i in range(60):
            data_id, entry = f"hb/{i}", net.switch_ids()[i % 16]
            for budget in (0, 1, 2):
                try:
                    want = route_packet(
                        net.controller.switches, entry,
                        Packet(kind=PacketKind.RETRIEVAL,
                               data_id=data_id,
                               position=data_position(data_id)),
                        max_hops=budget).trace
                except ForwardingError as exc:
                    want = str(exc)
                    breaches += 1
                key, bits = digest_keys(data_id)
                try:
                    got = router.route(entry, data_id,
                                       *position_from_bits(bits), key,
                                       budget)[0]
                except ForwardingError as exc:
                    got = str(exc)
                assert got == want
        assert breaches


GREEDY, VL_START, VL_RELAY = (TraceEventKind.GREEDY_FORWARD,
                                TraceEventKind.VL_START,
                                TraceEventKind.VL_RELAY)


def _relay_only(net, events, route):
    # A server-less switch is a relay, not a greedy candidate: the
    # walk's third switch loses its servers behind the plane's back ...
    net.controller.switches[events[1].details["next"]].num_servers = 0


def _no_servers(net, events, route):
    # ... or the delivery switch does.
    net.controller.switches[route.delivery.switch].num_servers = 0


def _unknown_switch(net, events, route):
    del net.controller.switches[events[1].details["next"]]


def _unknown_vl_destination(net, events, route):
    # The first relay forgets the virtual link it is asked to carry.
    start = events[1].details
    net.controller.switches[start["succ"]].table.remove_virtual(
        start["dest"])


#: fault -> (decision shape the failing request's healthy walk must
#: start with, what breaks the plane, hop budget of the retrieve pass).
#: Every shape opens with a greedy forward, which a large batch takes
#: in its first wave — so the failure itself happens mid-route, in the
#: straggler tail.  With budget 2 the third hop of greedy / vl-start /
#: relay breaches the bound on the chain's second relay step.
TAIL_FAULTS = {
    "hop-bound-in-chain": ((GREEDY, VL_START, VL_RELAY), None, 2),
    "relay-only": ((GREEDY, GREEDY), _relay_only, None),
    "no-servers": ((GREEDY, GREEDY), _no_servers, None),
    "unknown-switch": ((GREEDY, GREEDY), _unknown_switch, None),
    "unknown-vl-destination": ((GREEDY, VL_START, VL_RELAY),
                               _unknown_vl_destination, None),
}


class TestStragglerTailErrors:
    """Routes that *finish in the wave router's straggler tail* fail
    exactly like the reference engine: same ``ForwardingError`` text,
    same partial decision mix, same stored prefix."""

    SEED, SWITCHES = 2, 24

    def _far_requests(self, probe, shape):
        """``(data_id, entry, events, route)`` of every healthy walk
        that starts with the decisions in ``shape``."""
        found = []
        for i in range(40):
            for entry in probe.switch_ids():
                route, tracer = probe.trace_route(f"far/{i}", entry)
                events = tracer.events()[1:]  # minus ingress
                if tuple(e.kind for e in events[:len(shape)]) == shape:
                    found.append((f"far/{i}", entry, events, route))
        return found

    def _batch_vs_reference(self, reference_engine, shape, sabotage,
                            budget, bulk):
        """``(got, want)``: :func:`observe` of a ``place_many`` +
        ``retrieve_many`` pair on the sabotaged compiled plane, and of
        the same requests as scalar loops on the pinned reference
        engine."""
        probe = build(self.SEED, self.SWITCHES)
        (bad_id, bad_entry, events, route), *others = \
            self._far_requests(probe, shape)
        broken = build(self.SEED, self.SWITCHES)
        if sabotage is not None:
            sabotage(broken, events, route)
        # Requests that enter at their own delivery switch finish in
        # the first wave; a healthy far walk, the failing one and one
        # more request then straggle (or, with under _WAVE_MIN_ACTIVE
        # requests, the whole batch does, from its entry switches).
        ids = [f"bulk/{i}" for i in range(400)]
        homes = probe.destinations_for(ids)
        near = [(d, home) for d, home in zip(ids, homes)
                if home in broken.controller.switches
                and broken.controller.switches[home].in_dt][:bulk]
        healthy = next(
            (d, e) for d, e, _, r in others
            if d != bad_id and not {bad_entry, *route.trace[1:]}
            & set(r.trace))
        requests = near + [healthy, (bad_id, bad_entry), near[0]]
        ids = [d for d, _ in requests]
        entries = [e for _, e in requests]

        def sabotaged():
            net = build(self.SEED, self.SWITCHES)
            if sabotage is not None:
                sabotage(net, events, route)
            return net

        want = observe(reference_engine(sabotaged()), [
            lambda net: [net.place(d, payload=d, entry_switch=e)
                         for d, e in requests],
            lambda net: [net.retrieve(d, entry_switch=e, max_hops=budget)
                         for d, e in requests]])
        got = observe(sabotaged(), [
            lambda net: net.place_many(ids, payloads=ids,
                                       entry_switches=entries),
            lambda net: net.retrieve_many(ids, entry_switches=entries,
                                          max_hops=budget)])
        return got, want

    @pytest.mark.parametrize("bulk", [20, 150],
                             ids=["whole-batch", "last-few"])
    @pytest.mark.parametrize("fault", sorted(TAIL_FAULTS))
    def test_tail_failures_match_reference(self, reference_engine,
                                           fault, bulk):
        shape, sabotage, budget = TAIL_FAULTS[fault]
        got, want = self._batch_vs_reference(
            reference_engine, shape, sabotage, budget, bulk)
        assert got[:4] == want[:4]
        placed, retrieved = got[0]
        if sabotage is not None:
            assert placed[0] == "ForwardingError"
        assert not retrieved[-2].found
        # One wave when the whole batch straggles from its entries;
        # one vectorized wave plus the tail when only the far walks do.
        assert got[4][0] == (1 if bulk < fastpath._WAVE_MIN_ACTIVE else 2)

    @pytest.mark.parametrize("bulk", [20, 150],
                             ids=["whole-batch", "last-few"])
    def test_deleted_vl_destination(self, reference_engine, bulk):
        """A virtual link whose *destination* left the plane fails at
        the last relay's hand-off, with the reference engine's text
        (it used to surface as a ``KeyError``).  Outcomes and stored
        prefix only: the reference counts the relays it walked before
        failing, the compiled chain resolution none — the partial mix
        of a failed chain is still open."""
        def sabotage(net, events, route):
            del net.controller.switches[events[1].details["dest"]]

        got, want = self._batch_vs_reference(
            reference_engine, (GREEDY, VL_START), sabotage, None, bulk)
        assert got[:2] == want[:2]
        kind, text = got[0][0]
        assert kind == "ForwardingError"
        assert "forwarded to unknown switch" in text
        assert not got[0][1][-2].found

    def test_hop_bound_text_from_the_tail(self):
        """``retrieve_many`` swallows a failed probe's message, so the
        text of a bound breached inside a relay chain, mid-route, is
        read off the router."""
        net = build(self.SEED, self.SWITCHES)
        data_id, entry, _, _ = self._far_requests(
            net, TAIL_FAULTS["hop-bound-in-chain"][0])[0]
        ids = [f"bulk/{i}" for i in range(150)]
        homes = net.destinations_for(ids)
        digests = sha256_digests(ids + [data_id])
        positions = positions_from_digests(digests)
        router = CompiledRouter(net.controller.switches)
        got = router.route_batch(
            homes + [entry], ids + [data_id], positions[:, 0],
            positions[:, 1], serials_from_digests(digests), max_hops=2)
        assert router.last_batch_waves == 2
        with pytest.raises(ForwardingError) as want:
            route_packet(net.controller.switches, entry,
                         Packet(kind=PacketKind.RETRIEVAL,
                                data_id=data_id,
                                position=data_position(data_id)),
                         max_hops=2)
        assert str(got[-1]) == str(want.value)
        assert all(type(outcome) is tuple for outcome in got[:-1])


@pytest.fixture
def engines(monkeypatch):
    """Counts which engine routed: ``calls["reference"]`` /
    ``calls["compiled"]``."""
    calls = {"reference": 0, "compiled": 0}
    real_packet = network_module.route_packet
    real_route = CompiledRouter.route

    def counting_packet(*args, **kwargs):
        calls["reference"] += 1
        return real_packet(*args, **kwargs)

    def counting_route(self, *args, **kwargs):
        calls["compiled"] += 1
        return real_route(self, *args, **kwargs)

    monkeypatch.setattr(network_module, "route_packet", counting_packet)
    monkeypatch.setattr(CompiledRouter, "route", counting_route)
    return calls


def exercise(net):
    entry = net.switch_ids()[0]
    net.place("sel/a", payload=1, entry_switch=entry)
    assert net.retrieve("sel/a", entry_switch=entry).found
    net.route_for("sel/a", entry)


class TestEngineSelection:
    def test_healthy_requests_ride_the_compiled_plane(self, engines):
        net = build(1, 12)
        exercise(net)
        net.delete("sel/a")
        assert engines == {"reference": 0, "compiled": 4}
        assert scalar_standdown(net) is None

    def test_fault_state_takes_route_packet(self, engines):
        net = build(1, 12)
        net.fault_state = FaultState()
        exercise(net)
        assert engines == {"reference": 3, "compiled": 0}
        assert getattr(net, "_fastpath", None) is None  # never compiled
        assert scalar_standdown(net) == "fault state attached"

    def test_custom_position_fn_takes_route_packet(self, engines):
        topology, _ = brite_waxman_graph(
            12, min_degree=2, rng=np.random.default_rng(1))
        net = GredNetwork(topology, servers_per_switch=2,
                          cvt_iterations=3, position_fn=lambda d: (0.3, 0.7))
        exercise(net)
        assert engines == {"reference": 3, "compiled": 0}
        assert scalar_standdown(net) == "custom position_fn"

    def test_tripped_breaker_stays_compiled(self, engines,
                                            reference_engine):
        """A tripped breaker changes which replicas the resilient
        wrapper probes, never how the network routes them: raw and
        wrapped requests (the wrapper's batches stood down to its
        scalar path) keep riding the compiled plane, and equal the
        pinned reference run — results, storage, registry."""
        from repro.dataplane import FASTPATH_GATES, batch_fastpath_blockers
        from repro.resilience import ResilienceConfig

        assert len(FASTPATH_GATES) == 3
        ids = [f"br/{i}" for i in range(24)]

        def drive(net):
            switches = net.switch_ids()
            entries = [switches[i % len(switches)] for i in range(24)]
            pipeline = net.resilient(ResilienceConfig(enabled=True))
            pipeline.breakers.force_open(("switch", switches[3]), 0.0)
            assert pipeline.breakers.any_tripped()
            return observe(net, [
                lambda net: net.place_many(
                    ids, payloads=ids, entry_switches=entries, copies=2),
                lambda net: pipeline.place_many(
                    ids[:8], payloads=ids[:8], entry_switches=entries[:8],
                    copies=2, now=0.0),
                lambda net: pipeline.retrieve_many(
                    ids, entry_switches=entries, copies=2, now=1.0),
                lambda net: net.retrieve_many(
                    ids, entry_switches=entries, copies=2),
                lambda net: pipeline.retrieve(
                    ids[0], entry_switch=entries[5], copies=2, now=2.0),
                lambda net: net.delete(ids[1], copies=2,
                                       entry_switch=entries[2]),
            ])

        compiled = build(1, 12)
        got = drive(compiled)
        assert engines["reference"] == 0 and engines["compiled"] > 0
        assert scalar_standdown(compiled) is None
        assert batch_fastpath_blockers(compiled) == []
        want = drive(reference_engine(build(1, 12)))
        assert engines["reference"] > 0
        assert got[:4] == want[:4]

    def test_lossy_southbound_takes_route_packet(self, engines):
        """Over a lossy transport the live switches change without a
        version advance (here: ``reconcile`` after dropped deltas), so
        neither batches nor scalar requests may trust a compiled
        snapshot — every route must be what the live switches say."""
        from repro.controlplane import FaultyChannel
        from repro.dataplane import Packet, PacketKind
        from repro.hashing import data_position

        net = build(1, 24)
        ids = [f"sb/{i}" for i in range(120)]
        entries = [net.switch_ids()[i % 24] for i in range(120)]
        net.retrieve_many(ids, entry_switches=entries)  # compile + cache
        net.controller.attach_transport(
            FaultyChannel(seed=1, drop=0.85, reorder_window=4))
        net.add_switch(500, net.switch_ids()[:2], servers_per_switch=2)
        net.retrieve_many(ids, entry_switches=entries)
        assert net.controller.pending_deltas, "nothing was dropped"
        net.controller.reconcile()
        engines["reference"] = 0
        batch = net.retrieve_many(ids, entry_switches=entries)
        for data_id, entry, result in zip(ids, entries, batch):
            live = network_module.route_packet(
                net.controller.switches, entry,
                Packet(kind=PacketKind.RETRIEVAL, data_id=data_id,
                       position=data_position(data_id)))
            assert net.route_for(data_id, entry).trace == live.trace
            assert result.trace == live.trace
        assert engines["compiled"] == 0
        assert scalar_standdown(net) == "southbound transport attached"

    def test_recording_tracer_takes_route_packet(self, engines):
        net = build(1, 12)
        entry = net.switch_ids()[0]
        net.trace_route("sel/t", entry)
        assert engines == {"reference": 1, "compiled": 0}
        recorder = span_api.enable_tracing(sample_rate=1.0)
        try:
            exercise(net)  # place + retrieve are sampled; route_for is not
        finally:
            span_api.disable_tracing()
        assert engines == {"reference": 3, "compiled": 1}
        roots = {s.name: s for s in recorder.spans()
                 if s.parent_id is None}
        for name in ("request.place", "request.retrieve"):
            assert roots[name].attrs["engine"] == "reference"
            assert roots[name].attrs["standdown"] == "tracing"
        assert any(s.name.startswith("hop.") for s in recorder.spans())

    def test_unsampled_trace_stays_compiled(self, engines):
        net = build(1, 12)
        span_api.enable_tracing(sample_rate=0.0)
        try:
            exercise(net)
        finally:
            span_api.disable_tracing()
        assert engines == {"reference": 0, "compiled": 3}

    def test_gate_reason_wins_over_tracing(self):
        net = build(1, 12)
        net.fault_state = FaultState()
        recorder = span_api.enable_tracing(sample_rate=1.0)
        try:
            net.place("sel/g", entry_switch=net.switch_ids()[0])
        finally:
            span_api.disable_tracing()
        (root,) = [s for s in recorder.spans() if s.parent_id is None]
        assert root.attrs["engine"] == "reference"
        assert root.attrs["standdown"] == "fault state attached"

    def test_batch_exemplars_say_compiled(self):
        net = build(1, 12)
        recorder = span_api.enable_tracing(sample_rate=1.0)
        try:
            net.place_many(["sel/b0", "sel/b1"],
                           rng=np.random.default_rng(0))
        finally:
            span_api.disable_tracing()
        roots = [s for s in recorder.spans() if s.parent_id is None]
        assert len(roots) == 2
        assert all(s.attrs["engine"] == "compiled" for s in roots)

    def test_standdowns_are_counted_by_reason(self):
        net = build(1, 12)
        registry = MetricsRegistry(enabled=True)
        previous = set_default_registry(registry)
        try:
            exercise(net)
            assert not registry.counter_values(
                "dataplane.scalar_standdowns")
            net.fault_state = FaultState()
            exercise(net)
        finally:
            set_default_registry(previous)
        assert registry.counter_values("dataplane.scalar_standdowns") \
            == {"dataplane.scalar_standdowns"
                "{reason=fault_state_attached}": 3}


class TestRouteCacheUse:
    def test_scalar_reads_but_never_grows_the_cache(self, engines):
        net = build(2, 14)
        ids = [f"rc/{i}" for i in range(40)]
        entries = [net.switch_ids()[i % 14] for i in range(40)]
        net.place_many(ids, entry_switches=entries)
        state = net._fast_state()
        assert len(state.routes) == 40
        engines["compiled"] = 0
        for data_id, entry in zip(ids, entries):  # all cached
            assert net.retrieve(data_id, entry_switch=entry).found
        assert engines["compiled"] == 0
        other = [net.switch_ids()[(i + 1) % 14] for i in range(40)]
        for data_id, entry in zip(ids, other):  # none cached
            assert net.retrieve(data_id, entry_switch=entry).found
        assert engines["compiled"] == 40
        assert len(state.routes) == 40
        # A custom hop budget changes failure behaviour: no cache.
        net.retrieve(ids[0], entry_switch=entries[0], max_hops=50)
        assert engines["compiled"] == 41

    def test_cached_trace_is_copied(self):
        net = build(2, 14)
        entry = net.switch_ids()[0]
        net.place_many(["rc/x"], entry_switches=[entry])
        first = net.retrieve("rc/x", entry_switch=entry)
        first.trace.clear()
        again = net.retrieve("rc/x", entry_switch=entry)
        assert again.trace and again.trace[0] == entry

    def test_unswept_cache_is_not_read_after_a_join(self, engines):
        net = build(2, 14)
        ids = [f"rc/{i}" for i in range(40)]
        entries = [net.switch_ids()[i % 14] for i in range(40)]
        net.place_many(ids, entry_switches=entries)
        net.add_switch(500, links=net.switch_ids()[:2],
                       servers_per_switch=2)
        engines["compiled"] = 0
        results = [net.retrieve(d, entry_switch=e)
                   for d, e in zip(ids, entries)]
        assert all(r.found for r in results)
        # The scalar sync patched the router but left the sweep of the
        # route cache to the next batch: every request walked.
        state = net._fastpath
        assert state.version == net.controller.version
        assert state.stale and engines["compiled"] == 40
        assert results == net.retrieve_many(ids, entry_switches=entries)
        assert not state.stale  # the batch swept


class TestFederationLegCache:
    def test_legs_are_reused_and_dropped_on_change(self):
        from repro.controlplane import FederatedNetwork
        from repro.graph import bfs_path
        from repro.topology import federated_topology

        topology, assignment = federated_topology(3, 10, min_degree=2,
                                                  seed=5)
        fed = FederatedNetwork(topology, assignment=assignment,
                               servers_per_switch=2, cvt_iterations=3,
                               seed=5)
        ids = [f"leg/{i}" for i in range(60)]
        fed.place_many(ids, rng=np.random.default_rng(1))
        assert fed._legs, "workload never crossed a region"
        for region, (version, legs) in fed._legs.items():
            shard = fed.shards[region].net
            assert version == shard.controller.version
            for (source, egress), leg in legs.items():
                assert leg == bfs_path(shard.topology, source, egress)
        region = next(iter(fed._legs))
        legs = fed._legs[region][1]
        shard = fed.shards[region].net
        members = shard.switch_ids()
        u, v = next((u, v) for u in members for v in members
                    if u < v and not shard.topology.has_edge(u, v))
        shard.controller.add_link(u, v)
        assert all(r.found for r in fed.retrieve_many(
            ids, rng=np.random.default_rng(1)))
        assert fed._legs[region][0] == shard.controller.version
        assert fed._legs[region][1] is not legs
