"""The scalar route stage: one engine choice for ``place`` /
``retrieve`` / ``route_for`` / ``delete``.

* a hypothesis differential — the compiled walk (``CompiledRouter.
  route`` on the fast-path state, a batch of one) against the reference
  engine (``route_packet``, pinned with the ``reference_engine``
  fixture) under interleaved requests, range extensions and topology
  changes: equal results, equal errors, equal storage, equal registry;
* the selection rule itself — which observable states keep a request on
  ``route_packet`` (a recording tracer is not one: the compiled walker
  narrates, event for event), what the spans / counters / ``gred
  stats`` say about it, and that the scalar path reads the route cache
  without growing it.
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
    Tracer,
    UNABSORBED_FAULT,
    VirtualLinkEntry,
    fastpath,
    route_packet,
    scalar_standdown,
)
from repro.faults import FailureDetector, FaultInjector, FaultPlanError
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

#: Instruments that differ by construction: batch-only extras (the
#: wave plane's row and chain syncs among them), the stand-down
#: counters (the oracle *is* a stand-down) and wall-clock control-plane
#: timers.
ENGINE_SPECIFIC = ("dataplane.batch.", "dataplane.plane.",
                   "dataplane.scalar_standdowns",
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
    demand, instruments = shared_instruments(registry)
    return outcomes, storage, instruments, demand, waves


def shared_instruments(registry):
    """``(demand map, instruments)`` of a registry, minus
    :data:`ENGINE_SPECIFIC`."""
    dump = registry.to_dict(include_events=False)
    return dump.get("demand"), {
        (kind, entry["name"], tuple(sorted(entry["labels"].items()))):
        {k: v for k, v in entry.items() if k not in ("name", "labels")}
        for kind in ("counters", "gauges", "histograms")
        for entry in dump[kind]
        if not entry["name"].startswith(ENGINE_SPECIFIC)}


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


FAULT_OPS = st.lists(
    st.tuples(
        st.sampled_from([
            "place", "place_many", "place_many", "retrieve",
            "retrieve_many", "retrieve_many", "delete", "crash_switch",
            "crash_server", "fail_link", "restore_link", "partition",
            "heal", "repair", "absorb", "absorb", "hinting", "orphan"]),
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6)),
    min_size=6, max_size=24)


def fault_apply(net, injector, catalog, step, op, a, b, c):
    """One operation of the fault differential, interpreted against
    the network's current state.  ``catalog`` (``data id -> copies``)
    feeds ``FailureDetector.repair``; it follows the operations, not
    their outcomes, so both sides keep the same one."""
    ids = net.switch_ids()
    fault = injector.state
    pick = ids[a % len(ids)]
    # Mostly live entries: a crashed one is refused at the front door.
    pool = ids if c % 5 == 0 else [
        s for s in ids if fault.switch_alive(s)] or ids
    copies = b % 3 + 1
    key = f"k{a % KEYS}"
    # Under 96 probes a batch is all straggler tail; 120 items ride
    # the waves.
    count = (2, 5, 40, 120)[b % 4]
    keys = [f"k{(a + i) % (8 * KEYS)}" for i in range(count)]
    entries = [pool[(c + i) % len(pool)] for i in range(count)]
    if op == "place":
        catalog[key] = copies
        return net.place(key, payload=(key, step), copies=copies,
                         entry_switch=pool[c % len(pool)])
    if op == "place_many":
        catalog.update(dict.fromkeys(keys, copies))
        return net.place_many(
            keys, payloads=[(k, step) for k in keys] if c % 2 else None,
            entry_switches=entries, copies=copies)
    if op == "retrieve":
        return net.retrieve(key, copies=copies,
                            entry_switch=pool[c % len(pool)],
                            max_hops=(None, None, 3)[c % 3])
    if op == "retrieve_many":
        return net.retrieve_many(keys, entry_switches=entries,
                                 copies=copies)
    if op == "delete":
        return net.delete(key, copies=copies,
                          entry_switch=pool[c % len(pool)])
    if op == "crash_switch":
        return injector.crash_switch(pick)
    if op == "crash_server":
        return injector.crash_server(pick, b % 2)
    if op == "fail_link":
        edges = sorted((u, v) for u, v, _ in net.topology.edges())
        return injector.link_down(*edges[a % len(edges)])
    if op == "restore_link":
        down = sorted(fault.down_links)
        return injector.link_up(*down[a % len(down)]) if down else None
    if op == "partition":
        return injector.partition(
            {ids[(a + i * (b + 1)) % len(ids)] for i in range(c % 3 + 1)})
    if op == "heal":
        return injector.heal_partition()
    if op == "repair":
        return FailureDetector(net, catalog=dict(catalog)).repair()
    if op == "absorb":
        # What gredbench's crash wave does: prune, repair the DT and
        # reinstall — the fault state keeps naming what crashed.
        return net.controller.absorb_failures(
            sorted(s for s in fault.crashed_switches if s in ids),
            sorted(link for link in fault.down_links
                   if net.topology.has_edge(*link)))
    if op == "hinting":
        net.hinted_handoff = not net.hinted_handoff
        return net.hinted_handoff
    # "orphan": a delivery switch loses its servers behind the plane's
    # back (until the next rule install restores the count), so routes
    # bound for it fail — mid-batch, for a ``place_many``.  The plane is
    # dropped so that both engines see the sabotage.
    net.controller.switches[pick].num_servers = 0
    net._fastpath = None
    return None


def durable_state(net):
    """Everything a request leaves behind: the write clock and, per
    server, items with payloads and stamps, tombstones and hints."""
    return net.write_version, [
        (server.server_id,
         [(item, server.retrieve(item), server.stamp_of(item))
          for item in server.stored_ids()],
         sorted(server.tombstones().items()), server.hints())
        for server in net.servers()]


class TestCompiledUnderFaults:
    """The exactness contract of the fault gate: with a fault state
    attached, a network that stands down only while an unabsorbed
    routing fault touches its plane is indistinguishable — after every
    step — from one that stands down for as long as the state is
    attached (the gate before it was narrowed, pinned here with the
    ``reference_engine`` fixture: the injector attaches at step 0, so
    "pinned" and "fault state attached" are the same predicate)."""

    @example(seed=3, switches=14, ops=[
        ("place_many", 0, 6, 1), ("crash_switch", 5, 0, 0),
        ("retrieve_many", 0, 7, 1), ("absorb", 0, 0, 0),
        ("place_many", 3, 7, 1), ("crash_server", 2, 1, 0),
        ("hinting", 0, 0, 0), ("place_many", 7, 3, 2),
        ("orphan", 4, 0, 0), ("place_many", 0, 7, 1),
        ("hinting", 0, 0, 0), ("place_many", 1, 6, 1),
        ("delete", 3, 2, 1), ("retrieve_many", 0, 7, 3),
        ("repair", 0, 0, 0), ("retrieve_many", 0, 3, 2)])
    @given(seed=st.integers(min_value=0, max_value=40),
           switches=st.integers(min_value=12, max_value=24),
           ops=FAULT_OPS)
    @settings(max_examples=40, deadline=None)
    def test_random_fault_plans(self, reference_engine, seed, switches,
                                ops):
        from repro.dataplane import batch_fastpath_blockers
        from repro.dataplane import unabsorbed_faults

        sides = []
        for pin in (reference_engine, lambda net: net):
            net = pin(build(seed, switches))
            sides.append((net, FaultInjector(net, seed=seed), {},
                          MetricsRegistry(enabled=True)))
        compiled = sides[1][0]
        previous = set_default_registry(sides[0][3])
        try:
            for step, op in enumerate(ops):
                seen = []
                for net, injector, catalog, registry in sides:
                    set_default_registry(registry)
                    try:
                        outcome = fault_apply(net, injector, catalog,
                                              step, *op)
                    except (GredError, ForwardingError, FaultPlanError,
                            ControlPlaneError) as exc:
                        outcome = (type(exc).__name__, str(exc))
                    seen.append((outcome, durable_state(net),
                                 shared_instruments(registry)))
                want, got = seen
                assert got[0] == want[0], (step, op)
                assert got[1] == want[1], (step, op)
                assert got[2] == want[2], (step, op)
                # The operator's view is the gate's view.
                assert any(unabsorbed_faults(compiled).values()) == (
                    UNABSORBED_FAULT in batch_fastpath_blockers(compiled))
        finally:
            set_default_registry(previous)

    def test_the_one_known_difference(self, reference_engine):
        """On a hand-corrupted plane only — a rule naming a switch the
        plane no longer holds, which the verifier reports — the
        reference engine under a fault state treats the unknown
        neighbour as failed and reroutes around it, where both
        fault-free engines raise.  The compiled plane under an attached
        fault state is the fault-free engine; it carries no second
        walk for this."""
        from repro.controlplane import verify_installed_state

        probe = build(2, 24)
        entry = probe.switch_ids()[0]
        data_id, route, events = next(
            (d, r, t.events()[1:])
            for d, (r, t) in ((f"far/{i}", probe.trace_route(
                f"far/{i}", entry)) for i in range(40))
            if [e.kind for e in t.events()[1:3]] == [GREEDY, GREEDY])
        outcomes = []
        for pin in (reference_engine, lambda net: net):
            net = pin(build(2, 24))
            FaultInjector(net)
            _unknown_switch(net, events, route)
            assert verify_installed_state(net.controller)
            try:
                outcomes.append(net.route_for(data_id, entry).trace)
            except ForwardingError as exc:
                outcomes.append(str(exc))
        rerouted, raised = outcomes
        gone = events[1].details["next"]
        assert isinstance(rerouted, list) and gone not in rerouted
        assert raised == (f"switch {route.trace[1]} forwarded to "
                          f"unknown switch {gone}")
        # Without a fault state the reference engine raises it too.
        healthy = reference_engine(build(2, 24))
        _unknown_switch(healthy, events, route)
        with pytest.raises(ForwardingError) as error:
            healthy.route_for(data_id, entry)
        assert str(error.value) == raised


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


def _deleted_vl_destination(net, events, route):
    del net.controller.switches[events[1].details["dest"]]


#: fault -> (decision shape the failing request's healthy walk must
#: start with, what breaks the plane, hop budget of the retrieve pass).
#: Every shape opens with a greedy forward, which a large batch takes
#: in its first wave — so the failure itself happens mid-route: in the
#: straggler tail, or (``mid-wave``) in a wave's anomaly mask.  With
#: budget 2 the third hop of greedy / vl-start / relay breaches the
#: bound on the chain's second relay step.
TAIL_FAULTS = {
    "hop-bound-in-chain": ((GREEDY, VL_START, VL_RELAY), None, 2),
    "relay-only": ((GREEDY, GREEDY), _relay_only, None),
    "no-servers": ((GREEDY, GREEDY), _no_servers, None),
    "unknown-switch": ((GREEDY, GREEDY), _unknown_switch, None),
    "unknown-vl-destination": ((GREEDY, VL_START, VL_RELAY),
                               _unknown_vl_destination, None),
}

#: batch shape -> (requests that finish in the first wave, far healthy
#: walks kept in flight beside the failing one).  Under
#: ``_WAVE_MIN_ACTIVE`` requests the whole batch straggles from its
#: entries; with a large bulk only the last few far walks do; with
#: enough far walks the failure is decided while a full wave is still
#: in flight.
BATCH_SHAPES = {"whole-batch": (20, 1), "last-few": (150, 1),
                "mid-wave": (20, 130)}


def far_requests(probe, shape):
    """``(data_id, entry, events, route)`` of every healthy walk on
    ``probe`` that starts with the decisions in ``shape``, shortest
    first."""
    found = []
    for i in range(40):
        for entry in probe.switch_ids():
            route, tracer = probe.trace_route(f"far/{i}", entry)
            events = tracer.events()[1:]  # minus ingress
            if tuple(e.kind for e in events[:len(shape)]) == shape:
                found.append((f"far/{i}", entry, events, route))
    return sorted(found, key=lambda far: far[3].overlay_hops)


class TestStragglerTailErrors:
    """Routes that leave the waves for the scalar walker — *in the
    straggler tail* or *out of a wave's anomaly mask* — fail exactly
    like the reference engine: same ``ForwardingError`` text, same
    partial decision mix, same stored prefix."""

    SEED, SWITCHES = 2, 24

    def _batch_vs_reference(self, reference_engine, shape, sabotage,
                            budget, batch_shape):
        """``(got, want)``: :func:`observe` of a ``place_many`` +
        ``retrieve_many`` pair on the sabotaged compiled plane, and of
        the same requests as scalar loops on the pinned reference
        engine."""
        bulk, far = BATCH_SHAPES[batch_shape]
        probe = build(self.SEED, self.SWITCHES)
        (bad_id, bad_entry, events, route), *others = \
            far_requests(probe, shape)
        broken = build(self.SEED, self.SWITCHES)
        if sabotage is not None:
            sabotage(broken, events, route)
        # Requests that enter at their own delivery switch finish in
        # the first wave; the healthy far walks (none shorter than the
        # failing one, none across what the sabotage touches), the
        # failing one and one more request stay in flight.
        ids = [f"bulk/{i}" for i in range(400)]
        homes = probe.destinations_for(ids)
        near = [(d, home) for d, home in zip(ids, homes)
                if home in broken.controller.switches
                and broken.controller.switches[home].in_dt][:bulk]
        healthy = [
            (d, e) for d, e, _, r in
            others + far_requests(probe, (GREEDY, GREEDY))
            if d != bad_id and not {bad_entry, *route.trace[1:]}
            & set(r.trace)][:far]
        assert len(healthy) == far
        if far > 1:
            # The failing decision meets a full wave, not the tail —
            # on the retrieve pass too: a spelled-out hop budget
            # bypasses the routes the place pass memoized.
            assert far >= fastpath._WAVE_MIN_ACTIVE
            budget = budget or 100
        requests = near + healthy + [(bad_id, bad_entry), near[0]]
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

    @pytest.mark.parametrize("batch_shape", sorted(BATCH_SHAPES))
    @pytest.mark.parametrize("fault", sorted(TAIL_FAULTS))
    def test_tail_failures_match_reference(self, reference_engine,
                                           fault, batch_shape):
        shape, sabotage, budget = TAIL_FAULTS[fault]
        got, want = self._batch_vs_reference(
            reference_engine, shape, sabotage, budget, batch_shape)
        assert got[:4] == want[:4]
        placed, retrieved = got[0]
        if sabotage is not None:
            assert placed[0] == "ForwardingError"
        assert not retrieved[-2].found
        # One wave when the whole batch straggles from its entries;
        # one vectorized wave plus the tail when only the far walks
        # do; and a wave per decision of the far walks otherwise.
        waves = got[4][0]
        assert {"whole-batch": waves == 1, "last-few": waves == 2,
                "mid-wave": waves > 2}[batch_shape]

    @pytest.mark.parametrize("batch_shape", ["last-few", "whole-batch"])
    def test_deleted_vl_destination(self, reference_engine, batch_shape):
        """A virtual link whose *destination* left the plane fails at
        the last relay's hand-off, with the reference engine's text
        (it used to surface as a ``KeyError``) and — the chain is
        walked up to its break — the relays the reference counted."""
        got, want = self._batch_vs_reference(
            reference_engine, (GREEDY, VL_START), _deleted_vl_destination,
            None, batch_shape)
        assert got[:4] == want[:4]
        kind, text = got[0][0]
        assert kind == "ForwardingError"
        assert "forwarded to unknown switch" in text
        assert not got[0][1][-2].found

    def test_hop_bound_text_from_the_tail(self):
        """``retrieve_many`` swallows a failed probe's message, so the
        text of a bound breached inside a relay chain, mid-route, is
        read off the router."""
        net = build(self.SEED, self.SWITCHES)
        data_id, entry, _, _ = far_requests(
            net, TAIL_FAULTS["hop-bound-in-chain"][0])[0]
        ids = [f"bulk/{i}" for i in range(150)]
        homes = net.destinations_for(ids)
        digests = sha256_digests(ids + [data_id])
        positions = positions_from_digests(digests)
        router = CompiledRouter(net.controller.switches)
        packed = router.route_batch_packed(
            np.asarray(homes + [entry], dtype=np.int64), positions[:, 0],
            positions[:, 1], serials_from_digests(digests), 2)
        assert packed.waves == 2
        got = packed.materialize(ids + [data_id], 2)
        with pytest.raises(ForwardingError) as want:
            route_packet(net.controller.switches, entry,
                         Packet(kind=PacketKind.RETRIEVAL,
                                data_id=data_id,
                                position=data_position(data_id)),
                         max_hops=2)
        assert str(got[-1]) == str(want.value)
        assert all(type(outcome) is tuple for outcome in got[:-1])


    @given(seed=st.integers(min_value=0, max_value=30),
           switches=st.integers(min_value=10, max_value=28),
           budget=st.sampled_from([None, 1, 3]),
           dropped=st.lists(st.integers(0, 10 ** 6), max_size=3),
           stripped=st.lists(st.integers(0, 10 ** 6), max_size=3),
           strangers=st.integers(min_value=0, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_route_batch_is_route_on_a_broken_plane(
            self, seed, switches, budget, dropped, stripped, strangers):
        """The waves ≡ per-request ``route`` when walks fail all over
        the batch — tight hop budgets, switches dropped from the
        plane, switches stripped of their servers, unknown entries —
        with enough requests in flight that waves decide most of them:
        same outcome tuple or error text, and the same decision mix,
        the partial mix of a failed walk included."""
        net = build(seed, switches)
        sids = net.switch_ids()
        plane = dict(net.controller.switches)
        for pick in stripped:
            plane[sids[pick % len(sids)]].num_servers = 0
        for pick in dropped:
            plane.pop(sids[pick % len(sids)], None)
        router = CompiledRouter(plane)
        data_ids = [f"w/{i}" for i in range(260)]
        # Entries cycle over the original switches (so some are
        # dropped ones) plus ids no plane ever held.
        pool = sids + [9000 + i for i in range(strangers)]
        entries = [pool[i % len(pool)] for i in range(len(data_ids))]
        digests = sha256_digests(data_ids)
        positions = positions_from_digests(digests)
        serials = serials_from_digests(digests)
        bound = router._default_max_hops if budget is None else budget
        packed = router.route_batch_packed(
            np.asarray(entries, dtype=np.int64), positions[:, 0],
            positions[:, 1], serials, bound)
        assert packed.waves >= 1
        outcomes = packed.materialize(data_ids, bound)
        for j, (data_id, entry) in enumerate(zip(data_ids, entries)):
            try:
                want = router.route(entry, data_id, *positions[j].tolist(),
                                    int(serials[j]), budget)
            except ForwardingError as exc:
                want = str(exc)
            got = outcomes[j]
            assert (got if type(got) is tuple else str(got)) == want
            assert router.last_route_stats == (
                (int(packed.greedy[j]), int(packed.vl[j]),
                 int(packed.relays[j])) if packed.known[j] else None)


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


def narration(net, data_id, entry, max_hops=None):
    """How the scalar route stage ends for a recording tracer — the
    route, or the error text — and what the tracer heard."""
    tracer = Tracer()
    try:
        ended = net._route(data_id, entry, PacketKind.RETRIEVAL, max_hops,
                           tracer)[:4]
    except ForwardingError as exc:
        ended = str(exc)
    return ended, [(e.kind, e.switch, e.details) for e in tracer.events()]


def _no_vl_entry(net, events, route):
    # The source of the virtual link forgets it: nothing is decided.
    net.controller.switches[events[1].switch].table.remove_virtual(
        events[1].details["dest"])


def _second_hop_gone(net, events, route):
    # The first relay forwards off the plane, its relay already told.
    del net.controller.switches[events[2].details["next"]]


def _relays_loop(net, events, route):
    # The first relay hands the packet back: the link never terminates
    # and the hop bound ends the walk, relay by relay.
    start = events[1]
    net.controller.switches[start.details["succ"]].table.install_virtual(
        VirtualLinkEntry(sour=start.switch, pred=start.switch,
                         succ=start.switch, dest=start.details["dest"]))


#: broken virtual link -> (decision shape of the healthy walk, what
#: breaks it, the text the walk now ends with).
BROKEN_LINKS = {
    "no-vl-entry": ((GREEDY, VL_START), _no_vl_entry,
                    "has no virtual-link entry"),
    "first-relay-forgets": ((GREEDY, VL_START, VL_RELAY),
                            _unknown_vl_destination, "has no relay entry"),
    "second-hop-gone": ((GREEDY, VL_START, VL_RELAY), _second_hop_gone,
                        "forwarded to unknown switch"),
    "destination-gone": ((GREEDY, VL_START), _deleted_vl_destination,
                         "forwarded to unknown switch"),
    "relays-loop": ((GREEDY, VL_START, VL_RELAY), _relays_loop,
                    "hop bound"),
}


class TestNarration:
    """A recording tracer does not select the engine, so it must hear
    from the compiled walker exactly what ``route_packet`` tells it:
    the same events — kind, switch, details, order — on the same
    route, up to the same failure."""

    @pytest.mark.parametrize("budget", [None, 2])
    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_healthy_plane_with_an_extension(self, reference_engine,
                                             engines, seed, budget):
        compiled = build(seed, 24)
        pinned = reference_engine(build(seed, 24))
        switches = compiled.switch_ids()
        for net in (compiled, pinned):
            for switch in switches[::2]:
                net.extend_range(switch, 0)
        heard = set()
        failed = 0
        for i in range(24):
            for entry in switches[i % 4::4]:
                got = narration(compiled, f"nar/{i}", entry, budget)
                assert got == narration(pinned, f"nar/{i}", entry, budget)
                heard.update(kind for kind, _, _ in got[1])
                failed += type(got[0]) is str
        assert engines == {"reference": 144, "compiled": 144}
        assert heard == set(TraceEventKind) - {
            TraceEventKind.DEGRADED_REROUTE}
        assert bool(failed) == (budget is not None)

    @pytest.mark.parametrize("budget", [None, 3])
    @pytest.mark.parametrize("link", sorted(BROKEN_LINKS))
    def test_broken_virtual_link(self, reference_engine, engines, link,
                                 budget):
        """The walked prefix of a chain that breaks is told and
        counted (the registry's decision mix) before the failure, and
        a tight budget still ends the walk first."""
        shape, sabotage, text = BROKEN_LINKS[link]
        broken = far_requests(build(2, 24), shape)[:4]
        engines.update(reference=0, compiled=0)
        for data_id, entry, events, route in broken:
            sides = []
            for pin in (lambda net: net, reference_engine):
                net = pin(build(2, 24))
                sabotage(net, events, route)
                sides.append(observe(net, [lambda net: narration(
                    net, data_id, entry, budget)])[:4])
            got, want = sides
            assert got == want
            ended = got[0][0][0]
            assert text in ended or (budget and "hop bound" in ended)
        assert engines == {"reference": 4, "compiled": 4}


def exercise(net):
    entry = net.switch_ids()[0]
    net.place("sel/a", payload=1, entry_switch=entry)
    assert net.retrieve("sel/a", entry_switch=entry).found
    net.route_for("sel/a", entry)


#: Elements :func:`standing_faults` breaks on ``build(1, 12)``: none is
#: the entry, the destination or on the route of :func:`exercise`.
VICTIM, DOWN_LINK, SPLIT = 7, (2, 3), [10]


def standing_faults(net, injector):
    """``(inject, clear)`` of each kind of routing fault the gate
    watches: an unabsorbed switch crash (cleared by absorbing it — the
    switch stays crashed in the fault state), a down link on an
    installed edge (restored) and a partition (healed)."""
    return [
        (lambda: injector.crash_switch(VICTIM),
         lambda: net.controller.absorb_failures([VICTIM])),
        (lambda: injector.link_down(*DOWN_LINK),
         lambda: injector.link_up(*DOWN_LINK)),
        (lambda: injector.partition(SPLIT), injector.heal_partition),
    ]


class TestEngineSelection:
    def test_healthy_requests_ride_the_compiled_plane(self, engines):
        net = build(1, 12)
        exercise(net)
        net.delete("sel/a")
        assert engines == {"reference": 0, "compiled": 4}
        assert scalar_standdown(net) is None

    def test_fault_state_takes_route_packet(self, engines):
        """Only between a routing fault and its absorption: an attached
        (empty, or fully absorbed) fault state rides the compiled
        plane, and the routes memoized before a fault that did not
        cross it are still served afterwards."""
        net = build(1, 12)
        injector = FaultInjector(net)
        ids = [f"sel/{i}" for i in range(60)]
        entries = [net.switch_ids()[i % 12] for i in range(60)]
        net.place_many(ids, entry_switches=entries)
        exercise(net)
        assert engines == {"reference": 0, "compiled": 3}
        for inject, clear in standing_faults(net, injector):
            inject()
            assert scalar_standdown(net) == UNABSORBED_FAULT
            engines.update(reference=0, compiled=0)
            exercise(net)
            assert engines == {"reference": 3, "compiled": 0}
            clear()
            assert scalar_standdown(net) is None
            engines.update(reference=0, compiled=0)
            exercise(net)
            assert engines["reference"] == 0
        # The memo outlived all three faults; only the routes through
        # the absorbed switch (and its repaired neighbourhood) went.
        memo = net._fast_state().routes
        assert 0 < len(memo) < 60
        kept = [(d, e) for d, e in zip(ids, entries)
                if (e, digest_keys(d)[1]) in memo]
        engines.update(reference=0, compiled=0)
        got = net.retrieve_many([d for d, _ in kept],
                                entry_switches=[e for _, e in kept])
        assert all(r.found and VICTIM not in r.trace for r in got)
        for data_id, entry in kept:
            assert net.retrieve(data_id, entry_switch=entry).found
        assert engines == {"reference": 0, "compiled": 0}

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

    def test_recording_tracer_stays_compiled(self, engines):
        net = build(1, 12)
        entry = net.switch_ids()[0]
        net.trace_route("sel/t", entry)
        assert engines == {"reference": 0, "compiled": 1}
        recorder = span_api.enable_tracing(sample_rate=1.0)
        try:
            exercise(net)  # place + retrieve are sampled; route_for is not
        finally:
            span_api.disable_tracing()
        assert engines == {"reference": 0, "compiled": 4}
        roots = {s.name: s for s in recorder.spans()
                 if s.parent_id is None}
        for name in ("request.place", "request.retrieve"):
            assert roots[name].attrs["engine"] == "compiled"
            assert "standdown" not in roots[name].attrs
        assert any(s.name.startswith("hop.") for s in recorder.spans())

    def test_unsampled_trace_stays_compiled(self, engines):
        net = build(1, 12)
        span_api.enable_tracing(sample_rate=0.0)
        try:
            exercise(net)
        finally:
            span_api.disable_tracing()
        assert engines == {"reference": 0, "compiled": 3}

    def test_only_a_gate_names_a_reason(self):
        net = build(1, 12)
        injector = FaultInjector(net)
        entry = net.switch_ids()[0]
        recorder = span_api.enable_tracing(sample_rate=1.0)
        try:
            net.place("sel/g", entry_switch=entry)
            for inject, clear in standing_faults(net, injector):
                inject()
                net.place("sel/g", entry_switch=entry)
                clear()
                net.place("sel/g", entry_switch=entry)
        finally:
            span_api.disable_tracing()
        roots = [s for s in recorder.spans() if s.parent_id is None
                 and s.name == "request.place"]
        # Being recorded is no reason: a sampled request is on the
        # reference engine exactly while a gate fires.
        reasons = [s.attrs.get("standdown") for s in roots]
        assert reasons == [None] + [UNABSORBED_FAULT, None] * 3
        assert [s.attrs["engine"] for s in roots] == [
            "compiled" if reason is None else "reference"
            for reason in reasons]

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
            injector = FaultInjector(net)
            exercise(net)
            # Recorded requests stand nothing down: no ``tracing`` label.
            span_api.enable_tracing(sample_rate=1.0)
            try:
                exercise(net)
            finally:
                span_api.disable_tracing()
            net.trace_route("sel/a", net.switch_ids()[0])
            for inject, clear in standing_faults(net, injector):
                assert not registry.counter_values(
                    "dataplane.scalar_standdowns")
                inject()
                exercise(net)
                assert registry.counter_values(
                    "dataplane.scalar_standdowns") == {
                        "dataplane.scalar_standdowns"
                        "{reason=unabsorbed_routing_fault}": 3}
                registry.reset()
                clear()
                exercise(net)
        finally:
            set_default_registry(previous)
        assert UNABSORBED_FAULT.replace(" ", "_") == \
            "unabsorbed_routing_fault"
        assert not registry.counter_values("dataplane.scalar_standdowns")


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
