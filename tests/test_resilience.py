"""Tests for the resilient request pipeline (repro.resilience).

Covers GCRA admission control (including the hypothesis property that
traffic within the token budget is never shed), deadline-bounded retry
backoff, the circuit-breaker state machine, the disabled-passthrough
guarantee (byte-identical results to the raw network), hedged reads,
breaker-aware routing-around, the packet-level simulator's shed
verdicts, and the combined chaos + overload acceptance scenario:
bounded p99 latency with zero lost acknowledged writes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (GredError, GredNetwork, attach_uniform,
                   brite_waxman_graph)
from repro import obs
from repro.faults import FaultInjector
from repro.resilience import (
    AdmissionController,
    BreakerBoard,
    BreakerState,
    CircuitBreaker,
    DeadlineBudget,
    ResilienceConfig,
    ResilientNetwork,
    RetryPolicy,
    SHED_ENTRY_DOWN,
    SHED_PRIORITY,
    SHED_QUEUE_FULL,
)
from repro.simulation import PacketLevelSimulator
from repro.workloads import RetrievalRequest


def build_net(switches=20, servers=2, seed=0, cvt_iterations=8):
    topology, _ = brite_waxman_graph(
        switches, min_degree=3, rng=np.random.default_rng(seed))
    server_map = attach_uniform(topology.nodes(),
                                servers_per_switch=servers)
    return GredNetwork(topology, server_map,
                       cvt_iterations=cvt_iterations, seed=seed)


@pytest.fixture
def net():
    return build_net()


def enabled_config(**overrides):
    defaults = dict(enabled=True, rate_per_switch=100.0, burst=10.0,
                    queue_limit=8, seed=0)
    defaults.update(overrides)
    return ResilienceConfig(**defaults)


def series(registry):
    """Every ``resilience.*`` counter and histogram, comparable."""
    return sorted(repr(instrument.to_dict())
                  for instrument in registry.instruments()
                  if instrument.name.startswith("resilience."))


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmissionController:
    def test_burst_admitted_back_to_back(self):
        adm = AdmissionController(rate=10.0, burst=5.0)
        verdicts = [adm.offer("e", now=0.0) for _ in range(5)]
        assert all(v.admitted for v in verdicts)
        assert all(v.queued_delay == 0.0 for v in verdicts)

    def test_sheds_without_queue(self):
        # GCRA admits while delay <= 0: with burst=1 the second
        # arrival ties the TAT exactly and still conforms.
        adm = AdmissionController(rate=10.0, burst=1.0, queue_limit=0)
        assert adm.offer("e", now=0.0).admitted
        assert adm.offer("e", now=0.0).admitted
        verdict = adm.offer("e", now=0.0)
        assert not verdict.admitted
        assert verdict.shed_reason == SHED_QUEUE_FULL

    def test_queue_delay_is_token_wait(self):
        adm = AdmissionController(rate=10.0, burst=1.0, queue_limit=4)
        assert adm.offer("e", now=0.0).queued_delay == 0.0
        assert adm.offer("e", now=0.0).queued_delay == 0.0
        verdict = adm.offer("e", now=0.0, priority=2)
        assert verdict.admitted
        # One token every 100ms; the third arrival waits for the next.
        assert verdict.queued_delay == pytest.approx(0.1)
        assert verdict.occupancy == 1

    def test_priority_shares_the_queue(self):
        adm = AdmissionController(rate=10.0, burst=1.0, queue_limit=9,
                                  max_priority=2)
        assert adm.allowed_occupancy(0) == 3
        assert adm.allowed_occupancy(1) == 6
        assert adm.allowed_occupancy(2) == 9
        # Fill the queue to depth 4: too deep for best-effort,
        # fine for normal traffic.
        for _ in range(5):
            assert adm.offer("e", now=0.0, priority=2).admitted
        low = adm.offer("e", now=0.0, priority=0)
        assert not low.admitted
        assert low.shed_reason == SHED_PRIORITY
        assert adm.offer("e", now=0.0, priority=1).admitted

    def test_queue_full_sheds_even_critical(self):
        adm = AdmissionController(rate=10.0, burst=1.0, queue_limit=2,
                                  max_priority=2)
        for _ in range(3):
            assert adm.offer("e", now=0.0, priority=2).admitted
        # Keep hammering at max priority: once the queue overflows,
        # even critical traffic is shed with the queue_full reason.
        verdict = adm.offer("e", now=0.0, priority=2)
        while verdict.admitted:
            verdict = adm.offer("e", now=0.0, priority=2)
        assert verdict.shed_reason == SHED_QUEUE_FULL

    def test_shed_does_not_consume_tokens(self):
        adm = AdmissionController(rate=10.0, burst=1.0, queue_limit=0)
        assert adm.offer("e", now=0.0).admitted
        assert adm.offer("e", now=0.0).admitted
        for _ in range(100):
            assert not adm.offer("e", now=0.0).admitted
        # TAT did not advance on sheds: one token interval later the
        # entry is conforming again.
        assert adm.offer("e", now=0.1).admitted

    def test_entries_are_independent(self):
        adm = AdmissionController(rate=10.0, burst=1.0, queue_limit=0)
        for _ in range(2):
            assert adm.offer("a", now=0.0).admitted
            assert adm.offer("b", now=0.0).admitted
        assert not adm.offer("a", now=0.0).admitted
        assert not adm.offer("b", now=0.0).admitted

    def test_reset_drains_queues(self):
        adm = AdmissionController(rate=10.0, burst=1.0, queue_limit=0)
        adm.offer("e", now=0.0)
        adm.offer("e", now=0.0)
        assert not adm.offer("e", now=0.0).admitted
        adm.reset()
        assert adm.offer("e", now=0.0).admitted

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            AdmissionController(rate=0.0)
        with pytest.raises(ValueError, match="burst"):
            AdmissionController(rate=1.0, burst=0.5)
        with pytest.raises(ValueError, match="queue_limit"):
            AdmissionController(rate=1.0, queue_limit=-1)

    @settings(max_examples=60, deadline=None)
    @given(
        rate=st.floats(min_value=1.0, max_value=500.0,
                       allow_nan=False, allow_infinity=False),
        gap_factors=st.lists(
            st.floats(min_value=1.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=200),
    )
    def test_conforming_traffic_never_shed(self, rate, gap_factors):
        """The acceptance property: arrivals spaced at least one token
        interval apart are always admitted with zero queue wait, for
        any rate — even with no burst headroom and no queue."""
        adm = AdmissionController(rate=rate, burst=1.0, queue_limit=0)
        now = 0.0
        for factor in gap_factors:
            verdict = adm.offer("entry", now=now)
            assert verdict.admitted
            assert verdict.queued_delay == 0.0
            now += factor / rate

    @settings(max_examples=60, deadline=None)
    @given(
        batches=st.lists(st.tuples(
            st.floats(min_value=0.0, max_value=0.2),
            st.lists(st.tuples(st.sampled_from("abc"),
                               st.integers(min_value=-1, max_value=3)),
                     max_size=40)),
            min_size=1, max_size=6),
        queue_limit=st.integers(min_value=0, max_value=9),
    )
    def test_offer_many_is_sequential_offers(self, batches,
                                             queue_limit):
        """One pass over a batch decides, books and counts exactly what
        one ``offer`` per request does — a low priority shed before a
        high one admitted at the same entry included."""
        def decide(many):
            adm = AdmissionController(rate=20.0, burst=2.0,
                                      queue_limit=queue_limit)
            registry = obs.MetricsRegistry()
            previous = obs.set_default_registry(registry)
            try:
                now, verdicts = 0.0, []
                for gap, requests in batches:
                    now += gap
                    entries = [entry for entry, _ in requests]
                    priorities = [priority for _, priority in requests]
                    if many:
                        verdicts += adm.offer_many(entries, now,
                                                   priorities)
                    else:
                        verdicts += [
                            (v.queued_delay, v.shed_reason, v.occupancy)
                            for v in map(adm.offer, entries,
                                         [now] * len(entries),
                                         priorities)]
            finally:
                obs.set_default_registry(previous)
            return verdicts, adm._tat, series(registry)

        assert decide(many=True) == decide(many=False)


# ----------------------------------------------------------------------
# deadlines and retries
# ----------------------------------------------------------------------
class TestDeadlineBudget:
    def test_accounting(self):
        budget = DeadlineBudget(start=10.0, timeout=0.5)
        assert budget.deadline == pytest.approx(10.5)
        assert budget.remaining(10.2) == pytest.approx(0.3)
        assert budget.remaining(11.0) == 0.0
        assert not budget.expired(10.4)
        assert budget.expired(10.5)
        assert budget.elapsed(10.3) == pytest.approx(0.3)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            DeadlineBudget(start=0.0, timeout=0.0)


class TestRetryPolicy:
    def test_gives_up_at_attempt_limit(self):
        policy = RetryPolicy(base=0.01, max_attempts=3)
        rng = np.random.default_rng(0)
        assert policy.next_delay(1, remaining=10.0, rng=rng) is not None
        assert policy.next_delay(2, remaining=10.0, rng=rng) is not None
        assert policy.next_delay(3, remaining=10.0, rng=rng) is None

    def test_never_exceeds_remaining_budget(self):
        policy = RetryPolicy(base=0.01, multiplier=2.0, jitter=0.5,
                             max_attempts=10)
        rng = np.random.default_rng(7)
        for attempts in range(1, 10):
            for remaining in (1e-6, 0.005, 0.02, 0.1):
                delay = policy.next_delay(attempts, remaining, rng)
                if delay is not None:
                    assert delay < remaining

    def test_jitter_bounds(self):
        policy = RetryPolicy(base=0.01, multiplier=2.0, jitter=0.5,
                             max_attempts=5)
        rng = np.random.default_rng(3)
        for attempts in range(1, 5):
            nominal = 0.01 * 2.0 ** (attempts - 1)
            for _ in range(50):
                delay = policy.next_delay(attempts, remaining=10.0,
                                          rng=rng)
                assert 0.5 * nominal <= delay <= 1.5 * nominal

    def test_deterministic_under_seed(self):
        policy = RetryPolicy(base=0.01, jitter=0.4, max_attempts=5)
        a = [policy.next_delay(n, 10.0, np.random.default_rng(9))
             for n in range(1, 5)]
        b = [policy.next_delay(n, 10.0, np.random.default_rng(9))
             for n in range(1, 5)]
        assert a == b


# ----------------------------------------------------------------------
# circuit breakers
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure(0.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.OPEN

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        breaker.record_success(0.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.CLOSED

    def test_open_refuses_until_recovery(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_time=1.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(0.5)
        assert breaker.state is BreakerState.OPEN
        assert breaker.allow(1.0)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_closes_after_probe_successes(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_time=0.1,
                                 half_open_probes=2)
        breaker.record_failure(0.0)
        assert breaker.allow(0.2)
        breaker.record_success(0.2)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success(0.3)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_time=0.1)
        breaker.record_failure(0.0)
        assert breaker.allow(0.2)
        breaker.record_failure(0.2)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(0.25)

    def test_success_does_not_close_open_breaker(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_time=5.0)
        breaker.record_failure(0.0)
        breaker.record_success(0.1)
        assert breaker.state is BreakerState.OPEN

    def test_force_open(self):
        breaker = CircuitBreaker(failure_threshold=100)
        breaker.force_open(0.0)
        assert breaker.state is BreakerState.OPEN


class TestBreakerBoard:
    def test_unknown_key_allows_without_creating(self):
        board = BreakerBoard()
        assert board.allow(("switch", 3), now=0.0)
        assert not board.any_tripped()
        assert board.states() == {}

    def test_failure_threshold_and_introspection(self):
        board = BreakerBoard(failure_threshold=2)
        board.failure(("switch", 3), 0.0)
        board.failure(("switch", 3), 0.0)
        assert board.any_tripped()
        assert board.tripped() == [("switch", 3)]
        assert board.states() == {"switch:3": "open"}
        assert not board.allow(("switch", 3), now=0.1)

    def test_absorb_fault_state(self, net):
        injector = FaultInjector(net, seed=0)
        injector.crash_switch(2)
        injector.crash_server(5, 0)
        board = BreakerBoard()
        tripped = board.absorb(net.fault_state, now=0.0)
        assert tripped == 2
        assert not board.allow(("switch", 2), now=0.0)
        assert not board.allow(("server", (5, 0)), now=0.0)
        # Idempotent: already-open breakers are not re-tripped.
        assert board.absorb(net.fault_state, now=0.0) == 0
        assert not board.quiet()
        board.reset()
        assert board.quiet()

    def test_quiet_means_no_failure_counted(self):
        """Quiet is "closed with a zero failure count" everywhere: a
        counted failure that trips nothing still ends it."""
        board = BreakerBoard(failure_threshold=2, recovery_time=0.1,
                             half_open_probes=1)
        key = ("server", (3, 0))
        assert board.quiet()
        board.success(key, 0.0)
        board.allow(key, 0.0)
        assert board.quiet() and board.states() == {}
        board.failure(key, 0.0)
        assert not board.quiet() and not board.any_tripped()
        board.success(key, 0.0)
        assert board.quiet() and board.states() == {"server:(3, 0)":
                                                    "closed"}
        board.failure(key, 0.0)
        board.failure(key, 0.0)
        assert not board.allow(key, 0.05)
        assert board.allow(key, 0.1)  # half-open: still not quiet
        assert not board.quiet()
        board.success(key, 0.1)
        assert board.quiet()
        board.force_open(("switch", 1), 0.2)
        assert not board.quiet()

    def test_transition_counters(self):
        previous = obs.set_default_registry(obs.MetricsRegistry())
        try:
            board = BreakerBoard(failure_threshold=1, recovery_time=0.1,
                                 half_open_probes=1)
            board.failure(("switch", 1), 0.0)
            board.allow(("switch", 1), 0.2)
            board.success(("switch", 1), 0.2)
            values = obs.default_registry().counter_values("resilience.")
            assert values["resilience.breaker_opens"] == 1
            assert values["resilience.breaker_half_opens"] == 1
            assert values["resilience.breaker_closes"] == 1
        finally:
            obs.set_default_registry(previous)


# ----------------------------------------------------------------------
# disabled passthrough
# ----------------------------------------------------------------------
class TestDisabledPassthrough:
    def test_results_identical_to_raw_network(self):
        raw = build_net(seed=3)
        wrapped_net = build_net(seed=3)
        pipeline = ResilientNetwork(wrapped_net)  # default: disabled
        ids = [f"item-{i}" for i in range(30)]

        raw_placed = raw.place_many(
            ids, copies=2, rng=np.random.default_rng(11))
        outcomes = pipeline.place_many(
            ids, copies=2, rng=np.random.default_rng(11))
        assert [o.result for o in outcomes] == raw_placed
        assert all(o.ok for o in outcomes)

        raw_results = raw.retrieve_many(
            ids, copies=2, rng=np.random.default_rng(12))
        wrapped = pipeline.retrieve_many(
            ids, copies=2, rng=np.random.default_rng(12))
        assert [o.result for o in wrapped] == raw_results

        r1 = raw.retrieve("item-0", entry_switch=4, copies=2)
        r2 = pipeline.retrieve("item-0", entry_switch=4, copies=2)
        assert r2.result == r1
        assert r2.ok == r1.found

    @pytest.mark.parametrize("enabled", [False, True])
    def test_short_priorities_raise_before_any_store(self, net, enabled):
        """A ``priorities`` column of the wrong length is refused on
        both configs, before the batch reaches the network."""
        pipeline = net.resilient(ResilienceConfig(enabled=enabled))
        with pytest.raises(GredError, match="priorities has 1 entries"):
            pipeline.place_many(["a", "b", "c"], priorities=[1])
        with pytest.raises(GredError, match="priorities has 1 entries"):
            pipeline.retrieve_many(["a", "b", "c"], priorities=[1])
        assert sum(net.load_vector()) == 0

    def test_no_state_accumulated(self, net):
        pipeline = ResilientNetwork(net)
        pipeline.place("x", payload=b"v")
        pipeline.retrieve("x")
        assert not pipeline.breakers.states()


# ----------------------------------------------------------------------
# enabled pipeline
# ----------------------------------------------------------------------
class TestResilientPipeline:
    def test_place_then_retrieve(self, net):
        pipeline = net.resilient(enabled_config())
        placed = pipeline.place("doc", payload=b"v", copies=2, now=0.0)
        assert placed.ok
        assert len(placed.records) == 2
        assert placed.latency > 0.0
        got = pipeline.retrieve("doc", copies=2, now=0.1)
        assert got.ok
        assert got.result.payload == b"v"
        assert not got.deadline_missed

    def test_overload_sheds_by_priority(self, net):
        pipeline = net.resilient(enabled_config(
            rate_per_switch=10.0, burst=2.0, queue_limit=4))
        pipeline.place("doc", payload=b"v", now=0.0)
        entry = sorted(net.switch_ids())[0]
        outcomes = [
            pipeline.retrieve("doc", entry_switch=entry, priority=0,
                              now=0.001)
            for _ in range(20)
        ]
        shed = [o for o in outcomes if not o.admitted]
        assert shed
        assert {o.shed_reason for o in shed} <= {
            SHED_PRIORITY, SHED_QUEUE_FULL}

    def test_crashed_entry_is_shed(self, net):
        pipeline = net.resilient(enabled_config())
        pipeline.place("doc", payload=b"v", now=0.0)
        injector = FaultInjector(net, seed=0)
        entry = sorted(net.switch_ids())[0]
        injector.crash_switch(entry)
        outcome = pipeline.retrieve("doc", entry_switch=entry, now=1.0)
        assert not outcome.admitted
        assert outcome.shed_reason == SHED_ENTRY_DOWN

    def test_routes_around_crashed_server(self, net):
        pipeline = net.resilient(enabled_config())
        placed = pipeline.place("doc", payload=b"v", copies=3, now=0.0)
        assert placed.ok
        injector = FaultInjector(net, seed=0)
        victim = placed.records[0].server_id
        injector.crash_server(*victim)
        assert pipeline.absorb_faults(now=1.0) >= 1
        outcome = pipeline.retrieve("doc", copies=3, now=1.0)
        assert outcome.ok
        assert outcome.result.payload == b"v"

    def test_hedged_read_on_tight_deadline(self, net):
        pipeline = net.resilient(enabled_config(hedge_fraction=1.0))
        pipeline.place("doc", payload=b"v", copies=2, now=0.0)
        # hedge_fraction=1.0 puts every request "at risk" on arrival,
        # so a 2-copy read forks immediately.
        outcome = pipeline.retrieve("doc", copies=2, now=1.0)
        assert outcome.ok
        assert outcome.hedged
        assert outcome.attempts >= 2

    def test_batch_degrades_to_scalar_when_tripped(self, net):
        pipeline = net.resilient(enabled_config())
        ids = [f"b-{i}" for i in range(10)]
        outcomes = pipeline.place_many(
            ids, payloads=[b"v"] * 10, copies=2, now=0.0)
        assert all(o.ok for o in outcomes)
        pipeline.breakers.force_open(("switch", 999), now=0.0)
        results = pipeline.retrieve_many(ids, copies=2, now=1.0)
        admitted = [o for o in results if o.admitted]
        assert admitted
        assert all(o.ok for o in admitted)

    def test_stats_shape(self, net):
        pipeline = net.resilient(enabled_config())
        pipeline.breakers.force_open(("switch", 1), now=0.0)
        stats = pipeline.stats()
        assert stats["enabled"]
        assert stats["tripped"] == ["switch:1"]
        assert stats["breakers"] == {"switch:1": "open"}

    def test_counters_emitted(self, net):
        previous = obs.set_default_registry(obs.MetricsRegistry())
        try:
            pipeline = net.resilient(enabled_config())
            pipeline.place("doc", payload=b"v", now=0.0)
            pipeline.retrieve("doc", now=0.1)
            values = obs.default_registry().counter_values("resilience.")
            assert values["resilience.admitted"] == 2
            assert values["resilience.requests{kind=place}"] == 1
            assert values["resilience.requests{kind=retrieve}"] == 1
        finally:
            obs.set_default_registry(previous)


# ----------------------------------------------------------------------
# packet-level simulator integration
# ----------------------------------------------------------------------
class TestPacketSimAdmission:
    def test_shed_at_injection(self, net):
        net.place("item", payload=b"x", entry_switch=0)
        adm = AdmissionController(rate=2.0, burst=1.0, queue_limit=1)
        sim = PacketLevelSimulator(net, admission=adm)
        entry = sorted(net.switch_ids())[0]
        trace = [RetrievalRequest(time=0.001 * i, data_id="item",
                                  entry_switch=entry)
                 for i in range(6)]
        completed = sim.run(trace)
        assert len(completed) + len(sim.failed) == 6
        assert sim.failed
        assert all("shed by admission control" in f.reason
                   for f in sim.failed)

    def test_queue_wait_shows_in_response_delay(self, net):
        net.place("item", payload=b"x", entry_switch=0)
        adm = AdmissionController(rate=10.0, burst=1.0, queue_limit=8)
        sim = PacketLevelSimulator(net, admission=adm)
        entry = sorted(net.switch_ids())[0]
        trace = [RetrievalRequest(time=0.0, data_id="item",
                                  entry_switch=entry)
                 for _ in range(4)]
        completed = sim.run(trace)
        assert len(completed) == 4
        delays = sorted(c.response_delay for c in completed)
        # Two arrivals conform (burst window); the queued ones waited
        # ~0.1s and ~0.2s for their tokens before injection.
        assert delays[2] >= 0.1
        assert delays[3] >= 0.2

    def test_no_admission_is_unchanged(self, net):
        net.place("item", payload=b"x", entry_switch=0)
        entry = sorted(net.switch_ids())[0]
        trace = [RetrievalRequest(time=0.0, data_id="item",
                                  entry_switch=entry)]
        baseline = PacketLevelSimulator(net).run(trace)
        again = PacketLevelSimulator(net, admission=None).run(trace)
        assert baseline[0].response_delay == again[0].response_delay


# ----------------------------------------------------------------------
# chaos + overload acceptance
# ----------------------------------------------------------------------
class TestChaosUnderOverload:
    def test_bounded_p99_and_no_lost_acknowledged_writes(self):
        """Crash a replica mid-overload: every write the pipeline
        acknowledged stays retrievable, and admitted-request latency
        stays bounded by the deadline budget."""
        net = build_net(switches=24, servers=2, seed=5)
        deadline = 0.25
        pipeline = net.resilient(enabled_config(
            rate_per_switch=50.0, burst=10.0, queue_limit=8,
            default_deadline=deadline))
        ids = [f"ack-{i}" for i in range(40)]
        acknowledged = []
        holders = {}  # data_id -> list of server_ids holding a copy
        now = 0.0
        for i, data_id in enumerate(ids):
            outcome = pipeline.place(data_id, payload=b"v", copies=2,
                                     priority=2, now=now)
            if outcome.ok:
                acknowledged.append(data_id)
                holders[data_id] = [rec.server_id
                                    for rec in outcome.records]
            now += 0.01
        assert len(acknowledged) >= 30

        # Chaos strikes: one server and one switch die.  On a small
        # topology both replicas of an item can land on the same
        # switch, so pick victims that leave every acknowledged write
        # at least one surviving copy — the zero-loss claim is about
        # the pipeline, not about double-fault replica collisions.
        def survives(crashed_switch, crashed_server):
            return all(
                any(sid != crashed_server and sid[0] != crashed_switch
                    for sid in sids)
                for sids in holders.values())

        live = sorted(net.switch_ids())
        victim_server = next(
            sid for sids in holders.values() for sid in sids
            if survives(None, sid))
        victim_switch = next(
            s for s in reversed(live)
            if s != victim_server[0] and survives(s, victim_server))
        injector = FaultInjector(net, seed=1)
        injector.crash_switch(victim_switch)
        injector.crash_server(*victim_server)
        pipeline.absorb_faults(now=now)

        # Overload: a burst of retrievals far above one entry's rate.
        entries = [s for s in live[:4]
                   if s not in (victim_switch, victim_server[0])]
        rng = np.random.default_rng(9)
        latencies = []
        lost = []
        for i in range(300):
            now += float(rng.exponential(1.0 / 400.0))
            data_id = acknowledged[i % len(acknowledged)]
            entry = entries[i % len(entries)]
            outcome = pipeline.retrieve(data_id, entry_switch=entry,
                                        copies=2, priority=1, now=now)
            if not outcome.admitted:
                continue
            latencies.append(outcome.latency)
            if not outcome.ok:
                lost.append(data_id)
        assert latencies, "overload shed everything"
        assert lost == [], f"acknowledged writes lost: {lost}"
        p99 = float(np.percentile(np.asarray(latencies), 99.0))
        assert p99 <= deadline


# ----------------------------------------------------------------------
# quiet board and bulk admission
# ----------------------------------------------------------------------
class _Side:
    """One pipeline of the quiet-board differential.  The reference
    side's board is never quiet, so it derives every breaker key and
    makes every feed, and it admits a batch one ``offer`` at a time:
    the pipeline without either shortcut."""

    def __init__(self, telemetry: bool, reference: bool) -> None:
        # Six one-server switches, so a batch's misses and hits share
        # servers; a tiny bucket, so a batch at one entry queues and
        # sheds by priority.
        self.net = build_net(switches=6, servers=1, seed=4,
                             cvt_iterations=3)
        self.pipeline = self.net.resilient(enabled_config(
            rate_per_switch=40.0, burst=2.0, queue_limit=4,
            breaker_failure_threshold=3, breaker_recovery_time=0.2,
            breaker_half_open_probes=1))
        self.registry = obs.MetricsRegistry(enabled=telemetry)
        self.rng = np.random.default_rng(5)
        self.injector = None
        if reference:
            board, adm = self.pipeline.breakers, self.pipeline.admission
            board.quiet = lambda: False
            adm.offer_many = lambda entries, now, priorities: [
                (v.queued_delay, v.shed_reason, v.occupancy)
                for v in map(adm.offer, entries, [now] * len(entries),
                             priorities)]

    def run(self, step, now):
        previous = obs.set_default_registry(self.registry)
        try:
            return self._apply(step, now)
        except Exception as err:  # both sides must fail alike
            return ("raised", type(err).__name__, str(err))
        finally:
            obs.set_default_registry(previous)

    def _apply(self, step, now):
        from repro.faults import FailureDetector

        kind, pipeline = step[0], self.pipeline
        live = sorted(self.net.switch_ids())
        if kind in ("place", "retrieve"):
            _, picks, copies, priorities, batch, entry_mode = step
            ids = [f"d{k}" for k in picks]
            priorities = priorities[:len(ids)]
            entries = {"drawn": [None] * len(ids),
                       "spread": [live[k % len(live)] for k in picks],
                       "one": [live[0]] * len(ids)}[entry_mode]
            kwargs = dict(copies=copies, now=now, rng=self.rng)
            if batch:
                column = None if entry_mode == "drawn" else entries
                if kind == "place":
                    return pipeline.place_many(
                        ids, payloads=ids, entry_switches=column,
                        priorities=priorities, **kwargs)
                return pipeline.retrieve_many(
                    ids, entry_switches=column, priorities=priorities,
                    **kwargs)
            if kind == "place":
                return [pipeline.place(data_id, payload=data_id,
                                       entry_switch=entry,
                                       priority=priority, **kwargs)
                        for data_id, entry, priority
                        in zip(ids, entries, priorities)]
            return [pipeline.retrieve(data_id, entry_switch=entry,
                                      priority=priority, **kwargs)
                    for data_id, entry, priority
                    in zip(ids, entries, priorities)]
        if kind == "repair":
            if self.injector is not None:
                FailureDetector(self.net).repair()
            return None
        pick = live[step[1] % len(live)]
        if kind == "force_open":
            key = ("switch", pick) if step[1] % 2 else ("server", (pick, 0))
            return pipeline.breakers.force_open(key, now)
        if self.injector is None:
            self.injector = FaultInjector(self.net, seed=0)
        state = self.injector.state
        if kind == "crash_server" and (pick, 0) not in state.crashed_servers:
            self.injector.crash_server(pick, 0)
        elif kind == "crash_switch" and not state.crashed_switches:
            self.injector.crash_switch(pick)
        return pipeline.absorb_faults(now)

    def state(self):
        pipeline = self.pipeline
        return (pipeline.breakers.states(),
                {key: (b.state, b._consecutive_failures,
                       b._probe_successes, b._opened_at)
                 for key, b in pipeline.breakers._breakers.items()},
                pipeline.admission._tat, pipeline._clock,
                pipeline._rng.bit_generator.state,
                self.rng.bit_generator.state, self.net.load_vector(),
                series(self.registry))


#: A request: kind, ids, copies, priorities, batch or scalar, and how
#: entries are chosen ("one" puts the whole request on one entry).
_REQUEST = st.tuples(
    st.sampled_from(["place", "retrieve"]),
    st.lists(st.integers(min_value=0, max_value=9), min_size=1,
             max_size=8),
    st.integers(min_value=1, max_value=3),
    st.lists(st.integers(min_value=0, max_value=2), min_size=8,
             max_size=8),
    st.booleans(),
    st.sampled_from(["drawn", "spread", "one"]))
_EVENT = st.one_of(
    st.tuples(st.sampled_from(["crash_server", "crash_switch",
                               "force_open"]),
              st.integers(min_value=0, max_value=63)),
    st.just(("repair",)))


class TestQuietBoard:
    """A healthy request skips the breaker and admission work that
    cannot change its outcome — and only that work."""

    @settings(max_examples=60, deadline=None)
    # A batch that makes a quiet board loud with a miss on d2, then
    # hits d0 on the same server: the hit must reset the count.
    @example(steps=[(("place", [0], 1, [1] * 8, True, "spread"), 0.0),
                    (("retrieve", [2, 0], 1, [1] * 8, True, "spread"),
                     0.001)],
             telemetry=False)
    # A batch at one entry whose fifth request (priority 0) is shed and
    # whose sixth (priority 1) still fits the queue.
    @example(steps=[(("place", list(range(7)), 1, [2, 2, 2, 2, 0, 1, 1, 1],
                      True, "one"), 0.0)],
             telemetry=True)
    @given(steps=st.lists(
               st.tuples(st.one_of(_REQUEST, _REQUEST, _REQUEST, _EVENT),
                         st.sampled_from([0.0, 0.001, 0.05, 0.3])),
               min_size=1, max_size=14),
           telemetry=st.booleans())
    def test_quiet_board_changes_no_outcome(self, steps, telemetry):
        """Scalar and batch place/retrieve (misses on never-placed ids
        included), overload bursts, crashes absorbed into the board,
        repairs and forced-open breakers: every outcome, breaker,
        failure count, bucket, clock and ``resilience.*`` series equals
        the reference pipeline's."""
        ours, reference = _Side(telemetry, False), _Side(telemetry, True)
        now = 0.0
        for step, gap in steps:
            now += gap
            assert ours.run(step, now) == reference.run(step, now), step
            assert ours.state() == reference.state(), step

    def test_a_hit_after_a_miss_in_one_batch_resets_the_count(self, net):
        """The board is asked before every feed, not once per batch: a
        miss on a server makes it loud mid-batch, and a later hit on
        that server must still reset the count."""
        pipeline = net.resilient(enabled_config())
        placed = pipeline.place_many([f"mh/{i}" for i in range(40)],
                                     now=0.0)
        holder = {o.result.records[0].server_id: o.data_id
                  for o in placed}
        missing = next(
            data_id for data_id in (f"mh/gone/{i}" for i in range(500))
            if pipeline._breaker_keys(data_id)[2][1] in holder)
        server = pipeline._breaker_keys(missing)[2]
        got = pipeline.retrieve_many([missing, holder[server[1]]],
                                     now=1.0)
        assert [o.ok for o in got] == [False, True]
        assert pipeline.breakers.get(server)._consecutive_failures == 0
        assert pipeline.breakers.quiet()

    def test_healthy_requests_derive_no_breaker_key(self, monkeypatch):
        """No owner lookup and no server hash on a quiet board, at
        every copy count, scalar and batch: the lookup raises, so one
        call would fail the run.  One forced-open breaker brings both
        back."""
        from repro.resilience import pipeline as module

        net = build_net(switches=30, cvt_iterations=5)
        pipeline = net.resilient(ResilienceConfig(enabled=True))
        hashes, lookup = [], net.destination_switch
        index = module.server_index

        def owner_lookup(data_id):
            raise RuntimeError(f"owner lookup for {data_id}")

        monkeypatch.setattr(net, "destination_switch", owner_lookup)
        monkeypatch.setattr(module, "server_index",
                            lambda *a: hashes.append(a) or index(*a))
        ids = [f"smoke/{i}" for i in range(200)]
        for copies in (1, 2, 3):
            now = 10.0 * copies
            assert all(o.ok for o in pipeline.place_many(
                ids, copies=copies, now=now))
            assert all(o.ok for o in pipeline.retrieve_many(
                ids, copies=copies, now=now + 1))
            assert pipeline.place("smoke/x", b"v", copies=copies,
                                  now=now + 2).ok
            assert pipeline.retrieve("smoke/x", copies=copies,
                                     now=now + 3).ok
        assert hashes == []
        pipeline.breakers.force_open(("switch", 999), now=50.0)
        with pytest.raises(RuntimeError, match="owner lookup"):
            pipeline.retrieve("smoke/x", now=51.0)
        monkeypatch.setattr(net, "destination_switch", lookup)
        assert pipeline.retrieve("smoke/x", now=52.0).ok
        assert hashes

    @pytest.mark.parametrize("seed", ["generator", "int"])
    def test_drawn_entries_match_per_item_draws(self, seed, monkeypatch):
        """``entry_switches=None`` (or a ``None`` in the column) draws
        the whole batch from one live pool, consuming ``rng`` exactly
        like one scalar draw per item in request order."""
        def make():
            return np.random.default_rng(21) if seed == "generator" else 21

        net, twin = build_net(), build_net()
        pipeline = net.resilient(enabled_config())
        reference = twin.resilient(enabled_config())
        pools = []
        pool = net._entry_pool
        monkeypatch.setattr(net, "_entry_pool",
                            lambda: pools.append(1) or pool())
        ids = [f"draw/{i}" for i in range(12)]
        fixed = sorted(net.switch_ids())[3]
        for column in (None, [None, fixed, None, None] * 3):
            for name in ("place_many", "retrieve_many"):
                ours, theirs = make(), make()
                got = getattr(pipeline, name)(
                    ids, entry_switches=column, copies=2, rng=ours)
                entries = [twin._resolve_entry(entry, theirs)
                           for entry in column or [None] * len(ids)]
                want = getattr(reference, name)(
                    ids, entry_switches=entries, copies=2)
                assert got == want
                if seed == "generator":
                    assert ours.integers(1 << 30) == \
                        theirs.integers(1 << 30)
        assert len(pools) == 4  # one pool per batch
