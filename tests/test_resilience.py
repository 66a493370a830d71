"""Tests for the resilient request pipeline (repro.resilience).

Covers GCRA admission control (including the hypothesis property that
traffic within the token budget is never shed), deadline-bounded retry
backoff, the circuit-breaker state machine, the disabled-passthrough
guarantee (byte-identical results to the raw network), hedged reads,
breaker-aware routing-around, and the combined chaos + overload
acceptance scenario: bounded p99 latency with zero lost acknowledged
writes.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (GredError, GredNetwork, attach_uniform,
                   brite_waxman_graph)
from repro import obs
from repro.faults import FaultInjector
from repro.graph import bfs_path
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


def reference_decide(adm, entry, now, priority):
    """The GCRA decision of one request, written out once per request
    as the controller made it before its batch loop hoisted the
    constants: ``(queued delay, shed reason or None, occupancy)``, with
    its token taken and its series booked.  The oracle the hoisted
    loop must match float for float."""
    registry = obs.default_registry()
    tat = max(adm._tat.get(entry, float("-inf")), now)
    delay = tat - now - adm.burst / adm.rate
    if delay <= 0:  # a token is available: admit at once
        delay, occupancy = 0.0, 0
    else:
        occupancy = int(math.ceil(delay * adm.rate))
        if occupancy > adm.allowed_occupancy(priority):
            reason = (SHED_QUEUE_FULL if occupancy > adm.queue_limit
                      else SHED_PRIORITY)
            if registry.enabled:
                registry.counter("resilience.shed", reason=reason).inc()
            return 0.0, reason, occupancy
    adm._tat[entry] = tat + 1.0 / adm.rate
    if registry.enabled:
        registry.counter("resilience.admitted").inc()
        registry.histogram("resilience.queue_wait_seconds",
                           buckets=obs.TIME_BUCKETS).observe(delay)
    return delay, None, occupancy


class TestConfig:
    @pytest.mark.parametrize("name", [
        f.name for f in dataclasses.fields(ResilienceConfig)
        if isinstance(f.default, float)])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_float_names_the_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ResilienceConfig(**{name: value})

    def test_latency_defaults_to_half_a_millisecond_a_hop(self):
        latency = ResilienceConfig().latency
        assert (latency.link_delay, latency.switch_delay,
                latency.server_service_time) == (0.0005, 0.0, 0.001)


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
        rate=st.floats(min_value=1.0, max_value=200.0),
        burst=st.floats(min_value=1.0, max_value=8.0),
    )
    def test_offer_many_is_sequential_offers(self, batches, queue_limit,
                                             rate, burst):
        """One pass over a batch decides, books and counts exactly what
        one ``offer`` per request does, and exactly what the per-request
        reference decision does, to the last bit of every delay and
        bucket — a low priority shed before a high one admitted at the
        same entry included."""
        def decide(how):
            adm = AdmissionController(rate=rate, burst=burst,
                                      queue_limit=queue_limit)
            registry = obs.MetricsRegistry()
            previous = obs.set_default_registry(registry)
            try:
                now, verdicts = 0.0, []
                for gap, requests in batches:
                    now += gap
                    entries = [entry for entry, _ in requests]
                    priorities = [priority for _, priority in requests]
                    if how == "many":
                        verdicts += adm.offer_many(entries, now,
                                                   priorities)
                    elif how == "offer":
                        verdicts += [
                            (v.queued_delay, v.shed_reason, v.occupancy)
                            for v in map(adm.offer, entries,
                                         [now] * len(entries),
                                         priorities)]
                    else:
                        verdicts += [
                            reference_decide(adm, entry, now, priority)
                            for entry, priority in zip(entries,
                                                       priorities)]
            finally:
                obs.set_default_registry(previous)
            return verdicts, adm._tat, series(registry)

        many = decide("many")
        assert many == decide("offer")
        assert many == decide("reference")


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

    @pytest.mark.parametrize("enabled", [False, True])
    @pytest.mark.parametrize("now", [math.inf, -math.inf, math.nan])
    def test_non_finite_now_moves_nothing(self, net, enabled, now):
        """A non-finite arrival time raises the same ``ValueError`` on
        every request call and in ``absorb_faults``, before a token is
        spent or the clock moves; the pipeline keeps serving."""
        pipeline = net.resilient(enabled_config(enabled=enabled))
        assert pipeline.place("doc", payload=b"v", now=1.0).ok
        clock, tat = pipeline._clock, dict(pipeline.admission._tat)
        for call in (
                lambda: pipeline.place("new", payload=b"v", now=now),
                lambda: pipeline.retrieve("doc", now=now),
                lambda: pipeline.place_many(["new"], now=now),
                lambda: pipeline.retrieve_many(["doc"], now=now),
                lambda: pipeline.absorb_faults(now=now)):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == ("now must be None or a finite "
                                         f"number of seconds, got {now!r}")
        assert (pipeline._clock, pipeline.admission._tat) == (clock, tat)
        assert sum(net.load_vector()) == 1
        assert pipeline.place("new", payload=b"v").admitted
        assert pipeline.retrieve("doc").ok

    def test_every_placement_outcome_carries_its_records(self):
        """Scalar and batch, enabled and disabled: an acknowledged
        placement lists every copy it stored, the result's records."""
        entry = sorted(build_net().switch_ids())[4]
        records = []
        for enabled in (False, True):
            for batch in (False, True):
                pipeline = build_net().resilient(
                    enabled_config(enabled=enabled))
                outcome = (pipeline.place_many(
                    ["doc"], payloads=[b"v"], entry_switches=[entry],
                    copies=2, now=0.0)[0] if batch else pipeline.place(
                    "doc", payload=b"v", entry_switch=entry, copies=2,
                    now=0.0))
                assert outcome.ok
                assert outcome.records == outcome.result.records
                records.append(outcome.records)
        assert len(records[0]) == 2
        assert all(rows == records[0] for rows in records)

    @pytest.mark.parametrize("enabled", [False, True])
    def test_empty_batch(self, net, enabled):
        pipeline = net.resilient(enabled_config(enabled=enabled))
        assert pipeline.place_many([], now=1.0) == []
        assert pipeline.retrieve_many([], now=2.0) == []
        assert pipeline._clock == (2.0 if enabled else 0.0)

    def test_outcome_is_slotted(self, net):
        outcome = net.resilient(enabled_config()).place("doc", now=0.0)
        assert not hasattr(outcome, "__dict__")

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
    makes every feed, and it admits every request, scalar or batch,
    through :func:`reference_decide`: the pipeline without either
    shortcut or the hoisted admission loop.  A ``split`` side sends each
    batch as one batch of one per item, in order."""

    def __init__(self, telemetry: bool, reference: bool,
                 split: bool = False) -> None:
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
        self.split = split
        if reference:
            board, adm = self.pipeline.breakers, self.pipeline.admission
            board.quiet = lambda: False
            adm.offer_many = lambda entries, now, priorities: [
                reference_decide(adm, entry, now, priority)
                for entry, priority in zip(entries, priorities)]

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
                if self.split:
                    return [self._many(kind, [data_id], column and [entry],
                                       [priority], kwargs)[0]
                            for data_id, entry, priority
                            in zip(ids, entries, priorities)]
                return self._many(kind, ids, column, priorities, kwargs)
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
        if kind == "slow_link":
            self.injector = self.injector or FaultInjector(self.net, seed=0)
            return self.injector.set_slow_link(*step[1], 3.0)
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

    def _many(self, kind, ids, column, priorities, kwargs):
        if kind == "place":
            return self.pipeline.place_many(
                ids, payloads=ids, entry_switches=column,
                priorities=priorities, **kwargs)
        return self.pipeline.retrieve_many(
            ids, entry_switches=column, priorities=priorities, **kwargs)

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


#: Batches in which every request finds a token: the wrapped network
#: gets the caller's columns, and a miss on a never-placed id makes the
#: board loud mid-sweep.
_ALL_ADMITTED = [(("place", [0, 1, 2], 2, [1] * 8, True, "spread"), 0.0),
                 (("retrieve", [0, 1, 5, 2], 2, [1] * 8, True, "spread"),
                  0.05)]
#: A batch at one entry whose fourth request queues, whose fifth
#: (priority 0) sheds and whose sixth (priority 2) queues behind it:
#: settled by index.
_SETTLED_BY_INDEX = [
    (("place", [0, 1, 2, 3, 4, 5], 1, [1] * 8, True, "spread"), 0.0),
    (("retrieve", [0, 1, 2, 3, 4, 5], 2, [1, 1, 1, 1, 0, 2, 1, 1], True,
      "one"), 0.3)]

#: A 3-copy placement batch: each request's legs are summed from ``0``.
_THREE_COPIES = [(("place", [0, 1, 2, 3, 4, 5], 3, [1] * 8, True, "spread"),
                  0.0)]
#: One link made 3x slower, then a retrieval batch that crosses it on
#: request traces, on a reply path and on a never-placed id's miss.
_SLOW_REPLY = [(("place", [0, 1, 2, 3, 4, 5], 1, [1] * 8, True, "spread"),
                0.0),
               (("slow_link", (1, 2)), 0.0),
               (("retrieve", [0, 1, 2, 3, 4, 5, 7], 1, [1] * 8, True,
                 "spread"), 0.3)]


def service_time(net, latency, outcome):
    """An admitted outcome's service time through
    :meth:`LatencyModel.round_trip`: a placement's copies, each ack
    retracing its route, added left to right from ``0``; a retrieval
    hit answering along the shortest path home, a miss retracing."""
    faults = net.fault_state
    slowed = faults if faults is not None and faults.slow else None
    if outcome.kind == "place":
        service = 0
        for record in outcome.records:
            service = service + latency.round_trip(
                record.trace, record.physical_hops, None, slowed)
        return service
    result = outcome.result
    if not result.found:
        return latency.round_trip(result.trace, result.request_hops, None,
                                  slowed)
    return latency.round_trip(
        result.trace, result.request_hops, result.response_hops, slowed,
        bfs_path(net.topology, result.server_id[0], result.entry_switch))


#: Tier-1 walks 60 step lists; ``--hypothesis-profile=deep`` (CI's own
#: step) 300.
DEEP = settings.get_current_profile_name() == "deep"
QUIET_WALKS = settings(max_examples=300 if DEEP else 60, deadline=None)


class TestQuietBoard:
    """A healthy request skips the breaker and admission work that
    cannot change its outcome — and only that work."""

    @QUIET_WALKS
    @example(steps=_ALL_ADMITTED, telemetry=True)
    @example(steps=_SETTLED_BY_INDEX, telemetry=False)
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

    @pytest.mark.parametrize("telemetry", [False, True])
    @pytest.mark.parametrize("steps", [_ALL_ADMITTED, _SETTLED_BY_INDEX,
                                       _THREE_COPIES, _SLOW_REPLY])
    def test_a_batch_is_its_items_in_order(self, steps, telemetry):
        """A batch that trips no breaker ends where one batch of one per
        item, in order, ends: the wrapped network handed the caller's
        columns, the settle by index around sheds and the one sweep
        change no outcome, breaker, bucket, clock or series.  (A batch
        picks its path once, so a breaker tripped by an earlier item
        sends only the split side's later items down the scalar path.)
        The last batch, sent into refilled buckets, also matches a fresh
        controller's verdicts, and each latency is its queue wait plus
        the service time :meth:`LatencyModel.round_trip` charges, to
        the bit."""
        ours = _Side(telemetry, False)
        reference = _Side(telemetry, False, split=True)
        now = 0.0
        for step, gap in steps:
            now += gap
            outcomes = ours.run(step, now)
            assert outcomes == reference.run(step, now), step
            assert ours.state() == reference.state(), step
        _, picks, _, priorities, _, entry_mode = step
        live = sorted(ours.net.switch_ids())
        cfg = ours.pipeline.config
        fresh = AdmissionController(cfg.rate_per_switch, cfg.burst,
                                    cfg.queue_limit, cfg.max_priority)
        for outcome, k, priority in zip(outcomes, picks, priorities):
            verdict = fresh.offer(live[0 if entry_mode == "one" else k % 6],
                                  now, priority)
            assert outcome.data_id == f"d{k}"
            assert (outcome.admitted, outcome.shed_reason,
                    outcome.queue_wait) == (verdict.admitted,
                                            verdict.shed_reason,
                                            verdict.queued_delay)
            if outcome.admitted:
                result = outcome.result
                assert outcome.latency == outcome.queue_wait + \
                    service_time(ours.net, cfg.latency, outcome)
                assert outcome.deadline_missed == (
                    outcome.latency > cfg.default_deadline)
                assert (outcome.ok, outcome.attempts) == (
                    (True, 1) if outcome.kind == "place"
                    else (result.found, result.attempts))
        if steps is _SLOW_REPLY:  # the example means what it says
            slow, results = frozenset(steps[1][0][1]), [
                outcome.result for outcome in outcomes]
            replies = [bfs_path(ours.net.topology, result.server_id[0],
                                result.entry_switch)
                       for result in results if result.found]
            assert len(replies) < len(results)  # a miss
            for paths in ([result.trace for result in results], replies):
                assert any(slow in map(frozenset, zip(path, path[1:]))
                           for path in paths)

    def test_a_hit_after_a_miss_in_one_batch_resets_the_count(self, net):
        """The board is asked before every feed, not once per batch: a
        miss on a server makes it loud mid-batch, and a later hit on
        that server must still reset the count, and so must a batch
        placement's success on it."""
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
        assert not pipeline.retrieve_many([missing], now=2.0)[0].ok
        assert pipeline.breakers.get(server)._consecutive_failures == 1
        assert pipeline.place_many([holder[server[1]]], now=3.0)[0].ok
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


class TestColumnSettle:
    """A healthy batch's latencies are its requests' round trips to the
    bit, on a plane large enough that greedy routes run longer than the
    replies' shortest paths, with and without slow links."""

    @pytest.mark.parametrize("slow", [False, True])
    def test_each_latency_is_its_round_trip(self, slow):
        net = build_net(switches=40, cvt_iterations=5)
        pipeline = net.resilient(enabled_config(burst=1000.0))
        latency = pipeline.config.latency
        ids = [f"column/{i}" for i in range(300)]
        if slow:
            injector = FaultInjector(net)
            for u, v, _ in list(net.topology.edges())[::3]:
                injector.set_slow_link(u, v, 2.5)
        placed = pipeline.place_many(ids, copies=2, now=0.0)
        read = pipeline.retrieve_many(ids + ["column/missing"], now=1.0)
        assert not read[-1].ok
        assert any(o.result.request_hops != o.result.response_hops
                   for o in read if o.ok)
        for outcome in placed + read:
            assert outcome.latency == outcome.queue_wait + service_time(
                net, latency, outcome)


class TestSlowLinkCharge:
    """A slow link on a probe's path reaches the resilient charge: each
    traversal of a link ``factor`` times slower adds
    ``(factor - 1) * link_delay`` (twice for a placement, whose ack
    retraces the request path; for a retrieval hit, once on the request
    path and once more per crossing of its reply, the shortest path
    from the holder home)."""

    FACTOR = 7.0

    @staticmethod
    def traced(net, pipeline, kind):
        """The id, entry and first outcome of a request that crosses
        at least one link."""
        entry = sorted(net.switch_ids())[0]
        for i in range(50):
            data_id = f"slow/{i}"
            outcome = pipeline.place(data_id, payload=b"v",
                                     entry_switch=entry, now=0.0)
            if kind == "retrieve":
                outcome = pipeline.retrieve(data_id, entry_switch=entry,
                                            now=0.0)
            trace = (outcome.records[0].trace if kind == "place"
                     else outcome.result.trace)
            if len(trace) > 1:
                return data_id, entry, outcome, trace
        raise AssertionError("no request crossed a link")

    @staticmethod
    def reply_links(net, outcome):
        """The links a retrieval hit's reply crosses."""
        result = outcome.result
        path = bfs_path(net.topology, result.server_id[0],
                        result.entry_switch)
        return [frozenset(pair) for pair in zip(path, path[1:])]

    def charged(self, net, kind, outcome, trace, traversals):
        """Traversals of the request's first link the charge counts."""
        if kind == "place":
            return traversals
        return traversals + self.reply_links(net, outcome).count(
            frozenset(trace[:2]))

    @pytest.mark.parametrize("kind,traversals",
                             [("place", 2), ("retrieve", 1)])
    def test_scalar_charge(self, net, kind, traversals):
        pipeline = net.resilient(enabled_config(burst=200.0))
        data_id, entry, before, trace = self.traced(net, pipeline, kind)
        FaultInjector(net).set_slow_link(trace[0], trace[1], self.FACTOR)
        call = getattr(pipeline, kind)
        after = call(data_id, entry_switch=entry, now=0.0)
        link = pipeline.config.latency.link_delay
        count = self.charged(net, kind, before, trace, traversals)
        assert after.ok and after.queue_wait == before.queue_wait == 0.0
        assert after.latency == \
            before.latency + count * (self.FACTOR - 1) * link

    @pytest.mark.parametrize("kind,traversals",
                             [("place", 2), ("retrieve", 1)])
    def test_batch_charge_reads_the_faults_once(self, net, kind,
                                                traversals, monkeypatch):
        pipeline = net.resilient(enabled_config(burst=200.0))
        data_id, entry, first, trace = self.traced(net, pipeline, kind)
        many = getattr(pipeline, f"{kind}_many")
        ids = [data_id] * 8
        before = many(ids, entry_switches=[entry] * 8, now=0.0)
        FaultInjector(net).set_slow_link(trace[0], trace[1], self.FACTOR)
        reads = []
        slowed = pipeline._slowed
        monkeypatch.setattr(pipeline, "_slowed",
                            lambda: reads.append(1) or slowed())
        after = many(ids, entry_switches=[entry] * 8, now=0.0)
        assert len(reads) == 1
        link = pipeline.config.latency.link_delay
        count = self.charged(net, kind, first, trace, traversals)
        for old, new in zip(before, after):
            assert new.ok and new.queue_wait == old.queue_wait == 0.0
            assert new.latency == \
                old.latency + count * (self.FACTOR - 1) * link

    def test_links_off_the_path_charge_nothing(self, net):
        """Off both paths: the request's and the reply's."""
        pipeline = net.resilient(enabled_config(burst=200.0))
        data_id, entry, before, trace = self.traced(net, pipeline,
                                                    "retrieve")
        on_path = {frozenset(pair) for pair in zip(trace, trace[1:])}
        on_path.update(self.reply_links(net, before))
        injector = FaultInjector(net)
        for u, v, _ in net.topology.edges():
            if frozenset((u, v)) not in on_path:
                injector.set_slow_link(u, v, self.FACTOR)
        after = pipeline.retrieve(data_id, entry_switch=entry, now=0.0)
        assert after.latency == before.latency

    def test_a_slow_link_on_the_reply_only(self, net):
        """A link only the reply crosses adds exactly one excess."""
        pipeline = net.resilient(enabled_config(burst=200.0))
        for i in range(200):
            data_id = f"reply/{i}"
            entry = net.switch_ids()[i % len(net.switch_ids())]
            pipeline.place(data_id, payload=b"v", entry_switch=entry,
                           now=0.0)
            before = pipeline.retrieve(data_id, entry_switch=entry,
                                       now=0.0)
            trace = before.result.trace
            request = {frozenset(pair) for pair in zip(trace, trace[1:])}
            reply_only = [link for link in self.reply_links(net, before)
                          if link not in request]
            if reply_only:
                break
        else:
            raise AssertionError("no reply left the request path")
        FaultInjector(net).set_slow_link(*sorted(reply_only[0]),
                                         self.FACTOR)
        after = pipeline.retrieve(data_id, entry_switch=entry, now=0.0)
        link = pipeline.config.latency.link_delay
        assert after.ok and after.queue_wait == before.queue_wait == 0.0
        assert after.latency == \
            before.latency + (self.FACTOR - 1) * link


class TestReplyMemo:
    """While a link is slow, a hit's reply path is searched once per
    ``(holder, entry)`` pair, until the topology changes."""

    @staticmethod
    def read(pipeline, ids, entries, calls):
        """Retrieve ``ids`` twice over in one batch; the distinct
        ``(holder, entry)`` pairs of the hits and the BFS runs."""
        del calls[:]
        got = pipeline.retrieve_many(ids * 2, entry_switches=entries * 2,
                                     now=0.0)
        assert all(outcome.ok and outcome.result.found for outcome in got)
        return {(o.result.server_id[0], o.result.entry_switch)
                for o in got}, list(calls)

    def test_one_bfs_per_pair(self, net, monkeypatch):
        import repro.resilience.pipeline as pipeline_module

        pipeline = net.resilient(enabled_config(burst=1000.0))
        switches = sorted(net.switch_ids())
        ids = [f"memo/{i}" for i in range(60)]
        entries = [switches[i % 3] for i in range(len(ids))]
        pipeline.place_many(ids, entry_switches=entries, now=0.0)
        calls = []
        monkeypatch.setattr(pipeline_module, "bfs_path", lambda *args: (
            calls.append(args[1:]) or bfs_path(*args)))
        # No slow link: no reply is searched.
        assert self.read(pipeline, ids, entries, calls)[1] == []
        u, v, _ = next(iter(net.topology.edges()))
        FaultInjector(net).set_slow_link(u, v, 3.0)
        pairs, searched = self.read(pipeline, ids, entries, calls)
        assert len(pairs) < len(ids) and sorted(searched) == sorted(pairs)
        assert self.read(pipeline, ids, entries, calls)[1] == []
        # A new link bumps the controller's version: searched again.
        a, b = next((a, b) for a in switches for b in switches
                    if a < b and not net.topology.has_edge(a, b))
        net.controller.add_link(a, b)
        pairs, searched = self.read(pipeline, ids, entries, calls)
        assert sorted(searched) == sorted(pairs)
