"""The scalar request path (DESIGN.md §5j): what one ``place`` /
``retrieve`` pays for, and that recording rides it behind ``if``s.

* A scalar retrieve on the default hash takes one SHA-256 per replica,
  on the raw network and through an enabled resilient pipeline: the
  digest that ranks the replicas also routes the probe.
* ``FASTPATH_GATES`` is read on every request, never kept.
* Recording never changes an answer: the same walk of scalar place /
  retrieve / delete on a raw network (with and without an absorbed
  fault state, with an active range extension), on an overloaded
  resilient pipeline (a tripped breaker, misses, hedges, retries) and
  on a 2-region federation, once with the registry and a span
  recorder on and once with both off, gives equal results, equal
  stored state and, on the pipeline, equal clocks and buckets.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GredNetwork, attach_uniform, brite_waxman_graph, obs
from repro.controlplane import FederatedNetwork
from repro.dataplane import fastpath
from repro.faults import FaultInjector
from repro.hashing import data_position, replica_id
from repro.obs import spans as span_api
from repro.resilience import ResilienceConfig
from repro.topology import federated_topology

#: Tier-1 runs 25 walks per stack; ``--hypothesis-profile=deep`` (CI's
#: own step) 150 of up to 40 requests.
DEEP = settings.get_current_profile_name() == "deep"
WALKS = settings(max_examples=150 if DEEP else 25, deadline=None)
STEPS = 40 if DEEP else 16


def build_net(switches=14, servers=2, seed=3, position_fn=None):
    topology, _ = brite_waxman_graph(
        switches, min_degree=3, rng=np.random.default_rng(seed))
    return GredNetwork(topology, attach_uniform(
        topology.nodes(), servers_per_switch=servers), cvt_iterations=3,
        seed=seed, position_fn=position_fn)


@pytest.fixture
def digests(monkeypatch):
    """The inputs of every ``hashlib.sha256`` call from here on."""
    seen = []
    real = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256",
                        lambda data=b"": seen.append(data) or real(data))
    return seen


class TestOneDigestPerReplica:
    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_a_scalar_request_hashes_each_replica_once(self, copies,
                                                       digests):
        """A compiled scalar place and retrieve with ``copies=c`` take
        exactly ``c`` SHA-256s, a failover walk included."""
        net = build_net()
        entries = net.switch_ids()[::3]
        ids = [f"one/{i}" for i in range(12)]
        for data_id in ids:
            net.place(data_id, entry_switch=entries[0], copies=copies)
        for i, data_id in enumerate(ids):
            del digests[:]
            assert net.retrieve(data_id, entry_switch=entries[i % 4],
                                copies=copies).found
            assert len(digests) == copies
        # The nearest copy gone: the walk fails over on the same keys.
        walked = ids[0]
        order = net.replica_order(walked, copies, entries[1])
        lost = net._home_server(replica_id(walked, order[0]))
        lost.delete(replica_id(walked, order[0]))
        del digests[:]
        result = net.retrieve(walked, entry_switch=entries[1],
                              copies=copies)
        assert len(digests) == copies
        assert result.found is (copies > 1)
        assert result.attempts == min(2, copies)

    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_a_resilient_retrieve_hashes_each_replica_once(self, copies,
                                                           digests):
        """An enabled pipeline's retrieve with ``copies=c`` takes
        exactly ``c`` SHA-256s when its nearest copy answers: the
        digests that rank the replicas route the probe."""
        net = build_net()
        pipeline = net.resilient(ResilienceConfig(enabled=True))
        entries = net.switch_ids()[::3]
        ids = [f"one/{i}" for i in range(12)]
        for data_id in ids:
            net.place(data_id, entry_switch=entries[0], copies=copies)
        for i, data_id in enumerate(ids):
            del digests[:]
            outcome = pipeline.retrieve(data_id, entry_switch=entries[i % 4],
                                        copies=copies, now=float(i))
            assert outcome.ok and outcome.result.attempts == 1
            assert len(digests) == copies

    def test_the_walk_order_is_replica_order(self):
        """The digests the retrieve ranks replicas by give
        :meth:`replica_order`'s order, on the default hash and under a
        custom ``position_fn`` (which keeps its own path), on the raw
        network and through an enabled pipeline."""
        for fn in (None, lambda d: data_position(d + "!")):
            net = build_net(position_fn=fn)
            pipeline = net.resilient(ResilienceConfig(enabled=True))
            for i in range(20):
                data_id = f"order/{i}"
                entry = net.switch_ids()[i % 7]
                net.place(data_id, entry_switch=entry, copies=3)
                nearest = net.replica_order(data_id, 3, entry)[0]
                got = net.retrieve(data_id, entry_switch=entry, copies=3)
                assert got.copy_used == nearest
                outcome = pipeline.retrieve(data_id, entry_switch=entry,
                                            copies=3, now=float(i))
                assert outcome.result.copy_used == nearest


def test_the_gates_are_read_on_every_request(monkeypatch):
    """A gate appended between two requests decides the second one:
    nothing keeps the first request's verdict."""
    from repro.core import network as network_module

    net = build_net()
    net.place("gate/a", entry_switch=net.switch_ids()[0])
    routed = []
    reference = network_module.route_packet
    monkeypatch.setattr(network_module, "route_packet",
                        lambda *a, **k: routed.append(1) or reference(
                            *a, **k))
    assert net.retrieve("gate/a", entry_switch=net.switch_ids()[1]).found
    assert routed == []
    monkeypatch.setattr(fastpath, "FASTPATH_GATES", fastpath.FASTPATH_GATES
                        + ((lambda _: True, "test gate"),))
    assert net.retrieve("gate/a", entry_switch=net.switch_ids()[1]).found
    assert routed == [1]


# ----------------------------------------------------------------------
# recording never changes a scalar answer
# ----------------------------------------------------------------------
def _raw(faulted):
    """``k2``'s home extended to its takeover; faulted, a switch crashed
    and absorbed, and ``k1``'s home server down with hints on."""
    net = build_net(switches=16, seed=5)
    if faulted:
        net.hinted_handoff = True
        injector = FaultInjector(net, seed=0)
        victim = max(set(net.switch_ids()) - {
            net._home_server(f"k{k}").switch for k in (1, 2)})
        injector.crash_switch(victim)
        net.controller.absorb_failures(dead_switches=[victim])
        injector.crash_server(*net._home_server("k1").server_id)
    net.extend_range(*net._home_server("k2").server_id)
    return net, net, None


def _resilient():
    """Small buckets (a burst at one entry queues, then sheds), a
    server down (misses, breaker trips, retries, hedges) and a breaker
    forced open."""
    net = build_net(switches=10, servers=1, seed=4)
    pipeline = net.resilient(ResilienceConfig(
        enabled=True, rate_per_switch=10.0, burst=1.0, queue_limit=2,
        breaker_failure_threshold=2, breaker_recovery_time=0.2,
        breaker_half_open_probes=1, seed=2))
    FaultInjector(net, seed=0).crash_server(
        *net._home_server("k3").server_id)
    pipeline.breakers.force_open(("switch", min(net.switch_ids())), 0.0)
    return pipeline, net, pipeline


def _federated():
    topology, assignment = federated_topology(2, 8, min_degree=2, seed=1)
    fed = FederatedNetwork(topology, assignment=assignment,
                           servers_per_switch=2, cvt_iterations=3, seed=1)
    return fed, fed, None


STACKS = {"raw": lambda: _raw(False), "raw-faulted": lambda: _raw(True),
          "resilient": _resilient, "federated": _federated}

REQUESTS = st.lists(st.tuples(
    st.sampled_from(["place", "retrieve", "retrieve", "delete"]),
    st.integers(min_value=0, max_value=14),     # key (12+ never placed)
    st.one_of(st.just(0), st.integers(min_value=0, max_value=63)),  # entry
    st.integers(min_value=1, max_value=3),      # copies
    st.sampled_from([0.0, 0.0, 0.001, 0.05, 0.3])),  # gap to the next
    min_size=1, max_size=STEPS)


class _Stack:
    """One copy of a stack, run with recording on or off."""

    def __init__(self, stack, recording, sample_rate):
        self.target, self.net, self.pipeline = STACKS[stack]()
        self.registry = obs.MetricsRegistry(enabled=recording)
        self.recorder = (span_api.SpanRecorder(sample_rate=sample_rate)
                         if recording else None)

    def run(self, request, now):
        registry = obs.set_default_registry(self.registry)
        recorder = span_api.set_default_recorder(self.recorder)
        try:
            return self._apply(request, now)
        except Exception as err:  # both runs must fail alike
            return ("raised", type(err).__name__, str(err))
        finally:
            obs.set_default_registry(registry)
            span_api.set_default_recorder(recorder)

    def _apply(self, request, now):
        op, key, pick, copies, _ = request
        pool = sorted(self.net._entry_pool())
        entry, data_id = pool[pick % len(pool)], f"k{key}"
        timed = {} if self.pipeline is None else {"now": now}
        if op == "delete":
            return self.net.delete(data_id, copies=copies,
                                   entry_switch=entry)
        if op == "place":
            if key >= 12:  # never placed: the misses
                return None
            return self.target.place(data_id, payload=key,
                                     entry_switch=entry, copies=copies,
                                     **timed)
        return self.target.retrieve(data_id, entry_switch=entry,
                                    copies=copies, **timed)

    def state(self):
        pipeline = self.pipeline
        return (self.net.load_vector(),
                getattr(self.net, "write_version", None),
                None if pipeline is None else (
                    pipeline._clock, pipeline.admission._tat,
                    pipeline.breakers.states(),
                    pipeline._rng.bit_generator.state))


@pytest.mark.parametrize("stack", sorted(STACKS))
@WALKS
@given(requests=REQUESTS, sample_rate=st.sampled_from([0.0, 0.5, 1.0]))
def test_recording_never_changes_a_scalar_answer(stack, requests,
                                                 sample_rate):
    """Every result, outcome and stored item, the pipeline's clock,
    buckets, breakers and retry ``rng`` equal the unrecorded run's."""
    quiet, loud = _Stack(stack, False, 0.0), _Stack(stack, True, sample_rate)
    now = 0.0
    for request in requests:
        assert loud.run(request, now) == quiet.run(request, now), request
        assert loud.state() == quiet.state(), request
        now += request[-1]
    if sample_rate == 1.0 and any(r[0] == "retrieve" for r in requests):
        assert loud.recorder.spans()  # the recorded run did record
