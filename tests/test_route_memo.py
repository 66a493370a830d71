"""The route memo (``repro.dataplane.memo.RouteMemo``).

* unit tests on the class with synthetic keys and traces: insert / hit,
  keys repeated in one insert, bulk LRU eviction, probe chains that
  wrap around the index, the stale sweep, growth, and the doorkeeper
  a full memo admits through;
* the footprint guard: at 10k+ real routes the memo stays within
  80 bytes a route and allocates no per-route Python object;
* the hop rows beside it (``repro.graph.HopRows``): equal to
  ``bfs_distances`` after every kind of topology event, one kernel
  call per batch after an event, ``NoPath`` for an unreachable pair;
* a hypothesis differential — *warm ≡ cold*: the same interleaving of
  batch and scalar requests, joins, leaves and link changes on a
  network with a (tiny) memo and on a twin whose memo is emptied
  before every call yields equal results, storage and registry;
* the exact sweep: after every join, leave, link change and failure
  absorption every memoized route is what a fresh compile walks, and
  on a 200-switch plane a join keeps nearly every route the
  touched-switch rule would have dropped.
"""

import gc
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GredError, GredNetwork, attach_uniform, brite_waxman_graph
from repro.controlplane import ControlPlaneError
from repro.core import network as network_module
from repro.dataplane import (CompiledRouter, ForwardingError, RouteMemo,
                             batch_fastpath_blockers)
from repro.dataplane.fastpath import _PackedRoutes
from repro.dataplane.memo import _DOOR_MARKS, _MIN_ROWS, _MIX
from repro.faults import FaultInjector
from repro.hashing import digest_keys, position_from_bits

from test_route_stage import build, observe


def walked(traces, servers=4, delivered=None):
    """A packed walk whose request ``j`` visited ``traces[j]``."""
    packed = _PackedRoutes(len(traces))
    packed.tlen[:] = [len(t) for t in traces]
    packed.off = np.concatenate(([0], np.cumsum(packed.tlen)))
    packed.trace_flat = np.array([s for t in traces for s in t],
                                 dtype=np.int64)
    packed.dest[:] = [t[-1] for t in traces]
    if delivered is not None:
        packed.dest[~np.asarray(delivered)] = -1
    packed.servers[:] = servers
    packed.greedy[:] = packed.overlay[:] = packed.tlen - 1
    return packed


class EveryStep:
    """Sweep changes under which the step at every touched switch may
    differ: the sweep then drops every route through one (the
    touched-switch rule)."""

    @staticmethod
    def alters(touched, which, bits_of):
        return np.ones(which.size, dtype=bool)

    @staticmethod
    def runs():
        return []

    @staticmethod
    def servers(sids):
        return np.full(sids.size, 4)  # what ``walked`` memoizes


def keys_of(entries, positions):
    return (np.asarray(entries, dtype=np.int64),
            np.asarray(positions, dtype=np.uint64))


def fill(memo, entries, positions, traces, **kwargs):
    memo.insert(*keys_of(entries, positions), walked(traces, **kwargs))


class TestRouteMemo:
    def test_insert_then_hit(self):
        memo = RouteMemo(64)
        traces = [[3, 7, 9], [4], [5, 1]]
        fill(memo, [3, 4, 5], [10, 11, 2 ** 64 - 1], traces, servers=4)
        assert len(memo) == 3
        assert list(memo) == [(3, 10), (4, 11), (5, 2 ** 64 - 1)]
        assert (4, 11) in memo and (4, 10) not in memo
        # The serial is the request's own leading word reduced by the
        # destination's server count, not a stored value.
        assert memo.get(3, 10, 4 * 5 + 3) == ([3, 7, 9], 2, 9, 3,
                                              (2, 0, 0))
        assert memo.get(5, 2 ** 64 - 1, 6) == ([5, 1], 1, 1, 2,
                                               (1, 0, 0))
        assert memo.get(5, 10, 0) is None  # no partial-key match
        entries, pos = keys_of([4, 9, 3], [11, 11, 10])
        rows = memo.lookup(entries, pos)
        assert rows.tolist() == [1, -1, 0]
        hit = rows >= 0
        dest, serial, overlay, greedy, vl, relays, tlen, flat = \
            memo.take(rows[hit], np.array([7, 9], dtype=np.uint64))
        assert dest.tolist() == [4, 9] and serial.tolist() == [3, 1]
        assert tlen.tolist() == [1, 3] and flat.tolist() == [4, 3, 7, 9]
        assert overlay.tolist() == greedy.tolist() == [0, 2]
        assert vl.tolist() == relays.tolist() == [0, 0]

    def test_get_returns_a_fresh_trace(self):
        memo = RouteMemo(64)
        fill(memo, [3], [10], [[3, 7]])
        memo.get(3, 10, 0)[0].clear()
        assert memo.get(3, 10, 0)[0] == [3, 7]

    def test_repeated_key_in_one_insert_is_kept_once(self):
        memo = RouteMemo(64)
        fill(memo, [1, 2, 1, 1, 2], [5, 5, 5, 5, 6],
             [[1, 8], [2, 8], [1, 8], [1, 8], [2]])
        assert sorted(memo) == [(1, 5), (2, 5), (2, 6)]
        assert memo.get(1, 5, 0)[0] == [1, 8]
        assert memo.get(2, 6, 0)[0] == [2]
        # ... and a key already present is not inserted again.
        fill(memo, [2, 3], [6, 6], [[2], [3, 2]])
        assert len(memo) == 4 and memo.get(3, 6, 0)[0] == [3, 2]

    def test_undelivered_routes_are_not_memoized(self):
        memo = RouteMemo(64)
        fill(memo, [1, 2, 3], [5, 6, 7], [[1, 4], [2], [3, 4]],
             delivered=[True, False, True])
        assert sorted(memo) == [(1, 5), (3, 7)]

    def test_switch_ids_beyond_the_id_fields_are_not_memoized(self):
        memo = RouteMemo(64)
        fill(memo, [1], [5], [[1, 2 ** 31]])
        assert len(memo) == 0

    def test_wide_switch_id_widens_the_pool(self):
        """The trace pool holds 16-bit ids until a switch id needs
        more; then it is widened in place — what it held stays exact,
        and the wide route is memoized like any other."""
        memo = RouteMemo(64)
        fill(memo, [3, 4], [10, 11], [[3, 65535, 9], [4]])
        assert memo._pool.dtype == np.uint16
        fill(memo, [70000, 5], [12, 13], [[70000, 7, 70001], [5, -2, 6]])
        assert memo._pool.dtype == np.int32
        assert memo.get(3, 10, 0)[0] == [3, 65535, 9]
        assert memo.get(70000, 12, 5) == ([70000, 7, 70001], 2, 70001,
                                          1, (2, 0, 0))
        assert memo.get(5, 13, 0)[0] == [5, -2, 6]
        rows = memo.lookup(*keys_of([70000, 4], [12, 11]))
        assert rows.tolist() == [2, 1]
        flat = memo.take(rows, np.zeros(2, dtype=np.uint64))[-1]
        assert flat.tolist() == [70000, 7, 70001, 4]
        memo.sweep({70001}, hop_bound=10, changes=EveryStep)
        assert sorted(memo) == [(3, 10), (4, 11), (5, 13)]

    def test_ticks_survive_a_rebase(self):
        """The LRU clock is 32 bits wide: at its ceiling the ticks are
        rebased to their ranks, and eviction order carries over."""
        memo = RouteMemo(32)
        for base in range(0, 32, 8):
            fill(memo, [0] * 8, range(base, base + 8),
                 [[0, k] for k in range(base, base + 8)])
            memo.lookup(*keys_of([0] * 8, range(base, base + 8)))
        fill(memo, [0], [100], [[0, 100]])  # full: a first sighting
        memo._clock = 2 ** 32 - 2
        memo.lookup(*keys_of([0] * 8, range(8, 16)))   # the ceiling
        memo.lookup(*keys_of([0] * 8, range(0, 8)))    # rebases first
        assert memo._clock < 8
        assert memo._rows["tick"][:32].max() == memo._clock
        fill(memo, [0], [100], [[0, 100]])
        # Least recently used after the rebase: 16..19, as before it.
        assert {pos for _, pos in memo} == \
            set(range(16)) | set(range(20, 32)) | {100}

    def test_bulk_eviction_drops_the_least_recently_used(self):
        memo = RouteMemo(32)
        for base in range(0, 32, 8):  # four inserts of eight
            fill(memo, [0] * 8, range(base, base + 8),
                 [[0, k] for k in range(base, base + 8)])
        assert len(memo) == 32
        fill(memo, [0], [100], [[0, 100]])  # full: a first sighting
        assert len(memo) == 32
        # Touch the oldest eight; the next eight are now the oldest.
        memo.lookup(*keys_of([0] * 8, range(8)))
        fill(memo, [0], [100], [[0, 100]])
        # One route over the cap evicts an eighth, not one.
        assert len(memo) == 32 - 4 + 1
        survivors = {pos for _, pos in memo}
        assert survivors == set(range(8)) | set(range(12, 32)) | {100}
        for pos in survivors:
            assert memo.get(0, pos, 0)[0] == [0, pos]
        assert memo.get(0, 9, 0) is None

    def test_more_than_cap_in_one_insert_keeps_the_last(self):
        memo = RouteMemo(32)
        for _ in range(2):  # the first sighting marks, the second admits
            fill(memo, [0] * 100, range(100), [[0, k] for k in range(100)])
        assert sorted(pos for _, pos in memo) == list(range(68, 100))
        assert memo.get(0, 99, 0)[0] == [0, 99]

    def test_probe_chains_wrap_around_the_index(self):
        memo = RouteMemo(32)
        slots = memo._index.size
        assert slots == 64
        # Every key hashes to the last slot: the chain runs off the
        # end of the index and continues at slot 0.
        last = [slots - 1 + slots * k for k in range(6)]
        assert {(pos + 0 * _MIX) & (slots - 1) for pos in last} == \
            {slots - 1}
        fill(memo, [0] * 6, last, [[0, k] for k in range(6)])
        assert memo._index[slots - 1] >= 0 and memo._index[4] >= 0
        for k, pos in enumerate(last):
            assert memo.get(0, pos, 0)[0] == [0, k]
        assert memo.get(0, slots - 1 + slots * 6, 0) is None
        rows = memo.lookup(*keys_of([0] * 7, last + [slots * 7 - 1]))
        assert rows.tolist() == [0, 1, 2, 3, 4, 5, -1]
        # ... and still resolves after a compaction rebuilt the index.
        memo.sweep({2}, hop_bound=10, changes=EveryStep)
        assert [memo.get(0, pos, 0) is not None for pos in last] == \
            [True, True, False, True, True, True]

    def test_sweep_by_touched_switch_and_hop_bound(self):
        memo = RouteMemo(64)
        traces = [[1, 2, 3], [4, 5], [6], [7, 2], [8, 9, 10, 11, 12]]
        fill(memo, [1, 4, 6, 7, 8], range(5), traces)
        memo.sweep({2, 99}, hop_bound=10, changes=EveryStep)
        assert [key[0] for key in memo] == [4, 6, 8]
        assert memo.get(8, 4, 0)[0] == [8, 9, 10, 11, 12]
        assert memo.get(1, 0, 0) is None
        # A route longer than the (shrunken) hop bound goes too.
        memo.sweep(set(), hop_bound=3, changes=EveryStep)
        assert [key[0] for key in memo] == [4, 6]
        assert memo.get(4, 1, 0)[0] == [4, 5]
        memo.sweep({4, 6}, hop_bound=3, changes=EveryStep)
        assert len(memo) == 0 and list(memo) == []
        fill(memo, [1], [0], [[1, 2, 3]])
        assert memo.get(1, 0, 0)[0] == [1, 2, 3]

    def test_grows_from_kilobytes_to_the_cap(self):
        memo = RouteMemo(65536)
        assert memo.nbytes < 32 * 1024  # an idle memo is not the cap
        rng = np.random.default_rng(0)
        positions = rng.integers(0, 2 ** 63, size=3000).astype(np.uint64)
        for start in range(0, 3000, 250):
            chunk = range(start, start + 250)
            fill(memo, [k % 50 for k in chunk], positions[start:start + 250],
                 [[k % 50, k % 7, k % 11] for k in chunk])
        assert len(memo) == 3000 > _MIN_ROWS
        for k in (0, 255, 256, 1499, 2999):
            assert memo.get(k % 50, int(positions[k]), 0)[0] == \
                [k % 50, k % 7, k % 11]
        assert memo._index.size >= 2 * len(memo)


class TestDoorkeeper:
    def test_a_full_memo_admits_on_the_second_sighting(self):
        """A memo with room admits a first sighting and allocates no
        doorkeeper; a full one refuses it and admits the second."""
        memo = RouteMemo(8)
        fill(memo, [0] * 8, range(8), [[0, k] for k in range(8)])
        assert len(memo) == 8 and memo._door is None
        fill(memo, [0], [100], [[0, 100]])
        assert (0, 100) not in memo and len(memo) == 8
        assert memo._door is not None and memo._door.nbytes == 128 * 1024
        fill(memo, [0], [100], [[0, 100]])
        assert memo.get(0, 100, 0)[0] == [0, 100] and len(memo) == 8
        # The same key twice in one call is still a first sighting.
        fill(memo, [1, 1], [7, 7], [[1, 7], [1, 7]])
        assert (1, 7) not in memo

    def test_the_bitset_is_cleared_after_its_marks(self):
        memo = RouteMemo(8)
        fill(memo, [0] * 8, range(8), [[0, k] for k in range(8)])
        marked = range(1000, 1000 + _DOOR_MARKS - 1)
        fill(memo, [0] * len(marked), marked, [[0, 1]] * len(marked))
        assert np.bitwise_count(memo._door).sum() == _DOOR_MARKS - 1
        fill(memo, [0], [1000], [[0, 1]])  # marked: admitted
        assert (0, 1000) in memo
        fill(memo, [0], [999], [[0, 1]])   # the last mark clears
        assert not memo._door.any()
        fill(memo, [0], [1001], [[0, 1]])  # ... so this is forgotten
        assert (0, 1001) not in memo


class TestFootprint:
    def test_bytes_per_route_and_no_per_route_object(self):
        """The tier-1 footprint guard: ≤ 80 bytes a route by
        ``nbytes`` at 10k+ routes of a 100-switch network, and filling
        the memo allocates no Python object per route."""
        net = build(3, 100, servers=4)
        ids = [f"foot/{i}" for i in range(12000)]
        entries = [net.switch_ids()[i % 100] for i in range(12000)]
        digests = net.prehash(ids)
        net.retrieve_many(ids[:10], entry_switches=entries[:10])
        memo = net._fastpath.routes
        gc.collect()
        blocks = sys.getallocatedblocks()
        tracked = len(gc.get_objects())
        for start in range(0, 12000, 3000):  # results are dropped
            net.retrieve_many(ids[start:start + 3000],
                              entry_switches=entries[start:start + 3000],
                              digests=digests[start:start + 3000])
        gc.collect()
        assert len(memo) == 12000
        assert memo.nbytes / len(memo) <= 80
        assert sys.getallocatedblocks() - blocks < 500
        assert len(gc.get_objects()) - tracked < 100


class TestHopRows:
    def test_rows_equal_bfs_after_every_kind_of_change(self):
        """``_fast_hop`` answers from the plane's ``HopRows``; after a
        join, a leave, a link coming up and going down, and a crash
        the controller absorbs, every pair still reads the BFS
        distance (as a Python int) from rows over the new topology."""
        from repro.graph import bfs_distances

        net = build(4, 14)

        def check():
            state = net._fast_plane()
            for source in net.switch_ids():
                want = bfs_distances(net.topology, source)
                for target in net.switch_ids():
                    got = net._fast_hop(state, source, target)
                    assert type(got) is int and got == want[target]
            hops = state.hops
            assert hops.nodes == net.switch_ids()
            assert hops.rows(hops.nodes).shape == (len(hops.nodes),) * 2

        check()
        for event in self._events(net):
            event()
            check()

    @staticmethod
    def _events(net):
        """One of each topology event, applied in turn."""
        from repro.faults import FaultInjector

        a, b, c = net.switch_ids()[:3]
        yield lambda: net.add_switch(500, [a, b], servers_per_switch=1)
        yield lambda: net.remove_switch(c)
        u, v = next((u, v) for u in net.switch_ids()
                    for v in net.switch_ids()
                    if u < v and not net.topology.has_edge(u, v))
        yield lambda: net.controller.add_link(u, v)
        yield lambda: net.controller.remove_link(u, v)
        dead = net.switch_ids()[-1]

        def crash():
            FaultInjector(net).crash_switch(dead)
            net.controller.absorb_failures([dead])
            assert dead not in net.topology
        yield crash

    def test_batch_after_each_event_is_the_scalar_loop(
            self, reference_engine):
        """The first ``retrieve_many`` after each event (its rows all
        missing) answers what a scalar ``retrieve`` loop answers on a
        twin pinned to the reference engine, whose response hops are
        per-request searches — records, ``response_hops`` included."""
        net, twin = build(4, 14), reference_engine(build(4, 14))
        ids = [f"hops/{i}" for i in range(60)]
        rng = np.random.default_rng(5)
        for each in (net, twin):
            each.place_many(ids, rng=np.random.default_rng(1))
        for event, twin_event in zip(self._events(net),
                                     self._events(twin)):
            event()
            twin_event()
            switches = net.switch_ids()
            entries = [switches[i] for i in
                       rng.integers(0, len(switches), len(ids)).tolist()]
            got = net.retrieve_many(ids, entry_switches=entries)
            want = [twin.retrieve(d, entry_switch=e)
                    for d, e in zip(ids, entries)]
            assert got == want
            assert sum(r.found for r in got) > len(ids) // 2
            assert any(r.response_hops for r in got)

    def test_one_kernel_call_per_batch_after_an_event(self, monkeypatch):
        """The holders' missing rows come from one kernel call per
        ``retrieve_many`` after an event, and none once they are
        warm."""
        from repro.graph import HopRows

        calls = []
        levels = HopRows._levels

        def counted(self, starts):
            calls.append(starts.size)
            return levels(self, starts)

        monkeypatch.setattr(HopRows, "_levels", counted)
        net = build(4, 14)
        ids = [f"hops/{i}" for i in range(80)]
        net.place_many(ids, rng=np.random.default_rng(1))
        for event in self._events(net):
            event()
            entries = [net.switch_ids()[i % 7] for i in range(len(ids))]
            calls.clear()
            net.retrieve_many(ids, entry_switches=entries)
            assert len(calls) == 1 and calls[0] > 1
            net.retrieve_many(ids, entry_switches=entries)
            assert len(calls) == 1

    def test_unreachable_pair_raises_no_path(self):
        """A topology edited by hand to cut one switch off: a response
        toward it has no path, and both the scalar and the grouped
        read raise ``NoPath(holder, entry)`` — never a ``-1`` in a
        result, never a bare ``KeyError``."""
        from repro.graph import NoPath

        net = build(4, 14)
        ids = [f"hops/{i}" for i in range(40)]
        net.place_many(ids, rng=np.random.default_rng(1))
        lone = net.switch_ids()[0]
        data_id = next(d for d in ids if net.destination_switch(d) != lone)
        holder = net.destination_switch(data_id)
        for neighbor in list(net.topology.neighbors(lone)):
            net.topology.remove_edge(lone, neighbor)
        for call in (lambda: net.retrieve(data_id, entry_switch=lone),
                     lambda: net.retrieve_many([data_id],
                                               entry_switches=[lone])):
            with pytest.raises(NoPath) as err:
                call()
            assert (err.value.source, err.value.target) == (holder, lone)


#: Tier-1 walks 25 short interleavings; ``--hypothesis-profile=deep``
#: (CI's own step) 100 of up to 60 operations.
DEEP = settings.get_current_profile_name() == "deep"
WALKS = settings(max_examples=100 if DEEP else 25, deadline=None)
STEPS = 60 if DEEP else 24

KEYS = 12
OPS = st.lists(
    st.tuples(
        st.sampled_from(["place_many", "retrieve_many", "retrieve_many",
                         "place", "retrieve", "retrieve", "join",
                         "leave", "link", "unlink"]),
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6)),
    min_size=6, max_size=STEPS)


def apply(net, step, op, a, b, c):
    """One operation against the network's current state.  Keys come
    from a small pool and mostly enter at one switch each, so requests
    meet memoized routes — and whatever a topology change left of
    them."""
    switches = net.switch_ids()
    copies = b % 3 + 1

    def entry(key):
        return switches[(key if c % 4 else key + c) % len(switches)]

    if op in ("place_many", "retrieve_many"):
        # A stride walk over the pool: ids repeat inside one batch.
        keys = [(a + j * (c % 5)) % KEYS for j in range(b % 9 + 2)]
        ids = [f"k{k}" for k in keys]
        entries = [entry(k) for k in keys]
        if op == "place_many":
            return net.place_many(ids, payloads=[(k, step) for k in keys],
                                  entry_switches=entries, copies=copies)
        return net.retrieve_many(ids, entry_switches=entries,
                                 copies=copies)
    key = a % KEYS
    if op == "place":
        return net.place(f"k{key}", payload=(key, step), copies=copies,
                         entry_switch=entry(key))
    if op == "retrieve":
        return net.retrieve(f"k{key}", copies=copies,
                            entry_switch=entry(key))
    if op == "join":
        links = sorted({switches[a % len(switches)],
                        switches[b % len(switches)]})
        return net.add_switch(1000 + step, links,
                              servers_per_switch=c % 3)
    if op == "leave":
        return net.remove_switch(switches[a % len(switches)])
    u, v = switches[a % len(switches)], switches[b % len(switches)]
    if u == v:
        return None
    if op == "link":
        return net.controller.add_link(u, v)
    return net.controller.remove_link(u, v)


def emptied(call):
    """``call`` on a network whose route memo is emptied first."""
    def run(net):
        state = net._fastpath
        if state is not None:
            state.routes = RouteMemo(state.routes.cap)
        return call(net)
    return run


class TestWarmEqualsCold:
    @WALKS
    @given(seed=st.integers(0, 3), ops=OPS)
    def test_memo_never_changes_an_answer(self, seed, ops):
        calls = [lambda net, step=step, op=op: apply(net, step, *op)
                 for step, op in enumerate(ops)]
        cap = network_module._ROUTE_CACHE_CAP
        network_module._ROUTE_CACHE_CAP = 8  # evict and wrap, often
        try:
            warm = observe(build(seed, 10), calls)
            cold = observe(build(seed, 10),
                           [emptied(call) for call in calls])
        finally:
            network_module._ROUTE_CACHE_CAP = cap
        assert warm[:4] == cold[:4]

    def test_memo_is_used_and_bounded(self, monkeypatch):
        """The differential above is not vacuous: under its tiny cap a
        warm network does answer from the memo, honours the cap, and
        admits through the doorkeeper."""
        monkeypatch.setattr(network_module, "_ROUTE_CACHE_CAP", 8)
        net = build(0, 10)
        switches = net.switch_ids()
        ids = [f"k{k}" for k in range(KEYS)]
        entries = [switches[k % 10] for k in range(KEYS)]
        net.retrieve_many(ids, entry_switches=entries)  # first sighting
        net.place_many(ids, entry_switches=entries)
        memo = net._fastpath.routes
        assert 0 < len(memo) <= 8
        assert memo._door is not None  # the gate engaged
        entry, bits = next(iter(memo))
        hit = next(d for d, e in zip(ids, entries)
                   if (e, digest_keys(d)[1]) == (entry, bits))
        _, _, waves = observe(net, [
            lambda net: net.retrieve_many([hit], entry_switches=[entry])
        ])[2:]
        assert waves == [0]  # answered without a walk


def check_memo_is_fresh(net):
    """Every memoized route equals a fresh compile's walk: trace,
    overlay hops, destination, decision mix and server count."""
    memo = net._fast_state().routes
    fresh = CompiledRouter(net.controller.switches)
    for entry, bits, servers in memo._rows[:len(memo)][
            ["entry", "pos", "servers"]].tolist():
        walked = fresh.route(entry, "m", *position_from_bits(bits), 0)
        assert memo.get(entry, bits, 0) == walked, (entry, bits)
        assert fresh._states[walked[2]].num_servers == servers
    return len(memo)


SWEEP_OPS = st.lists(
    st.tuples(
        st.sampled_from(["fill", "retrieve_many", "retrieve", "place",
                         "join", "join", "leave", "leave", "link",
                         "unlink", "absorb"]),
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=10 ** 6)),
    min_size=6, max_size=STEPS)


class TestExactSweep:
    @WALKS
    @given(seed=st.integers(0, 3), ops=SWEEP_OPS)
    def test_every_kept_route_is_a_fresh_walk(self, seed, ops):
        """Joins, leaves, link changes and crashes absorbed at once,
        with batches (``fill`` memoizes 120 keys from many entries)
        and scalar requests between them: after every sweep the memo
        holds only routes a fresh compile walks the same."""
        net = build(seed, 16)
        for step, (op, a, b, c) in enumerate(ops):
            try:
                if op == "fill":
                    access = [s for s in net.switch_ids()
                              if net.server_map[s]]
                    net.retrieve_many(
                        [f"f{(a + k) % 300}" for k in range(120)],
                        entry_switches=[access[(b + 7 * k) % len(access)]
                                        for k in range(120)],
                        copies=c % 2 + 1)
                elif op == "absorb":
                    victim = net.switch_ids()[a % len(net.switch_ids())]
                    FaultInjector(net).crash_switch(victim)
                    net.controller.absorb_failures([victim])
                else:
                    apply(net, step, op, a, b, c)
            except (GredError, ForwardingError, ControlPlaneError):
                pass
            if not batch_fastpath_blockers(net):
                check_memo_is_fresh(net)

    def test_wide_switch_ids_sweep_exactly(self):
        """Joiners with ids past 16 bits widen the trace pool to
        ``int32``: the sweep then finds touched cells with ``isin``
        and classifies visits by search, and still keeps only fresh
        walks."""
        net = build(1, 16)

        def fill():
            access = [s for s in net.switch_ids() if net.server_map[s]]
            net.retrieve_many([f"w{k}" for k in range(200)],
                              entry_switches=[access[k % len(access)]
                                              for k in range(200)])

        fill()
        for event in (lambda: net.add_switch(70001, net.switch_ids()[:2],
                                             servers_per_switch=2),
                      fill,
                      lambda: net.add_switch(70002, [70001, 5],
                                             servers_per_switch=2),
                      fill,
                      lambda: net.remove_switch(70001)):
            event()
            check_memo_is_fresh(net)
        assert net._fastpath.routes._pool.dtype == np.int32
        assert len(net._fastpath.routes) > 100

    def test_a_join_keeps_what_the_touched_rule_drops(self):
        """Not vacuous: with 12,000 routes memoized on a 200-switch
        Waxman plane, a join keeps at least 90 % of the routes whose
        traces visit a touched switch (the rule it replaces evicted
        them all), and every route kept is a fresh walk."""
        topology, _ = brite_waxman_graph(
            200, min_degree=3, rng=np.random.default_rng(0))
        net = GredNetwork(topology, attach_uniform(topology.nodes(), 4),
                          cvt_iterations=5, seed=0)
        switches = net.switch_ids()
        net.retrieve_many([f"n{k}" for k in range(12000)],
                          entry_switches=[switches[k % 200]
                                          for k in range(12000)])
        memo = net._fast_state().routes
        assert len(memo) >= 10000
        traces = {key: memo.get(*key, 0)[0] for key in memo}
        version = net.controller.version
        net.add_switch(1000, [switches[3], switches[77], switches[150]],
                       servers_per_switch=4)
        touched = net.controller.changes_since(version)
        through = [key for key, trace in traces.items()
                   if touched.intersection(trace)]
        assert check_memo_is_fresh(net) >= 10000 - len(through)
        after = net._fastpath.routes
        kept = sum(key in after for key in through)
        assert len(through) > 1000 and kept >= 0.9 * len(through)
