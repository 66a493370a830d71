"""Batch-built results are views of their batch's columns (DESIGN.md
§5k).

``place_many`` / ``retrieve_many`` hand back one object per request:
a record's or retrieval's ``trace`` and a placement's ``records`` are
spans of the batch's one trace / record column, sliced on read.  These
tests hold the views to the scalar path's results: equal on every
stack, a fresh list per read, setters that stick, a ``repr`` of the
result's own span, a route that outlives later batches and a join, the
public constructors unchanged — and one tracked object per retrieval.
"""

import gc

import numpy as np
import pytest

from repro import (
    GredNetwork,
    PlacementRecord,
    PlacementResult,
    RetrievalResult,
    attach_uniform,
    brite_waxman_graph,
)
from repro.controlplane import FederatedNetwork
from repro.core.results import _PlacementView, _RecordView, _RetrievalView
from repro.resilience import ResilienceConfig
from repro.topology import federated_topology


def build_net(switches=24, seed=3):
    topology, _ = brite_waxman_graph(
        switches, min_degree=3, rng=np.random.default_rng(seed))
    return GredNetwork(topology, attach_uniform(
        topology.nodes(), servers_per_switch=2), cvt_iterations=3,
        seed=seed)


def build_fed():
    topology, assignment = federated_topology(2, 12, min_degree=2, seed=1)
    return FederatedNetwork(topology, assignment=assignment,
                            servers_per_switch=2, cvt_iterations=3, seed=1)


def requests(net, count=300):
    pool = sorted(net._entry_pool())
    return ([f"view/{i}" for i in range(count)],
            [pool[(7 * i) % len(pool)] for i in range(count)])


class _Raw:
    def __init__(self, build):
        self.net = build()

    def place(self, ids, entries, copies):
        return self.net.place_many(ids, payloads=ids,
                                   entry_switches=entries, copies=copies)

    def retrieve(self, ids, entries, copies):
        return self.net.retrieve_many(ids, entry_switches=entries,
                                      copies=copies)

    def place_one(self, data_id, entry, copies):
        return self.net.place(data_id, data_id, entry, copies)

    def retrieve_one(self, data_id, entry, copies):
        return self.net.retrieve(data_id, entry, copies)


class _Resilient(_Raw):
    """An enabled pipeline with room for every request of a batch; its
    outcomes' results (and records) are compared."""

    def __init__(self, build):
        super().__init__(build)
        self.pipeline = self.net.resilient(ResilienceConfig(
            enabled=True, rate_per_switch=1e6, burst=1e4))

    def place(self, ids, entries, copies):
        outcomes = self.pipeline.place_many(
            ids, payloads=ids, entry_switches=entries, copies=copies,
            now=0.0)
        for outcome in outcomes:
            assert outcome.ok and outcome.records == outcome.result.records
        return [outcome.result for outcome in outcomes]

    def retrieve(self, ids, entries, copies):
        outcomes = self.pipeline.retrieve_many(
            ids, entry_switches=entries, copies=copies, now=1.0)
        assert all(outcome.records == [] for outcome in outcomes)
        return [outcome.result for outcome in outcomes]


STACKS = {
    "raw": lambda: _Raw(build_net),
    "resilient": lambda: _Resilient(build_net),
    "federated": lambda: _Raw(build_fed),
}


@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("stack", sorted(STACKS))
def test_views_read_like_the_scalar_twin(stack, copies):
    """Every batch ``trace`` / ``records`` equals the scalar loop's, as
    a plain list, and the whole results compare equal both ways."""
    batch, scalar = STACKS[stack](), STACKS[stack]()
    ids, entries = requests(batch.net, 120)
    placed = batch.place(ids, entries, copies)
    twins = [scalar.place_one(d, e, copies) for d, e in zip(ids, entries)]
    if stack != "federated" or copies == 1:
        assert all(isinstance(p, _PlacementView) for p in placed)
    assert all(isinstance(c, _RecordView) for p in placed
               for c in p.records)
    assert placed == twins and twins == placed
    for got, want in zip(placed, twins):
        assert type(got.records) is list and got.records == want.records
        assert got.num_copies == copies and got.primary == want.primary
        for record, twin in zip(got.records, want.records):
            assert type(record.trace) is list
            assert record.trace == twin.trace
            assert record.physical_hops == len(record.trace) - 1 or \
                record.extended
    # Half the reads miss (never placed): a miss's route is a view too.
    asked = ids[::2] + [f"absent/{i}" for i in range(60)]
    at = entries[::2] + entries[:60]
    read = batch.retrieve(asked, at, copies)
    twins = [scalar.retrieve_one(d, e, copies) for d, e in zip(asked, at)]
    assert all(isinstance(r, _RetrievalView) for r in read)
    assert read == twins and twins == read
    for got, want in zip(read, twins):
        assert type(got.trace) is list and got.trace == want.trace


def raw_batch(copies=2):
    net = build_net()
    ids, entries = requests(net, 40)
    placed = net.place_many(ids, entry_switches=entries, copies=copies)
    read = net.retrieve_many(ids, entry_switches=entries, copies=copies)
    return net, ids, entries, placed, read


def snapshot(results):
    return [(r.records, [c.trace for c in r.records])
            if isinstance(r, PlacementResult) else r.trace
            for r in results]


class TestViews:
    def test_the_batch_builds_views(self):
        _, _, _, placed, read = raw_batch()
        assert all(type(p) is _PlacementView for p in placed)
        assert all(type(c) is _RecordView for p in placed
                   for c in p.records)
        assert all(type(r) is _RetrievalView for r in read)
        assert all(isinstance(r, RetrievalResult) for r in read)
        assert all(isinstance(c, PlacementRecord) for p in placed
                   for c in p.records)

    def test_a_read_is_a_fresh_list(self):
        """Mutating what a read returned changes neither the result
        nor any sibling of its batch."""
        _, _, _, placed, read = raw_batch()
        before = snapshot(placed), snapshot(read)
        for result in read:
            assert result.trace is not result.trace
            result.trace.append(-1)
            result.trace.clear()
        for result in placed:
            records = result.records
            records[0].trace.append(-1)
            records.reverse()
            records.append(None)
            result.records.clear()
        assert (snapshot(placed), snapshot(read)) == before

    def test_the_setters_stick(self):
        """Assigning ``trace`` / ``records`` replaces that result's
        list alone: the value reads back, the siblings do not move."""
        _, _, _, placed, read = raw_batch()
        before = snapshot(placed[1:]), snapshot(read[1:])
        read[0].trace = [7, 8, 9]
        record = placed[0].records[1]
        record.trace = [4]
        assert read[0].trace == [7, 8, 9] and record.trace == [4]
        placed[0].records = [record]
        assert placed[0].records == [record]
        assert placed[0].primary is record and placed[0].num_copies == 1
        assert (snapshot(placed[1:]), snapshot(read[1:])) == before

    def test_the_repr_shows_the_own_span(self):
        """A view's ``repr`` is its scalar twin's: its own trace,
        however long the batch's column."""
        _, _, _, placed, read = raw_batch()
        for result in read:
            twin = RetrievalResult(
                result.data_id, result.found, result.payload,
                result.entry_switch, result.destination_switch,
                result.server_id, result.request_hops,
                result.response_hops, list(result.trace),
                result.copy_used, result.forked, result.attempts)
            assert repr(result) == repr(twin)
            assert len(result._column) > len(result.trace)
        for result in placed:
            twin = PlacementResult(result.data_id, [PlacementRecord(
                c.data_id, c.entry_switch, c.destination_switch,
                c.server_id, c.physical_hops, c.overlay_hops,
                list(c.trace), c.extended, c.hinted)
                for c in result.records])
            assert repr(result) == repr(twin) and result == twin

    def test_a_kept_result_reads_its_own_route(self):
        """Results kept across later batches, a join and a leave still
        read the route they were answered with."""
        net, ids, entries, placed, read = raw_batch()
        before = snapshot(placed), snapshot(read), repr(read), repr(placed)
        for _ in range(3):
            net.place_many([f"later/{i}" for i in range(40)],
                           entry_switches=entries)
            net.retrieve_many(ids, entry_switches=entries)
        joiner = max(net.switch_ids()) + 1
        net.add_switch(joiner, sorted(net.switch_ids())[:3],
                       servers_per_switch=1)
        net.retrieve_many(ids, entry_switches=entries)
        net.remove_switch(joiner)
        net.retrieve_many(ids, entry_switches=entries)
        assert (snapshot(placed), snapshot(read), repr(read),
                repr(placed)) == before

    def test_keyword_construction(self):
        """The public constructors keep their keywords and defaults: a
        fresh own list when none is given."""
        record = PlacementRecord(data_id="d", entry_switch=1,
                                 destination_switch=2, server_id=(2, 0),
                                 physical_hops=1, overlay_hops=1,
                                 trace=[1, 2], extended=False, hinted=True)
        result = PlacementResult(data_id="d", records=[record])
        assert result.primary is record and result.num_copies == 1
        assert result.records[0].trace == [1, 2]
        read = RetrievalResult(data_id="d", found=True, payload="x",
                               entry_switch=1, destination_switch=2,
                               server_id=(2, 0), request_hops=1,
                               response_hops=1, trace=[1, 2], copy_used=0,
                               forked=False, attempts=1)
        assert read.round_trip_hops == 2
        a, b = (RetrievalResult("d", False, None, 1, None, None, 0, 0)
                for _ in range(2))
        assert a.trace == [] and a.trace is not b.trace
        trace = [3, 4]
        own = PlacementRecord("d", 3, 4, (4, 0), 1, 1, trace)
        assert own.trace is trace  # a scalar result's list, not a copy
        with pytest.raises(TypeError):
            hash(own)


def test_carried_views_stay_apart():
    """A federation's cross-region answers are carried into one new
    column per shard batch: each still reads its own route, and a
    read's list or an assignment moves no sibling."""
    fed = build_fed()
    ids, entries = requests(fed, 120)
    placed = fed.place_many(ids, entry_switches=entries)
    read = fed.retrieve_many(ids, entry_switches=entries)
    crossed = [r for r in read
               if fed.region_of(r.entry_switch)
               != fed.region_of(r.destination_switch)]
    assert crossed and all(r.trace[0] == r.entry_switch for r in read)
    before = snapshot(placed), snapshot(read)
    for result in crossed:
        result.trace.append(-1)
    crossed[0].trace = [crossed[0].entry_switch]
    fed.place_many(ids, entry_switches=entries)
    fed.retrieve_many(ids, entry_switches=entries)
    assert crossed[0].trace == [crossed[0].entry_switch]
    crossed[0].trace = before[1][read.index(crossed[0])]
    assert (snapshot(placed), snapshot(read)) == before


def test_a_retrieval_batch_tracks_one_object_per_request():
    """With the collector off, a live ``retrieve_many`` of N ids adds
    at most 1.2 N tracked objects: the results, not a list each."""
    net = build_net()
    ids, entries = requests(net, 2000)
    net.place_many(ids, entry_switches=entries)
    net.retrieve_many(ids, entry_switches=entries)  # the routes memoized
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        kept = net.retrieve_many(ids, entry_switches=entries)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert all(r.found for r in kept)
    assert added <= 1.2 * len(ids)

