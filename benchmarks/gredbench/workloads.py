"""gredbench input generator: ``--seed`` -> plain Python lists.

Nothing from the program under test is imported here.  The generator
receives the deployment's switch ids and adjacency as plain data and
returns identifiers, entry switches, the operation schedule, crash
victims and churn links *before* anything is timed; the program only
ever sees these generated inputs.  The same ``(workload, seed, seconds,
preset)`` always yields the same inputs.  The seed drives the request
traffic (entry switches, key popularity draws, operation order); key
names and the scenario (victims, churn links) are fixed, like the
deployment itself.

Every workload runs the same three timed phases, each split into
``ROUNDS`` equal rounds (a metric is the median of its per-round
values):

* **batch** — ``place_many`` / ``retrieve_many`` chunks (the workload's
  traffic shape; empty for ``churn``, whose batches follow its events);
* **scalar** — individual ``place`` / ``retrieve`` calls, the only place
  genuine per-request latency quantiles exist;
* **churn** — ``add_switch`` / ``remove_switch`` cycles (for ``churn``
  each event is followed by batches through the patched plane).

The workload decides the serving stack and the traffic shape; the phase
decides the operation type, so every end-to-end metric is defined on
every workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Sequence, Union

import numpy as np

#: name -> one-line rationale (mirrored in BENCHMARK.json and README).
WORKLOADS: Dict[str, str] = {
    "batch-fresh": (
        "never-seen ids from independent entries: every request misses "
        "the route cache, so hashing, wave routing and record "
        "materialisation all do full work"),
    "batch-hot": (
        "Zipf(0.99) reads/updates of 20k keys with sticky entries: the "
        "working set fits the route cache, so waves idle and cache "
        "lookup, result objects, edge lookups and hashing dominate"),
    "faulted": (
        "fault state attached, 8 switches crashed, copies=2: batches "
        "stand down to the scalar loop with replica failover live - "
        "the production posture"),
    "resilient-batch": (
        "ResilientNetwork at 0.5x admission capacity: isolates per-item "
        "admission, breaker feed and outcome objects over an otherwise "
        "fast path"),
    "federated-batch": (
        "4 regions x 100 switches, ~75% cross-region: home-region "
        "resolve, per-shard grouping and gateway stitching dominate"),
    "churn": (
        "join/leave events each followed by batches: plan/diff/apply, "
        "data migration, router patch and selective cache eviction are "
        "the work"),
}

SCENARIO_SEED = 0
#: ``--seconds`` at which the round lengths below apply unscaled (sized
#: on a 2-core box so the timed phases take about this long).
BASE_SECONDS = 10
ROUNDS = 3
#: Traced runs execute one plain round (the untraced reference for
#: ``obs.trace_overhead_frac``) and one traced round.
TRACED_ROUNDS = 2
ZIPF_EXPONENT = 0.99
#: ``ResilienceConfig.rate_per_switch`` the resilient deployment is built
#: with; the generator paces arrivals at half the admission capacity.
ADMISSION_RATE = 200.0
OFFERED_LOAD = 0.5


@dataclass(frozen=True)
class Shape:
    """Per-round size of one workload at ``BASE_SECONDS``."""

    style: str                # "pairs" | "mix" | "cycles"
    chunk: int                # items per batch call
    place_chunks: int         # place_many calls per round ...
    retrieve_chunks: int      # ... and retrieve_many (0: see cycles)
    scalar_places: int
    scalar_retrieves: int
    #: join+leave cycles per round; with style "cycles" each one is
    #: join, retrieve_many, place_many, leave, retrieve_many.
    cycles: int
    copies: int = 1
    universe: int = 0         # keys pre-loaded in set-up
    zipf: bool = False
    crashes: int = 0          # switches crashed per wave (two waves)


@dataclass(frozen=True)
class Preset:
    switches: int
    regions: int
    region_switches: int
    cvt_iterations: int
    shapes: Dict[str, Shape]
    servers_per_switch: int = 4
    min_degree: int = 3
    check_sample: int = 500     # keys in the output-check sample


FULL = Preset(
    switches=200, regions=4, region_switches=100, cvt_iterations=20,
    # Cycles per round are sized by cost: about a second of join/leave
    # per round on every workload.
    shapes={
        "batch-fresh": Shape("pairs", 10_000, 8, 8, 1_000, 2_000, 4),
        "batch-hot": Shape("mix", 10_000, 3, 27, 1_000, 4_000, 8,
                           universe=20_000, zipf=True),
        "faulted": Shape("mix", 2_000, 2, 8, 2_000, 8_000, 6,
                         copies=2, universe=20_000, crashes=4),
        "resilient-batch": Shape("pairs", 5_000, 10, 10, 1_000, 2_000,
                                 4),
        "federated-batch": Shape("pairs", 10_000, 2, 2, 1_000, 2_000,
                                 12),
        "churn": Shape("cycles", 5_000, 0, 0, 1_000, 2_000, 6,
                       universe=20_000, zipf=True),
    },
)

QUICK = Preset(
    switches=24, regions=2, region_switches=12, cvt_iterations=5,
    check_sample=40,
    shapes={
        "batch-fresh": Shape("pairs", 200, 2, 2, 30, 60, 1),
        "batch-hot": Shape("mix", 200, 1, 5, 30, 60, 1,
                           universe=400, zipf=True),
        "faulted": Shape("mix", 100, 1, 3, 30, 60, 1,
                         copies=2, universe=400, crashes=1),
        "resilient-batch": Shape("pairs", 240, 2, 2, 30, 60, 1),
        "federated-batch": Shape("pairs", 200, 2, 2, 30, 60, 1),
        "churn": Shape("cycles", 100, 0, 0, 30, 60, 2,
                       universe=400, zipf=True),
    },
)


class BatchOp(NamedTuple):
    kind: str                 # "place" | "retrieve"
    ids: List[str]
    entries: List[int]
    now: float                # virtual arrival time (resilient stack)


class ScalarOp(NamedTuple):
    kind: str
    data_id: str
    entry: int
    now: float


class ScalarBlock(NamedTuple):
    ops: List[ScalarOp]


class Cycle(NamedTuple):
    switch: int               # id of the joining switch
    links: List[int]
    after_join: List[BatchOp]
    after_leave: List[BatchOp]


#: One schedule entry: a batch call, a block of scalar calls, or a
#: join+leave cycle.
Step = Union[BatchOp, ScalarBlock, Cycle]


@dataclass
class Inputs:
    copies: int
    universe: List[str] = field(default_factory=list)
    universe_entries: List[int] = field(default_factory=list)
    crash_waves: List[List[int]] = field(default_factory=list)
    #: Untimed warm-up: one step per operation type.
    warm: List[Step] = field(default_factory=list)
    check: BatchOp = BatchOp("place", [], [], 0.0)
    check_retrieve_now: float = 0.0
    #: Timed schedule, ``[round][step]``.  A round issues its main
    #: steps (requests), then its churn steps (cycles only): events
    #: sit at the round boundaries, where the few route-cache entries
    #: they evict are refilled by the next round's first batch call.
    main: List[List[Step]] = field(default_factory=list)
    churn: List[List[Step]] = field(default_factory=list)
    #: Fresh place/retrieve pairs for the telemetry on/off comparison
    #: (traced runs only): one to warm the twin, then four off/on pairs.
    telemetry: List[List[BatchOp]] = field(default_factory=list)
    #: Round-length factor applied to the preset (``seconds / 10``).
    scale: float = 1.0


def scaled(shape: Shape, seconds: float) -> Shape:
    """Scale *round length* (calls per round) by ``seconds / 10``;
    topology, chunk size and mix ratios never change."""
    factor = seconds / BASE_SECONDS

    def n(count: int) -> int:
        return max(1, round(count * factor)) if count else 0

    return replace(
        shape, place_chunks=n(shape.place_chunks),
        retrieve_chunks=n(shape.retrieve_chunks),
        scalar_places=n(shape.scalar_places),
        scalar_retrieves=n(shape.scalar_retrieves),
        cycles=n(shape.cycles))


def _connected_without(adjacency: Dict[int, Sequence[int]],
                       removed: set) -> bool:
    nodes = [n for n in adjacency if n not in removed]
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        node = frontier.pop()
        for peer in adjacency[node]:
            if peer not in removed and peer not in seen:
                seen.add(peer)
                frontier.append(peer)
    return len(seen) == len(nodes)


class _Clock:
    """Virtual arrival times at ``OFFERED_LOAD`` x admission capacity
    (only the resilient stack reads them)."""

    def __init__(self, switches: int) -> None:
        self.now = 0.0
        self.per_request = 1.0 / (OFFERED_LOAD * ADMISSION_RATE
                                  * switches)

    def advance(self, requests: int) -> float:
        at = self.now
        self.now += requests * self.per_request
        return at


def _pace(inputs: Inputs, clock: _Clock) -> None:
    """Stamp every request with its arrival time, in issue order."""
    def batch(op: BatchOp) -> BatchOp:
        return op._replace(now=clock.advance(len(op.ids)))

    def step(entry: Step) -> Step:
        if isinstance(entry, BatchOp):
            return batch(entry)
        if isinstance(entry, ScalarBlock):
            return ScalarBlock([op._replace(now=clock.advance(1))
                                for op in entry.ops])
        return entry._replace(
            after_join=[batch(op) for op in entry.after_join],
            after_leave=[batch(op) for op in entry.after_leave])

    inputs.check = batch(inputs.check)
    inputs.check_retrieve_now = clock.advance(len(inputs.check.ids))
    inputs.warm = [step(entry) for entry in inputs.warm]
    inputs.main = [[step(e) for e in rnd] for rnd in inputs.main]
    inputs.churn = [[step(e) for e in rnd] for rnd in inputs.churn]
    inputs.telemetry = [[batch(op) for op in pair]
                        for pair in inputs.telemetry]


def generate(workload: str, seed: int, seconds: float, preset: Preset,
             nodes: Sequence[int],
             adjacency: Dict[int, Sequence[int]],
             regions: Dict[int, Sequence[int]],
             rounds: int = ROUNDS, telemetry: bool = False) -> Inputs:
    """Build every input of one run, in the order the run issues them.

    ``nodes`` / ``adjacency`` describe the (fixed) deployment topology;
    ``regions`` maps region id -> member switches (one region for the
    monolithic stacks) so a joining switch links into a single region.
    """
    shape = scaled(preset.shapes[workload], seconds)
    index = list(WORKLOADS).index(workload)
    rng = np.random.default_rng([seed, index])
    # The scenario (crash victims, churn links) is part of the fixed
    # deployment: join cost and surviving load depend on *which*
    # switches are hit far more than on the traffic, and there are too
    # few events per run to average that out.
    scenario = np.random.default_rng([SCENARIO_SEED, index])
    nodes = list(nodes)
    # Key names do not depend on the seed: a fixed key space (so load
    # balance is a property of the program, not of the draw) read and
    # written through seed-dependent entries, order and popularity.
    tag = workload
    inputs = Inputs(copies=shape.copies, scale=seconds / BASE_SECONDS)

    # Crash victims first: entries must be live access points, and the
    # survivors must stay connected (nothing stranded, nothing fails).
    dead: set = set()
    for _ in range(2 if shape.crashes else 0):
        while True:
            wave = [nodes[v] for v in scenario.choice(
                len(nodes), shape.crashes, replace=False).tolist()]
            if dead.isdisjoint(wave) and _connected_without(
                    adjacency, dead | set(wave)):
                break
        inputs.crash_waves.append(wave)
        dead |= set(wave)
    live = [n for n in nodes if n not in dead]

    def uniform_entries(count: int) -> List[int]:
        return [live[v] for v in
                rng.integers(0, len(live), count).tolist()]

    def balanced_entries(count: int) -> List[int]:
        # Equal share per switch: a chunk stays under every entry's
        # admission burst, so the resilient stack never sheds.
        pool = np.repeat(np.asarray(live), -(-count // len(live)))
        rng.shuffle(pool)
        return pool[:count].tolist()

    entries = (balanced_entries if workload == "resilient-batch"
               else uniform_entries)

    # Pre-loaded universe with one sticky access switch per key.
    if shape.universe:
        inputs.universe = [f"{tag}/u/{i}" for i in range(shape.universe)]
        inputs.universe_entries = uniform_entries(shape.universe)
        ranks = np.arange(1, shape.universe + 1, dtype=np.float64)
        weights = (ranks ** -ZIPF_EXPONENT if shape.zipf
                   else np.ones(shape.universe))
        weights /= weights.sum()
        by_rank = rng.permutation(shape.universe)

    def universe_draw(count: int, popular: bool = True):
        picks = (by_rank[rng.choice(shape.universe, count, p=weights)]
                 if popular else rng.integers(0, shape.universe, count))
        return ([inputs.universe[i] for i in picks.tolist()],
                [inputs.universe_entries[i] for i in picks.tolist()])

    fresh_serial = 0

    def fresh_ids(count: int) -> List[str]:
        nonlocal fresh_serial
        start = fresh_serial
        fresh_serial += count
        return [f"{tag}/f/{i}" for i in range(start, start + count)]

    def batch(kind: str, ids, ents) -> BatchOp:
        return BatchOp(kind, ids, ents, 0.0)

    def pair() -> List[BatchOp]:
        # Place never-seen ids, then read them back from independent
        # entries: both calls miss the route cache.
        ids = fresh_ids(shape.chunk)
        return [batch("place", ids, entries(shape.chunk)),
                batch("retrieve", ids, entries(shape.chunk))]

    def universe_op(kind: str) -> BatchOp:
        return batch(kind, *universe_draw(shape.chunk))

    def scalar_block(stored: Sequence[str], gets: int,
                     puts: int) -> ScalarBlock:
        if shape.universe:
            # Uniform draws: the scalar path has no cache for key
            # popularity to matter, and a few hot keys' hop counts
            # would otherwise decide the latency quantiles.
            get_ids, get_ents = universe_draw(gets, popular=False)
            put_ids, put_ents = universe_draw(puts, popular=False)
        else:
            picks = rng.integers(0, len(stored), gets).tolist()
            get_ids, get_ents = [stored[i] for i in picks], entries(gets)
            put_ids, put_ents = fresh_ids(puts), entries(puts)
        ops = ([("retrieve", d, e) for d, e in zip(get_ids, get_ents)]
               + [("place", d, e) for d, e in zip(put_ids, put_ents)])
        return ScalarBlock([ScalarOp(*ops[i], 0.0)
                            for i in rng.permutation(len(ops)).tolist()])

    next_switch = max(nodes) + 1
    live_set = set(live)
    region_pools = [[s for s in members if s in live_set]
                    for _, members in sorted(regions.items())]

    def cycle(with_batches: bool) -> Cycle:
        nonlocal next_switch
        pool = region_pools[int(scenario.integers(0,
                                                  len(region_pools)))]
        links = [pool[v] for v in
                 scenario.choice(len(pool), 3, replace=False).tolist()]
        switch = next_switch
        next_switch += 1
        if not with_batches:
            return Cycle(switch, links, [], [])
        return Cycle(switch, links,
                     [universe_op("retrieve"), universe_op("place")],
                     [universe_op("retrieve")])

    def main_round() -> List[Step]:
        """The round's requests: every batch call (or, for ``churn``,
        every cycle) is followed by an equal share of the round's
        scalar calls, so each operation type samples the whole run and
        not one moment of a shared machine."""
        if shape.style == "pairs":
            calls: List[Step] = [op for _ in range(shape.place_chunks)
                                 for op in pair()]
        elif shape.style == "cycles":
            calls = [cycle(True) for _ in range(shape.cycles)]
        else:
            total = shape.place_chunks + shape.retrieve_chunks
            every = total // shape.place_chunks
            calls = [universe_op(
                "place" if k % every == every - 1
                and k // every < shape.place_chunks else "retrieve")
                for k in range(total)]
        gets = max(1, shape.scalar_retrieves // len(calls))
        puts = max(1, shape.scalar_places // len(calls))
        steps: List[Step] = []
        for call in calls:
            steps.append(call)
            stored = call.ids if isinstance(call, BatchOp) else []
            steps.append(scalar_block(stored, gets, puts))
        return steps

    # Warm-up: one untimed step per operation type.
    warm_calls = ([universe_op("retrieve"), universe_op("place")]
                  if shape.universe else pair())
    inputs.warm = warm_calls + [
        scalar_block(warm_calls[0].ids, 32, 32), cycle(False)]

    # Output-check sample: fresh ids, placed then retrieved.
    sample = fresh_ids(preset.check_sample)
    inputs.check = batch("place", sample, entries(len(sample)))

    inputs.main = [main_round() for _ in range(rounds)]
    if shape.style != "cycles":
        inputs.churn = [[cycle(False) for _ in range(shape.cycles)]
                        for _ in range(rounds)]

    if telemetry:
        inputs.telemetry = [pair() for _ in range(9)]
    _pace(inputs, _Clock(len(nodes)))
    return inputs
