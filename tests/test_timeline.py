"""The timeline engine (``repro.faults.Timeline``): one row per event,
draws between events see the state the last event left, and the
audit and retrieval pass name every way a stored item can disagree
with the oracle."""

import numpy as np
import pytest

from repro import GredNetwork, attach_uniform, brite_waxman_graph
from repro.faults import FaultEvent, Timeline
from repro.hashing import replica_id


@pytest.fixture
def timeline():
    topology, _ = brite_waxman_graph(
        12, min_degree=3, rng=np.random.default_rng(2))
    servers = attach_uniform(topology.nodes(), servers_per_switch=2)
    net = GredNetwork(topology, servers, cvt_iterations=5, seed=0)
    return Timeline(net, copies=1, seed=7)


def holder(timeline, data_id):
    """The one server holding ``data_id``'s only replica."""
    copy_id = replica_id(data_id, 0)
    (server,) = [s for s in timeline.net.servers() if s.has(copy_id)]
    return server


def test_one_row_per_event(timeline):
    events = [
        ("seed", dict(data_id="a", payload="v1", entry=0)),
        ("place", dict(data_id="b", payload="v1", entry=1)),
        FaultEvent(0.4, "partition", switches=[3, 2]),
        ("update", dict(data_id="a", payload="v2", entry=0)),
        FaultEvent(0.9, "heal_partition"),
        ("delete", dict(data_id="b", entry=0)),
    ]
    log = timeline.run(events)
    assert log is timeline.log
    assert [row["kind"] for row in log] == [
        "seed", "place", "partition", "update", "heal_partition", "delete"]
    # A fault row is its event less the time: the engine has no clock.
    assert log[2] == {"kind": "partition", "switches": [3, 2]}
    assert log[3] == {"kind": "update", "data_id": "a", "entry": 0}
    assert timeline.rows("seed") == [log[0]]
    # The catalog keeps every item written; the oracle only live ones.
    assert timeline.catalog == {"a": 1, "b": 1}
    assert timeline.payloads == {"a": "v2"}
    assert timeline.detector.catalog is timeline.catalog


def test_a_generator_resumes_after_its_event_is_applied(timeline):
    """Each draw a generator makes between events sees the state the
    last event left: the crashed switch is never drawn again."""
    seen = []

    def crashes():
        for _ in range(4):
            victim = timeline.injector.random_alive_switch()
            seen.append(victim)
            yield FaultEvent(0.0, "switch_crash", switch=victim)
            assert not timeline.injector.state.switch_alive(victim)
            assert timeline.log[-1]["switch"] == victim

    timeline.run(crashes())
    assert len(set(seen)) == 4
    assert [row["switch"] for row in timeline.log] == seen


def test_unknown_step_is_refused(timeline):
    for kind in ("nope", "run", "rows"):
        with pytest.raises(AttributeError):
            timeline.run([(kind, {})])
    assert timeline.log == []


def test_safe_crash_keeps_the_last_replica(timeline):
    timeline.run([("seed", dict(data_id="only", payload=1, entry=0))])
    keeper = holder(timeline, "only")
    empty = next(s for s in timeline.net.servers() if s.load == 0)
    log = timeline.run([("safe_crash", dict(server=keeper.server_id)),
                        ("safe_crash", dict(server=empty.server_id))])
    assert log[1:] == [
        {"kind": "server_crash_skipped", "server": list(keeper.server_id),
         "avoid_total_loss": True},
        {"kind": "server_crash", "server": list(empty.server_id),
         "items_destroyed": 0},
    ]
    assert timeline.injector.state.server_alive(keeper.server_id)
    assert not timeline.injector.state.server_alive(empty.server_id)


def test_audit_and_retrieval_name_each_disagreement(timeline):
    ids = ["fine", "gone", "lost", "stale"]
    timeline.run([("seed", dict(data_id=d, payload=f"v1:{d}", entry=0))
                  for d in ids])
    gone, lost, stale = (holder(timeline, d) for d in ids[1:])
    timeline.run([("delete", dict(data_id="gone", entry=0))])
    gone.store(replica_id("gone", 0), "v1:gone")          # resurrected
    stale.store(replica_id("stale", 0), "v0:stale")       # an old write
    timeline.run([FaultEvent(0.0, "server_crash", switch=lost.server_id[0],
                             serial=lost.server_id[1])])
    audit = timeline.run([("audit", {})])[-1]
    assert audit == {"kind": "audit", "resurrected": ["gone"],
                     "lost": ["lost"], "stale": ["stale"]}
    row = timeline.run([("retrieve", dict(ids=["fine", "stale"],
                                          entries=[0, 5]))])[-1]
    hops = row.pop("mean_round_trip_hops")
    assert row == {"kind": "retrieve", "items_probed": 2, "items_found": 1,
                   "availability": 0.5, "unavailable": ["stale"]}
    fine = timeline.net.retrieve("fine", entry_switch=0)
    assert hops == fine.round_trip_hops
