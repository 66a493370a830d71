"""The snapshot format: pinned documents, checked fields, a fuzzed loader.

* ``tests/data/snapshot_v1.json`` (a fault-rich network: crashes,
  loss, a slow link, a live partition, stamps, tombstones, hints, an
  extension, two joined switches, pending southbound deltas) and
  ``tests/data/federation_v1.json`` (three regions) pin the format:
  each loads and re-serializes byte-identical, and the deterministic
  builds below write the same bytes.
* A malformed field raises :class:`SnapshotError` naming its path.
* Whatever a document is mutated into, the loaders raise nothing but
  :class:`SnapshotError` (hypothesis; ``--hypothesis-profile=deep``
  walks longer).
"""

import copy
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GredNetwork
from repro.controlplane import FederatedNetwork
from repro.edge import EdgeServer
from repro.faults import FaultInjector
from repro.io import (
    SnapshotError,
    from_federation_snapshot,
    from_snapshot,
    load_federation,
    load_network,
    restore_shard,
    save_federation,
    save_network,
)
from repro.topology import federated_topology, grid_graph

DATA = Path(__file__).resolve().parent / "data"
SNAPSHOT = DATA / "snapshot_v1.json"
FEDERATION = DATA / "federation_v1.json"
MONOLITH_DOC = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
FEDERATION_DOC = json.loads(FEDERATION.read_text(encoding="utf-8"))


def fault_rich_network():
    """The network ``snapshot_v1.json`` holds: every optional section
    and record field of the format is present."""
    topology = grid_graph(3, 3)
    servers = {n: [EdgeServer(n, serial, capacity=40) for serial in range(2)]
               for n in topology.nodes()}
    net = GredNetwork(topology, servers, cvt_iterations=10, seed=0)
    for i in range(20):
        net.place(f"snap-{i}", payload={"i": i}, entry_switch=0)
    net.add_switch(100, links=[0, 4], servers_per_switch=2)
    net.extend_range(4, 0)
    injector = FaultInjector(net, seed=0)
    net.hinted_handoff = True
    for i in range(10):
        net.place(f"stamped-{i}", payload=[i, "s"], entry_switch=1)
    for i in range(3):
        net.delete(f"stamped-{i}", entry_switch=1)
    injector.crash_server(0, 1)
    injector.crash_server(2, 0)
    for i in range(30):
        net.place(f"hinted-{i}", payload=i, entry_switch=4)
    injector.set_control_fault(drop=0.9)
    net.add_switch(101, links=[100, 2], servers_per_switch=2)
    injector.crash_switch(8)
    injector.link_down(3, 4)
    injector.set_packet_loss(0, 1, 0.25)
    injector.set_slow_link(1, 2, 3.5)
    injector.partition([6])
    return net


def small_federation():
    """The federation ``federation_v1.json`` holds."""
    topology, assignment = federated_topology(3, 6, min_degree=2, seed=0)
    fed = FederatedNetwork(topology, assignment=assignment,
                           cvt_iterations=3, seed=0)
    fed.place_many([f"fed-{i}" for i in range(60)])
    return fed


def written(save, obj) -> str:
    buffer = io.StringIO()
    save(obj, buffer)
    return buffer.getvalue()


class TestPinnedFormat:
    def test_snapshot_round_trips_byte_identical(self):
        text = SNAPSHOT.read_text(encoding="utf-8")
        assert written(save_network, load_network(str(SNAPSHOT))) == text

    def test_federation_round_trips_byte_identical(self):
        text = FEDERATION.read_text(encoding="utf-8")
        assert written(save_federation,
                       load_federation(str(FEDERATION))) == text

    def test_builds_write_the_pinned_bytes(self):
        assert written(save_network, fault_rich_network()) == \
            SNAPSHOT.read_text(encoding="utf-8")
        assert written(save_federation, small_federation()) == \
            FEDERATION.read_text(encoding="utf-8")

    def test_fixture_holds_every_optional_part(self):
        doc = MONOLITH_DOC
        assert {"faults", "durability"} <= doc.keys()
        assert "partitions" in doc["faults"]
        assert doc["extensions"]
        assert doc["controlplane"]["pending"]
        for key in ("stamps", "tombstones", "hints"):
            assert any(key in record for record in doc["servers"])

    def test_joined_position_outside_the_unit_square_loads(self):
        # A joined switch's least-squares position may leave the unit
        # square; only finiteness is checked.
        doc = copy.deepcopy(MONOLITH_DOC)
        doc["positions"]["101"] = [5.0, 0.5]
        assert from_snapshot(doc).controller.positions[101] == (5.0, 0.5)


def _first(records, key):
    return next(i for i, record in enumerate(records) if record.get(key))


def _set(path, value):
    """A doctor that sets the field at ``path`` (keys and indices)."""
    def doctor(doc):
        *parents, last = path
        for step in parents:
            doc = doc[step]
        doc[last] = value
    return doctor


MONOLITH_CASES = [
    ("servers[3].capacity", _set(["servers", 3, "capacity"], -1)),
    ("servers[3].capacity", _set(["servers", 3, "capacity"], "x")),
    ("servers[0].capacity", lambda doc: doc["servers"][0].update(
        capacity=len(doc["servers"][0]["items"]) - 1)),
    ("servers[2].serial", _set(["servers", 2, "serial"], "a")),
    ("servers[3].serial", _set(["servers", 3, "serial"], 5)),
    ("servers[1].serial", _set(["servers", 1, "serial"], 0)),
    ("servers[0].items", _set(["servers", 0, "items"], [])),
    ("nodes", _set(["nodes"], None)),
    ("servers", _set(["servers"], None)),
    ("edges[0]", _set(["edges"], [[1]])),
    ("config", _set(["config"], None)),
    ("config.cvt_iterations", _set(["config", "cvt_iterations"], "x")),
    ("controlplane.epoch", _set(["controlplane", "epoch"], "x")),
    ("extensions[0].serial",
     lambda doc: doc["extensions"][0].pop("serial")),
    (None, lambda doc: doc["servers"][_first(doc["servers"], "hints")]
     ["hints"][0].update(op="zap")),
    ("durability.write_version",
     _set(["durability", "write_version"], "x")),
    ("config.relaxation", _set(["config", "relaxation"], -1)),
    ("config.relaxation", _set(["config", "relaxation"], 5.0)),
    ("config.relaxation", _set(["config", "relaxation"], 0)),
    ("config.margin", _set(["config", "margin"], -1)),
    ("config.margin", _set(["config", "margin"], 0.5)),
]


@pytest.mark.parametrize("path, doctor", MONOLITH_CASES, ids=[
    "capacity-negative", "capacity-string", "capacity-below-load",
    "serial-string", "serials-not-dense", "serials-duplicate",
    "items-list", "nodes-null", "servers-null", "edge-short",
    "config-null", "config-string", "epoch-string",
    "extension-no-serial", "hint-op", "write-version-string",
    "relaxation-negative", "relaxation-above-one", "relaxation-zero",
    "margin-negative", "margin-half"])
def test_malformed_field_is_named(path, doctor):
    doc = copy.deepcopy(MONOLITH_DOC)
    doctor(doc)
    if path is None:  # the hint case: its record index is computed
        path = f"servers[{_first(doc['servers'], 'hints')}].hints[0].op"
    with pytest.raises(SnapshotError,
                       match=re.escape(f"snapshot field '{path}'")):
        from_snapshot(doc)


def test_config_on_its_bounds_restores_and_recomputes():
    """The closed ends of the config bounds load, and the restored
    controller recomputes with them."""
    doc = copy.deepcopy(MONOLITH_DOC)
    doc["config"].update(relaxation=1, margin=0)
    net = from_snapshot(doc)
    assert (net.controller.config.relaxation,
            net.controller.config.margin) == (1.0, 0.0)
    net.controller.recompute()


FEDERATION_CASES = [
    ("assignment", _set(["assignment"], [])),
    ("assignment[0]", _set(["assignment", "0"], "x")),
    ("assignment[0]", _set(["assignment", "0"], 7)),
    ("cross_links[0]", _set(["cross_links"], [[1]])),
    ("shards", _set(["shards"], None)),
    ("shards", lambda doc: doc["shards"].update(a=doc["shards"]["0"])),
    ("seed", _set(["seed"], "x")),
    ("shards[1].servers[0].capacity",
     _set(["shards", "1", "servers", 0, "capacity"], -1)),
    ("shards[2].config.relaxation",
     _set(["shards", "2", "config", "relaxation"], -1)),
]


@pytest.mark.parametrize("path, doctor", FEDERATION_CASES, ids=[
    "assignment-list", "region-string", "region-without-shard",
    "cross-link-short", "shards-null", "shard-key", "seed-string",
    "shard-capacity", "shard-relaxation"])
def test_malformed_federation_field_is_named(path, doctor):
    doc = copy.deepcopy(FEDERATION_DOC)
    doctor(doc)
    with pytest.raises(SnapshotError,
                       match=re.escape(f"snapshot field '{path}'")):
        from_federation_snapshot(doc)


def test_restore_shard_names_the_shard():
    fed = from_federation_snapshot(FEDERATION_DOC)
    doc = copy.deepcopy(FEDERATION_DOC["shards"]["2"])
    doc["servers"][0]["capacity"] = -1
    with pytest.raises(SnapshotError,
                       match=re.escape("snapshot field 'shards[2].servers"
                                       "[0].capacity'")):
        restore_shard(fed, 2, doc)


def test_shard_must_cover_its_region():
    doc = copy.deepcopy(FEDERATION_DOC)
    doc["shards"]["0"], doc["shards"]["1"] = (doc["shards"]["1"],
                                              doc["shards"]["0"])
    with pytest.raises(SnapshotError, match=re.escape("'shards[0]")):
        from_federation_snapshot(doc)


# ----------------------------------------------------------------------
# fuzzing the loaders
# ----------------------------------------------------------------------
#: What a mutation may write in place of a value.
JUNK = [None, "x", -1, math.nan, [], {}]


def _locations(node, path=()):
    """Every ``(path, value)`` in a JSON document, the root excluded."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,), child
        yield from _locations(child, path + (key,))


def _mutations(doc):
    """``(path, mutation)`` pairs: drop a key, write junk, or truncate a
    list, at every location of ``doc``."""
    found = []
    for path, value in _locations(doc):
        if isinstance(path[-1], str):
            found.append((path, "drop"))
        found.extend((path, ("junk", i)) for i in range(len(JUNK)))
        if isinstance(value, list) and value:
            found.append((path, "truncate"))
    return found


def _mutate(doc, path, mutation):
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if mutation == "drop":
        del parent[path[-1]]
    elif mutation == "truncate":
        del parent[path[-1]][len(parent[path[-1]]) // 2:]
    else:
        parent[path[-1]] = copy.deepcopy(JUNK[mutation[1]])
    return doc


#: Tier-1 draws a fixed, bounded sample; ``deep`` a longer random one.
DEEP = settings.get_current_profile_name() == "deep"
FUZZ = settings(max_examples=400 if DEEP else 60, derandomize=not DEEP,
                deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _check_load(doc, restore, load):
    """Restoring ``doc`` as a dict or from its JSON text raises nothing
    but :class:`SnapshotError`."""
    for attempt in (lambda: restore(doc),
                    lambda: load(io.StringIO(json.dumps(doc)))):
        try:
            attempt()
        except SnapshotError:
            pass


@FUZZ
@given(st.sampled_from(_mutations(MONOLITH_DOC)))
def test_fuzzed_snapshot_fails_closed(case):
    _check_load(_mutate(MONOLITH_DOC, *case), from_snapshot, load_network)


@FUZZ
@given(st.sampled_from(_mutations(FEDERATION_DOC)))
def test_fuzzed_federation_fails_closed(case):
    _check_load(_mutate(FEDERATION_DOC, *case), from_federation_snapshot,
                load_federation)
