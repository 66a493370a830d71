"""Snapshot serialization of a GRED deployment.

A snapshot captures everything needed to restore a network byte-for-
byte: the topology, the per-switch servers (capacity and stored items),
the control-plane configuration, the computed virtual positions, and
active range extensions.  Restoring rebuilds the DT and forwarding rules
over the *stored* positions, so routing decisions are identical across
save/load — the basis of the CLI's file-backed workflows.

The format is declared once: the tables below name each section's
fields, and the writer and the reader both walk them.  The reader takes
every field through a checked reader (``_int``, ``_num``, ``_row``,
``_rows``, ``_int_map``, ``_key``) that returns the value or raises
:class:`SnapshotError` naming the field's path, e.g. ``snapshot field
'servers[3].capacity' must be an int >= 0, got -1`` (DESIGN.md §5h).

Payloads must be JSON-serializable; binary payloads should be encoded
by the application (e.g. base64) before placement.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from contextlib import nullcontext
from functools import partial
from typing import Any, Dict, IO, Union

from ..controlplane import (ControlPlaneError, Controller, ControllerConfig,
                            FederatedController, FederatedNetwork,
                            RegionError, RegionMap, RegionShard)
from ..core import GredNetwork
from ..dataplane import ExtensionEntry
from ..edge import EdgeServer, Hint
from ..faults.state import FaultState, link_key
from ..graph import Graph
from ..hashing import data_position

#: Format marker for forward compatibility.
SNAPSHOT_FORMAT = "gred-snapshot-v1"


class SnapshotError(Exception):
    """Raised on malformed snapshots or unserializable payloads."""


# ----------------------------------------------------------------------
# checked readers
# ----------------------------------------------------------------------
#: What an absent field reads as, so its error says so.
_MISSING = type("_Missing", (), {"__repr__": lambda self: "nothing"})()


def _bad(path: str, want: str, value: Any) -> SnapshotError:
    subject = f"snapshot field {path!r}" if path else "a snapshot"
    return SnapshotError(f"{subject} must be {want}, "
                         f"got {reprlib.repr(value)}")


def _int(value: Any, path: str, low: int = 0) -> int:
    if isinstance(value, int) and not isinstance(value, bool) \
            and value >= low:
        return value
    raise _bad(path, f"an int >= {low}", value)


def _num(value: Any, path: str, low: float = -math.inf,
         high: float = math.inf, span: str = "[]") -> float:
    """A finite number in ``[low, high]``; ``span`` ``"(]"`` or ``"[)"``
    leaves the low or the high end out."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max \
            and (low <= value if span[0] == "[" else low < value) \
            and (value <= high if span[1] == "]" else value < high):
        return float(value)
    raise _bad(path, f"a finite number in {span[0]}{low:g}, {high:g}"
                     f"{span[1]}", value)


def _is(kind: type, want: str):
    """The reader of a value of type ``kind``."""
    def read(value: Any, path: str):
        if isinstance(value, kind):
            return value
        raise _bad(path, want, value)
    return read


_list, _obj = _is(list, "a list"), _is(dict, "an object")
_flag, _str = _is(bool, "true or false"), _is(str, "a string")


def _row(value: Any, path: str, readers) -> list:
    """A fixed-width list, each column through its reader."""
    if isinstance(value, list) and len(value) == len(readers):
        return [read(column, f"{path}[{i}]")
                for i, (read, column) in enumerate(zip(readers, value))]
    raise _bad(path, f"a list of {len(readers)}", value)


def _rows(value: Any, path: str, readers) -> list:
    return [_row(row, f"{path}[{i}]", readers)
            for i, row in enumerate(_list(value, path))]


def _key(key: Any, path: str) -> int:
    """A switch or region id written as an object key."""
    if isinstance(key, str) and key.isdecimal() and len(key) < 19 \
            and str(int(key)) == key:
        return int(key)
    raise _bad(path, "keyed by ids", key)


def _int_map(value: Any, path: str) -> Dict[int, int]:
    return {_key(key, path): _int(count, f"{path}[{key}]")
            for key, count in _obj(value, path).items()}


def _stamps(value: Any, path: str) -> Dict[str, tuple]:
    """``item id -> (version, origin)``."""
    return {item: tuple(_row(stamp, f"{path}[{item}]", _PAIR))
            for item, stamp in _obj(value, path).items()}


def _read_fields(record: Any, path: str, table) -> Dict[str, Any]:
    """The fields ``table`` declares, read from the object at ``path``."""
    record = _obj(record, path)
    return {name: read(record.get(name, _MISSING), f"{path}.{name}")
            for name, read in table}


def _write_fields(owner: Any, table, attributes=None) -> Dict[str, Any]:
    """The fields ``table`` declares, from ``owner``'s attributes (of
    the same names unless ``attributes`` gives them); a map is written
    with sorted string keys."""
    values = (getattr(owner, attribute) for attribute
              in attributes or (name for name, _ in table))
    return {name: {str(key): count for key, count in sorted(value.items())}
            if isinstance(value, dict) else value
            for (name, _), value in zip(table, values)}


# ----------------------------------------------------------------------
# the format
# ----------------------------------------------------------------------
_PAIR = (_int, _int)
#: ``[u, v, weight]`` of an ``edges`` or ``cross_links`` row.
_EDGE = (_int, _int, _num)
_POINT = (_num, _num)
#: ``config``: the ControllerConfig fields a restore rebuilds, in the
#: bounds ``recompute`` holds them to (C-regulation's relaxation, the
#: M-position margin).
_CONFIG = (("cvt_iterations", _int), ("samples_per_iteration", _int),
           ("relaxation", partial(_num, low=0.0, high=1.0, span="(]")),
           ("margin", partial(_num, low=0.0, high=0.5, span="[)")),
           ("seed", _int))
#: ``controlplane``: the counters a restore resumes, and the
#: Controller fields that hold them.
_COUNTERS = (("epoch", _int), ("version", _int),
             ("generations", _int_map), ("pending", _int_map),
             ("ack_generations", _int_map))
_COUNTER_FIELDS = ("_global_epoch", "_version", "_generations",
                   "_pending_deltas", "_ack_generations")
#: ``durability``: the network's write clock and handoff switch.
_DURABILITY = (("write_version", _int), ("hinted_handoff", _flag))
#: Where a server record's server sits.
_SERVER = (("switch", _int), ("serial", _int))
#: One ``extensions`` record: the switch, then its ExtensionEntry.
_EXTENSION = (("switch", _int), ("serial", _int), ("target_switch", _int),
              ("target_serial", _int))
#: One parked hint of a server record.
_HINT = ("copy_id", "op", "target", "stamp", "payload")
#: ``faults``: a list per FaultState field, a row per member: the row's
#: column readers, how many lead columns form the key (a map's value
#: follows them), and whether the key is a link, stored low end first.
#: A switch alone is written bare, not as a row of one.
_FAULTS = (("crashed_switches", (_int,), 1, False),
           ("crashed_servers", _PAIR, 2, False),
           ("down_links", _PAIR, 2, True),
           ("loss", (_int, _int, partial(_num, low=0.0, high=1.0)), 2,
            True),
           ("slow", (_int, _int, partial(_num, low=1.0)), 2, True),
           ("partitions", _PAIR, 1, False))


def _payload(item_id: str, payload: Any) -> Any:
    try:
        json.dumps(payload)
        return payload
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"payload of {item_id!r} is not "
                            f"JSON-serializable: {exc}") from exc


def _server_record(server: EdgeServer) -> Dict[str, Any]:
    """A server's record.  Durability state (write stamps, tombstones,
    parked hinted-handoff writes) is written only when present, so a
    fault-free record has four fields."""
    ids = server.stored_ids()
    record = {**_write_fields(server, _SERVER), "capacity": server.capacity,
              "items": {item: _payload(item, server.retrieve(item))
                        for item in ids}}
    optional = (
        ("stamps", {item: list(stamp) for item in ids
                    for stamp in [server.stamp_of(item)] if stamp}),
        ("tombstones", {item: list(stamp) for item, stamp
                        in server.tombstones().items()}),
        ("hints", [dict(zip(_HINT, (
            hint.copy_id, hint.op, list(hint.target), list(hint.stamp),
            _payload(hint.copy_id, hint.payload))))
            for hint in server.hints()]),
    )
    record.update((name, value) for name, value in optional if value)
    return record


def _read_server(record: Any, path: str) -> EdgeServer:
    """The server of a :func:`_server_record`; its capacity must hold
    its items."""
    ids = _read_fields(record, path, _SERVER)
    items = _obj(record.get("items", _MISSING), f"{path}.items")
    capacity = record.get("capacity", _MISSING)
    server = EdgeServer(**ids, capacity=None if capacity is None
                        else _int(capacity, f"{path}.capacity", len(items)))
    stamps = _stamps(record.get("stamps", {}), f"{path}.stamps")
    server.store_many(items, list(items.values()),
                      [stamps.get(item) for item in items] if stamps
                      else None)
    for item, stamp in _stamps(record.get("tombstones", {}),
                               f"{path}.tombstones").items():
        server.entomb(item, stamp)
    for i, hint in enumerate(_list(record.get("hints", []),
                                   f"{path}.hints")):
        server.park_hint(_read_hint(hint, f"{path}.hints[{i}]"))
    return server


def _read_hint(hint: Any, path: str) -> Hint:
    copy_id, op, target, stamp, payload = (
        _obj(hint, path).get(name, _MISSING) for name in _HINT)
    if op not in ("store", "delete"):
        raise _bad(f"{path}.op", "'store' or 'delete'", op)
    return Hint(_str(copy_id, f"{path}.copy_id"), op,
                tuple(_row(target, f"{path}.target", _PAIR)),
                tuple(_row(stamp, f"{path}.stamp", _PAIR)),
                None if payload is _MISSING else payload)


def _read_servers(records: Any, at: str) -> Dict[int, list]:
    """The server map of a ``servers`` section.  A switch's serials
    must run ``0..s-1``: the ``H(d) mod s`` rule addresses them."""
    by_switch: Dict[int, list] = {}
    for i, record in enumerate(_list(records, f"{at}servers")):
        server = _read_server(record, f"{at}servers[{i}]")
        by_switch.setdefault(server.switch, []).append(
            (server.serial, i, server))
    for switch, entries in by_switch.items():
        entries.sort(key=lambda entry: entry[:2])
        for k, (serial, i, _) in enumerate(entries):
            if serial != k:
                raise _bad(f"{at}servers[{i}].serial", f"{k}: switch "
                           f"{switch}'s serials run 0..s-1", serial)
        by_switch[switch] = [server for _, _, server in entries]
    return by_switch


def _fault_rows(members) -> list:
    """One FaultState field as the rows :data:`_FAULTS` declares."""
    if isinstance(members, dict):
        return [[*(key if isinstance(key, tuple) else (key,)), value]
                for key, value in sorted(members.items())]
    return [list(key) if isinstance(key, tuple) else key
            for key in sorted(members)]


def _read_faults(section: Any, path: str):
    """The FaultState of a ``faults`` section (``None`` when nothing in
    it is active)."""
    section = _obj(section, path)
    fields: Dict[str, Any] = {}
    for name, readers, width, link in _FAULTS:
        members: Dict[Any, Any] = {}
        rows = _list(section.get(name, []), f"{path}.{name}")
        for i, row in enumerate(rows):
            where = f"{path}.{name}[{i}]"
            columns = (_row(row, where, readers) if len(readers) > 1
                       else [_int(row, where)])
            key = (link_key(*columns[:2]) if link
                   else tuple(columns[:width]) if width > 1
                   else columns[0])
            members[key] = columns[width] if len(columns) > width else None
        fields[name] = members if len(readers) > width else set(members)
    state = FaultState(**fields)
    return state if state.any_active() else None


def _add_links(graph: Graph, rows: Any, path: str) -> None:
    for i, (u, v, weight) in enumerate(_rows(rows, path, _EDGE)):
        if u == v or weight <= 0:
            raise _bad(f"{path}[{i}]", "a link of positive weight between "
                       "two switches", [u, v, weight])
        graph.add_edge(u, v, weight=weight)


def _sections(document: Any, at: str, fmt: str, *names: str) -> list:
    """The ``names`` sections of the ``fmt`` document at ``at`` (``""``
    at the root, ``"shards[1]."`` in a federation), refusing another
    format or a missing section."""
    document = _obj(document, at[:-1])
    if document.get("format") != fmt:
        raise _bad(f"{at}format", repr(fmt),
                   document.get("format", _MISSING))
    for name in names:
        if name not in document:
            raise SnapshotError(f"{fmt} document{at and f' at {at[:-1]!r}'}"
                                f" has no {name!r} section")
    return [document[name] for name in names]


# ----------------------------------------------------------------------
# networks
# ----------------------------------------------------------------------
def _refuse_unrestorable(net: GredNetwork) -> None:
    """Refuse state a snapshot cannot capture: tripped breakers hold
    runtime state (failure counts, half-open probes on the traffic
    clock), and a custom ``position_fn`` or ``density_sampler`` is
    code."""
    pipeline = net._resilience
    if pipeline is not None and pipeline.breakers.any_tripped():
        raise SnapshotError(f"cannot snapshot tripped circuit breakers "
                            f"{pipeline.breakers.tripped()}: let them close")
    if net._position_fn is not data_position \
            or net.controller.config.density_sampler is not None:
        raise SnapshotError("cannot snapshot a custom position_fn or "
                            "density_sampler: a snapshot carries no code")


def to_snapshot(net: GredNetwork) -> Dict[str, Any]:
    """A JSON-serializable dict capturing the full network state.

    Degraded deployments snapshot faithfully: an attached
    :class:`~repro.faults.FaultState` (crashed switches/servers, downed
    or degraded links) is persisted in a ``"faults"`` section and
    re-attached on restore, so dead nodes stay dead across a round
    trip.  What cannot be captured is *refused* with
    :class:`SnapshotError` rather than written as a snapshot that would
    restore differently: a resilience pipeline with tripped circuit
    breakers, and a network built with a custom ``position_fn`` or
    ``density_sampler`` (a snapshot carries no code).
    """
    _refuse_unrestorable(net)
    controller = net.controller
    snapshot = {
        "format": SNAPSHOT_FORMAT,
        "nodes": controller.topology.nodes(),
        "edges": [[u, v, w] for u, v, w in controller.topology.edges()],
        "servers": [_server_record(server)
                    for switch in sorted(controller.server_map)
                    for server in controller.server_map[switch]],
        "positions": {str(node): list(pos)
                      for node, pos in controller.positions.items()},
        "config": _write_fields(controller.config, _CONFIG),
        "extensions": [
            {"switch": switch_id, **_write_fields(ext, _EXTENSION[1:], (
                "local_serial", "target_switch", "target_serial"))}
            for switch_id, switch in controller.switches.items()
            for ext in switch.table.extensions()],
        # Restoring the counters makes the restored controller's
        # epoch/version/generations (so its cache invalidation) and its
        # southbound state (unacked deltas, ack generations) continue
        # where the snapshot left off.
        "controlplane": _write_fields(controller, _COUNTERS,
                                      _COUNTER_FIELDS),
    }
    fault = net.fault_state
    if fault is not None and fault.any_active():
        # ``partitions`` is written only when set, as before it existed.
        snapshot["faults"] = {
            name: _fault_rows(getattr(fault, name))
            for name, *_ in _FAULTS if name != "partitions"
            or fault.partitions}
    if net.write_version or net.hinted_handoff:
        snapshot["durability"] = _write_fields(net, _DURABILITY)
    return snapshot


def from_snapshot(snapshot: Dict[str, Any]) -> GredNetwork:
    """Restore a network from a snapshot dict; :class:`SnapshotError`
    names the first field that is malformed."""
    return _read_network(snapshot, "")


def _read_network(document: Any, at: str) -> GredNetwork:
    """The network of the snapshot document at ``at``."""
    nodes, edges, servers, saved, positions = _sections(
        document, at, SNAPSHOT_FORMAT, "nodes", "edges", "servers",
        "config", "positions")
    topology = Graph()
    for i, node in enumerate(_list(nodes, f"{at}nodes")):
        topology.add_node(_int(node, f"{at}nodes[{i}]"))
    _add_links(topology, edges, f"{at}edges")
    net = GredNetwork.__new__(GredNetwork)
    net._init_request_state()
    # Snapshots carry no code (``to_snapshot`` refuses a custom one).
    net._position_fn = data_position
    # A degraded deployment restores degraded: crashed nodes must never
    # come back to life through a round trip.
    if "faults" in document:
        net.fault_state = _read_faults(document["faults"], f"{at}faults")
    server_map = _read_servers(servers, at)
    config = ControllerConfig(**_read_fields(saved, f"{at}config",
                                             _CONFIG))
    points = _obj(positions, f"{at}positions")
    positions = {_key(node, f"{at}positions"):
                 tuple(_row(point, f"{at}positions[{node}]", _POINT))
                 for node, point in points.items()}
    try:
        controller = Controller(topology, server_map, config,
                                positions=positions)
    except ControlPlaneError as exc:
        raise SnapshotError(f"snapshot does not restore: {exc}") from exc
    # The construction consumed epoch 1 / version 1, which a document
    # without the section keeps.  The changelog is not restorable: it
    # stays truncated, so ``changes_since`` answers ``None`` (rebuild
    # everything) for any pre-restore baseline.
    if "controlplane" in document:
        counters = _read_fields(document["controlplane"],
                                f"{at}controlplane", _COUNTERS)
        if counters["generations"].keys() != controller.switches.keys():
            raise _bad(f"{at}controlplane.generations", "keyed by the "
                       "switches", sorted(counters["generations"]))
        for field, value in zip(_COUNTER_FIELDS, counters.values()):
            setattr(controller, field, value)
        controller._changelog = []
    for i, ext in enumerate(_list(document.get("extensions", []),
                                  f"{at}extensions")):
        path = f"{at}extensions[{i}]"
        switch, serial, target_switch, target_serial = _read_fields(
            ext, path, _EXTENSION).values()
        if serial >= len(controller.server_map.get(switch, ())) \
                or target_serial >= len(
                    controller.server_map.get(target_switch, ())):
            raise _bad(path, "an extension between known servers", ext)
        controller.switches[switch].table.install_extension(
            ExtensionEntry(serial, target_switch, target_serial))
    if "durability" in document:
        vars(net).update(_read_fields(document["durability"],
                                      f"{at}durability", _DURABILITY))
    net.controller = controller
    return net


def _opened(file: Union[str, IO[str]], mode: str):
    """A path opened as UTF-8 text, or an open file left open."""
    return (open(file, mode, encoding="utf-8") if isinstance(file, str)
            else nullcontext(file))


def _write_json(document: Dict[str, Any],
                destination: Union[str, IO[str]]) -> None:
    with _opened(destination, "w") as handle:
        json.dump(document, handle)


def _read_json(source: Union[str, IO[str]]) -> Dict[str, Any]:
    """The JSON object at a path or in an open text file;
    :class:`SnapshotError` when it does not parse (truncated, not JSON,
    not UTF-8) or is not an object."""
    try:
        with _opened(source, "r") as handle:
            document = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"snapshot is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SnapshotError("snapshot is not a JSON object")
    return document


def save_network(net: GredNetwork,
                 destination: Union[str, IO[str]]) -> None:
    """Serialize ``net`` as JSON to a path or open text file."""
    _write_json(to_snapshot(net), destination)


def load_network(source: Union[str, IO[str]]) -> GredNetwork:
    """Restore a network from a JSON path or open text file."""
    return from_snapshot(_read_json(source))


# ----------------------------------------------------------------------
# federation snapshots
# ----------------------------------------------------------------------

#: Format marker of a federated deployment snapshot.
FEDERATION_FORMAT = "gred-federation-v1"


def to_federation_snapshot(fed) -> Dict[str, Any]:
    """A JSON-serializable dict capturing a full federation.

    The document is the region map (live assignment + the physical
    cross-region links) plus one ordinary :func:`to_snapshot` per
    shard — so every shard round-trips its *own* incremental state
    (epoch, version, per-switch generations, pending southbound
    deltas, ack generations) independently.  Restoring one shard's
    section therefore never touches any other region.
    """
    return {"format": FEDERATION_FORMAT, "seed": fed.seed,
            "assignment": {str(sid): rid for sid, rid
                           in sorted(fed.controller._assignment.items())},
            "cross_links": [list(link) for link
                            in fed.region_map.cross_links],
            "shards": {str(rid): to_snapshot(fed.shards[rid].net)
                       for rid in sorted(fed.shards)}}


def from_federation_snapshot(document: Dict[str, Any]):
    """Restore a :class:`~repro.controlplane.FederatedNetwork`.

    Each shard is restored as :func:`from_snapshot` restores a network
    (positions, rules, epochs, generations and pending queues come back
    verbatim), and must hold exactly the switches the assignment puts
    in its region; the overlay (region sites, gateway designation) is
    recomputed deterministically from the region map, so it is
    identical to the saved federation's.
    """
    seed, assignment, cross_links, shards = _sections(
        document, "", FEDERATION_FORMAT, "seed", "assignment",
        "cross_links", "shards")
    nets = {_key(rid, "shards"): _read_network(doc, f"shards[{rid}].")
            for rid, doc in _obj(shards, "shards").items()}
    regions = _int_map(assignment, "assignment")
    for sid, rid in regions.items():
        if rid not in nets:
            raise _bad(f"assignment[{sid}]", "a region with a shard", rid)
    union = Graph()
    for rid, net in nets.items():
        _check_cover(net, rid, [s for s, r in regions.items() if r == rid])
        for node in net.switch_ids():
            union.add_node(node)
        for u, v, w in net.topology.edges():
            union.add_edge(u, v, w)
    _add_links(union, cross_links, "cross_links")
    try:
        region_map = RegionMap(union, regions)
    except RegionError as exc:
        raise SnapshotError(f"snapshot does not restore: {exc}") from exc
    fed = FederatedNetwork.__new__(FederatedNetwork)
    fed.region_map = region_map
    fed.seed = _int(seed, "seed")
    fed.build_seconds = {}
    fed.shards = {rid: RegionShard(rid, nets[rid], region_map.members(rid),
                                   region_map.gateways(rid))
                  for rid in region_map.region_ids}
    fed.controller = FederatedController(region_map, fed.shards)
    fed._init_request_state()
    return fed


def restore_shard(fed, region: int, document: Dict[str, Any]) -> None:
    """Crash/restart one shard from its own snapshot section.

    Replaces region ``region``'s network with the restored one and
    leaves every other shard object untouched — their controllers,
    channels, caches and pending queues are not even looked at.  After
    the restart, ``fed.controller.reconcile(region=region)`` heals any
    divergence accumulated since the snapshot, again without a single
    message into another region.
    """
    if region not in fed.shards:
        raise SnapshotError(f"unknown region {region}")
    net = _read_network(document, f"shards[{region}].")
    old = fed.shards[region]
    _check_cover(net, region, old.net.switch_ids())
    fed.shards[region] = type(old)(region, net, old.members,
                                   old.gateways)


def _check_cover(net: GredNetwork, region: int, switches) -> None:
    """Refuse a shard that does not hold exactly its region's switches."""
    if set(net.switch_ids()) != set(switches):
        raise _bad(f"shards[{region}].nodes", f"region {region}'s "
                   f"switches {sorted(switches)}", sorted(net.switch_ids()))


def save_federation(fed, destination: Union[str, IO[str]]) -> None:
    """Serialize a federation as JSON to a path or open text file."""
    _write_json(to_federation_snapshot(fed), destination)


def load_federation(source: Union[str, IO[str]]):
    """Restore a federation from a JSON path or open text file."""
    return from_federation_snapshot(_read_json(source))
