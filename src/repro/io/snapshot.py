"""Snapshot serialization of a GRED deployment.

A snapshot captures everything needed to restore a network byte-for-
byte: the topology, the per-switch servers (capacity and stored items),
the control-plane configuration, the computed virtual positions, and
active range extensions.  Restoring rebuilds the DT and forwarding rules
over the *stored* positions, so routing decisions are identical across
save/load — the basis of the CLI's file-backed workflows.

Payloads must be JSON-serializable; binary payloads should be encoded
by the application (e.g. base64) before placement.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Union

from ..controlplane import ControlPlaneError, Controller, ControllerConfig
from ..core import GredNetwork
from ..dataplane import ExtensionEntry
from ..edge import EdgeServer
from ..graph import Graph

#: Format marker for forward compatibility.
SNAPSHOT_FORMAT = "gred-snapshot-v1"


class SnapshotError(Exception):
    """Raised on malformed snapshots or unserializable payloads."""


def to_snapshot(net: GredNetwork) -> Dict[str, Any]:
    """A JSON-serializable dict capturing the full network state.

    Degraded deployments snapshot faithfully: an attached
    :class:`~repro.faults.FaultState` (crashed switches/servers, downed
    or degraded links) is persisted in a ``"faults"`` section and
    re-attached on restore, so dead nodes stay dead across a round
    trip.  What cannot be captured is *refused*: a resilience pipeline
    with tripped circuit breakers holds runtime state (consecutive
    failure counts, half-open probe progress on the live traffic
    clock) that a snapshot cannot faithfully restore, so
    :class:`SnapshotError` is raised rather than silently writing a
    snapshot that would come back healthy.
    """
    pipeline = net._resilience
    if pipeline is not None and pipeline.breakers.any_tripped():
        tripped = ", ".join(f"{kind}:{ident}" for kind, ident
                            in pipeline.breakers.tripped())
        raise SnapshotError(
            f"cannot snapshot a network whose resilience pipeline has "
            f"tripped circuit breakers ({tripped}): breaker runtime "
            f"state is not restorable, and restoring without it would "
            f"silently resurrect nodes the pipeline knows are sick. "
            f"Let the breakers close (or reset the pipeline) before "
            f"snapshotting."
        )
    controller = net.controller
    edges = [[u, v, w] for u, v, w in controller.topology.edges()]
    servers = []
    for switch in sorted(controller.server_map):
        for server in controller.server_map[switch]:
            items = {}
            for item_id in server.stored_ids():
                payload = server.retrieve(item_id)
                _check_payload(item_id, payload)
                items[item_id] = payload
            record = {
                "switch": server.switch,
                "serial": server.serial,
                "capacity": server.capacity,
                "items": items,
            }
            # Durability state (write stamps, tombstones, parked
            # hinted-handoff writes) is emitted only when present, so
            # fault-free snapshots are byte-identical to before.
            stamps = {
                item_id: list(stamp)
                for item_id in server.stored_ids()
                for stamp in [server.stamp_of(item_id)]
                if stamp is not None
            }
            if stamps:
                record["stamps"] = stamps
            tombstones = server.tombstones()
            if tombstones:
                record["tombstones"] = {
                    item_id: list(stamp)
                    for item_id, stamp in tombstones.items()
                }
            hints = server.hints()
            if hints:
                for hint in hints:
                    _check_payload(hint.copy_id, hint.payload)
                record["hints"] = [
                    {
                        "copy_id": hint.copy_id,
                        "op": hint.op,
                        "target": list(hint.target),
                        "stamp": list(hint.stamp),
                        "payload": hint.payload,
                    }
                    for hint in hints
                ]
            servers.append(record)
    extensions = []
    for switch_id, switch in controller.switches.items():
        for ext in switch.table.extensions():
            extensions.append({
                "switch": switch_id,
                "serial": ext.local_serial,
                "target_switch": ext.target_switch,
                "target_serial": ext.target_serial,
            })
    config = controller.config
    snapshot = {
        "format": SNAPSHOT_FORMAT,
        "nodes": controller.topology.nodes(),
        "edges": edges,
        "servers": servers,
        "positions": {
            str(node): list(pos)
            for node, pos in controller.positions.items()
        },
        "config": {
            "cvt_iterations": config.cvt_iterations,
            "samples_per_iteration": config.samples_per_iteration,
            "relaxation": config.relaxation,
            "margin": config.margin,
            "seed": config.seed,
        },
        "extensions": extensions,
        # Incremental control-plane state: restoring these makes the
        # restored controller's epoch/version/generation counters (and
        # therefore cache-invalidation behavior) continue where the
        # snapshot left off instead of silently resetting.
        "controlplane": {
            "epoch": controller.epoch,
            "version": controller.version,
            "generations": {
                str(switch): generation
                for switch, generation
                in sorted(controller.generations.items())
            },
            # Southbound reliability state: the pending-delta queue
            # (switches that never acked a delta) and the per-switch
            # ack generations survive a controller crash/restart, so
            # the restored controller knows exactly who still needs a
            # reconcile instead of assuming the world converged.
            "pending": {
                str(switch): generation
                for switch, generation
                in sorted(controller.pending_deltas.items())
            },
            "ack_generations": {
                str(switch): generation
                for switch, generation
                in sorted(controller.ack_generations.items())
            },
        },
    }
    fault = net.fault_state
    if fault is not None and fault.any_active():
        faults: Dict[str, Any] = {
            "crashed_switches": sorted(fault.crashed_switches),
            "crashed_servers": [list(ref) for ref
                                in sorted(fault.crashed_servers)],
            "down_links": [list(link) for link
                           in sorted(fault.down_links)],
            "loss": [[u, v, p] for (u, v), p
                     in sorted(fault.loss.items())],
            "slow": [[u, v, f] for (u, v), f
                     in sorted(fault.slow.items())],
        }
        if fault.partitions:
            faults["partitions"] = [
                [switch, group] for switch, group
                in sorted(fault.partitions.items())
            ]
        snapshot["faults"] = faults
    # Network-level durability state (only when it has ever advanced).
    if net.write_version or net.hinted_handoff:
        snapshot["durability"] = {
            "write_version": net.write_version,
            "hinted_handoff": net.hinted_handoff,
        }
    return snapshot


def _check_payload(item_id: str, payload: Any) -> None:
    try:
        json.dumps(payload)
    except (TypeError, ValueError) as exc:
        raise SnapshotError(
            f"payload of {item_id!r} is not JSON-serializable: {exc}"
        ) from exc


def _restore_fault_state(record: Any):
    """Rebuild a ``FaultState`` from a snapshot's ``"faults"`` section
    (``None`` when the snapshot was healthy)."""
    if record is None:
        return None
    from ..faults import FaultState
    from ..faults.state import link_key

    try:
        state = FaultState(
            crashed_switches={int(s) for s
                              in record.get("crashed_switches", [])},
            crashed_servers={(int(sw), int(serial)) for sw, serial
                             in record.get("crashed_servers", [])},
            down_links={link_key(int(u), int(v)) for u, v
                        in record.get("down_links", [])},
            loss={link_key(int(u), int(v)): float(p) for u, v, p
                  in record.get("loss", [])},
            slow={link_key(int(u), int(v)): float(f) for u, v, f
                  in record.get("slow", [])},
            partitions={int(switch): int(group) for switch, group
                        in record.get("partitions", [])},
        )
    except (TypeError, ValueError) as exc:
        raise SnapshotError(
            f"malformed 'faults' section: {exc}") from exc
    return state if state.any_active() else None


def _require_sections(document: Dict[str, Any], *names: str) -> None:
    """Refuse a document that lacks a section the restore reads, naming
    each missing one, before anything is built."""
    missing = [name for name in names if name not in document]
    if missing:
        raise SnapshotError(
            f"{document['format']} document has no "
            f"{', '.join(map(repr, missing))} section"
            f"{'s' if len(missing) > 1 else ''}")


def from_snapshot(snapshot: Dict[str, Any]) -> GredNetwork:
    """Restore a network from a snapshot dict."""
    if snapshot.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"unsupported snapshot format {snapshot.get('format')!r}"
        )
    _require_sections(snapshot, "nodes", "edges", "servers", "config",
                      "positions")
    topology = Graph()
    for node in snapshot["nodes"]:
        topology.add_node(int(node))
    for u, v, w in snapshot["edges"]:
        topology.add_edge(int(u), int(v), weight=float(w))
    server_map: Dict[int, list] = {}
    for record in snapshot["servers"]:
        server = EdgeServer(
            switch=int(record["switch"]),
            serial=int(record["serial"]),
            capacity=record["capacity"],
        )
        stamps = record.get("stamps", {})
        for item_id, payload in record["items"].items():
            stamp = stamps.get(item_id)
            server.store(item_id, payload,
                         stamp=tuple(stamp) if stamp else None)
        for item_id, stamp in record.get("tombstones", {}).items():
            server.entomb(item_id, tuple(stamp))
        for hint in record.get("hints", []):
            from ..edge import Hint

            server.park_hint(Hint(
                copy_id=hint["copy_id"],
                op=hint["op"],
                target=tuple(hint["target"]),
                stamp=tuple(hint["stamp"]),
                payload=hint.get("payload"),
            ))
        server_map.setdefault(server.switch, []).append(server)
    for servers in server_map.values():
        servers.sort(key=lambda s: s.serial)
    saved = snapshot["config"]
    net = GredNetwork.__new__(GredNetwork)
    net._init_request_state()
    # Re-attach the persisted fault state (if any) so a degraded
    # deployment restores degraded — crashed nodes must never come
    # back to life through a snapshot round trip.
    net.fault_state = _restore_fault_state(snapshot.get("faults"))
    config = ControllerConfig(
        cvt_iterations=int(saved["cvt_iterations"]),
        samples_per_iteration=int(saved["samples_per_iteration"]),
        relaxation=float(saved["relaxation"]),
        margin=float(saved["margin"]),
        seed=int(saved["seed"]),
    )
    positions = {
        int(node): (float(pos[0]), float(pos[1]))
        for node, pos in snapshot["positions"].items()
    }
    try:
        controller = Controller(topology, server_map, config,
                                positions=positions)
    except ControlPlaneError as exc:
        raise SnapshotError(f"snapshot does not restore: {exc}") from exc
    # Resume the persisted counters (the construction above consumed
    # epoch 1 / version 1; older snapshots without the section keep
    # those defaults).  The changelog is NOT restorable — leave it
    # truncated so ``changes_since`` answers ``None`` (full rebuild)
    # for any pre-restore baseline rather than guessing.
    controlplane = snapshot.get("controlplane")
    if controlplane is not None:
        controller._global_epoch = int(controlplane["epoch"])
        controller._version = int(controlplane["version"])
        controller._generations = {
            int(switch): int(generation)
            for switch, generation
            in controlplane.get("generations", {}).items()
        }
        controller._changelog = []
        controller._pending_deltas = {
            int(switch): int(generation)
            for switch, generation
            in controlplane.get("pending", {}).items()
        }
        controller._ack_generations = {
            int(switch): int(generation)
            for switch, generation
            in controlplane.get("ack_generations", {}).items()
        }
    for ext in snapshot.get("extensions", []):
        switch, serial = int(ext["switch"]), int(ext["serial"])
        entry = ExtensionEntry(local_serial=serial,
                               target_switch=int(ext["target_switch"]),
                               target_serial=int(ext["target_serial"]))
        for owner, index in ((switch, serial), (entry.target_switch,
                                                 entry.target_serial)):
            if not 0 <= index < len(controller.server_map.get(owner, ())):
                raise SnapshotError(
                    f"extension record {ext} names unknown server "
                    f"({owner}, {index})")
        controller.switches[switch].table.install_extension(entry)
    net.controller = controller
    # Snapshots carry no code, so only the paper's default SHA-256
    # position mapping is restorable; networks built with a custom
    # ``position_fn`` must be reconstructed by the application.
    from ..hashing import data_position

    net._position_fn = data_position
    durability = snapshot.get("durability")
    if durability is not None:
        net.write_version = int(durability.get("write_version", 0))
        net.hinted_handoff = bool(durability.get("hinted_handoff",
                                                 False))
    return net


def _write_json(document: Dict[str, Any],
                destination: Union[str, IO[str]]) -> None:
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
    else:
        json.dump(document, destination)


def _read_json(source: Union[str, IO[str]]) -> Dict[str, Any]:
    """The JSON object at a path or in an open text file;
    :class:`SnapshotError` when it does not parse (truncated, not JSON,
    not UTF-8) or is not an object."""
    try:
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        else:
            document = json.load(source)
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
    return {
        "format": FEDERATION_FORMAT,
        "seed": fed.seed,
        "assignment": {
            str(sid): rid
            for sid, rid in sorted(fed.controller._assignment.items())
        },
        "cross_links": [[u, v, w]
                        for u, v, w in fed.region_map.cross_links],
        "shards": {
            str(rid): to_snapshot(fed.shards[rid].net)
            for rid in sorted(fed.shards)
        },
    }


def from_federation_snapshot(document: Dict[str, Any]):
    """Restore a :class:`~repro.controlplane.FederatedNetwork`.

    Each shard is restored through :func:`from_snapshot` (positions,
    rules, epochs, generations and pending queues come back verbatim);
    the overlay (region sites, gateway designation) is recomputed
    deterministically from the region map, so it is identical to the
    saved federation's.
    """
    from ..controlplane import FederatedController, RegionMap
    from ..controlplane.federation import FederatedNetwork, RegionShard

    if document.get("format") != FEDERATION_FORMAT:
        raise SnapshotError(
            f"unsupported federation snapshot format "
            f"{document.get('format')!r}"
        )
    _require_sections(document, "assignment", "shards")
    assignment = {int(sid): int(rid)
                  for sid, rid in document["assignment"].items()}
    nets = {int(rid): from_snapshot(doc)
            for rid, doc in document["shards"].items()}
    union = Graph()
    for net in nets.values():
        for node in net.topology.nodes():
            union.add_node(node)
        for u, v, w in net.topology.edges():
            union.add_edge(u, v, w)
    for u, v, w in document.get("cross_links", []):
        union.add_edge(int(u), int(v), float(w))
    region_map = RegionMap(union, assignment)
    fed = FederatedNetwork.__new__(FederatedNetwork)
    fed.region_map = region_map
    fed.seed = int(document.get("seed", 0))
    fed.build_seconds = {}
    fed.shards = {
        rid: RegionShard(rid, nets[rid], region_map.members(rid),
                         region_map.gateways(rid))
        for rid in region_map.region_ids
    }
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
    net = from_snapshot(document)
    old = fed.shards[region]
    if set(net.switch_ids()) != set(old.net.switch_ids()):
        raise SnapshotError(
            f"shard snapshot for region {region} covers switches "
            f"{sorted(set(net.switch_ids()) ^ set(old.net.switch_ids()))[:4]} "
            f"differing from the live region"
        )
    fed.shards[region] = type(old)(region, net, old.members,
                                   old.gateways)


def save_federation(fed, destination: Union[str, IO[str]]) -> None:
    """Serialize a federation as JSON to a path or open text file."""
    _write_json(to_federation_snapshot(fed), destination)


def load_federation(source: Union[str, IO[str]]):
    """Restore a federation from a JSON path or open text file."""
    return from_federation_snapshot(_read_json(source))
