"""Federated control plane: region shards under a gateway overlay.

The monolithic :class:`~repro.controlplane.Controller` owns one global
embedding, one DT and one routing index, so every cost scales with the
total switch count.  The federation splits the network into *regions*:

* each region gets its own **shard** — a full
  :class:`~repro.core.GredNetwork` over the region's induced
  sub-topology, with its own MDS embedding, DT, routing index,
  plan/diff/apply pipeline and southbound transport (the incremental
  and reliable-delivery machinery, reused unchanged per shard);
* the regions themselves are embedded once at the top level: the
  region adjacency graph (one node per region, one edge per designated
  gateway link) is MDS-embedded into the unit square and indexed, so a
  data position resolves **region-first** (nearest region site), then
  locally inside that shard;
* cross-region requests ride the designated gateway links: the entry
  shard carries the request to its egress gateway, each overlay hop
  crosses one gateway link, and the home shard routes the tail.

Churn stays regional by construction: a join/leave mutates exactly one
shard controller, so zero southbound messages reach any other region.
A federation with a single region takes the same code path as any
other — one home region, no gateway crossings — and is byte-identical
to the monolith: its one shard is built from the same topology, server
map and seed as a monolithic ``GredNetwork``.
"""

from __future__ import annotations

import time
from itertools import compress
from math import hypot
from typing import (Any, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple)

import numpy as np

# The module, not its names: ``repro.core`` imports this package, so
# they resolve at call time (no import machinery on the request path).
from ..core import network as _network
from ..core.results import PlacementResult, prepend_traces
from ..embedding import m_position
from ..graph import Graph
from ..graph.shortest_paths import all_pairs_hop_matrix, bfs_path
from ..hashing import digest_keys, position_from_bits, replica_id
from ..obs import HOP_BUCKETS, default_registry
from .region import RegionError, RegionMap
from .routing_index import RoutingIndex
from .southbound import Probe, RecordingChannel

__all__ = [
    "RegionShard",
    "FederatedController",
    "FederatedNetwork",
]


class RegionShard:
    """One region of the federation: its id, members, gateways, and
    the shard :class:`~repro.core.GredNetwork` that serves it."""

    def __init__(self, region: int, net, members: Sequence[int],
                 gateways: Sequence[int]) -> None:
        self.region = region
        self.net = net
        self.members: FrozenSet[int] = frozenset(members)
        self.gateways: List[int] = sorted(gateways)

    @property
    def controller(self):
        return self.net.controller

    def serving(self) -> bool:
        """Whether any switch in this shard is alive (no fault state
        attached means fully alive)."""
        fault = self.net.fault_state
        if fault is None:
            return True
        return any(fault.switch_alive(s) for s in self.net.switch_ids())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RegionShard(region={self.region}, "
                f"switches={len(self.members)})")


def _region_sites(region_graph: Graph) -> Dict[int, Tuple[float, float]]:
    """Coarse top-level embedding: region sites in the unit square.

    The region adjacency graph is MDS-embedded exactly like a shard's
    switches — overlay hop counts play the role of physical hop counts
    — so the nearest-site rule partitions the hash space into one
    Voronoi cell per region.
    """
    rids = sorted(region_graph.nodes())
    if len(rids) == 1:
        return {rids[0]: (0.5, 0.5)}
    matrix, order = all_pairs_hop_matrix(region_graph, order=rids)
    points = m_position(matrix)
    return {rid: points[i] for i, rid in enumerate(order)}


def _groups(keys: np.ndarray) -> List[Tuple[int, np.ndarray]]:
    """The rows of ``keys`` grouped by key, in key order, each group's
    rows in row order (one stable ``argsort``): ``(key, rows)``
    pairs."""
    if not keys.size:
        return []
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    cuts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    return list(zip(ranked[np.r_[0, cuts]].tolist(), np.split(order, cuts)))


class FederatedController:
    """The federation's control plane: per-region shard controllers
    plus the top-level gateway overlay.

    All plan/diff/apply, generation, changelog and reliable-delivery
    state lives in the shard controllers; this class adds region
    resolution (:meth:`home_region`), overlay routing between regions,
    and federation-wide views of the per-shard incremental state.
    """

    def __init__(self, region_map: RegionMap,
                 shards: Dict[int, RegionShard]) -> None:
        self.region_map = region_map
        self.shards = shards
        #: Live switch -> region view (updated on churn; the static
        #: ``region_map`` keeps the construction-time assignment and
        #: the gateway/overlay structure, which churn never changes).
        self._assignment: Dict[int, int] = region_map.assignment
        self._sites = _region_sites(region_map.region_graph)
        self._region_index = RoutingIndex(sorted(self._sites),
                                          self._sites)
        #: ``(x, y, region)`` per site, in region order (see
        #: :meth:`home_region`).
        self._site_rows = [(float(x), float(y), rid)
                           for rid, (x, y) in sorted(self._sites.items())]
        #: The region ids in order, and the unobstructed overlay hops
        #: between them (row: from, column: to) in that order: the
        #: batch calls work on region *ranks* into ``_rids``.
        self._rids = sorted(self._sites)
        self._hop_matrix = np.array(
            [[region_map.overlay_hops(a, b) for b in self._rids]
             for a in self._rids], dtype=np.int64)

    # ------------------------------------------------------------------
    # region resolution
    # ------------------------------------------------------------------
    @property
    def num_regions(self) -> int:
        return len(self.shards)

    @property
    def sites(self) -> Dict[int, Tuple[float, float]]:
        """Top-level embedding of the regions (copy)."""
        return dict(self._sites)

    def region_of(self, switch: int) -> int:
        try:
            return self._assignment[switch]
        except KeyError:
            raise RegionError(f"unknown switch {switch}") from None

    def home_region(self, position: Tuple[float, float]) -> int:
        """The region whose top-level site is nearest to ``position``
        — where a data item with that hash position lives.

        A scan of the few region sites under
        :meth:`RoutingIndex.closest`'s ``(math.hypot distance, x, y)``
        key — the same answer bit for bit, a coincident site going to
        the lower region id as there — without its grid rings, which
        pay off only over many points."""
        px, py = position
        return min([(hypot(x - px, y - py), x, y, rid)
                    for x, y, rid in self._site_rows])[3]

    def home_regions(self, positions: np.ndarray) -> List[int]:
        """Batch :meth:`home_region` over ``(n, 2)`` positions
        (:meth:`RoutingIndex.closest_many` on the region sites)."""
        return self._region_index.closest_many(positions).tolist()

    def controller(self, region: int):
        return self.shards[region].controller

    # ------------------------------------------------------------------
    # overlay routing
    # ------------------------------------------------------------------
    def overlay_path(self, src_region: int,
                     dst_region: int) -> Optional[List[int]]:
        """Region-level path, avoiding non-serving transit regions."""
        avoid = frozenset(rid for rid, shard in self.shards.items()
                          if not shard.serving())
        return self.region_map.overlay_path(src_region, dst_region,
                                            avoid=avoid)

    def overlay_hops(self, src_region: int, dst_region: int) -> int:
        return self.region_map.overlay_hops(src_region, dst_region)

    # ------------------------------------------------------------------
    # federation-wide control-plane views
    # ------------------------------------------------------------------
    @property
    def epochs(self) -> Dict[int, int]:
        return {rid: s.controller.epoch for rid, s in self.shards.items()}

    @property
    def versions(self) -> Dict[int, int]:
        return {rid: s.controller.version
                for rid, s in self.shards.items()}

    def generations(self) -> Dict[int, Dict[int, int]]:
        return {rid: s.controller.generations
                for rid, s in self.shards.items()}

    def recompute(self, region: Optional[int] = None) -> None:
        """Full recompute of one shard (or all of them).  Other shards
        are untouched — their epochs, caches and installed state
        survive."""
        targets = [region] if region is not None else list(self.shards)
        for rid in targets:
            self.shards[rid].controller.recompute()

    def reconcile(self, region: Optional[int] = None,
                  max_sweeps: int = 8) -> Dict[int, Any]:
        """Digest anti-entropy per shard; ``region`` restricts the
        sweep to one shard so a restarted region heals without a
        single message entering any other region."""
        targets = [region] if region is not None else list(self.shards)
        return {
            rid: self.shards[rid].controller.reconcile(
                max_sweeps=max_sweeps)
            for rid in targets
        }

    def attach_channels(self) -> Dict[int, RecordingChannel]:
        """One observing channel per shard controller; the per-region
        channels are how churn locality is *measured* (foreign-region
        message counts must stay zero)."""
        channels: Dict[int, RecordingChannel] = {}
        for rid, shard in self.shards.items():
            channel = RecordingChannel()
            shard.controller.southbound_channel = channel
            channels[rid] = channel
        return channels

    def foreign_messages(self, channels: Dict[int, RecordingChannel],
                         home_region: int) -> int:
        """Rule messages recorded outside ``home_region`` (excluding
        liveness probes)."""
        return sum(
            channel.count(exclude=(Probe,))
            for rid, channel in channels.items() if rid != home_region
        )

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify(self) -> List[Any]:
        """All shard invariants (1-8 per shard) plus invariant 9: no
        installed rule references a switch outside its shard, except
        that gateway switches may appear in the federation's overlay
        table."""
        from .verification import verify_installed_state, \
            verify_region_scope

        violations: List[Any] = []
        for rid, shard in self.shards.items():
            violations.extend(verify_installed_state(
                shard.controller, fault_state=shard.net.fault_state))
            members = set(shard.net.switch_ids())
            violations.extend(verify_region_scope(
                shard.controller, members, region=rid))
        # The overlay table itself: every designated gateway endpoint
        # must be a member of the region it is claimed for.
        rm = self.region_map
        for a in rm.region_ids:
            for b in rm.region_graph.neighbors(a):
                u, _ = rm.gateway(a, b)
                if self._assignment.get(u) != a:
                    from .verification import Violation

                    violations.append(Violation(
                        kind="gateway-scope", switch=u,
                        detail=f"gateway {u} for region pair "
                               f"({a}, {b}) is not a member of "
                               f"region {a}",
                    ))
        return violations


class FederatedNetwork:
    """Data-path facade over a federation of region shards.

    Parameters
    ----------
    topology:
        Global switch graph including cross-region links.
    assignment:
        ``switch id -> region id``; when omitted,
        :func:`repro.topology.partition_regions` auto-partitions the
        topology into ``num_regions`` balanced connected regions.
    num_regions:
        Used only when ``assignment`` is omitted (default 1).
    server_map / servers_per_switch / cvt_iterations /
    samples_per_iteration / seed:
        As in :class:`~repro.core.GredNetwork`; each shard ``r`` seeds
        its embedding with ``seed + r`` so region 0 of a single-region
        federation is byte-identical to the monolithic network.
    """

    def __init__(
        self,
        topology: Graph,
        assignment: Optional[Dict[int, int]] = None,
        num_regions: int = 1,
        server_map=None,
        servers_per_switch: int = 10,
        cvt_iterations: int = 50,
        samples_per_iteration: int = 1000,
        seed: int = 0,
    ) -> None:
        if assignment is None:
            from ..topology.regions import partition_regions

            assignment = partition_regions(topology, num_regions)
        self.region_map = RegionMap(topology, assignment)
        self.seed = seed
        shards: Dict[int, RegionShard] = {}
        self.build_seconds: Dict[int, float] = {}
        for rid in self.region_map.region_ids:
            members = self.region_map.members(rid)
            shard_servers = None
            if server_map is not None:
                shard_servers = {sid: server_map[sid] for sid in members}
            start = time.perf_counter()
            net = _network.GredNetwork(
                self.region_map.subtopology(rid),
                server_map=shard_servers,
                servers_per_switch=servers_per_switch,
                cvt_iterations=cvt_iterations,
                samples_per_iteration=samples_per_iteration,
                seed=seed + rid,
            )
            self.build_seconds[rid] = time.perf_counter() - start
            shards[rid] = RegionShard(rid, net, members,
                                      self.region_map.gateways(rid))
        self.shards = shards
        self.controller = FederatedController(self.region_map, shards)
        self._init_request_state()

    def _init_request_state(self) -> None:
        """The request-path caches (also what a restore starts from)."""
        self._legs: Dict[int, Tuple[int, Dict]] = {}  # see _leg
        #: ``(entry, home) -> _stitch(entry, home)`` across calls, and
        #: the shard controllers and versions it holds for (see
        #: :meth:`_stitches`).
        self._stitch_memo: Dict[Tuple[int, int], Any] = {}
        self._stitch_stamp: List[Any] = []

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def num_regions(self) -> int:
        return len(self.shards)

    def shard(self, region: int) -> RegionShard:
        return self.shards[region]

    @property
    def topology(self) -> Graph:
        """Union view: every shard's live topology plus the
        cross-region gateway links."""
        union = Graph()
        for shard in self.shards.values():
            sub = shard.net.topology
            for node in sub.nodes():
                union.add_node(node)
            for u, v, w in sub.edges():
                union.add_edge(u, v, w)
        for u, v, w in self.region_map.cross_links:
            if union.has_node(u) and union.has_node(v):
                union.add_edge(u, v, w)
        return union

    def switch_ids(self) -> List[int]:
        ids: List[int] = []
        for rid in sorted(self.shards):
            ids.extend(self.shards[rid].net.switch_ids())
        return ids

    def load_vector(self) -> List[int]:
        loads: List[int] = []
        for rid in sorted(self.shards):
            loads.extend(self.shards[rid].net.load_vector())
        return loads

    def region_of(self, switch: int) -> int:
        return self.controller.region_of(switch)

    def home_region_of(self, data_id: str, copy_index: int = 0) -> int:
        """The region where copy ``copy_index`` of ``data_id`` lives."""
        return self._home(replica_id(data_id, copy_index))[0]

    def _home(self, copy_id: str):
        """``(home region, digest keys)`` of one replica id: the one
        SHA-256 of a scalar request, which the home shard routes on."""
        keys = digest_keys(copy_id)
        return self.controller.home_region(position_from_bits(keys[1])), keys

    # ------------------------------------------------------------------
    # entry resolution (the owning shard's rule)
    # ------------------------------------------------------------------
    def _alive(self, region: int, switch: int) -> bool:
        fault = self.shards[region].net.fault_state
        return fault is None or fault.switch_alive(switch)

    def _entry_pool(self) -> List[int]:
        return [s for rid in sorted(self.shards)
                for s in self.shards[rid].net._entry_pool()]

    def _resolve_entry(self, entry_switch: Optional[int],
                       rng: Optional[np.random.Generator]) -> int:
        if entry_switch is None:
            return _network.draw_entries(self._entry_pool(), 1, rng)[0]
        entry_switch = _network.entry_index(entry_switch)
        rid = self.controller._assignment.get(entry_switch)
        if rid is None:
            raise _network.GredError(
                f"unknown entry switch {entry_switch}")
        return self.shards[rid].net._resolve_entry(entry_switch, rng)

    # ------------------------------------------------------------------
    # gateway stitching
    # ------------------------------------------------------------------
    def _stitches(self) -> Dict[Tuple[int, int], Any]:
        """The stitch memo a call looks its ``(entry, home)`` pairs up
        in (through :meth:`_stitch_via`).

        With no fault state attached anywhere, a stitch is a function
        of the static region map and the shards' topologies, so the
        memo is kept across calls while every shard's controller
        (object and ``version``) stands: any event that can change a
        topology bumps a version and drops it.  Under a fault state,
        gateway liveness and serving regions enter the answer: each
        call gets a fresh dict, so a stitch is computed as it always
        was, once per pair and call."""
        stamp: List[Any] = []
        for shard in self.shards.values():
            net = shard.net
            if net.fault_state is not None:
                return {}
            stamp += (net.controller, net.controller.version)
        if stamp != self._stitch_stamp:
            self._stitch_stamp = stamp
            self._stitch_memo = {}
        return self._stitch_memo

    def _stitch_via(self, memo: Dict[Tuple[int, int], Any], entry: int,
                    home: int
                    ) -> Optional[Tuple[List[int], int, int, List[int]]]:
        """:meth:`_stitch` through ``memo`` (from :meth:`_stitches`)."""
        try:
            return memo[entry, home]
        except KeyError:
            stitched = memo[entry, home] = self._stitch(entry, home)
            return stitched

    def _stitch(self, entry: int, home_region: int
                ) -> Optional[Tuple[List[int], int, int, List[int]]]:
        """Carry a request from ``entry`` to the ingress gateway of
        ``home_region``: ``(trace, ingress switch, region crossings,
        head)``, or ``None`` when the overlay cannot reach the home
        region.  ``head`` is ``trace`` short of the ingress, what the
        carry prepends to the home shard's trace (which starts there),
        built once per stitch rather than once per request."""
        src = self.region_of(entry)
        path = self.controller.overlay_path(src, home_region)
        if path is None:
            return None
        trace = [entry]
        cur = entry
        for a, b in zip(path, path[1:]):
            egress, ingress = self.region_map.gateway(a, b)
            if not (self._alive(a, egress) and self._alive(b, ingress)):
                # A crashed gateway takes its overlay link down (and
                # a shard refuses requests entering at a dead switch).
                return None
            if cur != egress:
                trace.extend(self._leg(a, cur, egress)[1:])
            trace.append(ingress)
            cur = ingress
        return trace, cur, len(path) - 1, trace[:-1]

    def _leg(self, region: int, source: int, egress: int) -> List[int]:
        """Shortest path from ``source`` to a gateway inside one shard,
        cached per ``(region, source, egress)`` for as long as that
        shard's ``controller.version`` stands (any topology change
        bumps it and drops the shard's legs)."""
        net = self.shards[region].net
        version = net.controller.version
        slot = self._legs.get(region)
        if slot is None or slot[0] != version:
            slot = self._legs[region] = (version, {})
        leg = slot[1].get((source, egress))
        if leg is None:
            leg = slot[1][(source, egress)] = bfs_path(
                net.topology, source, egress)
        return leg

    # ------------------------------------------------------------------
    # per-shard requests (shared by the scalar and the batch calls)
    # ------------------------------------------------------------------
    def _unreachable(self, home: int, copy_id: str):
        return _network.GredError(
            f"region {home} is unreachable over the gateway "
            f"overlay; cannot place {copy_id}"
        )

    @staticmethod
    def _count_requests(region: int, hows: Iterable[Any]) -> None:
        """Federation telemetry for the requests one home shard was
        just handed, one entry of ``hows`` each: ``None`` for a request
        from its own switches, else the request's stitch."""
        if default_registry().enabled:
            hows = list(hows)
            FederatedNetwork._count_rows(
                region, len(hows), [s[2] for s in hows if s is not None])

    @staticmethod
    def _count_rows(region: int, rows: int, crossings: List[int]) -> None:
        """:meth:`_count_requests` by columns: ``rows`` requests handed
        to one home shard, and the gateway crossings of each of them
        that came from another region."""
        registry = default_registry()
        if not registry.enabled:
            return
        intra = rows - len(crossings)
        if intra:
            registry.counter(
                "federation.requests",
                help="Requests handed to a home shard",
                region=region, scope="intra").inc(intra)
        if crossings:
            registry.counter(
                "federation.requests",
                help="Requests handed to a home shard",
                region=region, scope="cross").inc(len(crossings))
            registry.histogram(
                "federation.overlay_hops",
                help="Gateway crossings per cross-region request",
                buckets=HOP_BUCKETS).observe_many(crossings)

    @staticmethod
    def _carry_record(record, entry: int, stitched, queue=None):
        """Prepend the gateway prefix to a home shard's placement
        record (in place: the shard built it for this request).  A
        batch passes its ``queue``: the trace's ``(record, head)`` goes
        there, for one :func:`prepend_traces` over the batch."""
        _, _, crossings, head = stitched
        record.entry_switch = entry
        record.physical_hops += len(head)
        record.overlay_hops += crossings
        if queue is None:
            record.trace = head + record.trace
        else:
            queue.append((record, head))
        return record

    @staticmethod
    def _carry_probe(result, data_id: str, copy_index: int,
                     attempts: int, entry: int, stitched, queue=None):
        """Turn a home shard's answer for one replica id (copy 0 of
        itself, first attempt) back into the outcome of probing copy
        ``copy_index`` of ``data_id``, gateway prefix included (its
        trace queued as in :meth:`_carry_record`).  ``None`` when the
        shard could not route the probe."""
        if result.destination_switch is None:
            return None
        result.data_id = data_id
        result.copy_used = copy_index
        result.attempts = attempts
        if stitched is not None:
            head = stitched[3]
            result.entry_switch = entry
            result.request_hops += len(head)
            if result.found:
                result.response_hops += len(head)
            if queue is None:
                result.trace = head + result.trace
            else:
                queue.append((result, head))
        return result

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def place(self, data_id: str, payload: Any = None,
              entry_switch: Optional[int] = None, copies: int = 1,
              rng: Optional[np.random.Generator] = None):
        _network.check_copies(copies)
        entry = self._resolve_entry(entry_switch, rng)
        memo = self._stitches()
        records = [
            self._place_copy(replica_id(data_id, i), payload, entry, memo)
            for i in range(copies)
        ]
        return PlacementResult(data_id=data_id, records=records)

    def _place_copy(self, copy_id: str, payload: Any, entry: int,
                    memo: Dict[Tuple[int, int], Any]):
        """One replica, placed by its home shard as the single-copy
        item it is there (a replica id is copy 0 of itself): what the
        shard's ``place(copy_id, ...)`` does, routed on this call's
        digest."""
        home, keys = self._home(copy_id)
        stitched = None
        if home != self.region_of(entry):
            stitched = self._stitch_via(memo, entry, home)
            if stitched is None:
                raise self._unreachable(home, copy_id)
        self._count_requests(home, (stitched,))
        net = self.shards[home].net
        local = net._resolve_entry(
            entry if stitched is None else stitched[1], None)
        record = net._place_one(copy_id, payload, local,
                                net._op_stamp(local), keys)
        if stitched is None:
            return record
        return self._carry_record(record, entry, stitched)

    def place_many(self, data_ids: Sequence[str],
                   payloads: Optional[Sequence[Any]] = None,
                   entry_switches: Optional[Sequence[int]] = None,
                   copies: int = 1,
                   rng: Optional[np.random.Generator] = None,
                   digests: Optional[np.ndarray] = None):
        """Batch placement, planned in columns (one row per replica).

        Every replica is resolved to its home region in one vectorized
        pass, cross-region replicas are stitched to the home's ingress
        gateway (once per distinct ``(entry, home)`` pair), and each
        home shard then places all of its replicas, cross-region and
        intra-region alike, in request order in a single vectorized
        ``place_many``.  With ``copies=1`` the shard's own results are
        the answers (a replica id is copy 0 of itself).  Results and
        stored state equal a loop of :meth:`place` over the items.

        Fails closed: an unreachable home region raises, naming the
        first such replica in request order, before any shard stores
        anything.
        """
        data_ids, entries, flat_ids, digests, positions = \
            _network.batch_front_door(self, data_ids, entry_switches,
                                      copies, rng, digests, payloads)
        rids = self.controller._rids
        homes = self._home_ranks(positions)
        item_entries, regions = self._entry_regions(entries)
        local = np.repeat(item_entries, copies)
        cross = np.flatnonzero(homes != np.repeat(regions, copies))
        stitches, pair, ingress, crossings = self._stitch_rows(
            self._stitches(), local, homes, cross)
        if None in stitches:
            f = int(cross[pair[cross] < 0][0])
            raise self._unreachable(rids[homes[f]], flat_ids[f])
        local[cross] = ingress[pair[cross]]
        answers: List[Any] = [None] * len(flat_ids)
        for rank, rows in _groups(homes):
            rid = rids[rank]
            flats = rows.tolist()
            items = (rows // copies).tolist()
            pairs = pair[rows]
            self._count_rows(rid, len(flats),
                             crossings[pairs[pairs >= 0]].tolist())
            results = self.shards[rid].net.place_many(
                [flat_ids[f] for f in flats],
                payloads=(None if payloads is None
                          else [payloads[i] for i in items]),
                entry_switches=local[rows].tolist(),
                copies=1,
                digests=digests[rows],
            )
            carried = np.flatnonzero(pairs >= 0)
            queue: List[Any] = []
            for k, p in zip(carried.tolist(), pairs[carried].tolist()):
                self._carry_record(results[k].primary,
                                   entries[items[k]], stitches[p], queue)
            prepend_traces(queue)
            for f, result in zip(flats, results):
                answers[f] = result
        if copies == 1:
            return answers
        return [
            PlacementResult(
                data_id=data_id,
                records=[result.primary for result in
                         answers[i * copies:(i + 1) * copies]],
            )
            for i, data_id in enumerate(data_ids)
        ]

    def _home_ranks(self, positions: np.ndarray) -> np.ndarray:
        """:meth:`FederatedController.home_regions` as an int64 array
        of ranks into the controller's ``_rids``."""
        controller = self.controller
        return np.searchsorted(
            controller._rids,
            controller._region_index.closest_many(positions))

    def _entry_regions(self, entries: List[int]
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """``(entry switches, entry region ranks)`` of a batch's items
        as int64 columns: one region lookup per distinct entry."""
        column = np.asarray(entries, dtype=np.int64)
        distinct, rank = np.unique(column, return_inverse=True)
        assignment = self.controller._assignment
        regions = np.searchsorted(self.controller._rids, np.array(
            [assignment[e] for e in distinct.tolist()], dtype=np.int64))
        return column, regions[rank.reshape(-1)]

    def _stitch_rows(self, memo: Dict[Tuple[int, int], Any],
                     entries: np.ndarray, homes: np.ndarray,
                     rows: np.ndarray):
        """Stitch the cross-region ``rows`` of a batch (entry switch and
        home rank columns): one :meth:`_stitch_via` per distinct
        ``(entry, home)`` pair.  Returns the stitches and, as int64
        columns, each row's index into them (-1 off ``rows`` and where
        the stitch is ``None``) and each stitch's ingress switch and
        gateway crossings."""
        rids = self.controller._rids
        span = len(rids)
        keys, which = np.unique(entries[rows] * span + homes[rows],
                                return_inverse=True)
        stitches = [self._stitch_via(memo, key // span, rids[key % span])
                    for key in keys.tolist()]
        columns = np.array([(-1, 0, 0) if stitched is None
                            else (k, stitched[1], stitched[2])
                            for k, stitched in enumerate(stitches)],
                           dtype=np.int64).reshape(-1, 3)
        pair = np.full(len(entries), -1, dtype=np.int64)
        pair[rows] = columns[which.reshape(-1), 0]
        return stitches, pair, columns[:, 1], columns[:, 2]

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def retrieve(self, data_id: str,
                 entry_switch: Optional[int] = None, copies: int = 1,
                 rng: Optional[np.random.Generator] = None,
                 max_hops: Optional[int] = None,
                 read_repair: bool = False):
        _network.check_copies(copies)
        entry = self._resolve_entry(entry_switch, rng)
        # One digest per replica: it homes the replica, and the shard
        # that serves it routes on it (``_retrieve_at``'s ``keys``).
        resolved = [self._home(replica_id(data_id, i))
                    for i in range(copies)]
        homes = [home for home, _ in resolved]
        entry_region = self.region_of(entry)
        if all(h == entry_region for h in homes):
            self._count_requests(entry_region, (None,))
            net = self.shards[entry_region].net
            return net._retrieve_at(
                data_id, net._resolve_entry(entry, None), copies,
                max_hops, read_repair, [keys for _, keys in resolved])
        if read_repair and copies > 1:
            raise _network.GredError(
                f"cannot read-repair {data_id!r} from region "
                f"{entry_region}: its replicas live in regions "
                f"{sorted(set(homes))}, and replica stamps come from "
                f"per-shard write clocks, comparable only inside the "
                f"entry's own shard"
            )
        # Region-nearest-first failover walk across shards; a home
        # that is not serving, is unreachable or cannot route the
        # probe is skipped (the attempt still counts).
        order = self._probe_order(entry_region, homes)
        memo = self._stitches()
        attempts = 0
        last_miss = None
        for i in order:
            attempts += 1
            home, keys = resolved[i]
            stitched = None
            if home != entry_region:
                if not self.shards[home].serving():
                    continue
                stitched = self._stitch_via(memo, entry, home)
                if stitched is None:
                    continue
            self._count_requests(home, (stitched,))
            net = self.shards[home].net
            local = net._resolve_entry(
                entry if stitched is None else stitched[1], None)
            result = self._carry_probe(
                net._retrieve_at(replica_id(data_id, i), local, 1,
                                 max_hops, False, [keys]),
                data_id, i, attempts, entry, stitched)
            if result is None:
                continue
            if result.found:
                return result
            last_miss = result
        if last_miss is not None:
            return last_miss
        return _network.GredNetwork._unroutable(data_id, entry, order[-1],
                                                attempts)

    def _probe_order(self, entry_region: int,
                     homes: Sequence[int]) -> List[int]:
        """Copy indices region-nearest-first (ties by index)."""
        if len(homes) == 1:
            return [0]
        hops = self.controller.overlay_hops
        return sorted(range(len(homes)),
                      key=lambda i: (hops(entry_region, homes[i]), i))

    def retrieve_many(self, data_ids: Sequence[str],
                      entry_switches: Optional[Sequence[int]] = None,
                      copies: int = 1,
                      rng: Optional[np.random.Generator] = None,
                      max_hops: Optional[int] = None,
                      digests: Optional[np.ndarray] = None):
        """Batch retrieval in probe waves, each planned in columns (one
        row per still-unresolved item).

        An item whose every replica lives in its entry's own region is
        answered whole by that shard, and the shard's answer is the
        item's.  Any other item is probed one replica per wave,
        region-nearest-first (ties by copy index: one ``argsort`` over
        the overlay hops): wave *k* hands each still-unresolved item's
        *k*-th replica to its home shard (at the ingress gateway when
        it lives in another region), skipping homes that are not
        serving or unreachable.  Each shard answers its share of a
        wave, rows in request order, in a single vectorized
        ``retrieve_many``; ``copies=1`` is a single wave.  Results
        equal a loop of :meth:`retrieve` over the items.
        """
        data_ids, entries, flat_ids, digests, positions = \
            _network.batch_front_door(self, data_ids, entry_switches,
                                      copies, rng, digests)
        count = len(data_ids)
        rids = self.controller._rids
        homes = self._home_ranks(positions).reshape(count, copies)
        item_entries, regions = self._entry_regions(entries)
        whole = (homes == regions[:, None]).all(axis=1)
        # Per item, the copy indices to probe in order.
        orders = np.argsort(
            self.controller._hop_matrix[regions[:, None], homes],
            axis=1, kind="stable")
        serving = np.array([self.shards[rid].serving() for rid in rids])
        memo = self._stitches()
        results: List[Any] = [None] * count
        settled = np.zeros(count, dtype=bool)
        pending = np.arange(count)
        for wave in range(copies):
            # One row per pending item: the whole item, or its probe.
            copy = np.where(whole[pending], 0, orders[pending, wave])
            home = homes[pending, copy]
            intra = home == regions[pending]
            stitches, pair, ingress, crossings = self._stitch_rows(
                memo, item_entries[pending], home,
                np.flatnonzero(~intra & serving[home]))
            rows = np.flatnonzero(intra | (pair >= 0))
            items, copy, home, pair = (
                pending[rows], copy[rows], home[rows], pair[rows])
            local = item_entries[items]
            hop = np.flatnonzero(pair >= 0)
            local[hop] = ingress[pair[hop]]
            handed = whole[items]
            width = np.where(handed, copies, 1)
            found: List[int] = []
            for key, g in _groups(home * (copies + 1) + width):
                rank, span = divmod(key, copies + 1)
                rid = rids[rank]
                flats = items[g] * copies + copy[g]
                pairs = pair[g]
                self._count_rows(rid, len(g),
                                 crossings[pairs[pairs >= 0]].tolist())
                answers = self.shards[rid].net.retrieve_many(
                    [flat_ids[f] for f in flats.tolist()],
                    entry_switches=local[g].tolist(),
                    copies=span,
                    max_hops=max_hops,
                    digests=digests[
                        (flats[:, None] + np.arange(span)).ravel()],
                )
                group, whole_rows = items[g], handed[g]
                for i, answer in zip(group[whole_rows].tolist(),
                                     compress(answers, whole_rows)):
                    results[i] = answer
                probed = np.flatnonzero(~whole_rows)
                queue: List[Any] = []
                for k, i, c, p in zip(probed.tolist(),
                                      group[probed].tolist(),
                                      copy[g][probed].tolist(),
                                      pairs[probed].tolist()):
                    answer = self._carry_probe(
                        answers[k], data_ids[i], c, wave + 1, entries[i],
                        None if p < 0 else stitches[p], queue)
                    if answer is not None:
                        results[i] = answer  # found, or the latest miss
                        if answer.found:
                            found.append(i)
                prepend_traces(queue)
            settled[items[handed]] = True
            settled[found] = True
            pending = pending[~settled[pending]]
            if not pending.size:
                break
        for i in pending.tolist():
            if results[i] is None:
                results[i] = _network.GredNetwork._unroutable(
                    data_ids[i], entries[i], int(orders[i, -1]), copies)
        return results

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def delete(self, data_id: str, copies: int = 1,
               entry_switch: Optional[int] = None) -> int:
        _network.check_copies(copies)
        entry = self._resolve_entry(entry_switch, None)
        memo = self._stitches()
        removed = 0
        for i in range(copies):
            copy_id = replica_id(data_id, i)
            home = self.home_region_of(copy_id)
            if home == self.region_of(entry):
                local_entry = entry
            else:
                stitched = self._stitch_via(memo, entry, home)
                if stitched is None:
                    continue
                local_entry = stitched[1]
            removed += self.shards[home].net.delete(
                copy_id, copies=1, entry_switch=local_entry)
        return removed

    # ------------------------------------------------------------------
    # churn (always single-region by construction)
    # ------------------------------------------------------------------
    def add_switch(self, switch_id: int, links: Sequence[int],
                   servers_per_switch: int = 0,
                   servers=None, region: Optional[int] = None) -> int:
        """A switch joins one region.  Every link peer must live in
        that region (a joiner cannot span regions — new gateway links
        are a topology build-time decision), so the join mutates
        exactly one shard controller and ships zero southbound
        messages anywhere else."""
        link_regions = {self.region_of(p) for p in links}
        if region is None:
            if len(link_regions) != 1:
                raise _network.GredError(
                    f"join of {switch_id} spans regions "
                    f"{sorted(link_regions)}; a joining switch must "
                    f"link into exactly one region"
                )
            region = link_regions.pop()
        elif link_regions - {region}:
            raise _network.GredError(
                f"join of {switch_id} into region {region} has link "
                f"peers in {sorted(link_regions - {region})}"
            )
        migrated = self.shards[region].net.add_switch(
            switch_id, links, servers_per_switch=servers_per_switch,
            servers=servers)
        self.controller._assignment[switch_id] = region
        return migrated

    def remove_switch(self, switch_id: int) -> int:
        """A switch leaves its region gracefully (items re-placed
        within the shard).  Gateway switches pin the overlay and
        cannot leave."""
        region = self.region_of(switch_id)
        if switch_id in self.shards[region].gateways:
            raise _network.GredError(
                f"switch {switch_id} is a designated gateway of region "
                f"{region} and cannot leave"
            )
        moved = self.shards[region].net.remove_switch(switch_id)
        del self.controller._assignment[switch_id]
        return moved
