"""``GredNetwork``: the public facade of the GRED system.

Wires the control plane, the data plane and the edge plane together and
exposes the two services the paper defines — *data placement* (deliver a
data item to an edge server for storage) and *data retrieval* (find the
storage server of an item and bring the data back to the user) — plus
range extension, replication and network dynamics.

Typical use::

    from repro import GredNetwork, attach_uniform, brite_waxman_graph
    import numpy as np

    rng = np.random.default_rng(7)
    topology, _ = brite_waxman_graph(50, min_degree=3, rng=rng)
    servers = attach_uniform(topology.nodes(), servers_per_switch=10)
    net = GredNetwork(topology, servers, cvt_iterations=50)

    placement = net.place("videos/cam3/frame-001", payload=b"...")
    result = net.retrieve("videos/cam3/frame-001", entry_switch=4)
"""

from __future__ import annotations

import operator
import sys
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .. import utils
from ..controlplane import Controller, ControllerConfig
from ..dataplane import (
    CompiledRouter,
    DeliverAction,
    ForwardingError,
    Packet,
    PacketKind,
    RouteMemo,
    RouteResult,
    TraceEventKind,
    Tracer,
    batch_fastpath_blockers,
    route_packet,
    scalar_standdown,
)
from ..edge import (
    NO_STAMP,
    EdgeServer,
    Hint,
    ServerMap,
    StorageFull,
    all_servers,
    attach_uniform,
    load_vector,
)
from ..geometry import TIE_BAND, euclidean
from ..graph import Graph, HopRows, NoPath, hop_count
from ..hashing import (
    data_position,
    digest_keys,
    position_from_bits,
    position_keys_from_digests,
    positions_from_digests,
    replica_id,
    replica_ids_flat,
    serials_from_digests,
    server_index,
    sha256_digests,
)
from ..obs import (
    BYTE_BUCKETS,
    DEMAND_GRID,
    HOP_BUCKETS,
    default_registry,
    demand_region,
)
from ..obs.bridge import spans_from_tracer
from ..obs.spans import NULL_SPAN
from ..obs.spans import default_recorder as default_span_recorder
from .results import (
    PlacementRecord,
    PlacementResult,
    RetrievalResult,
    _PlacementView,
    _RecordView,
    _RetrievalView,
)

#: Bound on the per-epoch route memo (routes, not bytes).
_ROUTE_CACHE_CAP = 65536
#: Probes the batch route stage looks up, walks and memoizes at a time
#: (its transient arrays are bounded by this, not by the call).
_ROUTE_SLICE = 16384
#: The scalar steps' packet kinds (an enum member read costs a lookup).
_PLACEMENT, _RETRIEVAL = PacketKind.PLACEMENT, PacketKind.RETRIEVAL


class _FastPathState:
    """Epoch-scoped request fast path: the compiled router plus the
    route and hop-distance caches that share its lifetime.

    ``epoch`` tracks the controller's global epoch (a mismatch means
    every position moved — rebuild everything); ``version`` tracks its
    change counter so scoped events (joins, leaves, link changes) can
    patch the router and evict only the affected cache entries."""

    __slots__ = ("epoch", "version", "router", "routes", "hops", "stale")

    def __init__(self, epoch: int, version: int,
                 router: CompiledRouter) -> None:
        self.epoch = epoch
        self.version = version
        self.router = router
        #: The epoch's delivered routes, keyed on the route function's
        #: own arguments ``(entry, position bits)`` and kept in arrays
        #: (:class:`~repro.dataplane.memo.RouteMemo`); each carries
        #: its decision mix, so telemetry replayed from a hit matches
        #: what the engine would have counted.  Extensions are
        #: intentionally NOT memoized — they are resolved live so
        #: extend/retract need no epoch bump.
        self.routes = RouteMemo(_ROUTE_CACHE_CAP)
        #: Hop distances between switches (rows filled on demand),
        #: built on first use after every topology change.
        self.hops: Optional[HopRows] = None
        #: Switches touched since ``routes`` was last swept: the router
        #: is patched on every sync, the route memo only when a batch
        #: is about to use it.  Non-empty = ``routes`` may hold stale
        #: entries and must not be read.
        self.stale: set = set()


class GredError(Exception):
    """Raised for invalid requests against a :class:`GredNetwork`."""


def check_copies(copies: int) -> None:
    if copies < 1:
        raise GredError(f"copies must be >= 1, got {copies}")


def entry_index(entry):
    """One entry switch as an exact ``int`` (``None`` stays: drawn
    later), so results serialise and compare like a scalar call's."""
    if entry is None:
        return None
    try:
        return int(operator.index(entry))
    except TypeError:
        raise GredError(f"entry switch must be an integer, got "
                        f"{entry!r}") from None


def check_batch_args(data_ids: Sequence[str], copies: int,
                     entry_switches: Optional[Sequence[int]] = None,
                     payloads: Optional[Sequence[Any]] = None
                     ) -> tuple:
    """Argument validation of a batch call, shared by every stack
    (raw, federated, resilient) and run before anything is hashed,
    stored or admitted: returns ``(list(data_ids), entry_switches)`` —
    the entries a list of exact ``int`` / ``None``, whatever integer
    types (an ndarray, numpy scalars) they arrived as — or raises."""
    if isinstance(data_ids, (str, bytes)):
        raise GredError(
            f"data_ids must be a sequence of identifiers, got the "
            f"bare {type(data_ids).__name__} {data_ids!r}")
    data_ids = list(data_ids)
    check_copies(copies)
    count = len(data_ids)
    if entry_switches is not None:
        if len(entry_switches) != count:
            raise GredError(
                f"entry_switches has {len(entry_switches)} entries for "
                f"{count} data ids"
            )
        if isinstance(entry_switches, np.ndarray):
            entry_switches = entry_switches.tolist()
        if not set(map(type, entry_switches)) <= {int, type(None)}:
            entry_switches = [entry_index(e) for e in entry_switches]
    if payloads is not None and len(payloads) != count:
        raise GredError(
            f"payloads has {len(payloads)} entries for "
            f"{count} data ids"
        )
    return data_ids, entry_switches


def draw_entries(pool: Sequence[int], count: int,
                 rng: Optional[np.random.Generator]) -> List[int]:
    """``count`` uniform draws from the live entry ``pool``, consuming
    ``rng`` exactly like ``count`` sequential scalar requests."""
    if count and not pool:
        raise GredError("no live switch can serve as entry point")
    if count > 1 and (rng is None
                      or isinstance(rng, np.random.Generator)):
        # One vectorized draw consumes the PCG64 stream exactly like
        # ``count`` sequential ``integers`` calls.  (An int seed means
        # a fresh generator per request, so it takes the loop.)
        draws = utils.rng(rng).integers(0, len(pool), size=count)
        return [pool[v] for v in draws.tolist()]
    return [pool[int(utils.rng(rng).integers(0, len(pool)))]
            for _ in range(count)]


def batch_front_door(net, data_ids: Sequence[str],
                     entry_switches: Optional[Sequence[int]],
                     copies: int,
                     rng: Optional[np.random.Generator],
                     digests: Optional[np.ndarray],
                     payloads: Optional[Sequence[Any]] = None):
    """The one front door of a batch request on ``net`` (a
    :class:`GredNetwork` or a federation of them): validate the
    arguments, resolve every item's entry switch, flatten the replica
    ids and hash them.  Runs before the stand-down decision, so a bad
    argument raises the same error on every path with nothing stored.

    Returns ``(data_ids, entries, flat_ids, digests, positions)``:
    ``digests`` is the ``(len(flat_ids), 32) uint8`` SHA-256 array
    (the caller's :meth:`GredNetwork.prehash` output when supplied,
    shape-checked) and ``positions`` its virtual-space coordinates.
    """
    data_ids, entry_switches = check_batch_args(
        data_ids, copies, entry_switches, payloads)
    flat_ids = replica_ids_flat(data_ids, copies)
    if digests is None:
        digests = sha256_digests(flat_ids)
    else:
        digests = np.asarray(digests)
        if digests.shape != (len(flat_ids), 32) or \
                digests.dtype != np.uint8:
            raise GredError(
                f"digests must be a ({len(flat_ids)}, 32) uint8 array, "
                f"got {digests.dtype} {digests.shape}"
            )
    if entry_switches is None:
        entries = draw_entries(net._entry_pool(), len(data_ids), rng)
    else:
        entries = list(entry_switches)
        distinct = set(entries)
        if None in distinct:
            # A ``None`` draws from ``rng`` where it stands in the
            # request order, like the scalar loop.
            entries = [net._resolve_entry(e, rng) for e in entries]
        else:
            try:
                for entry in distinct:
                    net._resolve_entry(entry, rng)
            except GredError:
                # Name the first bad entry of the request order.
                for entry in entries:
                    net._resolve_entry(entry, rng)
                raise
    return (data_ids, entries, flat_ids, digests,
            positions_from_digests(digests))


#: The two stand-down series and their help texts.
_STANDDOWNS = {
    "fastpath_standdowns": "Batch requests degraded to the scalar path",
    "scalar_standdowns": "Scalar requests routed by the reference engine",
}


def _standdown(series: str, *reasons: str) -> None:
    """One request leaves the compiled plane: count it where operators
    look to answer "why did this run at scalar speed" — a batch that
    runs the scalar loop under each firing gate's reason (the
    deployment) or a declined placement's (that batch), a scalar
    request on the reference engine under the first firing gate's.
    Returns ``None``, which is what a compiled body that declines
    hands back."""
    registry = default_registry()
    if registry.enabled:
        for reason in reasons:
            registry.counter(
                "dataplane." + series, help=_STANDDOWNS[series],
                reason=reason.replace(" ", "_"),
            ).inc()


def _by_target(targets, which) -> list:
    """Rows grouped by target *server*, each group in row order:
    ``[(server, rows)]`` with ``targets[which[k]]`` row ``k``'s target.
    Grouped by server, not by index: an extension can redirect one
    delivery into the home of another, and only the stable grouping on
    the server keeps its insertion order the row order."""
    slots: Dict[tuple, int] = {}
    slot = np.asarray([slots.setdefault(t.server_id, u)
                       for u, t in enumerate(targets)], dtype=np.intp)[which]
    order = np.argsort(slot, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(slot[order])) + 1).tolist(),
            order.size]
    order = order.tolist()
    return [(targets[slot[order[a]]], order[a:b])
            for a, b in zip(cuts, cuts[1:]) if b > a]


def _payload_size(payload: Any) -> Optional[int]:
    """Byte/element size of a payload for the size histogram, or
    ``None`` for unsized payloads."""
    if payload is None:
        return None
    try:
        return len(payload)
    except TypeError:
        return None


class _Routes:
    """What the batch route stage hands the batch bodies: one row per
    probe in columns, and one flat run of switch ids every trace is a
    slice of — no per-probe object.  ``dest[j] < 0`` marks a probe
    that did not deliver (why is the scalar route stage's to say)."""

    __slots__ = ("dest", "serial", "overlay", "greedy", "vl", "relays",
                 "tlen", "start", "known", "_traces")

    def __init__(self, count: int) -> None:
        self.dest = np.full(count, -1, dtype=np.int64)
        (self.serial, self.overlay, self.greedy, self.vl, self.relays,
         self.tlen, self.start) = np.zeros((7, count), dtype=np.int64)
        #: False where the engine rejected the probe before fetching
        #: its counters (unknown entry): no decision mix at all.
        self.known = np.ones(count, dtype=bool)
        self._traces = [np.empty(0, dtype=np.int64)]

    def put(self, at: np.ndarray, dest, serial, overlay, greedy, vl,
            relays, tlen, traces) -> None:
        """Fill rows ``at`` from one source — the columns of
        :meth:`RouteMemo.take` (hits) or :meth:`_PackedRoutes.columns`
        (walked misses)."""
        self.dest[at] = dest
        self.serial[at] = serial
        self.overlay[at] = overlay
        self.greedy[at] = greedy
        self.vl[at] = vl
        self.relays[at] = relays
        self.tlen[at] = tlen
        self.start[at] = (sum(part.size for part in self._traces)
                          + np.cumsum(tlen) - tlen)
        self._traces.append(traces)

    def lists(self, at=slice(None)):
        """``(dest, overlay, start, end, traces)`` of rows ``at`` (all
        when omitted) as Python lists for the one per-probe loop of a
        batch body: probe ``j``'s trace is ``traces[start[j]:end[j]]``,
        and ``traces`` is the column its result keeps a view of."""
        start = self.start[at]
        return (self.dest[at].tolist(), self.overlay[at].tolist(),
                start.tolist(), (start + self.tlen[at]).tolist(),
                np.concatenate(self._traces).tolist())


class _Batch:
    """One ``place_many`` / ``retrieve_many`` call, from the prologue
    both kinds share to the one telemetry flush.

    The constructor is the prologue: front door, stand-down decision,
    flat entries, digest keys and a coherent fast-path ``state`` — left
    ``None`` when a gate stood the batch down (the caller then runs
    the scalar loop).  As a context manager around the compiled body
    it flushes the tally exactly once when the body exits — byte-equal
    to what the scalar loop reports, each series only if the loop
    would have created it.  A placement batch that declines has
    tallied nothing by then, so its flush is empty and the scalar loop
    that follows reports alone.
    """

    def __init__(self, net: "GredNetwork", kind: PacketKind,
                 data_ids, entry_switches, copies, rng, digests,
                 payloads=None) -> None:
        (self.data_ids, self.entries, self.flat_ids, digests,
         self.positions) = batch_front_door(
            net, data_ids, entry_switches, copies, rng, digests,
            payloads)
        self.net = net
        self.kind = kind.value
        self.copies = copies
        self.state: Optional[_FastPathState] = None
        blockers = batch_fastpath_blockers(net)
        if blockers:
            _standdown("fastpath_standdowns", *blockers)
            return
        self.flat_entries = np.repeat(
            np.asarray(self.entries, dtype=np.int64), copies)
        self.serial_u64s = serials_from_digests(digests)
        self.position_keys = position_keys_from_digests(digests)
        self.state = net._fast_state()
        self.registry = default_registry()
        #: ``[greedy, vl_starts, vl_relays]`` over every probe the
        #: engine walked (a probe that then failed to route
        #: included); ``None`` until one enters it.
        self.mix: Optional[List[int]] = None
        #: ``(item, route hops, overlay hops)`` per delivered probe.
        self.deliveries: List[Any] = []
        self.rewrites = 0
        self.route_failures = 0
        #: Visited switches / flat indices of the probes that reached
        #: storage (the transit and demand signals).
        self.transits: List[int] = []
        self.flats: List[int] = []
        self.place_hops: List[int] = []
        self.sizes: List[int] = []
        self.extended = 0
        self.stored_to: set = set()
        #: A retrieval batch's final results, in item order — the
        #: order the scalar loop observes in.
        self.answers: Sequence[RetrievalResult] = ()

    def route(self, flats, max_hops: Optional[int] = None) -> _Routes:
        """The batch route stage for the flat request indices
        ``flats``, columnar end to end: one vectorized probe of the
        epoch's route memo, one wave-routed batch for the misses, and
        the delivered misses appended to the memo straight from the
        walk's arrays.

        Returns the :class:`_Routes` aligned with ``flats``.  A custom
        hop budget changes failure behavior, so it bypasses the memo
        rather than keying on it.  A memo hit replays the decision mix
        recorded when the route was first walked, so the flush can
        emit the engine's forwarding counters without re-walking.
        """
        flats = np.asarray(flats, dtype=np.intp)
        router, memo = self.state.router, self.state.routes
        routes = _Routes(flats.size)
        for base in range(0, flats.size, _ROUTE_SLICE):
            at = flats[base:base + _ROUTE_SLICE]
            entries = self.flat_entries[at]
            serial_u64s = self.serial_u64s[at]
            if max_hops is None:
                keys = self.position_keys[at]
                rows = memo.lookup(entries, keys)
                missed = np.flatnonzero(rows < 0)
                hit = np.flatnonzero(rows >= 0)
                if hit.size:
                    routes.put(base + hit, *memo.take(
                        rows[hit], serial_u64s[hit]))
            else:
                missed = np.arange(at.size)
            if not missed.size:
                continue
            bound = (router._default_max_hops if max_hops is None
                     else max_hops)
            missed_at = at[missed]
            packed = router.route_batch_packed(
                entries[missed], self.positions[missed_at, 0],
                self.positions[missed_at, 1], serial_u64s[missed],
                bound)
            if self.registry.enabled:
                # Batch-only extras (the scalar loop has no waves):
                # proof the vectorized router ran, and its amortization
                # denominator.  Prefixed ``dataplane.batch.`` so parity
                # checks can separate them from the shared aggregates.
                self.registry.counter("dataplane.batch.requests").inc(
                    int(missed.size))
                self.registry.counter("dataplane.batch.waves").inc(
                    packed.waves)
            routes.put(base + missed, *packed.columns())
            routes.known[base + missed] = packed.known
            if max_hops is None:
                memo.insert(entries[missed], keys[missed], packed)
        return routes

    def count_mix(self, routes: _Routes) -> None:
        """Tally the decision mix of ``routes``.  The engine counts
        decisions as it makes them, so a probe that then fails to
        route has still reported its mix."""
        known = routes.known
        if known.any():
            self.mix = [
                total + int(column[known].sum())
                for total, column in zip(
                    self.mix or (0, 0, 0),
                    (routes.greedy, routes.vl, routes.relays))]

    def placed(self, flat: int, record: PlacementRecord,
               trace: List[int], payload: Any) -> None:
        self.transits.extend(trace)
        self.flats.append(flat)
        self.place_hops.append(record.physical_hops)
        if record.extended:
            self.extended += 1
        size = _payload_size(payload)
        if size is not None:
            self.sizes.append(size)
        self.stored_to.add(record.server_id)

    def __enter__(self) -> "_Batch":
        return self

    def __exit__(self, *exc_info) -> None:
        registry = self.registry
        if not registry.enabled:
            return
        # The scalar loop probes item-major (all of one item's replicas
        # before the next), a retrieval batch round-major: the stable
        # sort replays the scalar observation order, so the histogram
        # reservoirs match byte for byte.
        self.deliveries.sort(key=lambda delivery: delivery[0])
        GredNetwork._emit_route_telemetry(
            registry, self.kind, self.mix,
            [d[1] for d in self.deliveries],
            [d[2] for d in self.deliveries], self.rewrites)
        found = [r for r in self.answers if r.found]
        for name, hops_name, hops in (
                ("core.places", "core.place_hops", self.place_hops),
                ("core.retrieves", "core.retrieve_hops",
                 [r.request_hops + r.response_hops for r in found])):
            if hops:
                registry.counter(name).inc(len(hops))
                registry.histogram(
                    hops_name, buckets=HOP_BUCKETS,
                ).observe_many(np.asarray(hops, dtype=np.float64))
        for name, tally in (
                ("core.places_extended", self.extended),
                ("faults.failovers",
                 sum(r.attempts > 1 for r in found)),
                ("core.retrieve_misses", len(self.answers) - len(found)),
                ("faults.route_failures", self.route_failures)):
            if tally:
                registry.counter(name).inc(tally)
        if self.sizes:
            registry.histogram(
                "core.payload_bytes", buckets=BYTE_BUCKETS,
            ).observe_many(np.asarray(self.sizes, dtype=np.float64))
        server_map = self.net.server_map
        for switch, serial in sorted(self.stored_to):
            registry.gauge(
                "edge.server_load", switch=switch, serial=serial,
            ).set(server_map[switch][serial].load)
        if self.transits:
            counts = np.bincount(np.asarray(self.transits,
                                            dtype=np.int64))
            for sid in np.flatnonzero(counts).tolist():
                registry.counter("dataplane.switch_transits",
                                 switch=sid).inc(int(counts[sid]))
        if self.flats:
            # The demand-adaptive embedding signal: per-item and
            # per-region access counts (``demand_region`` vectorized).
            registry.demand.record_many(
                self.flat_ids[f] for f in self.flats)
            g = DEMAND_GRID
            at = self.positions[np.asarray(self.flats, dtype=np.intp)]
            cells = np.clip((at * g).astype(np.int64), 0, g - 1)
            counts = np.bincount(cells[:, 1] * g + cells[:, 0],
                                 minlength=g * g)
            for region in np.flatnonzero(counts).tolist():
                registry.counter("demand.region_accesses",
                                 region=region).inc(int(counts[region]))


class GredNetwork:
    """A complete software-defined edge network running GRED.

    Parameters
    ----------
    topology:
        Physical switch graph (connected).
    server_map:
        Servers per switch; when omitted, ``servers_per_switch``
        identical unbounded servers are attached to every switch.
    servers_per_switch:
        Used only when ``server_map`` is omitted.
    cvt_iterations:
        The paper's ``T``.  ``0`` gives the GRED-NoCVT variant.
    samples_per_iteration, seed:
        Forwarded to the control plane.
    position_fn:
        Mapping from a data identifier to its virtual-space position.
        Defaults to the paper's SHA-256 scheme
        (:func:`repro.hashing.data_position`, uniform over the unit
        square).  Deployments with locality-preserving naming pass
        their own deterministic mapping here — and a matching
        ``density_sampler`` so C-regulation equalizes load under that
        density (paper Equation 2).
    density_sampler:
        Optional ``(k, rng) -> (k, 2)`` sampler of the data-position
        density, forwarded to C-regulation.
    """

    def __init__(
        self,
        topology: Graph,
        server_map: Optional[ServerMap] = None,
        servers_per_switch: int = 10,
        cvt_iterations: int = 50,
        samples_per_iteration: int = 1000,
        seed: int = 0,
        position_fn=None,
        density_sampler=None,
    ) -> None:
        if server_map is None:
            server_map = attach_uniform(
                topology.nodes(), servers_per_switch=servers_per_switch
            )
        config = ControllerConfig(
            cvt_iterations=cvt_iterations,
            samples_per_iteration=samples_per_iteration,
            seed=seed,
            density_sampler=density_sampler,
        )
        self._position_fn = position_fn or data_position
        self.controller = Controller(topology, server_map, config=config)
        self._init_request_state()

    def _init_request_state(self) -> None:
        """The request-side state of a fresh network; ``io/snapshot``
        calls it after ``__new__`` and then overwrites what it
        restores."""
        #: Ground-truth failure state, or ``None`` when no
        #: :class:`~repro.faults.FaultInjector` is attached.  When
        #: set, routing degrades around crashed switches/links and
        #: retrieval skips crashed servers.
        self.fault_state = None
        #: Whether writes/deletes aimed at an unreachable home server
        #: are parked as hints on the nearest live server (drained by
        #: :meth:`drain_hints` / :meth:`scrub`) instead of raising.
        #: Off by default: without it a placement toward a crashed,
        #: unrepaired server fails loudly, which is the right default
        #: for chaos experiments that count errors.
        self.hinted_handoff = False
        #: The network-global write clock: how many stamped write /
        #: delete operations have been issued (see :meth:`_op_stamp`).
        self.write_version = 0
        self._fastpath: Optional[_FastPathState] = None
        self._resilience = None

    def _op_stamp(self, origin: int):
        """The ``(version, origin)`` stamp of one logical write or
        delete, shared by all its copies and retries so a scrub can
        compare copies of the same operation — allocated iff a fault
        state is attached: stamps exist for repair, and the fault-free
        paths (the grouped batch store included) stay byte-identical
        without them."""
        if self.fault_state is None:
            return None
        self.write_version += 1
        return (self.write_version, origin)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def topology(self) -> Graph:
        return self.controller.topology

    @property
    def server_map(self) -> ServerMap:
        return self.controller.server_map

    def switch_ids(self) -> List[int]:
        return self.topology.nodes()

    def servers(self) -> List[EdgeServer]:
        return all_servers(self.server_map)

    def server(self, switch: int, serial: int) -> EdgeServer:
        servers = self.server_map.get(switch)
        if servers is None or serial >= len(servers) or serial < 0:
            raise GredError(f"unknown server ({switch}, {serial})")
        return servers[serial]

    def load_vector(self) -> List[int]:
        """Per-server stored-item counts (deterministic order)."""
        return load_vector(self.server_map)

    def record_load_gauges(self) -> None:
        """Refresh the telemetry gauges from the current edge-plane
        state: one ``edge.server_load`` gauge per server plus the
        ``edge.servers`` / ``edge.stored_items`` aggregates.  No-op
        when the default registry is disabled."""
        registry = default_registry()
        if not registry.enabled:
            return
        total = 0
        count = 0
        for switch in sorted(self.server_map):
            for server in self.server_map[switch]:
                registry.gauge("edge.server_load", switch=switch,
                               serial=server.serial).set(server.load)
                total += server.load
                count += 1
        registry.gauge("edge.servers").set(count)
        registry.gauge("edge.stored_items").set(total)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def place(
        self,
        data_id: str,
        payload: Any = None,
        entry_switch: Optional[int] = None,
        copies: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> PlacementResult:
        """Place ``data_id`` (and ``copies - 1`` extra replicas).

        Each copy ``i`` is routed independently toward ``H(d || i)``
        (paper Section VI) from ``entry_switch`` (random when omitted).
        """
        check_copies(copies)
        entry = self._resolve_entry(entry_switch, rng)
        stamp = self._op_stamp(entry)
        return PlacementResult(data_id, [
            self._place_one(replica_id(data_id, i), payload, entry, stamp)
            for i in range(copies)])

    def _route(self, copy_id: str, entry: int, kind: PacketKind,
               max_hops: Optional[int] = None, tracer=None, keys=None):
        """The one scalar route stage: walk ``copy_id`` from ``entry``
        to its delivery switch.  Returns ``(trace, overlay_hops,
        delivery switch, primary serial, extension, state)`` or raises
        the engine's :class:`ForwardingError`; ``extension`` is the
        delivery's range extension, read live, and ``state`` the
        fast-path state walked on, ``None`` when the reference engine
        routed (post-route hop counts follow suit, see
        :meth:`_fast_hop`).  Whether the extension's takeover serves is
        :meth:`_takeover_server`'s to resolve.

        The request rides the compiled plane the batch calls keep in
        step with the controller (:meth:`CompiledRouter.route`, a
        batch of one) unless a ``FASTPATH_GATES`` predicate fires, and
        then goes through ``route_packet`` exactly as it always did.
        Telemetry never selects the engine: through
        :meth:`_emit_route_telemetry` a compiled walk reports the
        engine's ``dataplane.*`` aggregates, and it tells a per-hop
        ``tracer`` the engine's events, up to a failure.  The walk may
        read the epoch route memo (not while it awaits a sweep, under
        a custom hop budget or for a tracer — a hit has no decisions
        to narrate) but never grows it.  The gates are read on every
        call; nothing keeps their verdict.
        """
        registry = default_registry()
        standdown = scalar_standdown(self)
        if standdown is not None:
            _standdown("scalar_standdowns", standdown)
            route = route_packet(
                self.controller.switches, entry,
                Packet(kind=kind, data_id=copy_id,
                       position=self._position_fn(copy_id)),
                max_hops=max_hops, tracer=tracer,
                fault_state=self.fault_state)
            delivery = route.delivery
            return (route.trace, route.overlay_hops, delivery.switch,
                    delivery.primary_serial, delivery.extension, None)
        state = self._fast_plane()
        switches = self.controller.switches
        narrate = None
        if tracer is not None:
            def narrate(event, switch, **details):
                tracer.record(event, switch, copy_id, **details)
            if entry in switches:
                narrate(TraceEventKind.INGRESS, entry,
                        packet_kind=kind.value)
        # The memo keys on the digest's position bits, so even a hit
        # hashes the id once, unless the caller did (``keys``).
        serial_u64, position_key = keys or digest_keys(copy_id)
        cached = (state.routes.get(entry, position_key, serial_u64)
                  if max_hops is None and tracer is None
                  and not state.stale else None)
        if cached is not None:
            trace, overlay, dest, serial, mix = cached
        else:
            router = state.router
            try:
                trace, overlay, dest, serial, mix = router.route(
                    entry, copy_id, *position_from_bits(position_key),
                    serial_u64, max_hops, narrate)
            except ForwardingError:
                if registry.enabled:
                    # The engine counts decisions as it makes them, so
                    # a failed walk still reports its partial mix.
                    self._emit_route_telemetry(
                        registry, kind.value, router.last_route_stats,
                        (), (), 0)
                raise
        # The engine tells and counts the rewrite at delivery;
        # extensions are read live, like the batch paths do.
        extension = switches[dest].table.extension_for(serial)
        if narrate is not None:
            narrate(TraceEventKind.DELIVER, dest, serial=serial)
            if extension is not None:
                narrate(TraceEventKind.EXTENSION_REWRITE, dest,
                        target_switch=extension.target_switch,
                        target_serial=extension.target_serial)
        if registry.enabled:
            self._emit_route_telemetry(
                registry, kind.value, mix, [len(trace) - 1], [overlay],
                int(extension is not None))
        return trace, overlay, dest, serial, extension, state

    def _engine_attrs(self) -> Dict[str, str]:
        """Span / stats attributes naming the engine a scalar request
        takes right now and, for the reference engine, why."""
        standdown = scalar_standdown(self)
        if standdown is None:
            return {"engine": "compiled"}
        return {"engine": "reference", "standdown": standdown}

    def _emit_probe_telemetry(self, registry, copy_id: str,
                              trace: Sequence[int]) -> None:
        """Per-switch transit counters and the demand signal of one
        routed probe."""
        for sid in trace:
            registry.counter("dataplane.switch_transits",
                             switch=sid).inc()
        registry.demand.record(copy_id)
        registry.counter(
            "demand.region_accesses",
            region=demand_region(*self._position_fn(copy_id)),
        ).inc()

    def _place_one(self, copy_id: str, payload: Any, entry: int,
                   stamp=None, keys=None) -> PlacementRecord:
        """The one placement step: route a copy from ``entry`` and store
        it on the server its delivery names (the home, or a range
        extension's takeover the extra hops away) or, when that server
        has crashed and :attr:`hinted_handoff` is on, park it as a hint
        (the record says ``hinted``).  Spans as in :meth:`_probe`."""
        recorder = default_span_recorder()
        span = (None if recorder is None else recorder.trace(
            "request.place", key=copy_id, entry=entry))
        handle = NULL_SPAN if span is None else span.__enter__()
        try:
            tracer = None
            if span is not None and handle.recording:
                tracer = Tracer()
                handle.set(**self._engine_attrs())
            try:
                trace, overlay, dest, serial, extension, state = \
                    self._route(copy_id, entry, _PLACEMENT, None, tracer,
                                keys)
            except ForwardingError:
                if not self.hinted_handoff or self.fault_state is None:
                    raise
                # The home is unroutable (partition / outage): park the
                # write as a hint near the entry instead of failing.
                return self._hinted_record(copy_id, payload, entry,
                                           stamp, handle)
            target = self.controller.server_map[dest][serial]
            hops = len(trace) - 1
            takeover = (None if extension is None
                        else self._takeover_server(extension))
            if takeover is not None:
                hops += self._fast_hop(state, dest, takeover.switch)
                target = takeover
            fault = self.fault_state
            if fault is not None and \
                    not fault.server_alive(target.server_id):
                if self.hinted_handoff:
                    return self._hinted_record(
                        copy_id, payload, entry, stamp, handle,
                        target=target.server_id)
                raise GredError(
                    f"cannot place {copy_id!r}: target server "
                    f"{target.server_id} has crashed and has not been "
                    f"repaired yet"
                )
            target.store(copy_id, payload, stamp)
            record = PlacementRecord(copy_id, entry, dest, target.server_id,
                                     hops, overlay, trace,
                                     takeover is not None)
            registry = default_registry()
            if registry.enabled:
                registry.counter("core.places").inc()
                if record.extended:
                    registry.counter("core.places_extended").inc()
                registry.histogram("core.place_hops",
                                   buckets=HOP_BUCKETS).observe(hops)
                size = _payload_size(payload)
                if size is not None:
                    registry.histogram(
                        "core.payload_bytes",
                        buckets=BYTE_BUCKETS).observe(size)
                registry.gauge("edge.server_load", switch=target.switch,
                               serial=target.serial).set(target.load)
                self._emit_probe_telemetry(registry, copy_id, trace)
            if tracer is not None:
                spans_from_tracer(recorder, tracer, parent=handle.span)
                handle.set(destination=dest, server=record.server_id,
                           physical_hops=hops, extended=record.extended)
            return record
        finally:
            if span is not None:
                span.__exit__(*sys.exc_info())

    # ------------------------------------------------------------------
    # the delivery stage: what happens once a route has delivered
    # ------------------------------------------------------------------
    def _serving(self, state: Optional[_FastPathState], dest: int,
                 serial: int):
        """The one resolution of a delivery ``(dest, serial)`` to the
        servers behind it: ``(home server, extension, takeover server,
        extra hops)``.  ``home`` is the ``H(d) mod s`` server (delivery
        guarantees it exists); ``extension`` its range extension, read
        live so extend/retract need no epoch bump.

        One policy for every reader, writer and deleter: an extension
        whose takeover switch has left or crashed counts as not
        installed — ``takeover`` is ``None`` and the home server
        serves.  Otherwise writes go to ``takeover``, reads fork to
        both (paper Sections V-B, V-C), ``extra hops`` away.
        """
        home = self.controller.server_map[dest][serial]
        extension, takeover = self._takeover(dest, serial)
        if takeover is None:
            return home, extension, None, 0
        return (home, extension, takeover,
                self._fast_hop(state, dest, takeover.switch))

    def _takeover(self, dest: int, serial: int, gone=None):
        """:meth:`_serving`'s policy without the hops: ``(extension,
        takeover server or None)``."""
        switch = self.controller.switches.get(dest)
        extension = (None if switch is None
                     else switch.table.extension_for(serial))
        return extension, (None if extension is None
                           else self._takeover_server(extension, gone))

    def _takeover_server(self, extension, gone=None):
        """The server a range ``extension`` redirects to, or ``None``
        when its takeover switch has left (or is leaving: ``gone``) or
        crashed — the extension then counts as not installed."""
        target = extension.target_switch
        fault = self.fault_state
        if target == gone or not self.topology.has_node(target) or (
                fault is not None and not fault.switch_alive(target)):
            return None
        return self.server(target, extension.target_serial)

    def _probe(self, data_id: str, copy_index: int, entry: int,
               max_hops: Optional[int], attempts: int, keys=None,
               recorder=None) -> Optional[RetrievalResult]:
        """The one probe step: route copy ``copy_index`` from ``entry``
        (on its :func:`digest_keys` ``keys`` if given) and look it up on
        its serving servers — the home server, then (the fork of paper
        Section V-C) the takeover server, the extra hops away —
        skipping crashed ones.  Hit or miss; ``None`` when the route
        failed.  Given an active trace's ``recorder`` it records a
        ``retrieve.probe`` span, entered by hand so that an untraced
        probe enters no context manager (DESIGN.md §5j)."""
        span = (None if recorder is None else recorder.span(
            "retrieve.probe", copy=copy_index, attempt=attempts))
        handle = NULL_SPAN if span is None else span.__enter__()
        try:
            tracer = (Tracer() if span is not None and handle.recording
                      else None)
            copy_id = replica_id(data_id, copy_index)
            registry = default_registry()
            try:
                trace, _, dest, serial, extension, state = self._route(
                    copy_id, entry, _RETRIEVAL, max_hops, tracer, keys)
            except ForwardingError:
                if registry.enabled:
                    registry.counter("faults.route_failures").inc()
                handle.fail("route_error")
                return None
            if tracer is not None:
                spans_from_tracer(recorder, tracer, parent=handle.span)
            if registry.enabled:
                self._emit_probe_telemetry(registry, copy_id, trace)
            home = self.controller.server_map[dest][serial]
            takeover = (None if extension is None
                        else self._takeover_server(extension))
            fault = self.fault_state
            request_hops = len(trace) - 1
            holder = None
            if (fault is None or fault.server_alive(home.server_id)) \
                    and home.has(copy_id):
                holder = home
            elif takeover is not None and takeover.has(copy_id) and (
                    fault is None or fault.server_alive(takeover.server_id)):
                holder = takeover
            if takeover is not None:  # the fork's hops, read either way
                extra = self._fast_hop(state, dest, takeover.switch)
                if holder is takeover:
                    request_hops += extra
            found = holder is not None
            result = RetrievalResult(
                data_id, found, holder.retrieve(copy_id) if found else None,
                entry, dest, holder.server_id if found else None,
                request_hops,
                self._fast_hop(state, holder.switch, entry) if found else 0,
                trace, copy_index, takeover is not None, attempts)
            if found and registry.enabled:
                registry.counter("core.retrieves").inc()
                registry.histogram(
                    "core.retrieve_hops", buckets=HOP_BUCKETS,
                ).observe(result.request_hops + result.response_hops)
            if span is not None:
                handle.set(found=found, destination=dest)
            return result
        finally:
            if span is not None:
                span.__exit__(*sys.exc_info())

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def retrieve(
        self,
        data_id: str,
        entry_switch: Optional[int] = None,
        copies: int = 1,
        rng: Optional[np.random.Generator] = None,
        max_hops: Optional[int] = None,
        read_repair: bool = False,
    ) -> RetrievalResult:
        """Retrieve ``data_id``, walking its replicas nearest-first.

        With ``copies > 1`` the access point computes the position of
        every replica and sends the request toward the one closest (in
        the virtual space) to its own switch — the paper's nearest-copy
        selection (Section VI).  When that copy is missing (crashed
        switch, lost data) or its route fails, the request falls back
        through the remaining replicas in nearest-first order instead
        of giving up; ``result.attempts`` counts the replicas probed.

        ``max_hops`` optionally bounds each probe's forwarding path
        (the per-request hop budget of degraded mode).

        With ``read_repair=True`` a successful walk also synchronizes
        the item's replicas to the newest stamp observed among them
        (:meth:`read_repair`) — opt-in anti-entropy piggybacked on the
        read path.
        """
        check_copies(copies)
        entry = self._resolve_entry(entry_switch, rng)
        return self._retrieve_at(
            data_id, entry, copies, max_hops, read_repair,
            None if copies == 1 else self._replica_keys(data_id, copies))

    def _replica_keys(self, data_id: str, copies: int):
        """The :func:`digest_keys` of every replica of a multi-copy
        read on the default hash, each replica's digest both ranking
        the walk (:meth:`_walk_order`) and routing its probe: one
        SHA-256 per copy.  ``None`` under a custom ``position_fn``,
        which ranks through :meth:`replica_order`."""
        if self._position_fn is data_position:
            return [digest_keys(replica_id(data_id, i))
                    for i in range(copies)]
        return None

    def _walk_order(self, data_id: str, copies: int, entry: int,
                    keys=None) -> List[int]:
        """:meth:`replica_order` from ``entry``, ranked on the
        replicas' ``keys`` when given (no hashing)."""
        if keys is None:
            return self.replica_order(data_id, copies, entry)
        return self._nearest_first(
            entry, [position_from_bits(k[1]) for k in keys])

    def _retrieve_at(self, data_id: str, entry: int, copies: int,
                     max_hops: Optional[int], read_repair: bool,
                     keys=None) -> RetrievalResult:
        """:meth:`retrieve` from a resolved ``entry``: the nearest-first
        failover walk, on the replicas' :func:`digest_keys` ``keys``
        when the caller has them.  Spans as in :meth:`_probe`."""
        registry = default_registry()
        recorder = default_span_recorder()
        span = (None if recorder is None else recorder.trace(
            "request.retrieve", key=data_id, entry=entry))
        handle = NULL_SPAN if span is None else span.__enter__()
        try:
            traced = span is not None and handle.recording
            order = ((0,) if copies == 1 else
                     self._walk_order(data_id, copies, entry, keys))
            result = None
            for attempts, copy_index in enumerate(order, 1):
                probe = self._probe(data_id, copy_index, entry, max_hops,
                                    attempts, keys and keys[copy_index],
                                    recorder if traced else None)
                if probe is not None:  # else the route failed loudly
                    result = probe  # found, or the latest miss
                    if probe.found:
                        break
            if result is None or not result.found:
                if registry.enabled:
                    registry.counter("core.retrieve_misses").inc()
                if result is None:
                    result = self._unroutable(data_id, entry, order[-1],
                                              attempts)
            elif attempts > 1 and registry.enabled:
                registry.counter("faults.failovers").inc()
            if traced:
                handle.set(found=result.found,
                           attempts=result.attempts,
                           copy_used=result.copy_used,
                           request_hops=result.request_hops,
                           response_hops=result.response_hops,
                           **self._engine_attrs())
                if not result.found:
                    handle.fail("miss")
        finally:
            if span is not None:
                span.__exit__(*sys.exc_info())
        if read_repair and copies > 1:
            self.read_repair(data_id, copies)
        return result

    @staticmethod
    def _unroutable(data_id: str, entry: int, copy_used: int,
                    attempts: int) -> RetrievalResult:
        """Every probe died in routing (heavy degradation)."""
        return RetrievalResult(data_id, False, None, entry, None, None, 0,
                               0, [], copy_used, False, attempts)

    def probe_replica(self, data_id: str, copy_index: int, entry: int,
                      max_hops: Optional[int] = None,
                      attempts: int = 1) -> Optional[RetrievalResult]:
        """Probe a single replica without failover: route toward copy
        ``copy_index`` from ``entry`` and return the outcome, or
        ``None`` when the route itself failed.  This is the unit step
        of :meth:`retrieve`'s failover walk, exposed so external
        request pipelines (hedging, breaker-aware candidate ordering)
        can drive the walk themselves."""
        recorder = default_span_recorder()
        return self._probe(data_id, copy_index, entry, max_hops, attempts,
                           None, recorder if recorder is not None
                           and recorder.active else None)

    def replica_order(self, data_id: str, copies: int,
                      entry: int) -> List[int]:
        """Copy indices sorted by virtual distance from the entry
        switch (nearest first; ties by index) — the order retrieval
        failover walks (and the resilience pipeline's breaker-aware
        candidate selection starts from)."""
        if copies == 1:
            return [0]
        return self._nearest_first(entry, [
            self._position_fn(replica_id(data_id, i))
            for i in range(copies)])

    def _nearest_first(self, entry: int, positions) -> List[int]:
        entry_pos = self.controller.switch_position(entry)
        return sorted(range(len(positions)), key=lambda i: (
            euclidean(positions[i], entry_pos), i))

    def _replica_orders(self, entries: Sequence[int],
                        positions: np.ndarray, copies: int) -> np.ndarray:
        """:meth:`replica_order` of a whole batch in one pass: the
        ``(items, copies)`` array of copy indices for per-item
        ``entries`` and the flat replica ``positions``.  Only a clear
        ranking is trusted — an item with two replicas within
        ``TIE_BAND`` of each other goes to the exact
        :meth:`_nearest_first`, which keeps the tie-break by index."""
        count = len(entries)
        if copies == 1 or not count:
            return np.zeros((count, copies), dtype=np.intp)
        distinct, which = np.unique(np.asarray(entries, dtype=np.int64),
                                    return_inverse=True)
        at = np.asarray([self.controller.switch_position(entry)
                         for entry in distinct.tolist()])[which]
        positions = positions.reshape(count, copies, 2)
        dist = np.hypot(positions[:, :, 0] - at[:, 0:1],
                        positions[:, :, 1] - at[:, 1:2])
        orders = np.argsort(dist, axis=1, kind="stable")
        gaps = np.diff(np.take_along_axis(dist, orders, axis=1), axis=1)
        for i in np.flatnonzero(gaps.min(axis=1) <= TIE_BAND).tolist():
            orders[i] = self._nearest_first(entries[i],
                                            positions[i].tolist())
        return orders

    # ------------------------------------------------------------------
    # resilience interop
    # ------------------------------------------------------------------
    def resilient(self, config=None):
        """Wrap this network in a
        :class:`~repro.resilience.ResilientNetwork` (admission
        control, deadline-bounded retries, circuit breakers, hedged
        reads).  A tripped breaker changes which replicas the wrapper
        probes, never how this network routes them."""
        from ..resilience import ResilientNetwork

        return ResilientNetwork(self, config)

    # ------------------------------------------------------------------
    # batch fast path
    # ------------------------------------------------------------------
    def _fast_plane(self) -> _FastPathState:
        """The fast-path state with its compiled router and hop cache
        in step with the control plane — what a scalar request needs.

        A global-epoch advance (``recompute``: every position moved)
        rebuilds the compiled router and the caches from scratch.
        A version advance from scoped events (joins, leaves, link
        changes, failure absorption) instead asks the controller which
        switches were touched and patches only their compiled rows.
        Hop distances are cheap to recompute and topology edits shift
        them non-locally, so the hop rows are dropped on any change.
        The route memo is only marked (``state.stale``): sweeping it
        is linear in its size, so it waits for :meth:`_fast_state`."""
        controller = self.controller
        state = self._fastpath
        # (Every change advances the version, a recompute included.)
        if state is not None and state.version == controller.version:
            return state
        touched = None
        if state is not None and state.epoch == controller.epoch:
            touched = controller.changes_since(state.version)
        if touched is None:
            state = _FastPathState(
                controller.epoch, controller.version,
                CompiledRouter(controller.switches))
            self._fastpath = state
            return state
        if touched:
            switches = controller.switches
            present = frozenset(s for s in touched if s in switches)
            state.router.patch(switches, present,
                               frozenset(touched) - present)
            state.stale |= touched
            state.hops = None
        state.version = controller.version
        return state

    def _fast_state(self) -> _FastPathState:
        """:meth:`_fast_plane` plus a coherent route memo — what a
        batch needs.  Evicts only the memoized routes a fresh walk on
        the patched plane could give back differently (or that outgrew
        the hop bound): the sweep hands the memo what the router's
        patches replaced since the last one
        (:meth:`CompiledRouter.take_changes`), and every route it
        keeps is byte-identical to a walk."""
        state = self._fast_plane()
        if state.stale:
            router = state.router
            state.routes.sweep(state.stale, router._default_max_hops,
                               router.take_changes())
            state.stale.clear()
        return state

    def _hop_rows(self, state: _FastPathState) -> HopRows:
        """The plane's hop rows, built on first use after a change."""
        if state.hops is None:
            state.hops = HopRows(self.topology)
        return state.hops

    def _fast_hop(self, state: Optional[_FastPathState], source: int,
                  target: int) -> int:
        """Hop distance from the plane's hop rows (one kernel row per
        distinct source switch); a fresh search when the reference
        engine routed (``state`` None).  Unreachable: :class:`NoPath`."""
        if state is None:
            return hop_count(self.topology, source, target)
        return (state.hops or self._hop_rows(state)).hop(source, target)

    @staticmethod
    def _emit_route_telemetry(registry, kind: str, mix,
                              route_hops, overlay_hops,
                              rewrites: int) -> None:
        """Forwarding-engine aggregates for routes the compiled router
        walked instead of :func:`route_packet`.

        ``mix`` totals ``(greedy, vl_starts, vl_relays)`` over the
        probes the engine would have routed, ``None`` when it would
        have routed none (it rejects e.g. an unknown entry switch
        before fetching any counter); ``route_hops``/``overlay_hops``
        list the per-delivery hop observations in the scalar loop's
        observation order so the histogram reservoirs match byte for
        byte.
        """
        if mix is not None:
            # The engine fetches these once per routed packet, so they
            # exist (possibly at zero) as soon as one probe enters it.
            for name, total in zip(("dataplane.greedy_forwards",
                                    "dataplane.vl_starts",
                                    "dataplane.vl_relays"), mix):
                registry.counter(name).inc(total)
        if route_hops:
            registry.counter("dataplane.requests_routed",
                             kind=kind).inc(len(route_hops))
            registry.counter("dataplane.deliveries").inc(
                len(route_hops))
            if rewrites:
                registry.counter(
                    "dataplane.extension_rewrites").inc(rewrites)
            registry.histogram(
                "dataplane.hops_per_request", buckets=HOP_BUCKETS,
            ).observe_many(route_hops)
            registry.histogram(
                "dataplane.overlay_hops_per_request",
                buckets=HOP_BUCKETS,
            ).observe_many(overlay_hops)

    @staticmethod
    def _record_exemplar(recorder, name: str, key: str,
                         trace_switches, status: Optional[str] = None,
                         **attrs) -> None:
        """Promote one batch row to a full trace: a root span plus one
        ``hop.transit`` child per visited switch.  Simulated batch
        hops have no individual wall time, so hops are laid out at
        1 µs apiece — the order/topology is the signal."""
        with recorder.trace(name, key=key, engine="compiled",
                            **attrs) as handle:
            if handle.recording:
                if status is not None:
                    handle.fail(status)
                base = handle.span.start
                for k, sid in enumerate(trace_switches):
                    recorder.add_span(
                        "hop.transit", start=base + k * 1e-6,
                        end=base + (k + 1) * 1e-6, parent=handle.span,
                        switch=sid)

    def prehash(self, data_ids: Sequence[str],
                copies: int = 1) -> np.ndarray:
        """Pre-hash a batch once for reuse across calls.

        Returns the ``(len(data_ids) * copies, 32) uint8`` SHA-256
        digest array of every replica id, in the flat order
        :meth:`place_many` and :meth:`retrieve_many` consume; pass it
        back via their ``digests`` parameter to skip re-hashing (the
        digest feeds both the position and the server serial, so this
        is the entire per-identifier hashing cost).
        """
        check_copies(copies)
        return sha256_digests(replica_ids_flat(list(data_ids), copies))

    def place_many(
        self,
        data_ids: Sequence[str],
        payloads: Optional[Sequence[Any]] = None,
        entry_switches: Optional[Sequence[int]] = None,
        copies: int = 1,
        rng: Optional[np.random.Generator] = None,
        digests: Optional[np.ndarray] = None,
    ) -> List[PlacementResult]:
        """Place a batch of items; equivalent to calling :meth:`place`
        per item in order, but vectorized.

        Identifiers are hashed in one pass (one SHA-256 digest per
        replica, reused for position and server selection) and routed
        through the compiled router with an epoch-scoped route cache.
        Per-request results are byte-identical to the scalar loop
        under the same ``rng``.

        There are two bodies and nothing in between: the grouped store
        (:meth:`_grouped_store`: every copy routed in waves, one bulk
        write per target server) or that scalar loop.  The loop runs
        while a ``FASTPATH_GATES`` predicate fires (on the reference
        engine, so fault handling stays exact) and whenever the grouped
        store declines this batch because it could fail mid-way — an
        unroutable copy, a crashed target, a bounded one that may lack room.
        A stored prefix, hinted handoff and the mid-batch raise are
        therefore written once, in the loop;
        ``dataplane.fastpath_standdowns{reason=...}`` says which batch
        took it and why.  Telemetry never selects the body: the grouped
        store emits the scalar loop's aggregates itself.

        Parameters
        ----------
        data_ids:
            Identifiers to place.
        payloads:
            Optional per-item payloads (same length as ``data_ids``).
        entry_switches:
            Optional per-item access switches; random when omitted.
        copies, rng:
            As in :meth:`place`.
        digests:
            Optional pre-hashed replica digests from :meth:`prehash`
            (``(len(data_ids) * copies, 32) uint8``).  Hashing is the
            one per-request cost that cannot be cached, so a workload
            that places and then retrieves the same identifiers hashes
            once and passes the array to both calls.  Shape-checked
            on every path; the scalar fallback re-hashes exactly.
        """
        batch = _Batch(self, PacketKind.PLACEMENT, data_ids,
                       entry_switches, copies, rng, digests, payloads)
        if batch.state is not None:
            with batch:
                results = self._grouped_store(batch, payloads, copies)
            if results is not None:
                return results
        return [
            self.place(data_id,
                       None if payloads is None else payloads[i],
                       batch.entries[i], copies)
            for i, data_id in enumerate(batch.data_ids)
        ]

    def _deliveries(self, batch: _Batch, routes: _Routes, at=slice(None)):
        """Rows ``at`` of delivered ``routes`` by distinct delivery:
        ``(servings, which)``, one :meth:`_serving` resolution per
        ``(switch, serial)`` and each row's index into them.  A
        delivery is decided by a forwarding entry, not by an item: at
        most ``switches x s`` of them however large the batch."""
        dest, serial = routes.dest[at], routes.serial[at]
        width = int(serial.max()) + 1
        keys, which = np.unique(dest * width + serial,
                                return_inverse=True)
        return [self._serving(batch.state, *divmod(key, width))
                for key in keys.tolist()], which

    def _grouped_store(self, batch: _Batch,
                       payloads: Optional[Sequence[Any]], copies: int
                       ) -> Optional[List[PlacementResult]]:
        """The compiled body of :meth:`place_many`: route every copy,
        resolve each *distinct* delivery ``(switch, serial)`` through
        :meth:`_serving` once, store server by server in bulk and build
        the records straight from the route columns.

        It carries only what cannot fail.  Returns ``None`` — declined,
        before any side effect (nothing stored, no stamp taken, nothing
        tallied) — when this batch could: a route did not deliver, a
        target server is down under the attached fault state, or a
        bounded target may lack room for its whole group.  Stored
        prefixes, hinted handoff, ``StorageFull`` ordering and the
        mid-batch raise are the scalar loop's alone.
        """
        data_ids, entries, flat_ids = \
            batch.data_ids, batch.entries, batch.flat_ids
        if not flat_ids:
            return []
        routes = batch.route(np.arange(len(flat_ids)))
        if (routes.dest < 0).any():
            return _standdown("fastpath_standdowns", "route_failed")
        servings, which = self._deliveries(batch, routes)
        targets = [home if takeover is None else takeover
                   for home, _, takeover, _ in servings]
        server_ids = [target.server_id for target in targets]
        fault = self.fault_state
        if fault is not None and not all(map(fault.server_alive,
                                             server_ids)):
            return _standdown("fastpath_standdowns", "target_down")
        groups = _by_target(targets, which)
        for target, flats in groups:
            if target.capacity is not None and \
                    target.load + len(flats) > target.capacity:
                return _standdown("fastpath_standdowns", "target_full")
        stamps = None
        if fault is not None:
            # The stamps the loop would take: one per item in request
            # order, shared by the item's copies.
            stamps = [(self.write_version + i + 1, entry)
                      for i, entry in enumerate(entries)]
            self.write_version += len(entries)
        for target, flats in groups:
            target.store_many(
                [flat_ids[f] for f in flats],
                None if payloads is None else
                [payloads[f // copies] for f in flats],
                None if stamps is None else
                [stamps[f // copies] for f in flats])
        served = [(server_id, extra, takeover is not None)
                  for server_id, (_, _, takeover, extra)
                  in zip(server_ids, servings)]
        dests, overlays, starts, ends, traces = routes.lists()
        which = which.tolist()
        records: List[PlacementRecord] = []
        # The one per-copy loop of a cached batch: one record per copy,
        # each a view of the batch's trace column (DESIGN.md §5k).
        # Positional, in field order: keywords cost 0.4 us a record, a
        # tenth of a hot placement.
        for copy_id, entry, dest, overlay, start, end, u in zip(
                flat_ids, batch.flat_entries.tolist(), dests, overlays,
                starts, ends, which):
            server_id, extra, extended = served[u]
            records.append(_RecordView(
                copy_id, entry, dest, server_id, end - start - 1 + extra,
                overlay, traces, start, end, extended))
        if batch.registry.enabled:
            batch.count_mix(routes)
            for flat, (record, u, start, end) in enumerate(zip(
                    records, which, starts, ends)):
                batch.deliveries.append((
                    flat // copies, end - start - 1, record.overlay_hops))
                # (The engine counts the rewrite at delivery, whether
                # or not the extension is then usable.)
                batch.rewrites += servings[u][1] is not None
                batch.placed(flat, record, traces[start:end],
                             None if payloads is None
                             else payloads[flat // copies])
        recorder = default_span_recorder()
        if recorder is not None:
            for record in records:
                self._record_exemplar(
                    recorder, "request.place", record.data_id,
                    record.trace, entry=record.entry_switch,
                    destination=record.destination_switch,
                    server=record.server_id,
                    physical_hops=record.physical_hops,
                    extended=record.extended)
        return [_PlacementView(data_id, records, at, at + copies)
                for data_id, at in zip(
                    data_ids, range(0, len(records), copies))]

    def retrieve_many(
        self,
        data_ids: Sequence[str],
        entry_switches: Optional[Sequence[int]] = None,
        copies: int = 1,
        rng: Optional[np.random.Generator] = None,
        max_hops: Optional[int] = None,
        digests: Optional[np.ndarray] = None,
    ) -> List[RetrievalResult]:
        """Retrieve a batch of items; equivalent to calling
        :meth:`retrieve` per item in order, but vectorized.

        Shares the fast-path machinery (and its fallback conditions)
        with :meth:`place_many`, including pre-hashed ``digests`` from
        :meth:`prehash`.  Each round of the nearest-first failover walk
        is one :meth:`_grouped_probe`: the round's replicas routed in
        waves, one bulk lookup per distinct delivery, response hops
        from the plane's hop rows (one kernel call for missing rows).
        """
        batch = _Batch(self, PacketKind.RETRIEVAL, data_ids,
                       entry_switches, copies, rng, digests)
        data_ids, entries = batch.data_ids, batch.entries
        if batch.state is None:
            return [
                self.retrieve(data_id, entry, copies, max_hops=max_hops)
                for data_id, entry in zip(data_ids, entries)
            ]
        orders = self._replica_orders(entries, batch.positions, copies)
        # An item's answer: its hit, else its last *routable* probe's
        # miss (with the attempt count captured then, even if later
        # probes failed to route, like the scalar loop), else ``None``.
        results: List[Optional[RetrievalResult]] = [None] * len(data_ids)
        pending = np.arange(len(data_ids))
        with batch:
            # Probe round ``r`` routes every unresolved item's r-th
            # nearest replica in one wave-routed batch — the same
            # nearest-first probe sequence as the scalar loop, just
            # advanced in lockstep (so round r is attempt r + 1).
            for rnd in range(copies):
                if not pending.size:
                    break
                found = self._grouped_probe(
                    batch, pending, orders[pending, rnd], rnd + 1,
                    max_hops, results)
                pending = pending[~found]
            final = batch.answers = [
                result if result is not None else self._unroutable(
                    data_ids[i], entries[i], int(orders[i, -1]), copies)
                for i, result in enumerate(results)
            ]
        recorder = default_span_recorder()
        if recorder is not None:
            for r in final:
                self._record_exemplar(
                    recorder, "request.retrieve", r.data_id, r.trace,
                    status=None if r.found else "miss",
                    entry=r.entry_switch, found=r.found,
                    attempts=r.attempts, copy_used=r.copy_used,
                    request_hops=r.request_hops,
                    response_hops=r.response_hops)
        return final

    def _grouped_probe(self, batch: _Batch, items: np.ndarray,
                       copy: np.ndarray, attempt: int,
                       max_hops: Optional[int],
                       results: List[Optional[RetrievalResult]]
                       ) -> np.ndarray:
        """One probe round of :meth:`retrieve_many`, the read mirror of
        :meth:`_grouped_store`: route replica ``copy[j]`` of every
        ``items[j]``, resolve each *distinct* delivery ``(switch,
        serial)`` through :meth:`_serving` once — liveness of its
        servers included — and look its probes up in bulk, on the home
        server and then (the fork of paper Section V-C) on the takeover
        server for the misses.  Response hops are one ``(holder switch,
        entry)`` gather over the epoch's hop rows.

        Writes every delivered probe's outcome, hit or miss, into
        ``results[item]`` and returns the per-probe ``found`` mask; a
        probe that did not deliver counts a route failure and leaves
        its item's answer as it was.
        """
        state, fault = batch.state, self.fault_state
        probes = items * batch.copies + copy
        routes = batch.route(probes, max_hops)
        telemetry = batch.registry.enabled
        if telemetry:
            batch.count_mix(routes)
        found = np.zeros(items.size, dtype=bool)
        ok = np.flatnonzero(routes.dest >= 0)
        batch.route_failures += items.size - ok.size
        if not ok.size:
            return found
        items, probes, copy = items[ok], probes[ok], copy[ok]
        servings, which = self._deliveries(batch, routes, ok)
        order = np.argsort(which, kind="stable")
        copy_ids = [batch.flat_ids[f] for f in probes[order].tolist()]
        # Who can answer: slot ``u`` is delivery ``u``'s home server,
        # ``slots + u`` its takeover, the closing slot -1 nobody (a
        # miss).  Per slot: the server, its switch's hop row, the hops
        # a fork adds.
        slots = len(servings)
        server_ids: List[Any] = [None] * (2 * slots + 1)
        rows = np.zeros(2 * slots + 1, dtype=np.intp)
        extras = np.zeros(2 * slots + 1, dtype=np.int64)
        forked = np.asarray([s[2] is not None for s in servings])
        sources: Dict[int, int] = {}
        hits: List[bool] = []
        payloads: List[Any] = []
        forks: List[int] = []  # hits the takeover answered
        low = 0
        for u, ((home, _, takeover, extra), high) in enumerate(
                zip(servings, np.cumsum(np.bincount(which)).tolist())):
            ids = copy_ids[low:high]
            if fault is None or fault.server_alive(home.server_id):
                hit, payload = home.lookup_many(ids)
            else:
                hit, payload = [False] * len(ids), [None] * len(ids)
            if any(hit):
                server_ids[u] = home.server_id
                rows[u] = sources.setdefault(home.switch, len(sources))
            if takeover is not None:
                missed = [k for k, h in enumerate(hit) if not h]
                if missed and (fault is None or fault.server_alive(
                        takeover.server_id)):
                    also, theirs = takeover.lookup_many(
                        [ids[k] for k in missed])
                    if any(also):
                        server_ids[slots + u] = takeover.server_id
                        extras[slots + u] = extra
                        rows[slots + u] = sources.setdefault(
                            takeover.switch, len(sources))
                    for k, h, p in zip(missed, also, theirs):
                        if h:
                            hit[k], payload[k] = True, p
                            forks.append(low + k)
            hits += hit
            payloads += payload
            low = high
        # Back from delivery order to probe order.
        at = np.empty_like(order)
        at[order] = np.arange(order.size)
        hit = found[ok] = np.asarray(hits)[at]
        slot = np.where(hit, which, -1)
        slot[order[forks]] += slots
        response = np.zeros(ok.size, dtype=np.int64)
        if sources:
            hops = self._hop_rows(state)
            holders = rows[slot[hit]]
            targets = batch.flat_entries[probes[hit]].tolist()
            back = hops.rows(list(sources))[
                holders, list(map(hops.column.__getitem__, targets))]
            if back.min() < 0:
                j = int(np.argmin(back))
                raise NoPath(list(sources)[holders[j]], targets[j])
            response[hit] = back
        hops = routes.tlen[ok] - 1
        dests, overlays, starts, ends, traces = routes.lists(ok)
        data_ids, entries = batch.data_ids, batch.entries
        items = items.tolist()
        # The one per-probe loop of a cached batch: one result per
        # probe, each a view of the round's trace column (DESIGN.md
        # §5k).  Positional, in field order (id, found, payload, entry,
        # destination, server, request hops, response hops, trace
        # column and span, copy, forked, attempts).
        for i, h, payload, dest, holder, out, back, start, end, c, fork \
                in zip(items, hit.tolist(),
                       [payloads[k] for k in at.tolist()], dests,
                       slot.tolist(), (hops + extras[slot]).tolist(),
                       response.tolist(), starts, ends, copy.tolist(),
                       forked[which].tolist()):
            results[i] = _RetrievalView(
                data_ids[i], h, payload, entries[i], dest,
                server_ids[holder], out, back, traces, start, end, c,
                fork, attempt)
        if telemetry:
            batch.deliveries.extend(zip(items, hops.tolist(), overlays))
            batch.rewrites += int(np.asarray(
                [extension is not None for _, extension, _, _
                 in servings])[which].sum())
            batch.flats.extend(probes.tolist())
            for start, end in zip(starts, ends):
                batch.transits.extend(traces[start:end])
        return found

    def destinations_for(self, data_ids: Sequence[str]) -> List[int]:
        """Destination switch of every identifier, resolved without
        simulating any routing (batch :meth:`destination_switch`).

        One vectorized hashing pass plus one
        :meth:`RoutingIndex.closest_many` over all ids.
        """
        data_ids = list(data_ids)
        if self._position_fn is not data_position:
            return [self.destination_switch(d) for d in data_ids]
        if not data_ids:
            return []
        positions = positions_from_digests(sha256_digests(data_ids))
        return self.controller.routing_index().closest_many(
            positions).tolist()

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def delete(self, data_id: str, copies: int = 1,
               entry_switch: Optional[int] = None) -> int:
        """Delete all copies of a data item; returns how many were
        removed.

        Fault-free, a delete simply pops the copies.  With a fault
        state attached, each copy is *entombed* instead: a stamped
        tombstone replaces it so a later repair or scrub cannot
        resurrect the item from a stale survivor, and a copy whose
        home is unroutable is skipped (or, with
        :attr:`hinted_handoff`, parked as a delete hint) rather than
        aborting the remaining copies mid-loop.
        """
        check_copies(copies)
        removed = 0
        entry = self._resolve_entry(entry_switch, None)
        fault = self.fault_state
        stamp = self._op_stamp(entry)
        for i in range(copies):
            copy_id = replica_id(data_id, i)
            try:
                _, _, dest, serial, _, state = self._route(
                    copy_id, entry, PacketKind.RETRIEVAL)
            except ForwardingError:
                if stamp is None:
                    raise
                registry = default_registry()
                if self.hinted_handoff:
                    self._park_hint(copy_id, "delete",
                                    self._home_server(copy_id).server_id,
                                    stamp, None, entry)
                elif registry.enabled:
                    registry.counter(
                        "durability.deletes_unreachable").inc()
                continue
            home, _, takeover, _ = self._serving(state, dest, serial)
            hit = False
            for server in (home, takeover):
                if server is not None and server.has(copy_id):
                    if stamp is None:
                        server.delete(copy_id)
                    else:
                        self._entomb(server, copy_id, stamp)
                    hit = True
                    removed += 1
                    registry = default_registry()
                    if registry.enabled:
                        registry.counter("core.deletes").inc()
                        registry.gauge(
                            "edge.server_load", switch=server.switch,
                            serial=server.serial,
                        ).set(server.load)
                    break
            if stamp is not None and not hit:
                # No live copy at the home (it may sit on a crashed,
                # not-yet-repaired server): still record the tombstone
                # so repair cannot rebuild the copy later.
                if fault.server_alive(home.server_id):
                    self._entomb(home, copy_id, stamp)
                elif self.hinted_handoff:
                    self._park_hint(copy_id, "delete", home.server_id,
                                    stamp, None, entry)
        return removed

    # ------------------------------------------------------------------
    # durability: hints, read repair, anti-entropy scrub
    # ------------------------------------------------------------------
    def _home_server(self, copy_id: str) -> EdgeServer:
        """The server that canonically owns a replica id right now
        (control-plane computation, no routing): the ``H(d) mod s``
        server of the closest switch, redirected by an active range
        extension."""
        switch = self.controller.closest_switch(
            self._position_fn(copy_id))
        serial = server_index(copy_id, len(self.server_map[switch]))
        _, takeover = self._takeover(switch, serial)
        return (self.server_map[switch][serial] if takeover is None
                else takeover)

    def _hint_holder(self, copy_id: str, entry: int,
                     gone=None) -> EdgeServer:
        """Where a hint for ``copy_id`` parks: the closest live server
        reachable from ``entry`` (BFS over the physical topology
        honoring the fault state, passing over a leaving switch
        ``gone``)."""
        fault = self.fault_state
        seen = {entry}
        frontier = [entry]
        while frontier:
            next_frontier: List[int] = []
            for switch in frontier:
                for server in self.server_map.get(switch, []):
                    if fault is None or fault.server_alive(
                            server.server_id):
                        return server
                for peer in sorted(self.topology.neighbors(switch)):
                    if peer in seen or peer == gone:
                        continue
                    if fault is not None and \
                            not fault.can_forward(switch, peer):
                        continue
                    seen.add(peer)
                    next_frontier.append(peer)
            frontier = next_frontier
        raise GredError(
            f"cannot park a hint for {copy_id!r}: no live server "
            f"is reachable from switch {entry}"
        )

    def _park_hint(self, copy_id: str, op: str, target, stamp,
                   payload: Any, entry: int, holder=None) -> EdgeServer:
        """Park a hinted write/delete on ``holder``, by default the
        nearest live server (:meth:`_hint_holder`)."""
        holder = holder or self._hint_holder(copy_id, entry)
        holder.park_hint(Hint(copy_id=copy_id, op=op, target=target,
                              stamp=stamp, payload=payload))
        registry = default_registry()
        if registry.enabled:
            registry.counter("durability.hints_parked").inc()
        return holder

    def _entomb(self, server: EdgeServer, copy_id: str, stamp) -> bool:
        """Record a stamped tombstone on a server (counter-wrapped)."""
        removed = server.entomb(copy_id, stamp)
        registry = default_registry()
        if registry.enabled:
            registry.counter("durability.tombstones_written").inc()
        return removed

    def _hinted_record(self, copy_id: str, payload: Any, entry: int,
                       stamp, handle, target=None) -> PlacementRecord:
        """Placement outcome for a copy parked as a hinted write."""
        if target is None:
            target = self._home_server(copy_id).server_id
        holder = self._park_hint(copy_id, "store", target, stamp,
                                 payload, entry)
        physical = hop_count(self.topology, entry, holder.switch)
        handle.set(destination=holder.switch, server=holder.server_id,
                   hinted=True)
        return PlacementRecord(copy_id, entry, holder.switch,
                               holder.server_id, physical, 0, [entry],
                               False, True)

    def drain_hints(self, ignore_partitions: bool = False) -> int:
        """Apply every parked hint whose home is live and reachable
        again; returns the number of hints applied.  Hints whose home
        is still down (or still partitioned away from the holder, or
        full) stay parked for the next drain.  The scrubber passes
        ``ignore_partitions=True``: it is an operator-plane sweep that
        is not bound by data-plane partitions."""
        fault = self.fault_state
        applied = 0
        for switch in sorted(self.server_map):
            for holder in self.server_map[switch]:
                if holder.hint_count == 0:
                    continue
                keep = []
                for hint in holder.take_hints():
                    home = self._home_server(hint.copy_id)
                    if fault is not None and (
                            not fault.server_alive(home.server_id)
                            or (not ignore_partitions
                                and not fault.same_side(holder.switch,
                                                        home.switch))):
                        keep.append(hint)
                        continue
                    try:
                        if hint.op == "delete":
                            self._entomb(home, hint.copy_id, hint.stamp)
                        else:
                            home.store(hint.copy_id, hint.payload,
                                       stamp=hint.stamp)
                    except StorageFull:
                        keep.append(hint)
                        continue
                    applied += 1
                for hint in keep:
                    holder.park_hint(hint)
        registry = default_registry()
        if applied and registry.enabled:
            registry.counter("durability.hints_drained").inc(applied)
        return applied

    def read_repair(self, data_id: str, copies: int = 1) -> int:
        """Synchronize the live replicas of one item to the newest
        stamp observed among them (their tombstones included); returns
        the number of replica homes corrected.  Replicas on crashed or
        unreachable servers are left for :meth:`scrub`."""
        fault = self.fault_state
        holders = []
        win_stamp = None
        win_payload = None
        win_tomb = None
        for i in range(copies):
            copy_id = replica_id(data_id, i)
            home = self._home_server(copy_id)
            if fault is not None and \
                    not fault.server_alive(home.server_id):
                continue
            tomb = home.tombstone_of(copy_id)
            if tomb is not None and (win_tomb is None
                                     or tomb > win_tomb):
                win_tomb = tomb
            if home.has(copy_id):
                stamp = home.stamp_of(copy_id) or NO_STAMP
                if win_stamp is None or stamp > win_stamp:
                    win_stamp = stamp
                    win_payload = home.retrieve(copy_id)
                holders.append((copy_id, home, stamp))
            else:
                holders.append((copy_id, home, None))
        repaired = 0
        if win_tomb is not None and (win_stamp is None
                                     or win_tomb > win_stamp):
            # The newest write is a delete: entomb the stale leftovers.
            for copy_id, home, stamp in holders:
                if stamp is not None and self._entomb(home, copy_id,
                                                      win_tomb):
                    repaired += 1
        elif win_stamp is not None:
            for copy_id, home, stamp in holders:
                if stamp is not None and stamp >= win_stamp:
                    continue
                try:
                    stored = (home.store(copy_id, win_payload)
                              if win_stamp == NO_STAMP
                              else home.store(copy_id, win_payload,
                                              stamp=win_stamp))
                except StorageFull:
                    continue
                if stored:
                    repaired += 1
        registry = default_registry()
        if repaired and registry.enabled:
            registry.counter("durability.read_repairs").inc(repaired)
        return repaired

    def scrub(self, catalog=None, **kwargs):
        """Run the anti-entropy scrubber over the whole storage plane
        (see :func:`repro.core.scrub.scrub_network`): drain hints,
        resolve each catalogued item's winning stamp, compare
        per-server hash-range digests and repair only the mismatching
        ranges.  Returns a :class:`~repro.core.scrub.ScrubReport`."""
        from .scrub import scrub_network

        return scrub_network(self, catalog, **kwargs)

    # ------------------------------------------------------------------
    # range extension (paper Section V-B)
    # ------------------------------------------------------------------
    def extend_range(self, switch: int, serial: int,
                     migrate: bool = False) -> None:
        """Activate a range extension for server ``(switch, serial)``.

        With ``migrate=True`` the items currently on the overloaded
        server move to the takeover server immediately (the default
        leaves them, matching the paper where only *new* placements are
        redirected and retrieval forks to both locations) — checked
        first: a move that cannot fit installs and moves nothing.
        """
        def admit(takeover):
            source = self.server(switch, serial)
            ids = list(source.stored_ids()) if migrate else []
            checked.append(self._check_move(
                [source] * len(ids), ids, [takeover], [0] * len(ids)))

        checked = []
        self.controller.extend_range(switch, serial, admit=admit)
        self._commit_move(checked[0])

    def retract_range(self, switch: int, serial: int) -> int:
        """Deactivate a range extension, migrating the redirected items
        back home first (paper Section V-B end).  Returns the number of
        items migrated.

        The paper only deletes the extended forwarding entries "when all
        the corresponding data has been retrieved", so retraction is
        refused when the home server lacks capacity for everything that
        belongs to it — the extension stays active and no item moves.
        """
        entry = self.controller.switches[switch].table.extension_for(serial)
        if entry is None:
            raise GredError(
                f"server ({switch}, {serial}) has no active extension"
            )
        moved = self._commit_move(self._move_home(switch, entry))
        self.controller.retract_range(switch, serial)
        return moved

    def _move_home(self, switch: int, entry):
        """The checked move of what extension ``entry`` of ``switch``
        redirected back to its home server."""
        source = self.server(entry.target_switch, entry.target_serial)
        home = self.server(switch, entry.local_serial)
        redirected = source.stored_ids()
        belonging = [
            item_id for item_id, owned in zip(
                redirected, self._belong(home, redirected)) if owned
        ]
        if home.capacity is not None:
            free = home.capacity - home.load
            if len(belonging) > free:
                raise GredError(
                    f"cannot retract: server ({switch}, "
                    f"{entry.local_serial}) has {free} free slots but "
                    f"{len(belonging)} items must migrate back"
                )
        return self._check_move([source] * len(belonging), belonging,
                                [home], [0] * len(belonging))

    def _hash_pass(self, item_ids: Sequence[str]):
        """One digest pass: ``(positions, words)``; ``word mod s`` is
        an item's ``H(d) mod s``."""
        digests = sha256_digests(item_ids)
        if self._position_fn is data_position:
            positions = positions_from_digests(digests)
        else:
            positions = np.asarray(
                [self._position_fn(d) for d in item_ids], dtype=np.float64)
        return positions, serials_from_digests(digests)

    def _belong(self, server: EdgeServer,
                item_ids: Sequence[str]) -> List[bool]:
        """Per item id: would it be delivered to ``server`` with no
        extensions active?  One hashing pass, one nearest-switch pass,
        the serial from the digest head."""
        if not item_ids:
            return []
        positions, words = self._hash_pass(item_ids)
        dests = self.controller.routing_index().closest_many(positions)
        serials = words % np.uint64(len(self.server_map[server.switch]))
        return ((dests == server.switch)
                & (serials == server.serial)).tolist()

    # ------------------------------------------------------------------
    # network dynamics (paper Section VI)
    # ------------------------------------------------------------------
    def add_switch(self, switch_id: int, links: Sequence[int],
                   servers_per_switch: int = 0,
                   servers: Optional[List[EdgeServer]] = None) -> int:
        """A switch (optionally with servers) joins the network.

        Data stored on the DT neighbors of the new switch is re-evaluated
        and items now closest to the new switch migrate to it.  Returns
        the number of migrated items.  A move that cannot fit refuses
        the join with nothing changed (:meth:`_check_move`).
        """
        if self.topology.has_node(switch_id):
            raise GredError(
                f"cannot join switch {switch_id}: a switch with that id "
                f"already exists — pick an unused id"
            )
        unknown = [peer for peer in links
                   if not self.topology.has_node(peer)]
        if unknown:
            raise GredError(
                f"cannot join switch {switch_id}: link peer(s) {unknown} "
                f"do not exist in the topology"
            )
        if servers is None:
            servers = [
                EdgeServer(switch=switch_id, serial=i)
                for i in range(servers_per_switch)
            ]
        move = self.controller.add_switch(
            switch_id, list(links), servers,
            admit=(lambda neighbors, position: self._plan_move(
                [(server, server.stored_ids(), None)
                 for switch in neighbors
                 for server in self.server_map.get(switch, [])],
                joiner=(switch_id, position, servers))) if servers else None)
        return self._commit_move(move or ([], [], [], []), event=True)

    def remove_switch(self, switch_id: int) -> int:
        """A switch leaves gracefully; its stored items are re-placed
        onto the remaining network.  Returns the number of re-placed
        items.  (For an *ungraceful* crash — data lost, no migration —
        see :mod:`repro.faults`.)"""
        if not self.topology.has_node(switch_id):
            raise GredError(f"unknown switch {switch_id}")
        if self.topology.num_nodes() == 1:
            raise GredError(
                f"cannot remove switch {switch_id}: it is the last "
                f"switch and removing it would leave an empty network"
            )
        # What must move — the leaver's items and those its own
        # extensions redirected — is planned and checked once the
        # controller accepts the leave, before it changes anything.
        servers = self.server_map.get(switch_id, [])
        held = []
        for serial, home in enumerate(servers):
            held.append((home, home.stored_ids(), None))
            _, takeover = self._takeover(switch_id, serial)
            if takeover is not None:
                held.append((takeover, takeover.stored_ids(), serial))
        # Hints park from a surviving physical neighbor of the leaver
        # (a connected topology of two or more switches has one).
        entry = next(self.topology.neighbors(switch_id))
        moved = self._commit_move(self.controller.remove_switch(
            switch_id, admit=lambda: self._plan_move(
                held, leaver=switch_id, entry=entry)), event=True)
        for server in servers:
            # Hints parked here are other servers' pending writes and
            # deletes: they move on with the items, not into the void.
            for hint in server.take_hints():
                self._park_hint(hint.copy_id, hint.op, hint.target,
                                hint.stamp, hint.payload, entry)
            server.clear()
        return moved

    def _plan_move(self, held, joiner=None, leaver=None, entry=None):
        """Plan a join's or a leave's move, then :meth:`_check_move` it.

        ``held`` lists ``(server, item ids, rule)``.  One digest pass
        and one ``closest_many`` give each item its home after the
        event (``joiner = (switch, position, servers)`` counted in,
        ``leaver`` left out), so whether it moves and where are one
        decision.  Rule ``None`` moves the items whose home is not the
        server they sit on; a serial ``s`` those that were the leaver's
        server ``s``'s (its extension's redirects).  Each distinct home
        resolves once to itself or its live takeover, no hop counted.
        """
        ids = [item for _, items, _ in held for item in items]
        rows = np.repeat(np.arange(len(held)),
                         [len(items) for _, items, _ in held])
        if not ids:
            return self._check_move([], [], [], [])
        positions, words = self._hash_pass(ids)
        index = self.controller.routing_index()
        dests = index.closest_many(positions, drop=leaver)
        homes = self.server_map
        if joiner is not None:
            switch, position, servers = joiner
            dests[index.nearer(position, positions, dests)] = switch
            homes = {**homes, switch: servers}
        switches, at = np.unique(dests, return_inverse=True)
        serials = (words % np.asarray(
            [len(homes[s]) for s in switches.tolist()],
            dtype=np.uint64)[at]).astype(np.int64)
        sits = np.asarray([(server.switch, server.serial,
                            -1 if rule is None else rule)
                           for server, _, rule in held], dtype=np.int64)[rows]
        move = (dests != sits[:, 0]) | (serials != sits[:, 1])
        owned = np.flatnonzero(sits[:, 2] >= 0)
        if len(owned):
            move[owned] = index.nearer(
                self.controller.positions[leaver], positions[owned],
                dests[owned]) & (words[owned] % np.uint64(
                    len(homes[leaver])) == sits[owned, 2].astype(np.uint64))
        picked = np.flatnonzero(move)
        width = int(serials.max()) + 1
        keys, which = np.unique(dests[picked] * width + serials[picked],
                                return_inverse=True)
        targets = []
        for key in keys.tolist():
            dest, serial = divmod(key, width)
            _, takeover = self._takeover(dest, serial, gone=leaver)
            targets.append(homes[dest][serial] if takeover is None
                           else takeover)
        return self._check_move(
            [held[r][0] for r in rows[picked].tolist()],
            [ids[k] for k in picked.tolist()], targets, which, entry,
            leaver)

    def _check_move(self, sources, ids, targets, which, entry=None,
                    gone=None):
        """Check that item ``ids[k]`` can leave ``sources[k]`` for
        ``targets[which[k]]``; before any side effect, raise the error
        of the first item in plan order that could not land:
        ``StorageFull`` for a bounded target without room for the items
        new to it (no item leaving it is credited), ``GredError`` for a
        target down under the attached fault state — unless hinted
        handoff is on: those items park as hints on the live server
        nearest ``entry`` (default: their old switch; ``gone`` passed
        over).  Returns what :meth:`_commit_move` applies."""
        fault = self.fault_state
        stores, hints, failed = [], [], []
        for target, flats in _by_target(targets, which):
            if fault is not None and \
                    not fault.server_alive(target.server_id):
                if self.hinted_handoff:
                    hints.extend((flat, target.server_id) for flat in flats)
                    continue
                failed.append((flats[0], GredError(
                    f"cannot move {ids[flats[0]]!r}: target server "
                    f"{target.server_id} has crashed and has not been "
                    f"repaired yet")))
            elif target.capacity is not None:
                new: Dict[str, int] = {}  # id new to it -> its first row
                for flat in flats:
                    if not target.has(ids[flat]):
                        new.setdefault(ids[flat], flat)
                room = target.capacity - target.load
                if len(new) > room:
                    failed.append((list(new.values())[room], StorageFull(
                        target.server_id, target.capacity)))
            stores.append((target, flats))
        if failed:
            raise min(failed, key=lambda failure: failure[0])[1]
        parked = [(flat, target_id, self._hint_holder(
            ids[flat], sources[flat].switch if entry is None else entry,
            gone)) for flat, target_id in sorted(hints)]
        return sources, ids, stores, parked

    def _commit_move(self, move, event: bool = False) -> int:
        """Apply a checked move: one ``store_many`` per target server
        (plan order, payloads and stamps carried), the hints parked,
        then each item taken off its old server unless it landed back
        on it.  Returns how many items moved.  For a join or leave
        (``event``) they count on ``core.migrations``, and the compiled
        router is patched inside the event, even one that moved
        nothing: the next request finds it in step."""
        sources, ids, stores, parked = move
        for target, flats in stores:
            stamps = [sources[f].stamp_of(ids[f]) for f in flats]
            target.store_many([ids[f] for f in flats],
                              [sources[f].retrieve(ids[f]) for f in flats],
                              stamps if any(stamps) else None)
        for flat, target_id, holder in parked:
            source = sources[flat]
            self._park_hint(ids[flat], "store", target_id,
                            source.stamp_of(ids[flat]),
                            source.retrieve(ids[flat]), None, holder)
        for flat in [f for target, flats in stores for f in flats
                     if sources[f] is not target] + [f for f, _, _ in parked]:
            sources[flat].delete(ids[flat])
        if event and ids:
            default_registry().counter("core.migrations").inc(len(ids))
        if event and not batch_fastpath_blockers(self):
            self._fast_plane()
        return len(ids)

    # ------------------------------------------------------------------
    # evaluation helpers
    # ------------------------------------------------------------------
    def route_for(self, data_id: str, entry_switch: int) -> RouteResult:
        """Route a retrieval request without touching any storage (used
        by the routing-stretch experiments)."""
        return self._route_result(data_id, entry_switch)

    def trace_route(self, data_id: str, entry_switch: int):
        """Route a retrieval request with full decision tracing.

        Returns ``(RouteResult, Tracer)``; render the trace with
        ``tracer.render()`` for a per-hop explanation of the greedy
        decisions, virtual-link relays and the final delivery.
        """
        tracer = Tracer()
        return self._route_result(data_id, entry_switch, tracer), tracer

    def _route_result(self, data_id: str, entry: int,
                      tracer=None) -> RouteResult:
        trace, overlay, dest, serial, extension, _ = self._route(
            data_id, entry, PacketKind.RETRIEVAL, tracer=tracer)
        return RouteResult(
            delivery=DeliverAction(dest, serial, extension),
            trace=trace, physical_hops=len(trace) - 1,
            overlay_hops=overlay)

    def destination_switch(self, data_id: str) -> int:
        """The switch that owns ``data_id`` (no routing simulated)."""
        return self.controller.closest_switch(
            self._position_fn(data_id))

    def _entry_pool(self) -> List[int]:
        """The switches a request may enter at: every live one that
        hosts a server (a relay-only switch is no access point)."""
        ids = [s for s in self.switch_ids() if self.server_map.get(s)]
        fault = self.fault_state
        if fault is not None:
            ids = [s for s in ids if fault.switch_alive(s)]
        return ids

    def _resolve_entry(self, entry_switch: Optional[int],
                       rng: Optional[np.random.Generator]) -> int:
        """A live entry switch as an exact ``int`` (drawn when ``None``;
        the batch front door's :func:`entry_index` rule otherwise)."""
        if entry_switch is None:
            return draw_entries(self._entry_pool(), 1, rng)[0]
        if type(entry_switch) is not int:
            entry_switch = entry_index(entry_switch)
        servers = self.server_map.get(entry_switch)
        if servers is None:
            raise GredError(f"unknown entry switch {entry_switch}")
        if not servers:
            raise GredError(
                f"entry switch {entry_switch} hosts no server; relay-only "
                f"switches are not access points")
        fault = self.fault_state
        if fault is not None and not fault.switch_alive(entry_switch):
            raise GredError(
                f"entry switch {entry_switch} has crashed; requests "
                f"must enter at a live access point"
            )
        return entry_switch
