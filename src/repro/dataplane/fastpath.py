"""The compiled greedy router behind every healthy request, batch or
scalar.

``route_packet`` is faithful to the paper's per-switch pipeline — one
``Packet`` object, one ``process`` call and one candidate sort per hop —
which is the right shape for fault injection but dominates the request
latency of every workload.  ``CompiledRouter`` flattens the
per-switch state (positions, greedy candidate lists, relay chains) into
plain tuples once per control-plane epoch and replays the *identical*
decision procedure with no per-packet object construction:

* greedy stage: minimal ``((d^2, x, y), kind, nid)`` candidate strictly
  closer than the current switch, physical (kind 0) before DT-only
  (kind 1), exactly Algorithm 2's comparison;
* virtual links: the relay chain toward a DT-only neighbor is resolved
  from the switches' installed ``VirtualLinkEntry`` tuples on first use
  and cached for the epoch;
* delivery: ``H(d) mod s`` server selection from the precomputed 64-bit
  digest prefix; extension entries are looked up live (range
  extensions come and go without an epoch bump).

:meth:`CompiledRouter.route` walks one request — it is what the
facade's scalar route stage (``place`` / ``retrieve`` / ``route_for``)
runs; :meth:`~CompiledRouter.route_batch_packed` advances a whole
batch in switch-grouped *waves* — every request parked at the same
switch shares one vectorized candidate evaluation — which amortizes the
per-hop decision to a few numpy operations per group.  A wave carries only what cannot fail.
There is one scalar loop, :meth:`CompiledRouter._walk`: ``route``
starts it at the entry switch, and the wave router hands it, mid-route,
the last few in-flight requests of a batch and every request it cannot
advance exactly (a switch without servers, a neighbor or relay chain
the plane lacks, the hop bound) — so each routing failure is decided,
and worded, in the walker and nowhere else.

The router is rebuilt when the control plane recomputes (callers key it
on :attr:`Controller.epoch`) and patched row by row on scoped events
(:meth:`CompiledRouter.patch`, keyed on :attr:`Controller.version`).
It assumes a plane no routing fault touches (an attached fault state
whose faults are all absorbed is one) and the paper's SHA-256 positions:
:data:`FASTPATH_GATES` lists the conditions under which batches *and*
scalar requests stand down to ``route_packet`` instead
(:func:`batch_fastpath_blockers`, :func:`scalar_standdown`), and
nothing else does: a per-hop ``Tracer`` hears the walker's own
decisions (``narrate``).  It raises the same :class:`ForwardingError`
messages as the reference engine on inconsistent state.
"""

from __future__ import annotations

from itertools import chain as _concat
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..hashing import data_position
from ..hashing.batch import _MAX_U32
from ..obs import default_registry
from .switch import ForwardingError, GredSwitch
from .tracing import TraceEventKind


#: Stand-down reason of the fault gate (with ``_`` for spaces, the
#: ``reason`` label of both stand-down counters).
UNABSORBED_FAULT = "unabsorbed routing fault"


def _gate_fault_state(net) -> bool:
    """Whether a routing fault touches the installed plane: a crashed
    switch the controller still holds, a down link still in its
    topology, or an active partition — exactly when ``route_packet(
    fault_state=...)`` can decide differently from the fault-free
    engines (it re-decides only a hop whose next switch is crashed,
    behind a down link or across a partition, and installed rules
    forward only to installed switches over topology links).  Read
    from the live sets on every request — tests and snapshots mutate
    them directly, so there is no verdict to cache — in a few probes
    per standing fault."""
    fault = net.fault_state
    if fault is None:
        return False
    controller = net.controller
    if fault.partitions or not controller.switches.keys().isdisjoint(
            fault.crashed_switches):
        return True
    for link in fault.down_links:
        if controller.topology.has_edge(*link):
            return True
    return False


def unabsorbed_faults(net) -> Dict[str, list]:
    """What :func:`_gate_fault_state` fires on, for operators: crashed
    switches still installed and down links still in the topology
    (``absorb_failures`` / ``FailureDetector.repair`` clears both),
    partitioned switches (``heal_partition``).  All empty = quiet."""
    fault, controller = net.fault_state, net.controller
    crashed, down, split = ((), (), ()) if fault is None else (
        fault.crashed_switches, fault.down_links, fault.partitions)
    return {
        "crashed_switches": sorted(
            s for s in crashed if s in controller.switches),
        "down_links": sorted(
            list(k) for k in down if controller.topology.has_edge(*k)),
        "partitioned_switches": sorted(split),
    }


def _gate_position_fn(net) -> bool:
    return net._position_fn is not data_position


def _gate_transport(net) -> bool:
    # Over a (possibly lossy) southbound transport the live switches
    # can change with no version advance — retried, reordered or
    # held-over messages, ``reconcile`` resyncs — so a compiled
    # snapshot of them cannot be kept in step.
    return net.controller.transport is not None


#: The single source of truth for fast-path eligibility: ``(predicate,
#: reason)`` gates evaluated against the facade.  A request — a batch
#: or one scalar call — may ride the compiled plane iff no predicate
#: fires, and nothing else selects the engine.  The facade's two route
#: stages, :func:`batch_fastpath_blockers` and :func:`scalar_standdown`
#: all consume this list (looked up at call time), so they can never
#: drift apart again (they did once: telemetry stopped blocking the
#: fast path in PR 6 and only one copy was updated at first).
FASTPATH_GATES: Tuple[Tuple[Callable[[object], bool], str], ...] = (
    (_gate_fault_state, UNABSORBED_FAULT),
    (_gate_position_fn, "custom position_fn"),
    (_gate_transport, "southbound transport attached"),
)


def batch_fastpath_blockers(net) -> List[str]:
    """Why ``place_many``/``retrieve_many`` would currently fall back
    to the scalar reference pipeline for ``net`` (empty = fast path
    eligible).

    Evaluates :data:`FASTPATH_GATES` — the list the facade's batch
    prologue and scalar route stage select the engine by — so
    operators can see *which* condition is costing them the compiled
    plane (``gred stats --json`` surfaces this list).
    """
    return [reason for gate, reason in FASTPATH_GATES if gate(net)]


def scalar_standdown(net) -> Optional[str]:
    """Why one scalar ``place`` / ``retrieve`` / ``route_for`` on
    ``net`` takes the reference engine (``route_packet``) instead of
    the compiled walker — the first of
    :func:`batch_fastpath_blockers` — or ``None`` = compiled.  It
    stops at the first gate that fires and builds no list: the scalar
    route stage asks on every request."""
    for gate, reason in FASTPATH_GATES:
        if gate(net):
            return reason
    return None


#: ``route_batch_packed`` hands stragglers to the scalar walker once
#: the active set is this small — whole-batch numpy dispatch no longer
#: amortizes over a handful of in-flight requests.
_WAVE_MIN_ACTIVE = 96

#: Rows of a wave whose candidates are evaluated at once.  The
#: ``(rows, widest switch)`` distance matrices are scratch buffers
#: reused block by block, so a wave's working set is this many rows
#: however large the batch (whole batches are *not* chunked: every
#: chunk would pay its own straggler tail).
_WAVE_BLOCK_ROWS = 1024

#: Cells of the scratch matrices :func:`_steps` evaluates a detached
#: plane in: its planes are a few candidates wide, so blocks hold
#: more rows than the waves' 1,024.  64 KiB a matrix: larger ones are
#: fresh pages on every call (of 2^11 .. 2^16 cells, 2^13 was fastest
#: on a sweep's 800-4,400 visits, by 1.3-2x over 2^16).
_STEP_BLOCK_CELLS = 1 << 13

#: ``(trace, overlay_hops, destination_switch, primary_serial,
#: (greedy_forwards, vl_starts, vl_relays))`` — a delivered route with
#: its decision mix — or the error the reference engine would raise.
RouteOutcome = Union[
    Tuple[List[int], int, int, int, Tuple[int, int, int]],
    ForwardingError]


#: What a free row and a pad cell of the wave plane hold, per array.
#: Pad cells sit at ``+inf`` (their squared distance never wins the
#: argmin against a finite target) with kind 2 / nid -1 sentinels.
_PAD = {"sid": -1, "ox": np.inf, "oy": np.inf, "ns": 0,
        "cx": np.inf, "cy": np.inf, "kind": 2, "nid": -1, "nrow": -1,
        "chain_off": -1, "chain_len": 0, "chain_err": 0}
_ROW_ARRAYS = ("sid", "ox", "oy", "ns")
_PLANE_HELP = {"rows": "Wave-plane rows per sync: written or carried",
               "chains": "Chain cells per sync: resolved or carried"}


class _FlatPlane:
    """Dense, padded form of the whole switch plane for wave routing:
    a table of stable row slots (``slot[sid]``), synced in place.

    A leaver's row is cleared to :data:`_PAD` and reused by a later
    joiner; ``lookup_sid`` (sorted) / ``lookup_row`` map ids to rows.
    Every candidate list is right-padded to the widest switch so one
    fancy gather yields the candidate block of all in-flight requests
    at once; ``nrow`` is a candidate's row (-1: not in the plane) and
    ``ns`` the servers a request parked on the row can be delivered to
    (zero on a relay-only switch).  A virtual-link cell's relay chain
    is a CSR run (``chain_off`` / ``chain_len`` into ``chain_sids``);
    ``chain_err`` flags one that does not resolve, which the wave
    router hands to the scalar walker to resolve again and raise.
    """

    __slots__ = ("slot", "free", "lookup_sid", "lookup_row", "chain_sids",
                 *_PAD)

    def __init__(self) -> None:
        self.slot: Dict[int, int] = {}
        self.free: List[int] = []
        self.lookup_sid = self.lookup_row = self.chain_sids = np.empty(
            0, dtype=np.int64)
        for name, pad in _PAD.items():
            setattr(self, name, np.full(
                (0,) if name in _ROW_ARRAYS else (0, 1), pad,
                dtype=np.float64 if isinstance(pad, float) else np.int64))

    def rows_of(self, sids: np.ndarray) -> np.ndarray:
        """The row of each switch id in ``sids``, -1 where absent."""
        keys = self.lookup_sid
        if not keys.size:
            return np.full(np.shape(sids), -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(keys, sids), keys.size - 1)
        return np.where(keys[at] == sids, self.lookup_row[at], -1)

    def sync(self, states: Dict[int, _CompiledSwitch], dirty,
             pruned: Optional[set], resolver) -> None:
        """Bring the plane in step with ``states``: free the rows of the
        ``dirty`` switches that left, seat the joiners (free rows
        first), rewrite every dirty row in one scatter, then re-resolve
        the virtual-link cells whose chain may differ — those in dirty
        rows, those of a ``(source, dest)`` key in ``pruned`` (every
        cell when ``None``) and every failed one (failures are not
        cached).  Every other row and chain is carried as it stands."""
        slot, free = self.slot, self.free
        left = [sid for sid in dirty if sid in slot and sid not in states]
        gone = [slot.pop(sid) for sid in left]
        live = sorted(sid for sid in dirty if sid in states)
        joined = [sid for sid in live if sid not in slot]
        free.extend(gone)
        for sid in joined:
            slot[sid] = free.pop() if free else len(slot)
        compiled = [states[sid] for sid in live]
        lens, cx, cy, kind, nid = _cell_columns(
            [state.cands for state in compiled])
        rows, size = len(slot) + len(free), self.sid.size
        width = max(self.kind.shape[1], lens.max(initial=0))
        if rows > size or width > self.kind.shape[1]:
            rows = max(rows, 2 * size) if rows > size else size
            for name, pad in _PAD.items():  # grow, content kept
                old = getattr(self, name)
                new = np.full((rows, width)[:old.ndim], pad, dtype=old.dtype)
                new[tuple(map(slice, old.shape))] = old
                setattr(self, name, new)
        at = np.asarray(gone + [slot[sid] for sid in live], dtype=np.int64)
        for name, pad in _PAD.items():
            getattr(self, name)[at] = pad
        at = at[len(gone):]
        r, c = np.repeat(at, lens), _ragged_arange(lens)
        self.sid[at] = live
        self.ox[at] = [state.x for state in compiled]
        self.oy[at] = [state.y for state in compiled]
        self.ns[at] = [s.num_servers if s.in_dt else 0 for s in compiled]
        self.cx[r, c], self.cy[r, c] = cx, cy
        self.kind[r, c], self.nid[r, c] = kind, nid
        if left or joined:
            pairs = np.asarray(sorted(slot.items()), dtype=np.int64)
            self.lookup_sid, self.lookup_row = pairs.reshape(-1, 2).T.copy()
            stale = np.isin(self.nid, left + joined)  # a leaver or joiner
            self.nrow[stale] = self.rows_of(self.nid[stale])
        self.nrow[r, c] = self.rows_of(self.nid[r, c])
        resolved, links = self._resolve(at, pruned, resolver)
        self._assert_invariants()
        registry = default_registry()
        for name, outcome, value in (
                ("rows", "written", len(live)),
                ("rows", "carried", len(slot) - len(live)),
                ("chains", "resolved", resolved),
                ("chains", "carried", links - resolved)):
            registry.counter("dataplane.plane." + name, outcome=outcome,
                             help=_PLANE_HELP[name]).inc(value)

    def _resolve(self, rows: np.ndarray, pruned: Optional[set],
                 resolver) -> Tuple[int, int]:
        """Re-resolve the virtual-link cells :meth:`sync` names (dirty
        ``rows`` among them), append their chains to ``chain_sids`` and
        compact it once dead ids outnumber live ones.  Returns
        ``(cells resolved, virtual-link cells)``."""
        vl = self.kind == 1
        redo = vl.copy() if pruned is None else vl & (self.chain_err != 0)
        redo[rows] = vl[rows]
        if pruned:
            keys = np.fromiter(_concat.from_iterable(pruned),
                               np.int64).reshape(-1, 2)
            src = self.rows_of(keys[:, 0])
            keys, src = keys[src >= 0], src[src >= 0]
            hit, col = np.nonzero(vl[src] & (self.nid[src] == keys[:, 1:]))
            redo[src[hit], col] = True
        rr, cc = np.nonzero(redo)
        off, length, run = [], [], []
        base = self.chain_sids.size
        for source, dest in zip(self.sid[rr].tolist(),
                                self.nid[rr, cc].tolist()):
            chain, broken = resolver(source, dest)
            off.append(-1 if broken else base + len(run))
            length.append(0 if broken else len(chain))
            run.extend(() if broken else chain)
        self.chain_off[rr, cc] = off
        self.chain_len[rr, cc] = length
        self.chain_err[rr, cc] = np.asarray(off, dtype=np.int64) < 0
        sids = np.append(self.chain_sids, np.asarray(run, dtype=np.int64))
        held = np.nonzero(self.chain_len)
        lens = self.chain_len[held]
        if sids.size > 2 * lens.sum():
            sids = sids[np.repeat(self.chain_off[held], lens)
                        + _ragged_arange(lens)]
            self.chain_off[held] = np.cumsum(lens) - lens
        self.chain_sids = sids
        return int(rr.size), int(vl.sum())

    def _assert_invariants(self) -> None:
        """Dtype invariant of the compile step: every id/count plane
        is ``int64`` and every coordinate plane ``float64``.  Mixing a
        ``uint64`` array into int64 arithmetic silently promotes the
        result to ``float64``, which corrupts exact comparisons above
        2**53 — ``ns`` shipped as uint64 once, so the invariant is now
        enforced on every sync."""
        for name in ("lookup_sid", "lookup_row", "chain_sids", *_PAD):
            dtype, want = getattr(self, name).dtype, np.int64
            if isinstance(_PAD.get(name), float):
                want = np.float64
            if dtype != want:
                raise AssertionError(f"_FlatPlane.{name} must be "
                                     f"{want.__name__}, got {dtype}")


class _CompiledSwitch:
    """Per-switch state flattened for the hot loop."""

    __slots__ = ("x", "y", "in_dt", "num_servers", "cands", "table")

    def __init__(self, switch: GredSwitch) -> None:
        self.x = switch.position[0]
        self.y = switch.position[1]
        self.in_dt = switch.in_dt
        self.num_servers = switch.num_servers
        self.table = switch.table
        # (x, y, kind, nid): physical candidates (kind 0) and DT-only
        # candidates (kind 1), mirroring the two scans of the greedy
        # stage.  Neighbors present in both sets are physical-only,
        # like the reference pipeline.  Sorted by (x, y, kind, nid) so
        # a first-occurrence argmin over squared distances selects the
        # same winner as the scalar lexicographic comparison.
        cands: List[Tuple[float, float, int, int]] = []
        for nid, pos in switch.physical_neighbor_positions.items():
            cands.append((pos[0], pos[1], 0, nid))
        for nid, pos in switch.dt_neighbor_positions.items():
            if nid not in switch.physical_neighbor_positions:
                cands.append((pos[0], pos[1], 1, nid))
        cands.sort()
        self.cands = cands


def _cell_columns(cand_lists: Sequence[list]) -> tuple:
    """``(lens, x, y, kind, nid)``: the length of each candidate list
    and every candidate cell, back to back."""
    lens = np.asarray([len(cands) for cands in cand_lists], dtype=np.int64)
    cells = [cell for cands in cand_lists for cell in cands]
    cx, cy = np.fromiter(_concat.from_iterable(
        cell[:2] for cell in cells), np.float64).reshape(-1, 2).T
    kind, nid = np.fromiter(_concat.from_iterable(
        cell[2:] for cell in cells), np.int64).reshape(-1, 2).T
    return lens, cx, cy, kind, nid


def _plane_of(switches: Sequence[Tuple[float, float, list]]) -> _FlatPlane:
    """A detached plane whose row ``i`` holds ``switches[i]``'s
    position and padded (sorted) candidate cells — no ids, servers or
    chains: enough to decide a greedy step there (:func:`_steps`)."""
    plane = _FlatPlane.__new__(_FlatPlane)  # (none of the sync's arrays)
    lens, cx, cy, kind, nid = _cell_columns([s[2] for s in switches])
    shape = (len(switches), max(1, int(lens.max(initial=0))))
    r, c = np.repeat(np.arange(len(switches)), lens), _ragged_arange(lens)
    plane.ox = np.asarray([s[0] for s in switches], dtype=np.float64)
    plane.oy = np.asarray([s[1] for s in switches], dtype=np.float64)
    for name, cells in (("cx", cx), ("cy", cy), ("kind", kind),
                        ("nid", nid)):
        block = np.full(shape, _PAD[name], dtype=cells.dtype)
        block[r, c] = cells
        setattr(plane, name, block)
    return plane


class _PlaneChanges:
    """What :meth:`CompiledRouter.patch` changed since the router last
    handed its changes over (:meth:`CompiledRouter.take_changes`): the
    compiled state every touched switch had then (``None``: absent)
    and the relay run of every chain it pruned.  The route memo's
    sweep asks it which memoized routes a fresh walk on the patched
    plane could give back differently (:meth:`RouteMemo.sweep`)."""

    __slots__ = ("_router", "_replaced", "_runs")

    def __init__(self, router: "CompiledRouter",
                 replaced: Dict[int, Optional[_CompiledSwitch]],
                 runs: Dict[Tuple[int, int], Tuple[int, ...]]) -> None:
        self._router = router
        self._replaced = replaced
        self._runs = runs

    def alters(self, touched: np.ndarray, which: np.ndarray,
               bits_of) -> np.ndarray:
        """Whether the walker's step at switch ``touched[which[i]]``,
        toward the position of bits ``bits_of(i)`` (``i`` an index
        array), may differ from the step it took there before.  Always
        where the switch joined, left, moved or flipped relay-only, or
        was never handed over; never where its candidates are
        unchanged or it stayed relay-only (it never decides);
        elsewhere exactly: the winner under the old state against the
        winner under the new, with delivery the switch's own win.  A
        server count the step does not read — the destination's is
        the sweep's to check."""
        states = self._router._states
        # Per touched switch: -2 = may alter, -1 = cannot, else its
        # row among the compared.
        codes, olds, news, moved = [], [], [], []
        for sid in touched.tolist():
            old, new = self._replaced.get(sid), states.get(sid)
            if (old is None or new is None or old.in_dt != new.in_dt
                    or (old.x, old.y) != (new.x, new.y)):
                codes.append(-2)
            elif not new.in_dt or old.cands == new.cands:
                codes.append(-1)
            else:
                codes.append(len(olds))
                olds.append((old.x, old.y, old.cands))
                news.append((new.x, new.y, new.cands))
                moved.append((old.x, old.y, sorted(
                    set(old.cands).symmetric_difference(new.cands))))
        slot = np.asarray(codes, dtype=np.int64)[which]
        verdict = slot == -2
        pick = np.flatnonzero(slot >= 0)
        if not pick.size:
            return verdict
        bits = bits_of(pick)
        tx = (bits >> np.uint64(32)).astype(np.float64) / _MAX_U32
        ty = (bits & np.uint64(_MAX_U32)).astype(np.float64) / _MAX_U32
        rows = slot[pick]
        # The winner changes only where a candidate gained or lost
        # beats the switch itself (either winner does): decided on the
        # few moved candidates alone.
        near = np.flatnonzero(_steps(_plane_of(moved), rows, tx, ty)[0] != 2)
        verdict[pick] = False
        pick, rows, tx, ty = pick[near], rows[near], tx[near], ty[near]
        kind, nid = _steps(_plane_of(olds + news),
                           np.concatenate((rows, rows + len(olds))),
                           np.tile(tx, 2), np.tile(ty, 2))
        n = pick.size
        verdict[pick] = (kind[:n] != kind[n:]) | (nid[:n] != nid[n:])
        return verdict

    def runs(self) -> List[np.ndarray]:
        """``(source, relays ...)`` of every pruned chain whose relay
        run the patched plane resolves differently, or not at all (read
        from the wave plane's own re-resolution: no chain is walked
        again)."""
        router = self._router
        if not self._runs:
            return []
        router._ensure_flat()
        chains = router._chains
        return [np.asarray((key[0],) + run, dtype=np.int64)
                for key, run in self._runs.items()
                if chains.get(key) != run]

    def servers(self, sids: np.ndarray) -> np.ndarray:
        """The servers a request delivered at each of ``sids`` is now
        reduced by (0 on a relay-only switch, -1 off the plane)."""
        flat = self._router._ensure_flat()
        rows = flat.rows_of(sids)
        return np.where(rows >= 0, flat.ns[rows], -1)


class _RouteFailure(Exception):
    """A compiled walk's failure as ``(code, args)`` — see
    :func:`_error_text`."""


#: Every ``ForwardingError`` message of the compiled engine, keyed by
#: failure code; each is byte-identical to what ``route_packet`` raises
#: in the same state.
_ERROR_FORMATS = {
    "entry": "unknown entry switch {0}",
    "relay_only": "greedy stage reached relay-only switch {0}",
    "no_servers": ("switch {0} must deliver {data_id!r} "
                   "but has no attached servers"),
    "unknown_fwd": "switch {0} forwarded to unknown switch {1}",
    # The trace lists the switches processed, which excludes the one
    # whose arrival breached the bound.
    "hop_bound": ("hop bound {0} exceeded routing {data_id!r} "
                  "(trace {1})"),
    "no_vl_entry": ("switch {0} has no virtual-link entry "
                    "toward DT neighbor {1}"),
    "no_relay_entry": ("switch {0} has no relay entry toward "
                       "virtual-link destination {1}"),
    "vl_unterminated": ("virtual link {0}->{1} does not "
                        "terminate within {2} relays"),
}


def _error_text(code: str, args: tuple, data_id: str) -> str:
    """Format a routing failure.  Walks record ``(code, args)`` and
    the request id joins them here — the wave router never sees ids,
    and the scalar walker formats nothing on its hot path."""
    return _ERROR_FORMATS[code].format(*args, data_id=data_id)


def _ragged_arange(lens: np.ndarray) -> np.ndarray:
    """``[0..lens[0]), [0..lens[1]), ...`` concatenated."""
    total = int(lens.sum())
    out = np.arange(total, dtype=np.int64)
    return out - np.repeat(np.cumsum(lens) - lens, lens)


class _PackedRoutes:
    """Array-of-struct result of one packed batch walk.

    Every per-request outcome lives in a parallel array: delivered
    requests carry ``dest >= 0`` plus the ``H(d) mod s`` serial and a
    ``trace_flat[off[j]:off[j+1]]`` switch trace; failed requests
    carry a coded entry in ``errors`` (or an index in
    ``hop_failures``) that :meth:`materialize` formats into the
    byte-identical :class:`ForwardingError` lazily.
    """

    __slots__ = ("k", "dest", "serial", "servers", "overlay", "greedy",
                 "vl", "relays", "known", "tlen", "off", "trace_flat",
                 "errors", "hop_failures", "waves")

    def __init__(self, k: int) -> None:
        self.k = k
        self.dest = np.full(k, -1, dtype=np.int64)
        self.serial = np.zeros(k, dtype=np.int64)
        #: Server count of the delivery switch — the ``s`` the serial
        #: was reduced by (what the route memo keeps instead of it).
        self.servers = np.zeros(k, dtype=np.int64)
        self.overlay = np.zeros(k, dtype=np.int64)
        #: Per-request ``greedy / vl_starts / vl_relays`` decision mix
        #: with the reference engine's event timing (a failed request
        #: holds its partial counts).
        self.greedy = np.zeros(k, dtype=np.int64)
        self.vl = np.zeros(k, dtype=np.int64)
        self.relays = np.zeros(k, dtype=np.int64)
        #: False for unknown-entry requests: the scalar walker raises
        #: before fetching counters, so they carry no mix at all.
        self.known = np.ones(k, dtype=bool)
        # Trace lengths start at 1: the entry switch leads every trace.
        self.tlen = np.ones(k, dtype=np.int64)
        self.off: Optional[np.ndarray] = None
        self.trace_flat: Optional[np.ndarray] = None
        #: ``(request_index, code, args)`` deferred errors.
        self.errors: List[Tuple[int, str, tuple]] = []
        #: Request indices that breached the hop bound (their message
        #: needs the assembled trace, hence a separate channel).
        self.hop_failures: List[int] = []
        self.waves = 0

    def finish(self, entries_arr: np.ndarray, segs: List[tuple]) -> None:
        """Assemble the flat trace array from the walk's per-wave
        segments with cumsum offsets + scatter stores — the step that
        replaces ~one Python ``list.append`` per request per hop."""
        k = self.k
        off = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(self.tlen, out=off[1:])
        trace_flat = np.empty(int(off[k]), dtype=np.int64)
        cursor = off[:k].copy()
        trace_flat[cursor] = entries_arr
        cursor += 1
        for seg in segs:
            tag = seg[0]
            if tag == 0:
                # One greedy step for a wave: (0, indices, next_sids).
                _, idx, sids = seg
                trace_flat[cursor[idx]] = sids
                cursor[idx] += 1
            elif tag == 1:
                # Relay chains: (1, indices, csr_off, lens, csr_sids).
                _, idx, coff, clen, csr = seg
                inner = _ragged_arange(clen)
                trace_flat[np.repeat(cursor[idx], clen) + inner] = \
                    csr[np.repeat(coff, clen) + inner]
                cursor[idx] += clen
            else:
                # Straggler continuation: (2, index, [sids...]).
                _, j, lst = seg
                start = cursor[j]
                trace_flat[start:start + len(lst)] = lst
                cursor[j] += len(lst)
        self.off = off
        self.trace_flat = trace_flat

    def columns(self) -> tuple:
        """``(dest, serial, overlay, greedy, vl, relays, trace lengths,
        traces)``: the per-request columns and the flat array the
        traces lie in back to back — the shape the batch route stage
        merges with :meth:`RouteMemo.take`."""
        return (self.dest, self.serial, self.overlay, self.greedy,
                self.vl, self.relays, self.tlen, self.trace_flat)

    def materialize(self, data_ids: Sequence[str],
                    max_hops: int) -> List[RouteOutcome]:
        """The list view of the packed arrays (tests and the traced
        benchmark read it; the batch bodies consume the columns):
        :meth:`CompiledRouter.route`'s outcomes, ``(trace,
        overlay_hops, destination, serial, decision mix)`` tuples or
        the exact :class:`ForwardingError` it would have raised."""
        results: List[Optional[RouteOutcome]] = [None] * self.k
        for j, code, args in self.errors:
            results[j] = ForwardingError(
                _error_text(code, args, data_ids[j]))
        flat_list = self.trace_flat.tolist()
        off = self.off.tolist()
        for j in self.hop_failures:
            results[j] = ForwardingError(_error_text(
                "hop_bound",
                (max_hops, flat_list[off[j]:off[j + 1] - 1]),
                data_ids[j]))
        for j, (d, serial, overlay, *mix) in enumerate(zip(
                self.dest.tolist(), self.serial.tolist(),
                self.overlay.tolist(), self.greedy.tolist(),
                self.vl.tolist(), self.relays.tolist())):
            if d >= 0:
                results[j] = (flat_list[off[j]:off[j + 1]], overlay, d,
                              serial, tuple(mix))
        return results


def _nearest_candidates(flat: _FlatPlane, rows: np.ndarray,
                        tx: np.ndarray, ty: np.ndarray, scratch
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """For every in-flight request (parked at plane row ``rows[i]``,
    bound for ``(tx[i], ty[i])``): the column of its switch's
    candidate nearest the target (first occurrence, i.e. the scalar
    sort order) and that squared distance.  Evaluated as many requests
    at a time as the two ``scratch`` matrices have rows (the waves':
    :data:`_WAVE_BLOCK_ROWS`) — the same float operations as one
    whole-wave expression, without its whole-wave temporaries."""
    n, block = rows.size, max(1, scratch[0].shape[0])
    best = np.empty(n, dtype=np.intp)
    bd2 = np.empty(n, dtype=np.float64)
    for a in range(0, n, block):
        b = min(a + block, n)
        dx, dy = (buf[:b - a] for buf in scratch)
        np.take(flat.cx, rows[a:b], axis=0, out=dx, mode="clip")
        np.take(flat.cy, rows[a:b], axis=0, out=dy, mode="clip")
        dx -= tx[a:b, None]
        dy -= ty[a:b, None]
        dx *= dx
        dy *= dy
        dx += dy
        dx.argmin(axis=1, out=best[a:b])
        # The minimum read at the argmin: a second reduction along
        # the short candidate axis costs as much again.
        bd2[a:b] = np.take_along_axis(dx, best[a:b, None], axis=1)[:, 0]
    return best, bd2


def _improving(flat: _FlatPlane, rows: np.ndarray, tx: np.ndarray,
               ty: np.ndarray, scratch) -> Tuple[np.ndarray, np.ndarray]:
    """The greedy step of every request parked at plane row
    ``rows[i]``, bound for ``(tx[i], ty[i])``: the column of its
    switch's nearest candidate (:func:`_nearest_candidates`) and
    whether that candidate improves strictly on the switch's own key
    — the walker's ``((d^2, x, y), kind, nid)`` comparison."""
    ox = flat.ox[rows]
    oy = flat.oy[rows]
    dx = ox - tx
    dy = oy - ty
    od2 = dx * dx + dy * dy
    best, bd2 = _nearest_candidates(flat, rows, tx, ty, scratch)
    improved = bd2 < od2
    ties = bd2 == od2
    if ties.any():
        # The scalar walker's sentinel kind makes a full (d^2, x, y)
        # tie win for the candidate, hence ``<=`` on ``y``.  (Pad
        # cells are at +inf and cannot tie.)
        t = np.flatnonzero(ties)
        bx = flat.cx[rows[t], best[t]]
        by = flat.cy[rows[t], best[t]]
        improved[t] |= (bx < ox[t]) | ((bx == ox[t]) & (by <= oy[t]))
    return best, improved


def _steps(plane: _FlatPlane, rows: np.ndarray, tx: np.ndarray,
           ty: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(kind, nid)`` of the walker's winner at plane row ``rows[i]``
    toward ``(tx[i], ty[i])``: the improving candidate's, or
    ``(2, -1)`` — the switch itself, which delivers."""
    width = plane.cx.shape[1]
    block = min(rows.size, max(1, _STEP_BLOCK_CELLS // width))
    scratch = [np.empty((block, width)) for _ in range(2)]
    best, improved = _improving(plane, rows, tx, ty, scratch)
    return (np.where(improved, plane.kind[rows, best], 2),
            np.where(improved, plane.nid[rows, best], -1))


def _route_batch_packed(flat: _FlatPlane, walk,
                        entries_arr: np.ndarray,
                        pxs: np.ndarray, pys: np.ndarray,
                        serial_u64s: np.ndarray, max_hops: int
                        ) -> _PackedRoutes:
    """Advance a whole batch over the dense plane in switch-grouped
    waves, keeping every per-request output in numpy arrays.

    Needs only the plane and the request arrays (entries, positions,
    64-bit digest serials) — no request ids — and returns a
    :class:`_PackedRoutes`.  A wave takes the healthy step only:
    candidate argmin, tie rule, then deliver, step to a physical
    neighbor or cross a whole relay chain.  Every request it cannot
    advance exactly — and, once fewer than :data:`_WAVE_MIN_ACTIVE`
    are in flight, every straggler — finishes on ``walk`` (the
    router's :meth:`CompiledRouter._walk`, the loop every scalar
    request runs) from the switch where it stands, with the hop count
    the waves accumulated: the walker decides, and words, every
    routing failure but an unknown entry switch.
    """
    k = int(entries_arr.size)
    packed = _PackedRoutes(k)
    dest, serial, servers = packed.dest, packed.serial, packed.servers
    overlay, tlen = packed.overlay, packed.tlen
    g_arr, v_arr, r_arr = packed.greedy, packed.vl, packed.relays
    hops = np.zeros(k, dtype=np.int64)
    segs: List[tuple] = []
    scratch = [np.empty((min(k, _WAVE_BLOCK_ROWS), flat.cx.shape[1]))
               for _ in range(2)]
    current = flat.rows_of(entries_arr)
    known = packed.known = current >= 0
    if known.all():
        active = np.arange(k, dtype=np.int64)
    else:
        active = np.flatnonzero(known)
        for j, entry in zip(np.flatnonzero(~known).tolist(),
                            entries_arr[~known].tolist()):
            packed.errors.append((j, "entry", (entry,)))

    def finish_on_walker(idx: np.ndarray) -> None:
        """Requests ``idx`` leave the waves: the scalar walker takes
        each from where it stands (same outcome, no re-walk) and its
        verdict — delivery, or the failure with the partial mix and
        trace up to it — lands in the packed arrays."""
        for j, sid, hop, px, py, su64 in zip(
                idx.tolist(), flat.sid[current[idx]].tolist(),
                hops[idx].tolist(), pxs[idx].tolist(),
                pys[idx].tolist(), serial_u64s[idx].tolist()):
            trace = [sid]
            stats = [0, 0, 0]
            try:
                hops_over, dest[j], serial[j] = walk(
                    trace, hop, px, py, su64, max_hops, stats)
                overlay[j] += hops_over
            except _RouteFailure as failure:
                code, args = failure.args
                if code == "hop_bound":
                    # Formatted at materialize time: the message
                    # needs the wave prefix of the trace too.
                    packed.hop_failures.append(j)
                else:
                    packed.errors.append((j, code, args))
            g_arr[j] += stats[0]
            v_arr[j] += stats[1]
            r_arr[j] += stats[2]
            if len(trace) > 1:
                segs.append((2, j, trace[1:]))
                tlen[j] += len(trace) - 1
        done = idx[dest[idx] >= 0]
        servers[done] = flat.ns[flat.rows_of(dest[done])]

    width = flat.kind.shape[1]
    kind_of, nrow_of, chain_len_of, chain_err_of, chain_off_of = (
        plane.ravel() for plane in (flat.kind, flat.nrow, flat.chain_len,
                                    flat.chain_err, flat.chain_off))
    while active.size:
        if active.size < _WAVE_MIN_ACTIVE:
            # Stragglers: whole-plane numpy dispatch no longer
            # amortizes over a handful of requests.
            packed.waves += 1
            finish_on_walker(active)
            break
        rows = current[active]
        best, improved = _improving(flat, rows, pxs[active], pys[active],
                                    scratch)
        # Three healthy moves: deliver here (no candidate improves),
        # step to a physical neighbor, or cross a virtual link's whole
        # relay chain — 0, 1 or chain-length hops.
        cell = rows * width + best
        kinds = kind_of[cell]
        nrows = nrow_of[cell]
        ns = flat.ns[rows]
        vl = np.flatnonzero(improved & (kinds == 1))
        vl_cell = cell[vl]
        clen = chain_len_of[vl_cell]
        steps = improved.astype(np.int64)
        steps[vl] = clen
        # A wave advances only what cannot fail.  Parked on a switch
        # without servers (relay-only, or about to deliver to nobody),
        # forwarding to a switch the plane lacks, crossing a chain that
        # does not resolve, or stepping past the hop bound: the walker
        # re-decides those from where they stand, so each failure
        # (message, partial mix, trace) is written once — and the
        # wave, rarely cut short like this, starts over without them.
        odd = ns == 0
        odd |= improved & (nrows < 0)
        odd[vl] |= chain_err_of[vl_cell] != 0
        odd |= hops[active] + steps > max_hops
        if odd.any():
            finish_on_walker(active[odd])
            active = active[~odd]
            continue
        packed.waves += 1
        stay = np.flatnonzero(~improved)
        if stay.size:
            sj = active[stay]
            dest[sj] = flat.sid[rows[stay]]
            # ns is int64 (dtype invariant) but the modulo must stay
            # exact uint64 arithmetic: int64 % uint64 would promote
            # to float64 and corrupt serials above 2**53.
            count = servers[sj] = ns[stay]
            serial[sj] = (serial_u64s[sj] % count.astype(np.uint64)
                          ).astype(np.int64)
        # The engine counts a greedy forward / a vl start at decision
        # time and a relay per chain step after the first.
        phys = np.flatnonzero(improved & (kinds == 0))
        pj = active[phys]
        if pj.size:
            current[pj] = nrows[phys]
            overlay[pj] += 1
            g_arr[pj] += 1
            hops[pj] += 1
            tlen[pj] += 1
            segs.append((0, pj, flat.sid[current[pj]]))
        vj = active[vl]
        if vj.size:
            current[vj] = nrows[vl]
            overlay[vj] += 1
            v_arr[vj] += 1
            r_arr[vj] += clen - 1
            hops[vj] += clen
            tlen[vj] += clen
            segs.append((1, vj, chain_off_of[vl_cell], clen,
                         flat.chain_sids))
        active = np.concatenate((pj, vj))
    packed.finish(entries_arr, segs)
    return packed


class CompiledRouter:
    """Epoch-scoped compiled form of a switch plane.

    Parameters
    ----------
    switches:
        The live data-plane switches (the compiled state snapshots
        their positions/candidates; forwarding *tables* are referenced,
        not copied, so extension rewrites are always current).
    """

    def __init__(self, switches: Dict[int, GredSwitch]) -> None:
        self._states: Dict[int, _CompiledSwitch] = {
            sid: _CompiledSwitch(sw) for sid, sw in switches.items()
        }
        self._default_max_hops = 4 * len(switches) + 16
        # (switch, dest) -> relay chain (first relay ... dest).
        self._chains: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        # Dense plane for the waves, synced on first use: switches whose
        # rows may differ, chain keys pruned since (None: every cell).
        self._flat = _FlatPlane()
        self._dirty = set(self._states)
        self._pruned: Optional[set] = set()
        # What :meth:`patch` replaced since :meth:`take_changes`: each
        # touched switch's compiled state (None: absent) and each
        # pruned chain's relay run, as they were at that call.
        self._replaced: Dict[int, Optional[_CompiledSwitch]] = {}
        self._runs: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        #: Per-switch compilations so far (observability: a scoped
        #: patch after a join should grow this by a neighborhood, not
        #: by the network).
        self.switch_compiles = len(switches)
        #: Scoped :meth:`patch` applications.
        self.patch_events = 0
        #: Wave planes built from empty: one per router, on its first
        #: batch (a patch rewrites rows of the plane it has).
        self.plane_builds = 0
        #: ``(greedy_forwards, vl_starts, vl_relays)`` of the most
        #: recent :meth:`route` call — the per-request decision mix the
        #: forwarding engine counts one event at a time, recovered here
        #: so batch telemetry can report the identical counters.
        #: Updated even when the route fails (partial counts up to the
        #: failure, exactly like the engine's event-time increments);
        #: ``None`` after an unknown-entry rejection.
        self.last_route_stats: Optional[Tuple[int, int, int]] = (0, 0, 0)

    def patch(self, switches: Dict[int, GredSwitch],
              touched, removed=()) -> None:
        """Recompile only the ``touched`` switches' state in place.

        ``removed`` switches are dropped.  Relay chains whose source,
        destination or relays intersect the affected switches leave the
        chain cache, and the default hop bound follows the membership.
        The wave plane is only marked: the next :meth:`_ensure_flat`
        rewrites the affected rows and the pruned chains' cells in
        place.  Untouched switches keep their state and rows, which is
        what makes a join's fast-path cost neighborhood-sized.
        """
        states, replaced = self._states, self._replaced
        for sid in removed:
            replaced.setdefault(sid, states.pop(sid, None))
        for sid in sorted(touched):
            replaced.setdefault(sid, states.get(sid))
            switch = switches.get(sid)
            if switch is None:
                states.pop(sid, None)
                continue
            states[sid] = _CompiledSwitch(switch)
            self.switch_compiles += 1
        self._default_max_hops = 4 * len(states) + 16
        affected = set(touched) | set(removed)
        self._dirty |= affected
        chains = self._chains
        dropped = [key for key, chain in chains.items()
                   if key[0] in affected or key[1] in affected
                   or not affected.isdisjoint(chain)]
        for key in dropped:
            self._runs.setdefault(key, chains.pop(key))
        if self._pruned is not None and self._flat.slot:
            self._pruned.update(dropped)
            if len(self._pruned) > self._flat.kind.size:
                self._pruned = None
        self.patch_events += 1

    def take_changes(self) -> _PlaneChanges:
        """Hand over, and forget, what :meth:`patch` replaced since the
        last call (see :class:`_PlaneChanges`)."""
        changes = _PlaneChanges(self, self._replaced, self._runs)
        self._replaced, self._runs = {}, {}
        return changes

    # ------------------------------------------------------------------
    def _chain(self, source: int, dest: int
               ) -> Tuple[Tuple[int, ...], Optional[_RouteFailure]]:
        """``(relay switches from source's successor through dest,
        None)`` for the virtual link toward DT neighbor ``dest`` — or,
        for a link that breaks, the chain up to the break and the
        failure: empty when ``source`` itself has no entry, ending on
        the unknown switch when a relay forwards off the plane."""
        cached = self._chains.get((source, dest))
        if cached is not None:
            return cached, None
        entry = self._states[source].table.virtual_entry(dest)
        if entry is None or entry.succ is None:
            return (), _RouteFailure("no_vl_entry", (source, dest))
        chain = [entry.succ]
        bound = self._default_max_hops
        while True:
            current = chain[-1]
            if current not in self._states:
                # A relay (the last one, when this is ``dest``) hands
                # the packet to a switch the plane no longer holds.
                return tuple(chain), _RouteFailure("unknown_fwd", (
                    chain[-2] if len(chain) > 1 else source, current))
            if current == dest:
                result = self._chains[(source, dest)] = tuple(chain)
                return result, None
            if len(chain) > bound:
                return tuple(chain), _RouteFailure(
                    "vl_unterminated", (source, dest, bound))
            relay = self._states[current].table.virtual_entry(dest)
            if relay is None or relay.succ is None:
                return tuple(chain), _RouteFailure(
                    "no_relay_entry", (current, dest))
            chain.append(relay.succ)

    def route(self, entry: int, data_id: str, px: float, py: float,
              serial_u64: int, max_hops: Optional[int] = None,
              narrate=None
              ) -> Tuple[List[int], int, int, int, Tuple[int, int, int]]:
        """Route one request; returns ``(trace, overlay_hops,
        destination_switch, primary_serial, decision mix)``.

        Byte-identical to ``route_packet`` with no faults: the trace
        lists every switch visited (entry first), the hop bound raises
        the same error, and the primary serial is the ``H(d) mod s``
        choice at the delivery switch.  ``narrate(kind, switch,
        **details)`` hears each decision as it is made — the engine's
        ``GREEDY_FORWARD`` / ``VL_START`` / ``VL_RELAY`` tracer events.
        """
        if entry not in self._states:
            # Rejected before routing: no decision mix at all (the
            # engine raises before it fetches its counters).
            self.last_route_stats = None
            raise ForwardingError(_error_text("entry", (entry,), data_id))
        if max_hops is None:
            max_hops = self._default_max_hops
        trace = [entry]
        stats = [0, 0, 0]
        try:
            overlay, dest, serial = self._walk(
                trace, 0, px, py, serial_u64, max_hops, stats, narrate)
        except _RouteFailure as failure:
            raise ForwardingError(
                _error_text(*failure.args, data_id)) from None
        finally:
            self.last_route_stats = (stats[0], stats[1], stats[2])
        return trace, overlay, dest, serial, self.last_route_stats

    def _walk(self, trace: List[int], hops: int, px: float, py: float,
              serial_u64: int, max_hops: int, stats: List[int],
              narrate=None) -> Tuple[int, int, int]:
        """The compiled engine's one scalar walker: from ``trace[-1]``,
        with ``hops`` hops already taken, to local delivery.

        :meth:`route` starts it at the entry switch; the wave router
        starts it mid-route for its straggler tail.  Appends every
        switch visited to ``trace`` and counts ``[greedy, vl_starts,
        vl_relays]`` into ``stats`` in place — event-time-faithful to
        the reference engine (a greedy/vl-start counts at decision
        time, a relay before its step's hop-bound check), so both hold
        the partial route when it raises; ``narrate`` (see
        :meth:`route`) hears each decision where it is counted.
        Returns ``(overlay_hops walked here, destination_switch,
        primary_serial)``; raises :class:`_RouteFailure`.
        """
        states = self._states
        current = trace[-1]
        overlay = 0
        while True:
            state = states[current]
            if not state.in_dt:
                raise _RouteFailure("relay_only", (current,))
            ox = state.x
            oy = state.y
            dx = ox - px
            dy = oy - py
            # Best strictly-improving candidate under the scalar
            # sort key ((d^2, x, y), kind, nid).  Seeding "best"
            # with the switch's own key and a sentinel kind is
            # exact because participant positions are deduplicated
            # — no candidate can tie the full (d^2, x, y) key of a
            # distinct switch.
            bd2 = dx * dx + dy * dy
            bx = ox
            by = oy
            bkind = 2
            bnid = -1
            for (cx, cy, kind, nid) in state.cands:
                dx = cx - px
                dy = cy - py
                d2 = dx * dx + dy * dy
                if d2 > bd2:
                    continue
                if d2 == bd2:
                    if cx > bx:
                        continue
                    if cx == bx:
                        if cy > by:
                            continue
                        if cy == by and (kind > bkind or (
                                kind == bkind and nid >= bnid)):
                            continue
                bd2 = d2
                bx = cx
                by = cy
                bkind = kind
                bnid = nid
            if bkind == 2:
                # No neighbor improves: deliver locally.
                if state.num_servers <= 0:
                    raise _RouteFailure("no_servers", (current,))
                return (overlay, current,
                        int(serial_u64 % state.num_servers))
            overlay += 1
            if bkind == 0:
                stats[0] += 1
                if narrate is not None:
                    narrate(TraceEventKind.GREEDY_FORWARD, current,
                            next=bnid)
                if bnid not in states:
                    raise _RouteFailure("unknown_fwd", (current, bnid))
                trace.append(bnid)
                current = bnid
                hops += 1
                if hops > max_hops:
                    raise _RouteFailure("hop_bound",
                                        (max_hops, trace[:-1]))
            else:
                # A link broken past its first hop is taken up to the
                # break, relay by relay like any other, and fails there.
                chain, broken = self._chain(current, bnid)
                if not chain:
                    raise broken
                stats[1] += 1
                if narrate is not None:
                    narrate(TraceEventKind.VL_START, current, dest=bnid,
                            succ=chain[0])
                for step, relay in enumerate(chain):
                    if step:
                        stats[2] += 1
                        if narrate is not None:
                            narrate(TraceEventKind.VL_RELAY,
                                    chain[step - 1], next=relay)
                    if relay not in states:  # (a broken chain's end)
                        raise broken
                    trace.append(relay)
                    hops += 1
                    if hops > max_hops:
                        raise _RouteFailure("hop_bound",
                                            (max_hops, trace[:-1]))
                if broken is not None:
                    raise broken
                current = bnid

    # ------------------------------------------------------------------
    def route_batch_packed(self, entries_arr: np.ndarray,
                           pxs: np.ndarray, pys: np.ndarray,
                           serial_u64s: np.ndarray,
                           max_hops: int) -> _PackedRoutes:
        """Route many requests in switch-grouped waves over the dense
        plane, replicating :meth:`route`'s float arithmetic and
        tie-breaks exactly (its straggler tail runs :meth:`_walk`).
        ``materialize`` on the result gives one outcome per request,
        in order: the tuple :meth:`route` produces, or the
        :class:`ForwardingError` it would have raised."""
        return _route_batch_packed(
            self._ensure_flat(), self._walk, entries_arr,
            np.asarray(pxs, dtype=np.float64),
            np.asarray(pys, dtype=np.float64),
            np.asarray(serial_u64s, dtype=np.uint64),
            max_hops)

    def _ensure_flat(self) -> _FlatPlane:
        """The dense plane in step with the compiled switches: the
        first call syncs the empty plane with every switch dirty (the
        one way a plane is built), later ones what :meth:`patch`
        marked since.  Chains resolve through the pruned chain cache."""
        flat = self._flat
        if self._dirty or self._pruned is None or self._pruned:
            self.plane_builds += not flat.slot
            flat.sync(self._states, self._dirty, self._pruned, self._chain)
            self._dirty, self._pruned = set(), set()
        return flat
