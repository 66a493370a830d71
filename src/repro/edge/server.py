"""Edge servers: the storage endpoints of the edge plane.

Each switch in the SDEN connects to one or more edge servers (paper
Fig. 3).  A server stores data items up to an optional capacity; the load
statistics collected here feed the max/avg load-balance metric of the
evaluation.

Durability additions (self-healing storage plane)
-------------------------------------------------
Beyond the paper's bare dict, a server carries three side tables that
make replicas repairable under faults without changing the fault-free
request path:

* **Stamps** — a monotone ``(version, origin)`` pair per stored item,
  assigned by the network's write clock when a fault state is attached.
  Stamped writes are last-writer-wins: a replay or a hint drained out
  of order can never roll an item back.
* **Tombstones** — :meth:`entomb` records a delete as a stamped
  tombstone instead of merely popping the payload, so repair and
  re-replication can tell "deleted" from "never stored" and cannot
  resurrect removed items.  Tombstones are invisible to
  :meth:`has`/:meth:`retrieve`/:attr:`load` and are garbage-collected
  by the anti-entropy scrubber once every live replica acked the
  delete.
* **Hints** — writes/deletes destined for a crashed or unreachable
  server are parked here (hinted handoff) and drained on recovery.
  Hints do not count toward :attr:`load` or capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

ServerId = Tuple[int, int]  # (switch id, serial number at that switch)

#: Monotone write stamp: ``(version, origin switch)``.  Versions come
#: from the network's write clock, so comparing stamps as tuples gives
#: a total last-writer-wins order; ``NO_STAMP`` sorts below any real
#: stamp and marks legacy (unversioned) writes.
Stamp = Tuple[int, int]

NO_STAMP: Stamp = (0, -1)


class StorageFull(Exception):
    """Raised when a bounded-capacity server cannot accept another item.

    ``stored`` names the identifiers a bulk :meth:`EdgeServer.
    store_many` call landed before hitting the capacity wall (empty for
    a scalar :meth:`EdgeServer.store`), so callers of the batch path
    can tell exactly which prefix of the group was stored.
    """

    def __init__(self, server_id: ServerId, capacity: int,
                 stored: Tuple[str, ...] = ()):
        super().__init__(
            f"server {server_id} is full (capacity {capacity})"
        )
        self.server_id = server_id
        self.capacity = capacity
        self.stored = stored


@dataclass(frozen=True)
class Hint:
    """A parked write or delete awaiting its target's recovery.

    ``op`` is ``"store"`` (payload carried) or ``"delete"`` (tombstone
    carried); ``target`` is the home server the operation could not
    reach when it was issued.
    """

    copy_id: str
    op: str
    target: ServerId
    stamp: Stamp
    payload: Any = None


@dataclass
class EdgeServer:
    """A single edge server attached to a switch.

    Attributes
    ----------
    switch:
        Id of the switch the server is physically attached to.
    serial:
        The switch-local serial number (0..s-1) used by the
        ``H(d) mod s`` selection rule.
    capacity:
        Maximum number of stored items, or ``None`` for unbounded (the
        large-scale load-balance experiments count items rather than
        rejecting them).
    server_id:
        ``(switch, serial)``, set once at construction (neither is
        ever reassigned): the request paths read it per probe, and a
        plain attribute reads in a seventh of the time a property
        building the tuple took.  Not a compared or shown field.
    """

    switch: int
    serial: int
    capacity: Optional[int] = None
    _items: Dict[str, Any] = field(default_factory=dict, repr=False)
    #: Version stamps of live items (absent = legacy unversioned).
    _stamps: Dict[str, Stamp] = field(default_factory=dict, repr=False)
    #: Stamped tombstones of deleted items.
    _tombstones: Dict[str, Stamp] = field(default_factory=dict,
                                          repr=False)
    #: Hinted-handoff queue (operations parked for other servers).
    _hints: List[Hint] = field(default_factory=list, repr=False)
    server_id: ServerId = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.server_id = (self.switch, self.serial)

    @property
    def load(self) -> int:
        """Number of items currently stored (tombstones and hints do
        not count)."""
        return len(self._items)

    @property
    def utilization(self) -> Optional[float]:
        """Load as a fraction of capacity.

        An unbounded server has no meaningful utilization: the sentinel
        is ``None`` when it holds items (callers must skip or handle
        it) and ``0.0`` when empty.  A zero-capacity server reports
        ``inf`` when (impossibly) loaded, else ``1.0``.
        """
        if self.capacity is None:
            return 0.0 if self.load == 0 else None
        if self.capacity == 0:
            return float("inf") if self.load else 1.0
        return self.load / self.capacity

    def is_full(self) -> bool:
        """True when a bounded server has reached capacity."""
        return self.capacity is not None and self.load >= self.capacity

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    def store(self, data_id: str, payload: Any = None,
              stamp: Optional[Stamp] = None) -> bool:
        """Store (or overwrite) an item; returns whether it applied.

        An unstamped store keeps the exact legacy semantics (always
        applies, drops any recorded stamp).  A stamped store is
        last-writer-wins: it is ignored (``False``) when an existing
        stamp — live or tombstone — is strictly newer, so hint drains
        and repair traffic can replay in any order.  Either way a write
        that applies clears the item's tombstone.

        Raises
        ------
        StorageFull
            When the server is bounded and full and ``data_id`` is new.
        """
        if stamp is not None:
            current = self._stamps.get(data_id)
            if current is None:
                current = self._tombstones.get(data_id)
            if current is not None and stamp < current:
                return False
        if data_id not in self._items and self.is_full():
            raise StorageFull(self.server_id, self.capacity)
        if self._tombstones:
            self._tombstones.pop(data_id, None)
        if stamp is not None:
            self._stamps[data_id] = stamp
        elif self._stamps:
            self._stamps.pop(data_id, None)
        self._items[data_id] = payload
        return True

    def store_many(self, data_ids, payloads=None, stamps=None) -> None:
        """Bulk :meth:`store`: same per-id semantics in order, with
        optional ``payloads`` and ``stamps`` sequences beside the ids
        (one of another length raises ``ValueError`` before anything is
        stored).

        The unbounded, unstamped case collapses to one dict update,
        which is what lets the batch placement path store a whole
        per-server group without a Python call per item; a bounded
        server or a stamped group keeps the exact per-id checks
        (capacity, last-writer-wins, partial-store-then-raise) of
        sequential ``store`` calls — the raised :class:`StorageFull`
        carries the ids that landed before the wall in ``stored``.
        """
        data_ids = list(data_ids)
        for name, column in (("payloads", payloads), ("stamps", stamps)):
            if column is not None and len(column) != len(data_ids):
                raise ValueError(
                    f"{name} has {len(column)} entries for "
                    f"{len(data_ids)} data ids")
        if self.capacity is None and stamps is None:
            if self._tombstones:
                for data_id in data_ids:
                    self._tombstones.pop(data_id, None)
            if self._stamps:
                for data_id in data_ids:
                    self._stamps.pop(data_id, None)
            if payloads is None:
                self._items.update(dict.fromkeys(data_ids))
            else:
                self._items.update(zip(data_ids, payloads))
            return
        landed: List[str] = []
        for i, data_id in enumerate(data_ids):
            try:
                self.store(data_id,
                           None if payloads is None else payloads[i],
                           None if stamps is None else stamps[i])
            except StorageFull as exc:
                raise StorageFull(exc.server_id, exc.capacity,
                                  stored=tuple(landed)) from None
            landed.append(data_id)

    def has(self, data_id: str) -> bool:
        return data_id in self._items

    def retrieve(self, data_id: str) -> Any:
        """Payload of a stored item.

        Raises
        ------
        KeyError
            When the item is not stored here.
        """
        return self._items[data_id]

    def lookup_many(self, data_ids) -> Tuple[List[bool], List[Any]]:
        """Bulk :meth:`has` + :meth:`retrieve`: ``(found, payloads)``
        lists beside ``data_ids``, the payload ``None`` where the item
        is not stored (``found`` tells that from a stored ``None``)."""
        items = self._items
        return (list(map(items.__contains__, data_ids)),
                list(map(items.get, data_ids)))

    def delete(self, data_id: str) -> Any:
        """Remove and return an item (KeyError when absent).

        This is the *migration* primitive: the item and its stamp are
        dropped with no tombstone, because the item is moving, not
        being destroyed.  A user-facing delete goes through
        :meth:`entomb` so repair cannot resurrect it.
        """
        payload = self._items.pop(data_id)
        if self._stamps:
            self._stamps.pop(data_id, None)
        return payload

    def entomb(self, data_id: str, stamp: Stamp) -> bool:
        """Delete by tombstone: record that ``data_id`` was deleted at
        ``stamp`` and drop the live copy if the delete is newer.

        Returns whether a live item was removed.  A tombstone older
        than the live item's stamp is ignored (the item was re-created
        after the delete); an older tombstone is upgraded in place.
        """
        live = self._stamps.get(data_id)
        if live is not None and stamp < live:
            return False
        existing = self._tombstones.get(data_id)
        if existing is None or existing < stamp:
            self._tombstones[data_id] = stamp
        removed = data_id in self._items
        if removed:
            self._items.pop(data_id)
            if self._stamps:
                self._stamps.pop(data_id, None)
        return removed

    # ------------------------------------------------------------------
    # versioning / tombstone inspection
    # ------------------------------------------------------------------
    def stamp_of(self, data_id: str) -> Optional[Stamp]:
        """Stamp of a live item, or ``None`` (absent or unversioned)."""
        return self._stamps.get(data_id)

    def tombstone_of(self, data_id: str) -> Optional[Stamp]:
        """Tombstone stamp of a deleted item, or ``None``."""
        return self._tombstones.get(data_id)

    def tombstones(self) -> Dict[str, Stamp]:
        """Snapshot of all tombstones (``copy_id -> stamp``)."""
        return dict(self._tombstones)

    def gc_tombstone(self, data_id: str) -> bool:
        """Drop one tombstone (scrubber GC); returns whether it
        existed."""
        return self._tombstones.pop(data_id, None) is not None

    # ------------------------------------------------------------------
    # hinted handoff
    # ------------------------------------------------------------------
    def park_hint(self, hint: Hint) -> None:
        """Queue an operation for another (currently unreachable)
        server."""
        self._hints.append(hint)

    def hints(self) -> Tuple[Hint, ...]:
        """Snapshot of the parked hints (drain order)."""
        return tuple(self._hints)

    def take_hints(self) -> List[Hint]:
        """Remove and return all parked hints (the drain step)."""
        taken = self._hints
        self._hints = []
        return taken

    @property
    def hint_count(self) -> int:
        return len(self._hints)

    # ------------------------------------------------------------------
    # snapshots / teardown
    # ------------------------------------------------------------------
    def stored_ids(self) -> Tuple[str, ...]:
        """Identifiers of all stored items (snapshot)."""
        return tuple(self._items)

    def clear(self) -> None:
        """Drop all stored state — items, stamps, tombstones and hints
        (a crash loses everything on the box)."""
        self._items.clear()
        self._stamps.clear()
        self._tombstones.clear()
        self._hints.clear()
