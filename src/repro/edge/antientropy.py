"""Item-level anti-entropy digests for the storage plane.

Mirrors the control plane's ``plan.switch_digest`` pattern one layer
down: a server's contents are split into ``DEFAULT_RANGES`` hash
ranges (by the SHA-256 of each replica identifier) and each range is
summarized as one SHA-256 digest over its canonical rows ``(kind,
copy_id, version, origin)``.  Two parties that agree on a range's digest agree on every
stamped item *and tombstone* in that range, so a scrub sweep only
pulls item-level detail for ranges whose digests mismatch — the same
bounded-traffic trick ``Controller.reconcile`` uses for rules.

Payloads are deliberately not digested: a stamped write is immutable
under its ``(version, origin)`` stamp (the network's write clock never
reissues a version), so stamp agreement implies payload agreement.
Legacy unversioned items digest with the ``NO_STAMP`` sentinel.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Tuple

from .server import NO_STAMP, EdgeServer, Stamp

#: Number of hash ranges per server.
DEFAULT_RANGES = 16

#: One canonical digest row: ``(kind, copy_id, version, origin)`` with
#: kind ``"item"`` or ``"tomb"``.
DigestRow = Tuple[str, str, int, int]


def _hash_range(copy_id: str) -> int:
    """The hash range (0..DEFAULT_RANGES-1) a replica identifier falls
    into.

    Uses the first byte of the id's SHA-256 digest, so ranges are
    uniform and independent of the virtual-position hashing.
    """
    first = hashlib.sha256(copy_id.encode("utf-8")).digest()[0]
    return first * DEFAULT_RANGES // 256


def digest_rows(items: Iterable[Tuple[str, Stamp]],
                tombstones: Iterable[Tuple[str, Stamp]]
                ) -> Dict[int, List[DigestRow]]:
    """Canonical per-range rows for a set of stamped items and
    tombstones (rows sorted within each range)."""
    buckets: Dict[int, List[DigestRow]] = {}
    for copy_id, stamp in items:
        buckets.setdefault(_hash_range(copy_id), []).append(
            ("item", copy_id, stamp[0], stamp[1]))
    for copy_id, stamp in tombstones:
        buckets.setdefault(_hash_range(copy_id), []).append(
            ("tomb", copy_id, stamp[0], stamp[1]))
    for rows in buckets.values():
        rows.sort()
    return buckets


def rows_digest(rows: List[DigestRow]) -> str:
    """SHA-256 hex digest of one range's canonical rows (the
    ``switch_digest`` recipe applied to storage rows)."""
    return hashlib.sha256(repr(tuple(rows)).encode("utf-8")).hexdigest()


def server_rows(server: EdgeServer) -> Dict[int, List[DigestRow]]:
    """The server's actual contents as canonical per-range rows."""
    return digest_rows(
        ((copy_id, server.stamp_of(copy_id) or NO_STAMP)
         for copy_id in server.stored_ids()),
        server.tombstones().items(),
    )
