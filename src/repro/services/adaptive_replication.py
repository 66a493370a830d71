"""Adaptive replication: an upper-layer service on the GRED API.

The paper's replication mechanism (§VI) is static — the application
chooses a copy count at placement.  Real edge workloads are skewed, so
this service adapts: it tracks per-item retrieval counts and adds
copies for items whose popularity crosses a threshold, up to a cap.
Retrievals then use nearest-copy selection over however many copies an
item currently has, cutting the mean path length for the hot head of
the distribution at a bounded storage overhead.

Built purely on the public ``GredNetwork`` API (place/retrieve with
replica ids) — this is what a downstream application would write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core import GredNetwork, RetrievalResult
from ..hashing import replica_id


@dataclass
class ReplicationStats:
    """Bookkeeping the service exposes."""

    items: int = 0
    total_copies: int = 0
    promotions: int = 0

    @property
    def storage_overhead(self) -> float:
        """Extra copies per item (0.0 = no replication happened)."""
        if self.items == 0:
            return 0.0
        return self.total_copies / self.items - 1.0


class AdaptiveReplicationService:
    """Popularity-driven replication over a :class:`GredNetwork`.

    Parameters
    ----------
    net:
        The underlying GRED deployment.
    promote_threshold:
        Retrieval count at which an item earns its next copy.  Each
        further copy requires another ``promote_threshold`` accesses
        (copy ``k`` at ``k * promote_threshold`` retrievals).
    max_copies:
        Hard cap on copies per item.
    """

    def __init__(self, net: GredNetwork, promote_threshold: int = 10,
                 max_copies: int = 4) -> None:
        if promote_threshold < 1:
            raise ValueError(
                f"promote_threshold must be >= 1, got {promote_threshold}"
            )
        if max_copies < 1:
            raise ValueError(f"max_copies must be >= 1, got {max_copies}")
        self.net = net
        self.promote_threshold = promote_threshold
        self.max_copies = max_copies
        self._copies: Dict[str, int] = {}
        self._accesses: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def put(self, data_id: str, payload=None,
            entry_switch: Optional[int] = None,
            rng: Optional[np.random.Generator] = None) -> None:
        """Store an item (single primary copy)."""
        self.net.place(data_id, payload=payload,
                       entry_switch=entry_switch, copies=1, rng=rng)
        self._copies[data_id] = 1
        self._accesses.setdefault(data_id, 0)

    def get(self, data_id: str,
            entry_switch: Optional[int] = None,
            rng: Optional[np.random.Generator] = None
            ) -> RetrievalResult:
        """Retrieve an item from its nearest copy, promoting it when its
        popularity crosses the next threshold."""
        copies = self._copies.get(data_id, 1)
        result = self.net.retrieve(data_id, entry_switch=entry_switch,
                                   copies=copies, rng=rng)
        if result.found:
            count = self._accesses.get(data_id, 0) + 1
            self._accesses[data_id] = count
            self._maybe_promote(data_id, count, result)
        return result

    def _maybe_promote(self, data_id: str, count: int,
                       result: RetrievalResult) -> None:
        copies = self._copies.get(data_id, 1)
        if copies >= self.max_copies:
            return
        if count < copies * self.promote_threshold:
            return
        # Fetch the payload (we just retrieved it) and place the next
        # copy at its own hash position.
        new_copy = replica_id(data_id, copies)
        self.net._place_one(new_copy, result.payload,
                            result.entry_switch)
        self._copies[data_id] = copies + 1

    def copies_of(self, data_id: str) -> int:
        return self._copies.get(data_id, 0)

    def stats(self) -> ReplicationStats:
        return ReplicationStats(
            items=len(self._copies),
            total_copies=sum(self._copies.values()),
            promotions=sum(c - 1 for c in self._copies.values()),
        )

    def evict_copies(self, data_id: str) -> int:
        """Drop an item's extra copies (keeping the primary); returns
        how many were removed.  Used when storage pressure demands it."""
        copies = self._copies.get(data_id, 1)
        removed = 0
        for i in range(1, copies):
            copy_id = replica_id(data_id, i)
            removed += self.net.delete(copy_id, copies=1)
        self._copies[data_id] = 1
        self._accesses[data_id] = 0
        return removed
