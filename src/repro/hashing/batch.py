"""Vectorized batch variants of the SHA-256 position/selection hashes.

The scalar helpers in :mod:`repro.hashing.position` hash one identifier
at a time and re-digest the identifier for every derived quantity
(position, server serial).  The batch fast path needs all three derived
quantities for thousands of identifiers per call, so this module

* computes **one digest per identifier** and reuses it,
* derives positions / server serials / 64-bit serial keys with numpy
  array arithmetic instead of per-id ``int.from_bytes`` calls.

Bit-exactness contract: for every identifier the batch results equal
the scalar ``data_position`` / ``server_index`` outputs exactly (same
big-endian byte slices, same ``/ (2**32 - 1)`` float64 division), which
the equivalence tests in ``tests/test_fastpath.py`` pin down.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

import numpy as np

_MAX_U32 = np.float64(2 ** 32 - 1)


def sha256_digests(data_ids: Sequence[str]) -> np.ndarray:
    """Per-identifier SHA-256 digests as a ``(k, 32) uint8`` array."""
    sha256 = hashlib.sha256
    try:
        # ``str.encode`` unbound: a non-``str`` id is a ``TypeError``.
        joined = b"".join([sha256(encoded).digest()
                           for encoded in map(str.encode, data_ids)])
    except TypeError:
        stranger = next(d for d in data_ids if not isinstance(d, str))
        raise TypeError(f"data identifier must be str, got "
                        f"{type(stranger).__name__}") from None
    return np.frombuffer(joined, dtype=np.uint8).reshape(
        len(data_ids), 32)


def positions_from_digests(digests: np.ndarray) -> np.ndarray:
    """``(k, 2) float64`` unit-square positions from digest rows.

    Bytes ``[-8:-4]`` and ``[-4:]`` of each digest, read big-endian,
    divided by ``2**32 - 1`` — identical to the scalar
    :func:`repro.hashing.data_position`.
    """
    tail = np.ascontiguousarray(digests[:, 24:32])
    words = tail.view(">u4").astype(np.float64)
    return words / _MAX_U32


def server_indices_from_digests(digests: np.ndarray,
                                num_servers: int) -> np.ndarray:
    """``(k,) int64`` server serials: first 8 digest bytes mod ``s``."""
    if num_servers <= 0:
        raise ValueError(f"num_servers must be positive, got {num_servers}")
    head = np.ascontiguousarray(digests[:, 0:8])
    words = head.view(">u8").reshape(-1)
    return (words % np.uint64(num_servers)).astype(np.int64)


def serials_from_digests(digests: np.ndarray) -> np.ndarray:
    """``(k,) uint64`` keys (first 8 digest bytes, big-endian).

    Equal to ``int.from_bytes(digest[:8], "big")`` per id; the fast
    path carries these instead of re-digesting at the destination.
    """
    head = np.ascontiguousarray(digests[:, 0:8])
    return head.view(">u8").reshape(-1).astype(np.uint64)


def position_keys_from_digests(digests: np.ndarray) -> np.ndarray:
    """``(k,) uint64`` position bits: the last 8 digest bytes,
    big-endian — what :func:`positions_from_digests` divides into
    coordinates, one-to-one with the position and so the exact key of
    everything that depends on the position alone (a route, given its
    entry switch)."""
    tail = np.ascontiguousarray(digests[:, 24:32])
    return tail.view(">u8").reshape(-1).astype(np.uint64)


def data_positions(data_ids: Sequence[str]) -> np.ndarray:
    """Batch :func:`repro.hashing.data_position`: ``(k, 2)`` positions.

    >>> import numpy as np
    >>> from repro.hashing import data_position
    >>> ids = ["sensor-42/frame-7", "a", "b"]
    >>> batch = data_positions(ids)
    >>> all(tuple(batch[i]) == data_position(d)
    ...     for i, d in enumerate(ids))
    True
    """
    return positions_from_digests(sha256_digests(data_ids))


def server_indices(data_ids: Sequence[str],
                   num_servers: int) -> np.ndarray:
    """Batch :func:`repro.hashing.server_index` over ``data_ids``."""
    return server_indices_from_digests(sha256_digests(data_ids),
                                       num_servers)


def replica_ids(data_ids: Sequence[str], copies: int) -> List[List[str]]:
    """Replica identifier lists, ``copies`` per id (copy 0 = the id)."""
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    return [
        [d if c == 0 else f"{d}#copy{c}" for c in range(copies)]
        for d in data_ids
    ]


def replica_ids_flat(data_ids: Sequence[str],
                     copies: int) -> List[str]:
    """Replica identifiers flattened copy-major (``copies`` rows per
    id, copy 0 = the id itself) — the layout the batch fan-out path
    hashes and routes as one array program.

    Equals ``[replica_id(d, c) for d in data_ids for c in range(copies)]``
    without a function call per replica.
    """
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    if copies == 1:
        return list(data_ids)
    return [d if c == 0 else f"{d}#copy{c}"
            for d in data_ids for c in range(copies)]


def batch_hash(data_ids: Sequence[str], num_servers: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One digest pass → ``(positions, server serials, u64 serials)``."""
    digests = sha256_digests(data_ids)
    return (
        positions_from_digests(digests),
        server_indices_from_digests(digests, num_servers),
        serials_from_digests(digests),
    )
