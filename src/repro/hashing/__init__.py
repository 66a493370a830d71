"""Hashing: SHA-256 mapping of data identifiers to virtual-space
positions, destination-server selection, replica ids, and Chord ring
identifiers."""

from .batch import (
    batch_hash,
    data_positions,
    position_keys_from_digests,
    positions_from_digests,
    replica_ids,
    replica_ids_flat,
    serials_from_digests,
    server_indices,
    server_indices_from_digests,
    sha256_digests,
)
from .position import (
    chord_id,
    data_position,
    digest_keys,
    position_from_bits,
    position_and_server,
    parse_replica_id,
    replica_id,
    server_index,
    sha256_digest,
)

__all__ = [
    "sha256_digest",
    "data_position",
    "server_index",
    "parse_replica_id",
    "replica_id",
    "chord_id",
    "position_and_server",
    "digest_keys",
    "position_from_bits",
    "sha256_digests",
    "data_positions",
    "server_indices",
    "replica_ids",
    "replica_ids_flat",
    "positions_from_digests",
    "position_keys_from_digests",
    "server_indices_from_digests",
    "serials_from_digests",
    "batch_hash",
]
