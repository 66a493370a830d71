"""Hash-based mapping of data identifiers into the GRED virtual space.

Paper Section III: the data identifier ``d`` is hashed with SHA-256; the
last 8 bytes of ``H(d)`` are split into two 4-byte unsigned integers
``x`` and ``y``; the virtual-space position is
``(x / (2^32 - 1), y / (2^32 - 1))`` — a point in the unit square.

The same SHA-256 digest also drives two further decisions:

* the *server selection* at the destination switch, ``H(d) mod s``
  (Section V-B) — implemented over the first 8 bytes of the digest so it
  is statistically independent of the position bits;
* the Chord baseline's ring identifier (an ``m``-bit prefix).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Tuple

from ..geometry import Point

_MAX_U32 = 2 ** 32 - 1
#: Leading 64-bit word and trailing 64 position bits of a digest.
_KEY_AND_POSITION = struct.Struct(">Q16xQ").unpack


def sha256_digest(data_id: str) -> bytes:
    """SHA-256 digest of a data identifier (UTF-8 encoded)."""
    if not isinstance(data_id, str):
        raise TypeError(f"data identifier must be str, got "
                        f"{type(data_id).__name__}")
    return hashlib.sha256(data_id.encode("utf-8")).digest()


def digest_keys(data_id: str) -> Tuple[int, int]:
    """``(key, position bits)`` of one digest: the leading 64-bit word
    that ``H(d) mod s`` reduces at the destination, and the last 64
    bits — the two 32-bit words the position divides out of, so
    one-to-one with it and the exact key a route is memoized under.
    The scalar twin of ``serials_from_digests`` /
    ``position_keys_from_digests``: one hash per request on the
    compiled plane (hence no call through :func:`sha256_digest`)."""
    if not isinstance(data_id, str):
        raise TypeError(f"data identifier must be str, got "
                        f"{type(data_id).__name__}")
    return _KEY_AND_POSITION(
        hashlib.sha256(data_id.encode("utf-8")).digest())


def position_from_bits(bits: int) -> Point:
    """The unit-square point of 64 position bits (see
    :func:`digest_keys`)."""
    return ((bits >> 32) / _MAX_U32, (bits & _MAX_U32) / _MAX_U32)


def data_position(data_id: str) -> Point:
    """Virtual-space position ``H(d)`` of a data identifier.

    >>> p = data_position("sensor-42/frame-7")
    >>> 0.0 <= p[0] <= 1.0 and 0.0 <= p[1] <= 1.0
    True
    """
    return position_from_bits(digest_keys(data_id)[1])


def server_index(data_id: str, num_servers: int) -> int:
    """Serial number of the edge server chosen at the destination switch.

    Paper Section V-B: the switch managing ``s`` servers stores data ``d``
    on server ``H(d) mod s``.
    """
    if num_servers <= 0:
        raise ValueError(f"num_servers must be positive, got {num_servers}")
    digest = sha256_digest(data_id)
    return int.from_bytes(digest[:8], "big") % num_servers


def replica_id(data_id: str, copy_index: int) -> str:
    """Identifier of the ``copy_index``-th replica (paper Section VI).

    The data ID and the copy serial number are concatenated into a new
    string whose hash determines the replica's position.  Copy 0 is the
    primary and keeps the original identifier.
    """
    if copy_index < 0:
        raise ValueError(f"copy_index must be >= 0, got {copy_index}")
    if copy_index == 0:
        return data_id
    return f"{data_id}#copy{copy_index}"


def parse_replica_id(copy_id: str):
    """Invert :func:`replica_id`: ``(data_id, copy_index)``.

    A trailing ``#copy<N>`` suffix names copy ``N``; anything else is
    copy 0 of itself.  (A data id that legitimately ends in such a
    suffix is indistinguishable from a replica — the repair plane
    assumes application ids do not use the reserved suffix.)
    """
    base, sep, tail = copy_id.rpartition("#copy")
    if sep and base and tail.isdigit():
        return base, int(tail)
    return copy_id, 0


def chord_id(key: str, bits: int = 32) -> int:
    """``bits``-bit Chord ring identifier of a key."""
    if not 1 <= bits <= 256:
        raise ValueError(f"bits must be in [1, 256], got {bits}")
    digest = sha256_digest(key)
    return int.from_bytes(digest, "big") >> (256 - bits)


def position_and_server(data_id: str,
                        num_servers: int) -> Tuple[Point, int]:
    """Convenience: ``(data_position(d), server_index(d, s))``."""
    return data_position(data_id), server_index(data_id, num_servers)
