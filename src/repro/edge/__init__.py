"""Edge plane: edge servers, capacity models, and switch attachment."""

from .server import (
    NO_STAMP,
    EdgeServer,
    Hint,
    ServerId,
    Stamp,
    StorageFull,
)
from .antientropy import (
    DEFAULT_RANGES,
    rows_digest,
    server_rows,
)
from .attachment import (
    ServerMap,
    all_servers,
    attach_heterogeneous,
    attach_uniform,
    load_vector,
)

__all__ = [
    "EdgeServer",
    "Hint",
    "NO_STAMP",
    "ServerId",
    "Stamp",
    "StorageFull",
    "DEFAULT_RANGES",
    "rows_digest",
    "server_rows",
    "ServerMap",
    "attach_uniform",
    "attach_heterogeneous",
    "all_servers",
    "load_vector",
]
