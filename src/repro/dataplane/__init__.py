"""Data plane: packets, forwarding tables, the P4-style switch pipeline,
and the greedy forwarding engine (paper Algorithm 2)."""

from .packet import Packet, PacketKind, VirtualLinkHeader
from .tables import ExtensionEntry, ForwardingTable, VirtualLinkEntry
from .switch import (
    DeliverAction,
    ForwardAction,
    ForwardingError,
    GredSwitch,
)
from .fastpath import (
    CompiledRouter,
    FASTPATH_GATES,
    UNABSORBED_FAULT,
    batch_fastpath_blockers,
    scalar_standdown,
    unabsorbed_faults,
)
from .forwarding import RouteResult, route_packet
from .memo import RouteMemo
from .tracing import TraceEvent, TraceEventKind, Tracer

__all__ = [
    "Packet",
    "PacketKind",
    "VirtualLinkHeader",
    "ForwardingTable",
    "VirtualLinkEntry",
    "ExtensionEntry",
    "GredSwitch",
    "ForwardAction",
    "DeliverAction",
    "ForwardingError",
    "RouteResult",
    "route_packet",
    "CompiledRouter",
    "RouteMemo",
    "FASTPATH_GATES",
    "UNABSORBED_FAULT",
    "batch_fastpath_blockers",
    "scalar_standdown",
    "unabsorbed_faults",
    "Tracer",
    "TraceEvent",
    "TraceEventKind",
]
