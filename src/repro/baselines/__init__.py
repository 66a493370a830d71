"""Extra baseline beyond Chord: one-hop consistent hashing (global
membership)."""

from .consistent_hashing import (
    ConsistentHashingNetwork,
    OneHopRouteResult,
)

__all__ = [
    "ConsistentHashingNetwork",
    "OneHopRouteResult",
]
