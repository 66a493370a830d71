"""GHT/GPSR baseline: geographic hashing with greedy + perimeter
routing over planarized subgraphs (paper §VIII-B related work)."""

from .planarize import gabriel_graph
from .gpsr import GpsrOutcome, GpsrRouter, RouteStatus
from .network import GhtError, GhtNetwork, GhtRouteResult

__all__ = [
    "gabriel_graph",
    "GpsrRouter",
    "GpsrOutcome",
    "RouteStatus",
    "GhtNetwork",
    "GhtRouteResult",
    "GhtError",
]
