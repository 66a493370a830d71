"""Discrete-event simulation: the substitute for the paper's hardware
testbed latency measurements."""

from .events import SimulationError, Simulator
from .latency import LatencyModel
from .packet_sim import (
    PacketCompletion,
    PacketFailure,
    PacketLevelSimulator,
)

__all__ = [
    "Simulator",
    "SimulationError",
    "LatencyModel",
    "PacketLevelSimulator",
    "PacketCompletion",
    "PacketFailure",
]
