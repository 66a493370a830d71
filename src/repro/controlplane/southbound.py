"""The southbound interface: explicit rule-install messages.

The paper's controller programs switches through generated Thrift APIs;
real SDN deployments use OpenFlow/P4Runtime messages.  This module
makes rule distribution explicit: the differ's decisions
(:func:`~repro.controlplane.diff.diff_plans`) are expressed as message
objects which are then applied to switches, and an optional recording
channel observes exactly what the controller pushed — the basis for
counting control-plane traffic.

Message types mirror the switch state surface:

* ``SetPosition`` — the switch's own virtual coordinates;
* ``InstallPhysical`` — a port mapping (optionally with the neighbor's
  position, making it a greedy candidate);
* ``InstallDtNeighbor`` — a DT greedy candidate;
* ``InstallVirtual`` — one ``<sour, pred, succ, dest>`` relay tuple;
* ``InstallExtension`` / ``RemoveExtension`` — range extension
  rewrites.

The delta pipeline (:mod:`repro.controlplane.diff`) additionally needs
targeted *removals* so a reconfiguration can retract exactly the
entries that became stale instead of clearing whole switches:

* ``RemovePhysical`` — drop one port mapping (and its greedy
  candidate, if any);
* ``RemoveDtNeighbor`` — drop one DT greedy candidate;
* ``RemoveVirtual`` — drop the relay tuple toward one destination;
* ``SetServerCount`` — the switch's attached-server count (drives
  ``H(d) mod s`` delivery).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..dataplane import ExtensionEntry, GredSwitch, VirtualLinkEntry
from ..geometry import Point


@dataclass(frozen=True)
class SouthboundMessage:
    """Base class: every message targets one switch."""

    switch: int


@dataclass(frozen=True)
class SetPosition(SouthboundMessage):
    position: Point = (0.0, 0.0)


@dataclass(frozen=True)
class InstallPhysical(SouthboundMessage):
    neighbor: int = -1
    port: int = -1
    position: Optional[Point] = None


@dataclass(frozen=True)
class InstallDtNeighbor(SouthboundMessage):
    neighbor: int = -1
    position: Point = (0.0, 0.0)


@dataclass(frozen=True)
class InstallVirtual(SouthboundMessage):
    sour: int = -1
    pred: Optional[int] = None
    succ: Optional[int] = None
    dest: int = -1


@dataclass(frozen=True)
class RemovePhysical(SouthboundMessage):
    neighbor: int = -1


@dataclass(frozen=True)
class RemoveDtNeighbor(SouthboundMessage):
    neighbor: int = -1


@dataclass(frozen=True)
class RemoveVirtual(SouthboundMessage):
    dest: int = -1


@dataclass(frozen=True)
class SetServerCount(SouthboundMessage):
    count: int = 0


@dataclass(frozen=True)
class InstallExtension(SouthboundMessage):
    local_serial: int = -1
    target_switch: int = -1
    target_serial: int = -1


@dataclass(frozen=True)
class RemoveExtension(SouthboundMessage):
    local_serial: int = -1


@dataclass(frozen=True)
class Probe(SouthboundMessage):
    """Liveness probe: the controller's heartbeat to one switch.

    Carries no state — a switch that receives it is, by definition,
    reachable.  The failure detector counts probes as control-plane
    traffic through the same :class:`RecordingChannel` used for rule
    installs.
    """


class RecordingChannel:
    """Observes every message the controller pushes."""

    def __init__(self) -> None:
        self.messages: List[SouthboundMessage] = []

    def send(self, message: SouthboundMessage) -> None:
        self.messages.append(message)

    def count(self, message_type=None, *, exclude=()) -> int:
        """Recorded messages, optionally restricted by type.

        ``message_type`` keeps only instances of that type (or tuple of
        types); ``exclude`` drops instances of the given type(s) — e.g.
        ``count(exclude=(Probe,))`` counts rule traffic without the
        failure detector's liveness probes.
        """
        return len(self.filtered(message_type, exclude=exclude))

    def per_switch(self, message_type=None,
                   *, exclude=()) -> Dict[int, int]:
        """Per-switch message counts, with the same filters as
        :meth:`count`."""
        counts: Dict[int, int] = {}
        for message in self.filtered(message_type, exclude=exclude):
            counts[message.switch] = counts.get(message.switch, 0) + 1
        return counts

    def filtered(self, message_type=None,
                 *, exclude=()) -> List[SouthboundMessage]:
        """The recorded messages matching the type filters, in order."""
        messages = list(self.messages)
        if message_type is not None:
            messages = [m for m in messages
                        if isinstance(m, message_type)]
        if exclude:
            excluded = (exclude if isinstance(exclude, tuple)
                        else tuple(exclude))
            messages = [m for m in messages
                        if not isinstance(m, excluded)]
        return messages

    def clear(self) -> None:
        self.messages.clear()


def apply_message(switches: Dict[int, GredSwitch],
                  message: SouthboundMessage) -> None:
    """Apply one message to the data plane.

    Raises
    ------
    repro.core.GredError
        If the message targets a switch absent from ``switches`` —
        e.g. a message delivered after ``remove_switch`` retired its
        target.  Reliable senders (the transactional applier, the
        faulty channel) treat departed targets as acked no-ops instead
        of calling this.
    """
    switch = switches.get(message.switch)
    if switch is None:
        from ..core import GredError

        raise GredError(
            f"southbound {type(message).__name__} targets unknown "
            f"switch {message.switch} (departed or never joined); "
            f"message: {message!r}"
        )
    if isinstance(message, SetPosition):
        switch.install_position(message.position)
    elif isinstance(message, InstallPhysical):
        switch.install_physical_neighbor(
            message.neighbor, message.port, position=message.position)
    elif isinstance(message, InstallDtNeighbor):
        switch.install_dt_neighbor(message.neighbor, message.position)
    elif isinstance(message, InstallVirtual):
        switch.table.install_virtual(VirtualLinkEntry(
            sour=message.sour, pred=message.pred, succ=message.succ,
            dest=message.dest))
    elif isinstance(message, RemovePhysical):
        switch.remove_physical_neighbor(message.neighbor)
    elif isinstance(message, RemoveDtNeighbor):
        switch.remove_dt_neighbor(message.neighbor)
    elif isinstance(message, RemoveVirtual):
        switch.table.remove_virtual(message.dest)
    elif isinstance(message, SetServerCount):
        switch.num_servers = message.count
    elif isinstance(message, InstallExtension):
        switch.table.install_extension(ExtensionEntry(
            local_serial=message.local_serial,
            target_switch=message.target_switch,
            target_serial=message.target_serial))
    elif isinstance(message, RemoveExtension):
        switch.table.remove_extension(message.local_serial)
    elif isinstance(message, Probe):
        pass  # liveness only: reaching the switch is the whole effect
    else:
        raise TypeError(f"unknown southbound message {message!r}")
