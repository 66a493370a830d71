"""The GRED switch: a P4-style match-action pipeline in Python.

Paper substitution note (DESIGN.md Section 2): the published prototype
compiles this decision procedure to P4 match-action stages on bmv2
switches.  The reproduction executes the identical procedure in Python —
per-stage distance computation against the installed neighbor positions,
followed by greedy next-hop selection (Algorithm 2) or local delivery
with ``H(d) mod s`` server selection and range-extension rewriting.

A switch only consults *locally installed* state: its own position, the
positions of its physical and DT neighbors, and its forwarding table.
All of it is written by the control plane; the data plane never talks to
the controller on the per-packet path.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from ..geometry import Point, squared_distance
from ..hashing import server_index
from .packet import Packet, VirtualLinkHeader
from .tables import ExtensionEntry, ForwardingTable


class ForwardingError(Exception):
    """Raised when a switch cannot make a forwarding decision (missing
    entries, unknown neighbors) — indicates inconsistent control-plane
    state."""


@dataclass(frozen=True)
class ForwardAction:
    """Send the packet to a physically adjacent switch.

    ``is_relay`` is True when the hop merely relays a packet along an
    established virtual link (it is not a new overlay-hop decision).
    """

    next_switch: int
    is_relay: bool = False


@dataclass(frozen=True)
class DeliverAction:
    """This switch is closest to the data position: deliver to a server.

    ``primary_serial`` is the ``H(d) mod s`` choice.  When a range
    extension is active for that serial, ``extension`` names the remote
    takeover server; placements follow the rewrite, retrievals are forked
    to both locations (paper Section V-C).
    """

    switch: int
    primary_serial: int
    extension: Optional[ExtensionEntry] = None


Action = object  # union of ForwardAction | DeliverAction


class GredSwitch:
    """One switch of the SDEN switch plane.

    Attributes
    ----------
    switch_id:
        Topology node id.
    position:
        Virtual-space coordinates assigned by the control plane.
    num_servers:
        Count of directly attached edge servers (0 for relay-only
        switches, which do not participate in the DT).
    physical_neighbor_positions, dt_neighbor_positions:
        Read-only views of the neighbor positions installed by the
        control plane (written through the ``install_*`` / ``remove_*``
        methods).
    revision:
        Advances on every write to the state above or to the table's
        physical and virtual entries, so the controller can tell which
        switches changed since it last read them.
    """

    def __init__(self, switch_id: int, position: Point,
                 num_servers: int = 0,
                 table: Optional[ForwardingTable] = None) -> None:
        self.switch_id = switch_id
        self._position = position
        self._num_servers = num_servers
        self.table = ForwardingTable() if table is None else table
        self._physical_positions: Dict[int, Point] = {}
        self._dt_positions: Dict[int, Point] = {}
        self._physical_view = MappingProxyType(self._physical_positions)
        self._dt_view = MappingProxyType(self._dt_positions)
        self._revision = 0

    def __repr__(self) -> str:
        return (f"GredSwitch(switch_id={self.switch_id}, "
                f"position={self._position}, "
                f"num_servers={self._num_servers})")

    @property
    def revision(self) -> int:
        return self._revision + self.table.revision

    @property
    def position(self) -> Point:
        return self._position

    @position.setter
    def position(self, position: Point) -> None:
        self._position = position
        self._revision += 1

    @property
    def num_servers(self) -> int:
        return self._num_servers

    @num_servers.setter
    def num_servers(self, count: int) -> None:
        self._num_servers = count
        self._revision += 1

    @property
    def physical_neighbor_positions(self) -> Mapping[int, Point]:
        return self._physical_view

    @property
    def dt_neighbor_positions(self) -> Mapping[int, Point]:
        return self._dt_view

    @property
    def in_dt(self) -> bool:
        """Whether this switch participates in the DT (has servers)."""
        return self._num_servers > 0

    # ------------------------------------------------------------------
    # pipeline
    # ------------------------------------------------------------------
    def process(self, packet: Packet) -> Action:
        """Run the match-action pipeline on an arriving packet.

        Returns the forwarding decision; the network engine applies it.
        """
        packet.record_hop(self.switch_id)
        if packet.virtual_link is not None:
            action = self._process_virtual_link(packet)
            if action is not None:
                return action
        return self._greedy_stage(packet)

    def reroute(self, packet: Packet, exclude: frozenset) -> Action:
        """Re-decide after a forwarding attempt hit a dead neighbor or
        link (degraded mode).

        The hop is already recorded; any in-progress virtual link is
        abandoned (its relay chain is unusable) and the greedy stage
        re-runs with the failed neighbors excluded — the next-best
        neighbor fallback.  Raises :class:`ForwardingError` when no
        usable neighbor remains and the packet cannot be delivered
        locally either.
        """
        packet.virtual_link = None
        return self._greedy_stage(packet, exclude=exclude)

    def _process_virtual_link(self, packet: Packet) -> Optional[Action]:
        vl = packet.virtual_link
        if vl.dest == self.switch_id:
            # Endpoint of the virtual link: strip the header and continue
            # with greedy forwarding (paper Section V-A).
            packet.virtual_link = None
            return None
        entry = self.table.virtual_entry(vl.dest)
        if entry is None or entry.succ is None:
            raise ForwardingError(
                f"switch {self.switch_id} has no relay entry toward "
                f"virtual-link destination {vl.dest}"
            )
        packet.virtual_link = VirtualLinkHeader(
            dest=vl.dest, sour=vl.sour, relay=entry.succ
        )
        return ForwardAction(next_switch=entry.succ, is_relay=True)

    def _greedy_key(self, position: Point,
                    target: Point) -> Tuple[float, float, float]:
        """Comparison key: distance, then x, then y (paper's tie-break
        for data mapped onto a Voronoi edge)."""
        return (squared_distance(position, target),
                position[0], position[1])

    def _greedy_stage(self, packet: Packet,
                      exclude: frozenset = frozenset()) -> Action:
        """Algorithm 2: pick the neighbor closest to ``H(d)``; deliver
        locally when no neighbor improves.

        ``exclude`` (degraded mode only) names neighbors that turned
        out to be dead or unreachable; improving candidates are walked
        best-first skipping them, so a crashed DT neighbor degrades to
        the next-best neighbor instead of a raised error.
        """
        if not self.in_dt:
            raise ForwardingError(
                f"greedy stage reached relay-only switch {self.switch_id}"
            )
        target = packet.position
        own_key = self._greedy_key(self._position, target)
        # (key, tiebreak, nid): physical candidates sort before DT-only
        # ones at equal key, matching Algorithm 2's physical-first scan
        # (keys of distinct switches never tie — positions are
        # deduplicated — so the tiebreak is purely defensive).
        candidates = []
        physical = self._physical_positions
        for nid, pos in physical.items():
            if nid in exclude:
                continue
            key = self._greedy_key(pos, target)
            if key < own_key:
                candidates.append((key, 0, nid))
        for nid, pos in self._dt_positions.items():
            if nid in exclude or nid in physical:
                continue
            key = self._greedy_key(pos, target)
            if key < own_key:
                candidates.append((key, 1, nid))
        candidates.sort()
        for _, kind, nid in candidates:
            if kind == 0:
                return ForwardAction(next_switch=nid)
            entry = self.table.virtual_entry(nid)
            if entry is None or entry.succ is None:
                if exclude:
                    continue  # degraded: skip the unusable candidate
                raise ForwardingError(
                    f"switch {self.switch_id} has no virtual-link entry "
                    f"toward DT neighbor {nid}"
                )
            if entry.succ in exclude:
                continue  # the relay's first hop is dead
            return _VirtualLinkStart(dest=nid, sour=self.switch_id,
                                     succ=entry.succ)
        return self._deliver(packet)

    def _deliver(self, packet: Packet) -> DeliverAction:
        if self.num_servers <= 0:
            raise ForwardingError(
                f"switch {self.switch_id} must deliver {packet.data_id!r} "
                f"but has no attached servers"
            )
        serial = server_index(packet.data_id, self.num_servers)
        extension = self.table.extension_for(serial)
        return DeliverAction(switch=self.switch_id, primary_serial=serial,
                             extension=extension)

    # ------------------------------------------------------------------
    # control-plane interface
    # ------------------------------------------------------------------
    def install_position(self, position: Point) -> None:
        self.position = position

    def install_physical_neighbor(self, neighbor: int, port: int,
                                  position: Optional[Point] = None) -> None:
        """Install a physical adjacency.

        ``position`` must be given only for neighbors that participate in
        the DT; relay-only neighbors get a port (for virtual-link
        relaying) but are never greedy candidates, since a packet
        greedily moved onto a server-less switch could be trapped there.
        """
        self.table.install_physical(neighbor, port)
        if position is not None:
            self._physical_positions[neighbor] = position

    def remove_physical_neighbor(self, neighbor: int) -> None:
        """Retract a physical adjacency: the port mapping and, if the
        neighbor was a greedy candidate, its candidate position."""
        self.table.remove_physical(neighbor)
        self._physical_positions.pop(neighbor, None)

    def install_dt_neighbor(self, neighbor: int, position: Point) -> None:
        self._dt_positions[neighbor] = position
        self._revision += 1

    def remove_dt_neighbor(self, neighbor: int) -> None:
        self._dt_positions.pop(neighbor, None)
        self._revision += 1

    def clear_dt_state(self) -> None:
        """Drop every neighbor position and virtual-link entry (used on
        a full reinstall; ports stay)."""
        self._physical_positions.clear()
        self._dt_positions.clear()
        self._revision += 1
        self.table.clear_virtual()


@dataclass(frozen=True)
class _VirtualLinkStart:
    """Internal action: begin a virtual link toward a multi-hop DT
    neighbor.  The network engine stamps the header and forwards to
    ``succ``."""

    dest: int
    sour: int
    succ: int
