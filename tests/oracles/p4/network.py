"""Driving packets through a network of P4 GRED switches.

``P4Network`` mirrors the routing surface of
:class:`repro.core.GredNetwork` (``route_for``) but executes the
compiled fixed-point pipeline, so the evaluation and the differential
tests can run the same workloads on both data planes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.controlplane import Controller
from repro.hashing import data_position, sha256_digest
from .compiler import compile_network
from .gred_program import DeliveryInfo, P4GredSwitch, make_gred_packet
from .pipeline import P4RuntimeError
from .types import fixed_point


@dataclass
class P4RouteResult:
    """Outcome of routing one packet through the P4 data plane."""

    delivery: DeliveryInfo
    trace: List[int] = field(default_factory=list)

    @property
    def destination_switch(self) -> int:
        return self.delivery.switch

    @property
    def physical_hops(self) -> int:
        return max(0, len(self.trace) - 1)


class P4Network:
    """The compiled P4 data plane of a GRED deployment.

    Parameters
    ----------
    controller:
        A configured control plane; its installed state is compiled
        into P4 table entries.  Call :meth:`recompile` after any
        control-plane change (rule updates, extensions, dynamics).
    """

    def __init__(self, controller: Controller) -> None:
        self.controller = controller
        self.switches: Dict[int, P4GredSwitch] = {}
        self._port_to_neighbor: Dict[int, Dict[int, int]] = {}
        self.recompile()

    def recompile(self) -> None:
        """Re-derive all P4 entries from the current controller state."""
        from repro.controlplane import compile_port_map

        self.switches = compile_network(self.controller)
        ports = compile_port_map(self.controller.topology)
        self._port_to_neighbor = {
            node: {port: neighbor
                   for neighbor, port in port_map.items()}
            for node, port_map in ports.items()
        }

    def route_for(self, data_id: str, entry_switch: int,
                  max_hops: Optional[int] = None) -> P4RouteResult:
        """Route a retrieval/placement request for ``data_id``."""
        if entry_switch not in self.switches:
            raise P4RuntimeError(f"unknown entry switch {entry_switch}")
        if max_hops is None:
            max_hops = 4 * len(self.switches) + 16
        position = fixed_point(data_position(data_id))
        dsel = int.from_bytes(sha256_digest(data_id)[:8], "big")
        ctx = make_gred_packet(kind=1, pos=position, dsel=dsel)
        current = entry_switch
        trace = [current]
        hops = 0
        while True:
            switch = self.switches[current]
            switch.last_delivery = None
            ctx.egress_port = None
            switch.pipeline.process(ctx)
            if ctx.delivered:
                return P4RouteResult(delivery=switch.last_delivery,
                                     trace=trace)
            if ctx.egress_port is None:
                raise P4RuntimeError(
                    f"switch {current} neither delivered nor forwarded"
                )
            neighbor = self._port_to_neighbor[current].get(
                ctx.egress_port)
            if neighbor is None:
                raise P4RuntimeError(
                    f"switch {current}: egress port {ctx.egress_port} "
                    f"maps to no link"
                )
            current = neighbor
            trace.append(current)
            hops += 1
            if hops > max_hops:
                raise P4RuntimeError(
                    f"hop bound exceeded routing {data_id!r} "
                    f"(trace {trace})"
                )

    def total_entries(self) -> int:
        """Total installed P4 state across switches."""
        return sum(s.num_entries() for s in self.switches.values())
