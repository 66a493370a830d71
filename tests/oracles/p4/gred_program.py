"""The GRED switch program, expressed as P4-style tables and actions.

This is the reproduction's analogue of the paper's ``gred.p4``: the same
decision procedure as :class:`repro.dataplane.GredSwitch`, but executed
the way the bmv2 prototype executes it —

* coordinates carried as **Q16 fixed-point** header fields (P4 has no
  floats);
* the greedy argmin over neighbors computed by a sequence of
  match-action stages ("multiple match-action stages are designed in
  series to achieve the neighboring switch whose position is closest to
  the position of the data"), modelled here as an unrolled walk over
  installed neighbor records;
* virtual-link relaying via an exact-match table on the link
  destination;
* server selection via a hash field modulo the server count, and the
  range-extension rewrite via an exact-match table on the serial.

Entries are installed by :mod:`oracles.p4.compiler` from control-plane
state, mirroring the paper's Thrift insertion path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .pipeline import (
    P4RuntimeError,
    PacketContext,
    Pipeline,
    Table,
    make_header,
)
from .types import HeaderType, squared_distance_fixed

#: The GRED custom header carried by every placement/retrieval request.
GRED_HEADER = HeaderType(
    name="gred_h",
    fields=(
        ("kind", 2),          # 0 placement / 1 retrieval
        ("pos_x", 32),        # Q16 destination position
        ("pos_y", 32),
        ("dsel", 64),         # server-selection hash of the data id
        ("vl_valid", 1),      # traversing a virtual link?
        ("vl_dest", 32),
        ("vl_sour", 32),
        ("vl_relay", 32),
    ),
)

#: Sentinel for "no port" in compiled entries.
NO_PORT = 0xFFFF


@dataclass(frozen=True)
class NeighborRecord:
    """One greedy candidate installed into the switch.

    ``is_physical`` selects direct forwarding; multi-hop DT neighbors
    start a virtual link via ``tbl_vl_start`` instead.
    """

    neighbor_id: int
    x: int
    y: int
    is_physical: bool
    port: int  # egress port for physical neighbors, NO_PORT otherwise


@dataclass
class DeliveryInfo:
    """Filled in when the pipeline decides to deliver locally."""

    switch: int
    serial: int
    extension_switch: Optional[int] = None
    extension_serial: Optional[int] = None


class P4GredSwitch:
    """One switch running the compiled GRED program."""

    def __init__(self, switch_id: int, position: Tuple[int, int],
                 num_servers: int) -> None:
        self.switch_id = switch_id
        self.position = position  # Q16
        self.num_servers = num_servers
        self.neighbors: List[NeighborRecord] = []
        self.tbl_vl_relay = Table(
            name="tbl_vl_relay",
            key_fields=[("gred", "vl_dest")],
            actions={"relay": self._act_relay},
        )
        self.tbl_vl_start = Table(
            name="tbl_vl_start",
            key_fields=[("meta", "best_neighbor")],
            actions={"start_vl": self._act_start_vl},
        )
        self.tbl_extension = Table(
            name="tbl_extension",
            key_fields=[("meta", "serial")],
            actions={"rewrite": self._act_extension_rewrite},
        )
        self.pipeline = Pipeline(f"gred_switch_{switch_id}",
                                 self._control)
        #: Set as a side effect of delivery, read by the network driver.
        self.last_delivery: Optional[DeliveryInfo] = None

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def _act_relay(self, ctx: PacketContext,
                   params: Tuple[int, ...]) -> None:
        succ, port = params
        ctx.header("gred").set("vl_relay", succ)
        ctx.egress_port = port

    def _act_start_vl(self, ctx: PacketContext,
                      params: Tuple[int, ...]) -> None:
        dest, succ, port = params
        gred = ctx.header("gred")
        gred.set("vl_valid", 1)
        gred.set("vl_dest", dest)
        gred.set("vl_sour", self.switch_id)
        gred.set("vl_relay", succ)
        ctx.egress_port = port

    def _act_extension_rewrite(self, ctx: PacketContext,
                               params: Tuple[int, ...]) -> None:
        target_switch, target_serial = params
        ctx.set_meta("ext_switch", target_switch)
        ctx.set_meta("ext_serial", target_serial)
        ctx.set_meta("ext_valid", 1)

    # ------------------------------------------------------------------
    # control block
    # ------------------------------------------------------------------
    def _control(self, ctx: PacketContext) -> None:
        gred = ctx.header("gred")
        if gred.get("vl_valid"):
            if gred.get("vl_dest") != self.switch_id:
                hit = self.tbl_vl_relay.apply(ctx)
                if not hit:
                    raise P4RuntimeError(
                        f"switch {self.switch_id}: vl relay miss for "
                        f"dest {gred.get('vl_dest')}"
                    )
                return
            # Endpoint: strip the virtual-link header, fall through to
            # the greedy stages.
            gred.set("vl_valid", 0)
        self._greedy_stages(ctx)

    def _greedy_key(self, x: int, y: int, node_id: int,
                    tx: int, ty: int) -> Tuple[int, int, int, int]:
        """Comparison key: (squared distance, x, y, id) — the paper's
        x-then-y tie-break plus the id as a total-order fallback for
        positions that collide after Q16 quantization."""
        return (squared_distance_fixed(x, y, tx, ty), x, y, node_id)

    def _greedy_stages(self, ctx: PacketContext) -> None:
        gred = ctx.header("gred")
        tx = gred.get("pos_x")
        ty = gred.get("pos_y")
        own_key = self._greedy_key(self.position[0], self.position[1],
                                   self.switch_id, tx, ty)
        best_key = own_key
        best: Optional[NeighborRecord] = None
        # One unrolled match-action stage per installed neighbor.
        for record in self.neighbors:
            key = self._greedy_key(record.x, record.y,
                                   record.neighbor_id, tx, ty)
            if key < best_key:
                best_key = key
                best = record
        if best is None:
            self._deliver(ctx)
            return
        if best.is_physical:
            ctx.egress_port = best.port
            return
        ctx.set_meta("best_neighbor", best.neighbor_id)
        hit = self.tbl_vl_start.apply(ctx)
        if not hit:
            raise P4RuntimeError(
                f"switch {self.switch_id}: no virtual-link start entry "
                f"for DT neighbor {best.neighbor_id}"
            )

    def _deliver(self, ctx: PacketContext) -> None:
        if self.num_servers <= 0:
            raise P4RuntimeError(
                f"switch {self.switch_id} cannot deliver: no servers"
            )
        gred = ctx.header("gred")
        serial = gred.get("dsel") % self.num_servers
        ctx.set_meta("serial", serial)
        ctx.set_meta("ext_valid", 0)
        self.tbl_extension.apply(ctx)
        info = DeliveryInfo(switch=self.switch_id, serial=serial)
        if ctx.meta("ext_valid"):
            info.extension_switch = ctx.meta("ext_switch")
            info.extension_serial = ctx.meta("ext_serial")
        self.last_delivery = info
        ctx.delivered = True

    # ------------------------------------------------------------------
    # control-plane surface
    # ------------------------------------------------------------------
    def install_neighbor(self, record: NeighborRecord) -> None:
        self.neighbors = [
            r for r in self.neighbors
            if r.neighbor_id != record.neighbor_id
        ]
        self.neighbors.append(record)

    def num_entries(self) -> int:
        """Installed state: neighbor records + table entries (the
        P4-side analogue of ``ForwardingTable.num_entries``)."""
        return (len(self.neighbors)
                + self.tbl_vl_relay.num_entries()
                + self.tbl_vl_start.num_entries()
                + self.tbl_extension.num_entries())


def make_gred_packet(kind: int, pos: Tuple[int, int],
                     dsel: int) -> PacketContext:
    """A fresh packet context carrying the GRED header."""
    ctx = PacketContext()
    ctx.headers["gred"] = make_header(
        GRED_HEADER, kind=kind, pos_x=pos[0], pos_y=pos[1], dsel=dsel,
        vl_valid=0, vl_dest=0, vl_sour=0, vl_relay=0,
    )
    return ctx
