"""Compile control-plane state into P4 table entries.

This is the reproduction's analogue of the paper's controller→Thrift
path: it reads the behavioral forwarding state the
:class:`repro.controlplane.Controller` installed (positions, greedy
candidates, virtual-link tuples, extensions) and emits the fixed-point
table entries of the :mod:`oracles.p4.gred_program` switches.

Compiling *from* the behavioral state (rather than recomputing it)
guarantees the two data planes are configured identically, which is
what the differential tests rely on.
"""

from __future__ import annotations

from typing import Dict

from repro.controlplane import Controller
from .gred_program import NO_PORT, NeighborRecord, P4GredSwitch
from .pipeline import P4RuntimeError
from .types import fixed_point


def compile_switch(controller: Controller,
                   switch_id: int) -> P4GredSwitch:
    """Compile one switch's P4 program instance."""
    behavioral = controller.switches[switch_id]
    p4 = P4GredSwitch(
        switch_id=switch_id,
        position=fixed_point(behavioral.position),
        num_servers=behavioral.num_servers,
    )
    # Greedy candidates: physical neighbors with installed positions.
    for nid, pos in behavioral.physical_neighbor_positions.items():
        port = behavioral.table.physical_port(nid)
        if port is None:
            raise P4RuntimeError(
                f"switch {switch_id}: neighbor {nid} has a position "
                f"but no port"
            )
        x, y = fixed_point(pos)
        p4.install_neighbor(NeighborRecord(
            neighbor_id=nid, x=x, y=y, is_physical=True, port=port,
        ))
    # Greedy candidates: multi-hop DT neighbors, plus their vl-start
    # entries.
    for nid, pos in behavioral.dt_neighbor_positions.items():
        if nid in behavioral.physical_neighbor_positions:
            continue  # already installed as physical
        x, y = fixed_point(pos)
        p4.install_neighbor(NeighborRecord(
            neighbor_id=nid, x=x, y=y, is_physical=False, port=NO_PORT,
        ))
        entry = behavioral.table.virtual_entry(nid)
        if entry is None or entry.succ is None:
            raise P4RuntimeError(
                f"switch {switch_id}: DT neighbor {nid} lacks a "
                f"virtual-link entry"
            )
        succ_port = behavioral.table.physical_port(entry.succ)
        if succ_port is None:
            raise P4RuntimeError(
                f"switch {switch_id}: successor {entry.succ} is not a "
                f"physical neighbor"
            )
        p4.tbl_vl_start.insert_entry(
            key=(nid,), action_name="start_vl",
            params=(nid, entry.succ, succ_port),
        )
    # Relay entries for packets traversing virtual links through or
    # from this switch.
    for entry in behavioral.table.virtual_entries():
        if entry.succ is None:
            continue  # terminal entry: the endpoint strips the header
        succ_port = behavioral.table.physical_port(entry.succ)
        if succ_port is None:
            raise P4RuntimeError(
                f"switch {switch_id}: relay successor {entry.succ} is "
                f"not physically adjacent"
            )
        p4.tbl_vl_relay.insert_entry(
            key=(entry.dest,), action_name="relay",
            params=(entry.succ, succ_port),
        )
    # Range-extension rewrites.
    for ext in behavioral.table.extensions():
        p4.tbl_extension.insert_entry(
            key=(ext.local_serial,), action_name="rewrite",
            params=(ext.target_switch, ext.target_serial),
        )
    return p4


def compile_network(controller: Controller) -> Dict[int, P4GredSwitch]:
    """Compile every switch of the network."""
    return {
        switch_id: compile_switch(controller, switch_id)
        for switch_id in controller.switches
    }
