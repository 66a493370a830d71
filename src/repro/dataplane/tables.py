"""Forwarding tables installed into GRED switches by the control plane.

A GRED switch holds three kinds of state (paper Sections IV-C and V-B):

* **physical entries** — one per physical neighbor (out port);
* **virtual-link entries** — the 4-tuples ``<sour, pred, succ, dest>``
  that relay packets along the multi-hop path toward a DT neighbor;
* **extension entries** — address-rewrite rules installed during range
  extension: data addressed to a local overloaded server is rewritten to
  a server on a neighboring switch (paper Tables I/II).

The table-size experiment (Fig. 9d) counts exactly these entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class VirtualLinkEntry:
    """One 4-tuple ``<sour, pred, succ, dest>`` of the table ``F_u``.

    ``sour``/``dest`` are the endpoints of the virtual link; ``pred`` and
    ``succ`` are this switch's predecessor and successor on the physical
    path realizing it.  ``pred`` is ``None`` at the source switch and
    ``succ`` is ``None`` at the destination switch.
    """

    sour: int
    pred: Optional[int]
    succ: Optional[int]
    dest: int


@dataclass(frozen=True)
class ExtensionEntry:
    """Range-extension rewrite: redirect a local server's data elsewhere.

    ``local_serial`` identifies the (overloaded) server attached to this
    switch; the data is rewritten toward server ``target_serial`` on
    switch ``target_switch`` (a physical neighbor).
    """

    local_serial: int
    target_switch: int
    target_serial: int


class ForwardingTable:
    """The complete forwarding state of one switch.

    ``revision`` advances on every write to the physical or virtual
    entries (the state a plan snapshot reads; extensions are not part
    of it), so a reader that remembers it can tell whether anything
    it read since changed.
    """

    def __init__(self) -> None:
        self._physical: Dict[int, int] = {}  # neighbor id -> port
        self._virtual: Dict[int, VirtualLinkEntry] = {}  # dest -> entry
        self._extensions: Dict[int, ExtensionEntry] = {}  # serial -> entry
        self.revision = 0

    # -- physical ------------------------------------------------------
    def install_physical(self, neighbor: int, port: int) -> None:
        self._physical[neighbor] = port
        self.revision += 1

    def remove_physical(self, neighbor: int) -> None:
        self._physical.pop(neighbor, None)
        self.revision += 1

    def physical_port(self, neighbor: int) -> Optional[int]:
        return self._physical.get(neighbor)

    def physical_neighbors(self) -> List[int]:
        return list(self._physical)

    # -- virtual links ---------------------------------------------------
    def install_virtual(self, entry: VirtualLinkEntry) -> None:
        """Install a relay tuple, keyed by the virtual-link destination
        (the paper matches tuples on ``t.dest == d.dest``)."""
        self._virtual[entry.dest] = entry
        self.revision += 1

    def remove_virtual(self, dest: int) -> None:
        self._virtual.pop(dest, None)
        self.revision += 1

    def virtual_entry(self, dest: int) -> Optional[VirtualLinkEntry]:
        return self._virtual.get(dest)

    def virtual_entries(self) -> List[VirtualLinkEntry]:
        return list(self._virtual.values())

    def clear_virtual(self) -> None:
        self._virtual.clear()
        self.revision += 1

    # -- range extension -------------------------------------------------
    def install_extension(self, entry: ExtensionEntry) -> None:
        self._extensions[entry.local_serial] = entry

    def remove_extension(self, local_serial: int) -> None:
        self._extensions.pop(local_serial, None)

    def extension_for(self, local_serial: int) -> Optional[ExtensionEntry]:
        return self._extensions.get(local_serial)

    def extensions(self) -> List[ExtensionEntry]:
        return list(self._extensions.values())

    # -- accounting --------------------------------------------------------
    def num_entries(self) -> int:
        """Total installed entries (the Fig. 9d metric)."""
        return (len(self._physical) + len(self._virtual)
                + len(self._extensions))

    def entry_breakdown(self) -> Tuple[int, int, int]:
        """``(physical, virtual, extension)`` entry counts."""
        return (len(self._physical), len(self._virtual),
                len(self._extensions))
