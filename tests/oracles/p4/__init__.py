"""P4 prototype model: the paper's data plane, executed the bmv2 way.

Fixed-point header fields, exact-match match-action tables, actions
installed through a compiler from control-plane state, and a network
driver — a software stand-in for the published P4 prototype that
``tests/test_p4.py`` and ``tests/test_golden.py`` check the data plane
against.
"""

from .gred_program import GRED_HEADER, make_gred_packet
from .network import P4Network
from .pipeline import P4RuntimeError, PacketContext, Table, make_header
from .types import (
    Header,
    HeaderType,
    P4TypeError,
    fixed_point,
    from_fixed,
    squared_distance_fixed,
    to_fixed,
)
