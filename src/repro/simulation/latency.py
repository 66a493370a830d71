"""The one per-hop latency model: every hop crosses one link and one
switch pipeline, and the storage server adds a fixed service time.

The packet-level simulator moves packets hop by hop through it, and
the resilience pipeline charges each probe through
:meth:`LatencyModel.round_trip` and a healthy batch through its two
parts, :meth:`LatencyModel.nominal` and :func:`slow_excess`.  Fig. 8's
defaults approximate a small-campus edge deployment: 50 microseconds
per physical link
traversal (propagation + transmission for a small request), 10
microseconds of switch pipeline latency per hop, and 200 microseconds
of server service time per request.  Absolute values only set the
scale of Fig. 8; the reproduced *shape* (delay roughly flat in the
number of requests, dominated by path length) is model-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence


@dataclass(frozen=True)
class LatencyModel:
    """Per-component delays, in seconds."""

    link_delay: float = 50e-6
    switch_delay: float = 10e-6
    server_service_time: float = 200e-6

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{f.name} must be a finite number >= 0, "
                                 f"got {value!r}")

    def path_delay(self, hops: int) -> float:
        """One-way delay of a path of ``hops`` physical hops.

        Every hop crosses one link and one switch pipeline; the final
        delivery to the server host adds no extra link in this model.
        """
        if hops < 0:
            raise ValueError(f"hops must be >= 0, got {hops}")
        return hops * (self.link_delay + self.switch_delay)

    def nominal(self, out, back):
        """Delay of ``out`` hops out, the server's service time and
        ``back`` hops home when no link is slow.  The same IEEE
        operations run on Python ints and on int64 columns, so a
        batch's column of delays equals its per-request delays bit for
        bit."""
        return ((out + back) * (self.link_delay + self.switch_delay)
                + self.server_service_time)

    def round_trip(self, trace: Sequence[int], hops: int,
                   back: Optional[int] = None, fault_state=None,
                   reply: Optional[Sequence[int]] = None) -> float:
        """Delay of one request/response exchange: ``hops`` physical hops
        out along ``trace``, the server's service time, and ``back`` hops
        home (``None``: the reply retraces ``trace``), plus
        :func:`slow_excess` link delays when ``fault_state`` slows a
        link.  A reply known only by its hop count (``back`` without
        ``reply``) runs at the nominal per-hop delay."""
        retraced = back is None
        delay = self.nominal(hops, hops if retraced else back)
        if fault_state is not None and fault_state.slow:
            delay += (slow_excess(fault_state, trace, retraced, reply)
                      * self.link_delay)
        return delay


def slow_excess(fault_state, trace: Sequence[int], retraced: bool,
                reply: Optional[Sequence[int]] = None) -> float:
    """Extra link delays, in units of ``link_delay``, that the links
    ``fault_state`` slows add to one exchange: ``factor - 1`` per
    traversal of a link ``factor`` times slower, once out along
    ``trace`` and once back along ``trace`` again (``retraced``) or
    along ``reply``, the switches the reply crosses."""
    factor = fault_state.delay_factor
    excess = sum(factor(u, v) - 1.0 for u, v in zip(trace, trace[1:]))
    if retraced:
        excess *= 2
    elif reply is not None:
        excess += sum(factor(u, v) - 1.0 for u, v in zip(reply, reply[1:]))
    return excess
