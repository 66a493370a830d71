"""Bridges between the telemetry layer and the per-packet tracer.

The data plane's :class:`repro.dataplane.Tracer` narrates individual
packets; :class:`CountingTracer` additionally aggregates every trace
event into per-kind counters of a metrics registry, so a traced
debugging session and fleet-wide telemetry come from one instrument
stream.
"""

from __future__ import annotations

from typing import Any, List

from ..dataplane.tracing import TraceEventKind, Tracer
from .spans import Span, SpanRecorder


class CountingTracer(Tracer):
    """A :class:`Tracer` that mirrors every event into counters.

    Each recorded event increments
    ``dataplane.trace_events{kind=<event kind>}`` in ``registry`` (the
    default registry when omitted, resolved at record time).
    """

    def __init__(self, registry=None) -> None:
        super().__init__()
        self._registry = registry

    def record(self, kind: TraceEventKind, switch: int, data_id: str,
               **details: Any) -> None:
        super().record(kind, switch, data_id, **details)
        registry = self._registry
        if registry is None:
            from . import default_registry

            registry = default_registry()
        if registry.enabled:
            registry.counter(
                "dataplane.trace_events",
                help="Trace events bridged from the data-plane tracer",
                kind=kind.value,
            ).inc()


def spans_from_tracer(recorder: SpanRecorder, tracer: Tracer,
                      parent: Span) -> List[Span]:
    """Promote a packet's tracer events to per-hop child spans.

    Each forwarding decision becomes one span named
    ``hop.<event kind>`` under ``parent``.  Simulated forwarding has no
    measurable per-hop wall time, so hops are laid out sequentially
    from the parent's start at a microsecond apiece — the
    sequence/topology is the signal, the synthetic durations just make
    the hops render in order in ``chrome://tracing``.
    """
    spans: List[Span] = []
    for i, event in enumerate(tracer.events()):
        attrs = {"switch": event.switch, "data_id": event.data_id}
        attrs.update(event.details)
        span = recorder.add_span(
            f"hop.{event.kind.value}",
            start=parent.start + i * 1e-6,
            end=parent.start + (i + 1) * 1e-6,
            parent=parent,
            **attrs,
        )
        if span is not None:
            spans.append(span)
    return spans
