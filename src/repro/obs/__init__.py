"""Process-local observability: metrics, phase timers, event log,
exporters.

The layer is deliberately dependency-free and cheap when off:

* a module-level **default registry** starts *disabled*; every
  instrumented path in the library asks it for instruments and gets a
  shared no-op until :func:`enable` (or ``gred ... --metrics-out`` /
  ``gred metrics``) switches telemetry on;
* :class:`MetricsRegistry` owns :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments (histograms carry bucket counts and
  p50/p90/p99 summaries) plus a bounded :class:`EventLog`;
* :class:`PhaseTimer` / :func:`timed` record wall time into histograms;
* :func:`render_prometheus` and :func:`write_json` export a registry
  (or a saved dump) for scraping and offline analysis.

Typical use::

    from repro import obs

    obs.enable()
    net = GredNetwork(topology, servers)      # phases timed
    net.place("a", payload=b"...")            # counters/histograms
    print(obs.render_prometheus(obs.default_registry()))
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .clock import monotonic, now
from .eventlog import Event, EventLevel, EventLog
from .export import (
    burn_rate,
    dump_quantiles,
    histogram_quantile,
    load_json,
    render_prometheus,
    to_json,
    write_json,
)
from .instruments import (
    BYTE_BUCKETS,
    Counter,
    DEMAND_GRID,
    DemandTracker,
    Gauge,
    HOP_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
    NullInstrument,
    TIME_BUCKETS,
    demand_region,
)
from .spans import (
    NULL_SPAN,
    Span,
    SpanRecorder,
    default_recorder,
    disable_tracing,
    enable_tracing,
    set_default_recorder,
)
from .timing import PhaseTimer, timed

#: The repository-wide default registry.  Starts disabled so the
#: instrumented hot paths are no-ops unless telemetry is requested.
_default_registry = MetricsRegistry(enabled=False)


def default_registry() -> MetricsRegistry:
    """The registry all built-in instrumentation records into."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one (so callers
    can restore it, e.g. around one CLI command)."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


@contextmanager
def scoped_registry() -> Iterator[MetricsRegistry]:
    """A fresh enabled registry as the default for the ``with`` body
    (or, as ``@scoped_registry()``, for one call of the decorated
    function); the previous default is restored on exit, so what the
    body records is its own and nothing leaks."""
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        yield registry
    finally:
        set_default_registry(previous)


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Turn telemetry on.

    With no argument, enables the current default registry in place;
    with a registry, installs it as the default (enabled).  Returns the
    now-active registry.
    """
    global _default_registry
    if registry is not None:
        _default_registry = registry
    _default_registry.enabled = True
    return _default_registry


def disable() -> MetricsRegistry:
    """Turn telemetry off (instruments keep their collected state)."""
    _default_registry.enabled = False
    return _default_registry


def __getattr__(name: str):
    # CountingTracer lives in .bridge, imported lazily to avoid a
    # circular import with repro.dataplane.
    if name == "CountingTracer":
        from .bridge import CountingTracer

        return CountingTracer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BYTE_BUCKETS",
    "Counter",
    "CountingTracer",
    "DEMAND_GRID",
    "DemandTracker",
    "Event",
    "EventLevel",
    "EventLog",
    "Gauge",
    "HOP_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "NULL_SPAN",
    "NullInstrument",
    "PhaseTimer",
    "Span",
    "SpanRecorder",
    "TIME_BUCKETS",
    "burn_rate",
    "default_recorder",
    "default_registry",
    "demand_region",
    "disable",
    "disable_tracing",
    "dump_quantiles",
    "enable",
    "enable_tracing",
    "histogram_quantile",
    "load_json",
    "monotonic",
    "now",
    "render_prometheus",
    "scoped_registry",
    "set_default_recorder",
    "set_default_registry",
    "spans",
    "timed",
    "to_json",
    "write_json",
]
