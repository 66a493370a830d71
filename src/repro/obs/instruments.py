"""Metric instruments and the registry that owns them.

Three instrument kinds (mirroring the Prometheus data model, which the
exporters speak):

* :class:`Counter` — a monotonically increasing count (requests routed,
  rules installed, items migrated);
* :class:`Gauge` — a value that goes up and down (per-server load,
  simulator queue depth);
* :class:`Histogram` — a distribution with configurable bucket bounds
  plus p50/p90/p99 summaries from a bounded reservoir (phase wall
  times, hops per request, payload sizes).

Instruments live in a :class:`MetricsRegistry`.  A *disabled* registry
hands out a shared null instrument whose methods do nothing, so
instrumented hot paths cost one attribute check when telemetry is off —
the repository-wide default registry (:mod:`repro.obs`) starts
disabled for exactly this reason.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Default bucket bounds (seconds) for wall-time histograms.
TIME_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default bucket bounds for hop-count histograms.
HOP_BUCKETS: Tuple[float, ...] = (
    1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64,
)

#: Default bucket bounds for payload/message sizes (bytes).
BYTE_BUCKETS: Tuple[float, ...] = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576,
)

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_pairs(labels: Dict[str, Any]) -> LabelPairs:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Common identity of every instrument."""

    kind: str = "instrument"

    def __init__(self, name: str, help: str = "",
                 labels: LabelPairs = ()) -> None:
        self.name = name
        self.help = help
        self.labels: LabelPairs = labels

    @property
    def label_dict(self) -> Dict[str, str]:
        return dict(self.labels)


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: LabelPairs = ()) -> None:
        super().__init__(name, help, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "labels": self.label_dict,
                "value": self._value}


class Gauge(_Instrument):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: LabelPairs = ()) -> None:
        super().__init__(name, help, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "labels": self.label_dict,
                "value": self._value}


class Histogram(_Instrument):
    """A distribution: cumulative buckets plus percentile summaries.

    ``buckets`` are the upper bounds (``le``) of the finite buckets; an
    implicit ``+Inf`` bucket always exists.  Percentiles come from a
    bounded reservoir of the most recent observations (nearest-rank
    over up to ``reservoir_size`` values), so memory stays constant no
    matter how long the process runs.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Optional[Sequence[float]] = None,
                 reservoir_size: int = 2048,
                 labels: LabelPairs = ()) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(sorted(buckets if buckets is not None
                              else TIME_BUCKETS))
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly "
                             f"increasing: {bounds}")
        self.buckets: Tuple[float, ...] = bounds
        # One count per finite bucket plus the +Inf overflow bucket.
        self._bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._reservoir: deque = deque(maxlen=reservoir_size)

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self._bucket_counts[index] += 1
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        self._reservoir.append(value)

    def observe_many(self, values) -> None:
        """Observe a batch of values with numpy reductions.

        For integer-valued observations (hop counts, byte sizes — the
        batch fast path's cases) the resulting state is *identical* to
        observing each value sequentially: integers are exact in
        float64 under any summation order, bucket indexing matches the
        scalar ``value <= bound`` scan, and the reservoir sees the
        values in the same order ``values`` carries them.
        """
        import numpy as np

        if isinstance(values, (list, tuple)) and len(values) <= 4:
            # A batch of one (the scalar route stage) or a handful:
            # numpy dispatch costs more than the plain scan.
            for value in values:
                self.observe(value)
            return
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        # First bound with value <= bound == count of bounds < value.
        idx = np.searchsorted(np.asarray(self.buckets), arr,
                              side="left")
        counts = np.bincount(idx, minlength=len(self.buckets) + 1)
        for i, c in enumerate(counts):
            if c:
                self._bucket_counts[i] += int(c)
        self._count += int(arr.size)
        self._sum += float(np.sum(arr))
        lo = float(np.min(arr))
        hi = float(np.max(arr))
        if self._min is None or lo < self._min:
            self._min = lo
        if self._max is None or hi > self._max:
            self._max = hi
        self._reservoir.extend(arr.tolist())

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> Optional[float]:
        return self._sum / self._count if self._count else None

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts, +Inf last."""
        return list(self._bucket_counts)

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile (``q`` in [0, 1]) over the
        reservoir; ``None`` when nothing was observed."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._reservoir:
            return None
        ordered = sorted(self._reservoir)
        rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
        return ordered[rank]

    def summary(self) -> Dict[str, Any]:
        """count/sum/mean/min/max plus p50/p90/p99."""
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self._min,
            "max": self._max,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }

    def to_dict(self) -> Dict[str, Any]:
        out = {"name": self.name, "labels": self.label_dict,
               "buckets": list(self.buckets),
               "bucket_counts": self.bucket_counts()}
        out.update(self.summary())
        return out


class NullInstrument:
    """Shared do-nothing stand-in handed out by a disabled registry.

    Implements the full write surface of all three instrument kinds so
    instrumented code never needs to branch on whether telemetry is on.
    """

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass


#: The singleton null instrument.
NULL_INSTRUMENT = NullInstrument()


#: Grid resolution of :func:`demand_region` (regions 0..63).
DEMAND_GRID = 8


def demand_region(x: float, y: float, grid: int = DEMAND_GRID,
                  extent: float = 1.0) -> int:
    """Map a virtual-space position to a coarse region id.

    The unit square is cut into a ``grid x grid`` lattice (row-major,
    ``0 .. grid*grid - 1``); out-of-range coordinates clamp to the edge
    cells.  The demand-adaptive embedding work (ROADMAP) consumes
    these region ids as its spatial access signal.
    """
    col = min(grid - 1, max(0, int(x / extent * grid)))
    row = min(grid - 1, max(0, int(y / extent * grid)))
    return row * grid + col


class DemandTracker:
    """Per-item access counts for the demand-adaptive embedding signal.

    A plain dict of ``item id -> access count``, fed by both the scalar
    path and the batch fast path (the latter via
    :meth:`record_many`).  Deliberately not a labeled counter family:
    item cardinality is unbounded, and the embedding layer wants the
    raw map, not an exposition series per item.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def record(self, item_id: str, count: int = 1) -> None:
        self._counts[item_id] = self._counts.get(item_id, 0) + count

    def record_many(self, item_ids: Iterable[str]) -> None:
        counts = self._counts
        for item_id in item_ids:
            counts[item_id] = counts.get(item_id, 0) + 1

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    @property
    def unique_items(self) -> int:
        return len(self._counts)

    def counts(self) -> Dict[str, int]:
        """The full ``item id -> access count`` map (a copy)."""
        return dict(self._counts)

    def top(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` hottest items, most-accessed first (ties broken
        by item id for determinism)."""
        return sorted(self._counts.items(),
                      key=lambda kv: (-kv[1], kv[0]))[:n]

    def clear(self) -> None:
        self._counts.clear()

    def to_dict(self, top_n: int = 10) -> Dict[str, Any]:
        return {
            "total": self.total,
            "unique_items": self.unique_items,
            "top": [{"item": item, "count": count}
                    for item, count in self.top(top_n)],
        }


class MetricsRegistry:
    """Owns named instruments and the structured event log.

    Parameters
    ----------
    enabled:
        When ``False`` every instrument getter returns the shared
        :data:`NULL_INSTRUMENT` and :meth:`event` does nothing, making
        instrumented code a cheap no-op.
    event_capacity:
        Bounded size of the attached :class:`repro.obs.EventLog`.
    reservoir_size:
        Percentile reservoir size for histograms created here.
    """

    def __init__(self, enabled: bool = True, event_capacity: int = 4096,
                 reservoir_size: int = 2048) -> None:
        from .eventlog import EventLevel, EventLog

        self.enabled = enabled
        self.reservoir_size = reservoir_size
        self.event_log = EventLog(capacity=event_capacity)
        self.demand = DemandTracker()
        self._info_level = EventLevel.INFO
        self._instruments: Dict[Tuple[str, str, LabelPairs],
                                _Instrument] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # instrument getters (get-or-create)
    # ------------------------------------------------------------------
    def _get(self, kind: str, factory, name: str, help: str,
             labels: Dict[str, Any]):
        if not self.enabled:
            return NULL_INSTRUMENT
        key = (kind, name, _label_pairs(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = factory(key[2])
                    self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._get(
            "counter",
            lambda pairs: Counter(name, help, labels=pairs),
            name, help, labels,
        )

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._get(
            "gauge",
            lambda pairs: Gauge(name, help, labels=pairs),
            name, help, labels,
        )

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None,
                  **labels: Any) -> Histogram:
        return self._get(
            "histogram",
            lambda pairs: Histogram(
                name, help, buckets=buckets,
                reservoir_size=self.reservoir_size, labels=pairs,
            ),
            name, help, labels,
        )

    def timer(self, name: str, help: str = "",
              buckets: Optional[Sequence[float]] = None, **labels: Any):
        """A :class:`repro.obs.PhaseTimer` recording into
        ``histogram(name)`` (seconds)."""
        from .timing import PhaseTimer

        return PhaseTimer(self, name, help=help, buckets=buckets,
                          **labels)

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def event(self, name: str, level=None, **fields: Any) -> None:
        """Append a structured event (no-op when disabled).

        When the bounded ring wraps, the overwritten event is counted
        in the ``obs.eventlog.dropped`` counter so the loss is visible
        in exports instead of silent.
        """
        if not self.enabled:
            return
        before = self.event_log.dropped
        self.event_log.log(level if level is not None
                           else self._info_level, name, **fields)
        lost = self.event_log.dropped - before
        if lost:
            self.counter(
                "obs.eventlog.dropped",
                help="Events lost to ring-buffer wrap",
            ).inc(lost)

    # ------------------------------------------------------------------
    # introspection / export
    # ------------------------------------------------------------------
    def instruments(self) -> Iterable[_Instrument]:
        """All instruments, deterministically ordered."""
        return [self._instruments[key]
                for key in sorted(self._instruments)]

    def lookup(self, instrument_kind: str, name: str,
                  **labels: Any) -> Optional[_Instrument]:
        """Look up an existing instrument by kind ("counter", "gauge",
        "histogram"), name and labels (``None`` when absent).

        The first parameter is positional-only in spirit so that a
        label literally named ``kind`` (as the data-plane counters use)
        can be passed through ``**labels``.
        """
        return self._instruments.get(
            (instrument_kind, name, _label_pairs(labels)))

    def counter_values(self, prefix: str = "") -> Dict[str, float]:
        """Current counter values, optionally filtered by name prefix.

        Labeled series are keyed ``name{k=v,...}`` (labels sorted) so
        one flat dict carries the whole counter state — handy for
        embedding in JSON reports.
        """
        out: Dict[str, float] = {}
        for instrument in self.instruments():
            if instrument.kind != "counter":
                continue
            if prefix and not instrument.name.startswith(prefix):
                continue
            if instrument.labels:
                label_text = ",".join(f"{k}={v}" for k, v
                                      in instrument.labels)
                key = f"{instrument.name}{{{label_text}}}"
            else:
                key = instrument.name
            out[key] = instrument.value
        return out

    def reset(self) -> None:
        """Drop every instrument, all logged events, and the demand
        map."""
        with self._lock:
            self._instruments.clear()
        self.event_log.clear()
        self.demand.clear()

    def to_dict(self, include_events: bool = True) -> Dict[str, Any]:
        """JSON-serializable dump of the whole registry."""
        counters = []
        gauges = []
        histograms = []
        for instrument in self.instruments():
            if instrument.kind == "counter":
                counters.append(instrument.to_dict())
            elif instrument.kind == "gauge":
                gauges.append(instrument.to_dict())
            elif instrument.kind == "histogram":
                histograms.append(instrument.to_dict())
        out: Dict[str, Any] = {
            "format": "gred-metrics-v1",
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "events_dropped": self.event_log.dropped,
            "demand": self.demand.to_dict(),
        }
        if include_events:
            out["events"] = [e.to_dict() for e in self.event_log.events()]
        return out
