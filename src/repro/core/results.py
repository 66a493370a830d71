"""Result records returned by the GRED placement/retrieval API.

A result is built one of two ways (DESIGN.md §5k).  A scalar request
builds the dataclass itself, which holds its own ``trace`` /
``records`` list and hands that list back on every read.  A batch body
builds a *view*: the same fields, but ``trace`` (``records``) is one
reference to the batch's column — every trace of the batch in one flat
list of switch ids, every placement record in one flat list — and the
result's ``(start, end)`` span of it, sliced into a fresh list on each
read.  A batch of ``n`` requests then holds ``n`` result objects, not
``n`` results plus ``n`` lists, which is what the batch's garbage
collector has to walk.  Views are instances of the public classes;
``==`` and ``repr`` read every field through its attribute, so a view
equals its scalar twin and shows its own span, never the column.  A
view kept after its call keeps its batch's column alive.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Any, List, Optional, Tuple

from ..edge import ServerId


def compared_as_read(cls):
    """Class decorator for a dataclass declared with ``eq=False,
    repr=False``: ``==`` and ``repr`` over every field as read (a
    ``_name`` field through the ``name`` property), equal across
    subclasses.  Instances stay unhashable, as a dataclass with
    ``eq=True`` is."""
    names = tuple(f.name.lstrip("_") for f in fields(cls))
    read = attrgetter(*names)

    def __eq__(self, other):
        if not isinstance(other, cls):
            return NotImplemented
        return read(self) == read(other)

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in zip(names, read(self)))
        return f"{cls.__qualname__}({shown})"

    cls.__eq__, cls.__repr__, cls.__hash__ = __eq__, __repr__, None
    return cls


def _span(doc: str) -> property:
    """A view's list attribute: its span of the batch's column, a
    fresh list per read.  Assigning a list makes it the whole column
    of this view alone."""

    def read(self):
        return self._column[self._start:self._end]

    def write(self, value) -> None:
        self._column, self._start, self._end = value, 0, len(value)

    return property(read, write, doc=doc)


@compared_as_read
@dataclass(slots=True, eq=False, repr=False)
class PlacementRecord:
    """Outcome of placing one copy of a data item.

    The record classes carry ``__slots__``: one instance is built per
    request (per copy, per probe), so the per-instance ``__dict__``
    was the single largest allocation on the hot path (see ROADMAP
    profiling note).  Slots cut both the memory and the construction
    time without changing the dataclass API.

    Attributes
    ----------
    data_id:
        Identifier of this copy (the replica id for copies > 0).
    entry_switch:
        Switch where the request entered the network.
    destination_switch:
        DT switch closest to the copy's hash position.
    server_id:
        Edge server that stored the copy (may live on a neighbor switch
        when a range extension is active).
    physical_hops:
        Physical hops of the placement route, including the extra hop to
        an extension takeover server when applicable.
    overlay_hops:
        Greedy decisions taken (the paper's one-overlay-hop claim is
        about the DHT structure; greedy may traverse several DT edges).
    trace:
        Switch ids visited by the request (a fresh list per read on a
        record ``place_many`` built).
    extended:
        True when the copy was redirected by a range extension.
    hinted:
        True when the copy could not reach its home server (crashed or
        partitioned away) and was parked as a hinted-handoff write on
        the nearest live server instead; ``server_id`` then names the
        hint holder, not the home.
    """

    data_id: str
    entry_switch: int
    destination_switch: int
    server_id: ServerId
    physical_hops: int
    overlay_hops: int
    trace: List[int] = field(default_factory=list)
    extended: bool = False
    hinted: bool = False


@compared_as_read
@dataclass(slots=True, eq=False, repr=False)
class PlacementResult:
    """Outcome of placing a data item and all of its copies
    (``records``: a fresh list per read on a result ``place_many``
    built)."""

    data_id: str
    records: List[PlacementRecord]

    @property
    def primary(self) -> PlacementRecord:
        return self.records[0]

    @property
    def num_copies(self) -> int:
        return len(self.records)


@compared_as_read
@dataclass(slots=True, eq=False, repr=False)
class RetrievalResult:
    """Outcome of retrieving a data item.

    ``request_hops`` counts the forward path (access point to the
    storage server, including the extension fork hop when taken);
    ``response_hops`` counts the reply path back to the access point
    (network shortest path); ``round_trip_hops`` is their sum.
    ``attempts`` counts the replicas probed nearest-first before this
    outcome (1 = the nearest copy answered; > 1 = replica failover).
    ``trace`` is a fresh list per read on a result ``retrieve_many``
    built.
    """

    data_id: str
    found: bool
    payload: Any
    entry_switch: int
    destination_switch: Optional[int]
    server_id: Optional[ServerId]
    request_hops: int
    response_hops: int
    trace: List[int] = field(default_factory=list)
    copy_used: int = 0
    forked: bool = False
    attempts: int = 1

    @property
    def round_trip_hops(self) -> int:
        return self.request_hops + self.response_hops


# ----------------------------------------------------------------------
# batch-built views (positional constructors, in field order with the
# list replaced by ``column, start, end``)
# ----------------------------------------------------------------------
class _RecordView(PlacementRecord):
    """A :class:`PlacementRecord` ``place_many`` built."""

    __slots__ = ("_column", "_start", "_end")
    trace = _span("Switch ids visited by the request.")

    def __init__(self, data_id, entry_switch, destination_switch,
                 server_id, physical_hops, overlay_hops, column, start,
                 end, extended):
        self.data_id = data_id
        self.entry_switch = entry_switch
        self.destination_switch = destination_switch
        self.server_id = server_id
        self.physical_hops = physical_hops
        self.overlay_hops = overlay_hops
        self._column = column
        self._start = start
        self._end = end
        self.extended = extended
        self.hinted = False  # a hint is parked by the scalar loop only


class _PlacementView(PlacementResult):
    """A :class:`PlacementResult` ``place_many`` built: a span of the
    batch's record column."""

    __slots__ = ("_column", "_start", "_end")
    records = _span("The item's copies, in copy order.")

    def __init__(self, data_id, column, start, end):
        self.data_id = data_id
        self._column = column
        self._start = start
        self._end = end

    @property
    def primary(self) -> PlacementRecord:
        return self._column[self._start]

    @property
    def num_copies(self) -> int:
        return self._end - self._start


class _RetrievalView(RetrievalResult):
    """A :class:`RetrievalResult` ``retrieve_many`` built."""

    __slots__ = ("_column", "_start", "_end")
    trace = _span("Switch ids visited by the request.")

    def __init__(self, data_id, found, payload, entry_switch,
                 destination_switch, server_id, request_hops,
                 response_hops, column, start, end, copy_used, forked,
                 attempts):
        self.data_id = data_id
        self.found = found
        self.payload = payload
        self.entry_switch = entry_switch
        self.destination_switch = destination_switch
        self.server_id = server_id
        self.request_hops = request_hops
        self.response_hops = response_hops
        self._column = column
        self._start = start
        self._end = end
        self.copy_used = copy_used
        self.forked = forked
        self.attempts = attempts


def prepend_traces(queue) -> None:
    """Prepend ``head`` to ``result.trace`` for each ``(result, head)``
    of ``queue`` — one batch's gateway carry (``FederatedNetwork``) —
    with no list per result: the views among them become views of one
    new column.  A scalar-built result gets ``head + trace``, as its
    setter would."""
    column: List[int] = []
    for result, head in queue:
        if isinstance(result, (_RecordView, _RetrievalView)):
            start = len(column)
            column += head
            column += result._column[result._start:result._end]
            result._column, result._start, result._end = (
                column, start, len(column))
        else:
            result.trace = head + result.trace


#: Convenience alias: (switch id, serial) pairs index servers everywhere.
ServerRef = Tuple[int, int]
