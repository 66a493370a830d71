"""Declarative fault plans: timed failure events.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` records.
Plans are pure data — JSON round-trippable, validated on construction,
and replayed either instantaneously (phase experiments) or on the
packet simulator's clock (crash-under-load).  Event kinds::

    {"time": 0.2, "kind": "switch_crash", "switch": 4}
    {"time": 0.3, "kind": "server_crash", "switch": 2, "serial": 0}
    {"time": 0.4, "kind": "link_down",   "u": 1, "v": 2}
    {"time": 0.7, "kind": "link_up",     "u": 1, "v": 2}
    {"time": 0.1, "kind": "packet_loss", "u": 0, "v": 3,
     "probability": 0.2}
    {"time": 0.1, "kind": "slow_link",   "u": 0, "v": 3, "factor": 4.0}
    {"time": 0.2, "kind": "partition",   "switches": [1, 4, 9]}
    {"time": 0.8, "kind": "heal_partition"}

A ``partition`` splits the listed switches away from the rest of the
network (packets cannot cross sides); ``heal_partition`` removes every
active split.  Partitions create the replica divergence the storage
scrubber (``gred scrub``) is built to repair.

Control-channel fault kinds degrade the controller's *southbound*
channel instead of the data plane (the injector routes them to the
controller's :class:`~repro.controlplane.channel.FaultyChannel`)::

    {"time": 0.0, "kind": "control_drop",    "probability": 0.2}
    {"time": 0.0, "kind": "control_dup",     "probability": 0.05}
    {"time": 0.0, "kind": "control_delay",   "probability": 0.1}
    {"time": 0.0, "kind": "control_reorder", "window": 4}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Dict, Iterator, List, Optional, Sequence, Union


class FaultPlanError(Exception):
    """Raised for malformed fault plans or inapplicable fault events."""


#: Required extra fields per event kind.
FAULT_KINDS: Dict[str, tuple] = {
    "switch_crash": ("switch",),
    "server_crash": ("switch", "serial"),
    "link_down": ("u", "v"),
    "link_up": ("u", "v"),
    "packet_loss": ("u", "v", "probability"),
    "slow_link": ("u", "v", "factor"),
    "control_drop": ("probability",),
    "control_dup": ("probability",),
    "control_delay": ("probability",),
    "control_reorder": ("window",),
    "partition": ("switches",),
    "heal_partition": (),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault, validated on construction: its kind's required
    fields are present and every field given has its type and range (a
    finite time >= 0, int ids, a probability in [0, 1], a finite factor
    >= 1, an int window >= 1).  A bad one raises :class:`FaultPlanError`
    naming the kind and the field."""

    time: float
    kind: str
    switch: Optional[int] = None
    serial: Optional[int] = None
    u: Optional[int] = None
    v: Optional[int] = None
    probability: Optional[float] = None
    factor: Optional[float] = None
    window: Optional[int] = None
    switches: Optional[tuple] = None

    def __post_init__(self) -> None:
        if isinstance(self.switches, list):
            object.__setattr__(self, "switches", tuple(self.switches))
        if not isinstance(self.kind, str) or self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if not (_is_number(self.time) and 0 <= self.time < math.inf):
            raise self._refused("time", "a finite number >= 0")
        missing = [f for f in FAULT_KINDS[self.kind]
                   if getattr(self, f) is None]
        if missing:
            raise FaultPlanError(
                f"{self.kind} event at t={self.time} is missing "
                f"required field(s) {missing}"
            )
        for name in ("switch", "serial", "u", "v"):
            value = getattr(self, name)
            if value is not None and not _is_int(value):
                raise self._refused(name, "an int")
        if self.probability is not None and not (
                _is_number(self.probability)
                and 0.0 <= self.probability <= 1.0):
            raise self._refused("probability", "a number in [0, 1]")
        if self.factor is not None and not (
                _is_number(self.factor) and 1.0 <= self.factor < math.inf):
            raise self._refused("factor", "a finite number >= 1")
        if self.window is not None and not (
                _is_int(self.window) and self.window >= 1):
            raise self._refused("window", "an int >= 1")
        if self.switches is not None and not (
                isinstance(self.switches, tuple) and self.switches
                and all(map(_is_int, self.switches))):
            raise self._refused("switches",
                                "a non-empty list of switch ids")

    def _refused(self, name: str, wanted: str) -> FaultPlanError:
        """The error of a field that is given but not ``wanted``."""
        value = getattr(self, name)
        if isinstance(value, tuple):
            value = list(value)
        return FaultPlanError(f"{self.kind} event field {name!r} must be "
                              f"{wanted}, got {value!r}")

    def to_dict(self) -> Dict:
        record: Dict = {"time": self.time, "kind": self.kind}
        for name in FAULT_KINDS[self.kind]:
            value = getattr(self, name)
            record[name] = list(value) if isinstance(value, tuple) else value
        return record

    @classmethod
    def from_dict(cls, record: Dict) -> "FaultEvent":
        if not isinstance(record, dict):
            raise FaultPlanError(
                f"a fault event is an object, got {record!r}")
        if "kind" not in record or "time" not in record:
            raise FaultPlanError(
                f"a fault event needs 'time' and 'kind' fields, got "
                f"{sorted(record)}"
            )
        known = {"time", "kind", "switch", "serial", "u", "v",
                 "probability", "factor", "window", "switches"}
        unknown = sorted(set(record) - known)
        if unknown:
            raise FaultPlanError(
                f"unknown fault event field(s) {unknown}")
        return cls(**record)


class FaultPlan:
    """An immutable, time-ordered sequence of fault events."""

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        self._events: List[FaultEvent] = sorted(
            events, key=lambda e: e.time)

    @property
    def events(self) -> List[FaultEvent]:
        return list(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def first_fault_time(self) -> Optional[float]:
        return self._events[0].time if self._events else None

    @property
    def last_fault_time(self) -> Optional[float]:
        return self._events[-1].time if self._events else None

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {"events": [e.to_dict() for e in self._events]}

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultPlan":
        if not isinstance(payload, dict) or "events" not in payload:
            raise FaultPlanError(
                "a fault plan is an object with an 'events' list")
        events = payload["events"]
        if not isinstance(events, list):
            raise FaultPlanError("'events' must be a list")
        return cls([FaultEvent.from_dict(e) for e in events])

    @classmethod
    def from_json(cls, source: Union[str, IO[str]]) -> "FaultPlan":
        """Parse a plan from a JSON file path or an open text file;
        :class:`FaultPlanError`, naming the source, when it does not
        parse (truncated, not JSON, not UTF-8)."""
        try:
            if isinstance(source, str):
                with open(source, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            else:
                payload = json.load(source)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            name = source if isinstance(source, str) else getattr(
                source, "name", "<stream>")
            raise FaultPlanError(
                f"fault plan {name} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)
