"""What a ``gred`` report command (one row of :mod:`repro.cli`) is
declared with, in the module that produces the report: config fields
offered as flags (:func:`flag`), and CI thresholds (:class:`Gate`)."""

from __future__ import annotations

import math
import sys
from dataclasses import field, fields
from typing import Any, Callable, Dict, List, NamedTuple, Optional


def flag(default: Any, help: Optional[str] = None, **spec: Any) -> Any:
    """A config field offered as a ``gred`` flag (type and default
    from the field).  ``spec`` may give its ``name`` (default: the
    field's, dashed), ``metavar``, ``nargs``, a ``parse`` for a FILE
    flag's path and a ``cli_default``; a flag left at ``None`` keeps
    the field's default."""
    return field(default=default, metadata={"flag": dict(spec, help=help)})


def echo(config: Any, *omit: str) -> Dict[str, Any]:
    """``config``'s fields as its report echoes them (less ``omit``):
    tuples as the lists that JSON reads back."""
    record = {f.name: getattr(config, f.name) for f in fields(config)
              if f.name not in omit}
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in record.items()}


def tally(counts: Dict[str, Any], *keys: str) -> str:
    """``"3 sent, 0 dropped"``: each key's count, in order."""
    return ", ".join(f"{counts[key]} {key}" for key in keys)


#: What a southbound channel's stats line reads (``ChannelStats``).
CHANNEL_KEYS = ("sent", "dropped", "duplicated", "reordered", "delayed")


#: The ``check_bounds`` bounds of a finite number > 0.
POSITIVE = (math.ulp(0.0), sys.float_info.max)


def check_bounds(config: Any, **bounds: tuple) -> None:
    """Raise ``ValueError`` naming the first field of ``config`` outside
    its ``(low, high)`` bounds (``high`` ``None``: unbounded;
    :data:`POSITIVE`: finite and > 0); NaN is outside every bound.  A
    tuple field must be non-empty, and each of its items is checked."""
    for name, (low, high) in bounds.items():
        value = getattr(config, name)
        items = value if isinstance(value, tuple) else (value,)
        if not items or not all(
                low <= item and (high is None or item <= high)
                for item in items):
            span = ("finite and > 0" if (low, high) == POSITIVE
                    else f"in [{low}, {high}]" if high is not None
                    else f">= {low}")
            raise ValueError(f"{name} must be {span}, got {value}")


class Gate(NamedTuple):
    """A CI threshold: ``flag`` fails a run for each value at ``key``
    below it (``below``: a ``--min-*`` gate) or above it (``--max-*``).

    ``key`` is dotted; a list on the way is visited row by row, the
    rows ``where`` picks, and ``None`` values pass.  ``message`` is
    formatted with the ``row``, ``value`` and ``limit``.  ``checks``
    (the report's invariants) run whenever the gate is set, and a gate
    with a default always is.  ``after`` names the config field whose
    flag this one follows in ``--help`` (default: the last).
    """

    flag: str
    key: str
    below: bool
    message: str
    help: str
    type: type = float
    default: Any = None
    metavar: str = "N"
    where: Optional[Callable[[Dict], bool]] = None
    checks: Optional[Callable[[Dict], List[str]]] = None
    after: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    def verdict(self, value: Any, limit: Any,
                row: Optional[Dict] = None) -> Optional[str]:
        """The failure message for ``value`` against ``limit``, if any."""
        if value is None or limit is None or not (
                value < limit if self.below else value > limit):
            return None
        return self.message.format(row=row, value=value, limit=limit)

    def failures(self, report: Dict, limit: Any) -> List[str]:
        """Every failure of ``report`` under ``limit``, then its
        invariant checks' (nothing when ``limit`` is ``None``)."""
        if limit is None:
            return []
        *path, last = self.key.split(".")
        rows = [report]
        for part in path:
            rows = [child for row in rows for child in
                    (row[part] if isinstance(row[part], list)
                     else [row[part]])]
        found = [self.verdict(row[last], limit, row) for row in rows
                 if self.where is None or self.where(row)]
        return ([message for message in found if message]
                + (self.checks(report) if self.checks else []))


def gate_failures(gates, report: Dict, limits: Dict[str, Any]) -> List[str]:
    """Every gate's failures, in order, at its limit in ``limits``."""
    return [message for gate in gates
            for message in gate.failures(report, limits.get(gate.dest))]
