"""The committed perf trajectory: ``BENCH_history.json``.

    python tools/bench_history.py              # append CHANGES.md's new rows
    python tools/bench_history.py --since REV  # exit 1 if a row at REV changed

Every perf change records its gredbench before/after table in
CHANGES.md: a markdown table whose header starts ``| workload | metric
|``, below the line of the PR it belongs to, one row per workload and
end-to-end metric with the parent's and the change's median and
quartiles, their ratio, the change's wins over the pairs run (when
recorded) and the verdict.  This tool turns each such row into one
history row, marked ``source: changelog``; ``set`` numbers a PR's
tables in order, since some PRs record more than one run set.  Earlier
PRs wrote their figures in prose and are not back-filled.

The history only grows: existing rows keep their place and content,
and new ones are appended.  ``--since REV`` compares the file with the
one committed at ``REV`` (``HEAD~1`` on CI, where the checkout fetches
two commits) and checks every row's shape; a file absent at ``REV``
counts as empty, a revision that is not there is an error.
``tests/test_bench_history.py`` fails while a CHANGES.md table row is
missing from the file.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
CHANGES = ROOT / "CHANGES.md"
HISTORY = ROOT / "BENCH_history.json"
SCHEMA = "gred-bench-history-v1"
VERDICTS = ("improved", "unchanged", "identical", "regressed",
            "unresolved")
#: The fields that name a row: one per (PR, table, workload, metric).
KEY = ("pr", "set", "workload", "metric")

_PR_LINE = re.compile(r"^(?:- )?(?:\*\*)?PR (\d+)\b")
_HEADER = re.compile(r"^\| workload \| metric \|")
_SIDE = re.compile(r"^([0-9.]+k?) \[([0-9.]+k?), ([0-9.]+k?)\]$")


def _number(text: str) -> float:
    """A table figure as a float, ``k`` meaning thousands, with no
    binary rounding from the scaling (``292.6k`` is ``292600.0``)."""
    if text.endswith("k"):
        return float(Decimal(text[:-1]) * 1000)
    return float(text)


def _side(cell: str) -> Dict[str, float]:
    match = _SIDE.match(cell)
    if match is None:
        raise ValueError(f"not a 'median [q1, q3]' cell: {cell!r}")
    median, q1, q3 = map(_number, match.groups())
    return {"median": median, "q1": q1, "q3": q3}


def backfill(text: str) -> List[Dict]:
    """Every perf-table row of a CHANGES.md text, in document order."""
    rows: List[Dict] = []
    pr: Optional[int] = None
    tables: Dict[int, int] = {}
    columns: Optional[List[str]] = None
    for line in text.splitlines():
        match = _PR_LINE.match(line)
        if match:
            pr = int(match.group(1))
        if not line.startswith("|"):
            columns = None
            continue
        cells = [cell.strip() for cell in line.strip().strip("|")
                 .split("|")]
        if _HEADER.match(line):
            columns = cells
            tables[pr] = tables.get(pr, 0) + 1
            continue
        if columns is None or set(line) <= set("|-: "):
            continue
        if pr is None:
            raise ValueError(f"a perf table before any PR line: {line}")
        row = dict(zip(columns, cells))
        wins = row.get("wins")
        won, pairs = (map(int, wins.split("/")) if wins
                      else (None, None))
        rows.append({
            "pr": pr, "set": tables[pr],
            "workload": row["workload"], "metric": row["metric"],
            "parent": _side(cells[2]), "change": _side(cells[3]),
            "ratio": float(row["ratio"].lstrip("×")),
            "wins": won, "pairs": pairs,
            "verdict": row["verdict"], "source": "changelog",
        })
    return rows


def key(row: Dict) -> tuple:
    return tuple(row[field] for field in KEY)


def check_row(row: Dict) -> List[str]:
    """What is wrong with one history row (nothing: ``[]``)."""
    problems = []
    want = {"pr": int, "set": int, "workload": str, "metric": str,
            "parent": dict, "change": dict, "ratio": float,
            "verdict": str, "source": str}
    for field, kind in want.items():
        if not isinstance(row.get(field), kind):
            problems.append(f"{field} is not a {kind.__name__}")
    for side in ("parent", "change"):
        figures = row.get(side)
        if isinstance(figures, dict) and not (
                set(figures) == {"median", "q1", "q3"}
                and figures["q1"] <= figures["median"] <= figures["q3"]):
            problems.append(f"{side} is not median within [q1, q3]")
    wins, pairs = row.get("wins"), row.get("pairs")
    if (wins is None) != (pairs is None) or (
            pairs is not None and not 0 <= wins <= pairs):
        problems.append(f"wins {wins} of {pairs} pairs")
    if row.get("verdict") not in VERDICTS:
        problems.append(f"verdict {row.get('verdict')!r}")
    if not row.get("ratio", 0) > 0:
        problems.append(f"ratio {row.get('ratio')!r}")
    extra = set(row) - set(want) - {"wins", "pairs"}
    if extra:
        problems.append(f"unknown fields {sorted(extra)}")
    return problems


def appended_only(base: List[Dict], rows: List[Dict]) -> List[str]:
    """The rows of ``base`` that ``rows`` no longer holds, unchanged and
    in place."""
    return [f"row {i} {key(old)} changed or moved"
            for i, old in enumerate(base)
            if i >= len(rows) or rows[i] != old]


def load(text: str) -> List[Dict]:
    document = json.loads(text)
    if document.get("schema") != SCHEMA:
        raise ValueError(f"not a {SCHEMA} document")
    return document["rows"]


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)


def committed(rev: str) -> List[Dict]:
    """The history committed at ``rev`` (``[]`` where it has none);
    ``ValueError`` if ``rev`` is not a commit of this checkout."""
    if _git("rev-parse", "--verify", "--quiet",
            f"{rev}^{{commit}}").returncode != 0:
        raise ValueError(f"{rev} is not a commit here (is it fetched?)")
    shown = _git("show", f"{rev}:{HISTORY.name}")
    return load(shown.stdout) if shown.returncode == 0 else []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--since", metavar="REV",
                        help="fail if a row committed at REV changed")
    args = parser.parse_args(argv)
    rows = load(HISTORY.read_text()) if HISTORY.exists() else []
    if not args.since:
        known = {key(row) for row in rows}
        new = [row for row in backfill(CHANGES.read_text())
               if key(row) not in known]
        HISTORY.write_text(json.dumps(
            {"schema": SCHEMA, "rows": rows + new}, indent=1,
            ensure_ascii=False) + "\n")
        print(f"{HISTORY.name}: {len(rows)} rows, {len(new)} appended")
        return 0
    try:
        problems = appended_only(committed(args.since), rows)
    except ValueError as exc:
        problems = [str(exc)]
    problems += [f"row {key(row)}: {problem}" for row in rows
                 for problem in check_row(row)]
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
