"""The committed perf trajectory (``BENCH_history.json``): its rows are
well formed, every CHANGES.md perf table is in it, and the
append-only check catches a rewritten row.  ``tools/bench_history.py``
writes and checks the file."""

import copy
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "bench_history", ROOT / "tools" / "bench_history.py")
bench_history = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_history)


@pytest.fixture(scope="module")
def rows():
    return bench_history.load(bench_history.HISTORY.read_text())


def test_every_row_is_well_formed(rows):
    assert rows
    problems = {bench_history.key(row): bench_history.check_row(row)
                for row in rows}
    assert {key: found for key, found in problems.items() if found} == {}


def test_one_row_per_pr_table_workload_and_metric(rows):
    keys = [bench_history.key(row) for row in rows]
    assert len(keys) == len(set(keys))


def test_every_changelog_table_row_is_recorded(rows):
    """The CHANGES.md back-fill is exactly the file's changelog rows,
    in order: a perf table added without re-running the tool fails."""
    want = bench_history.backfill(bench_history.CHANGES.read_text())
    assert [row for row in rows if row["source"] == "changelog"] == want


def test_a_table_parses_to_its_figures():
    text = "\n".join([
        "PR 9: [perf_opt] a change",
        "| workload | metric | A | B | ratio | wins | verdict |",
        "|---|---|---|---|---|---|---|",
        "| churn | place_rps | 292.6k [283.4k, 303.3k] | 300.0k "
        "[290.1k, 310.0k] | ×1.025 | 8/10 | unchanged |",
        "PR 10: [perf_opt] another, no wins column",
        "| workload | metric | parent | change | ratio | verdict |",
        "| faulted | setup_s | 0.2 [0.1, 0.3] | 0.1 [0.1, 0.2] | ×0.5 "
        "| improved |",
    ])
    first, second = bench_history.backfill(text)
    assert first == {
        "pr": 9, "set": 1, "workload": "churn", "metric": "place_rps",
        "parent": {"median": 292600.0, "q1": 283400.0, "q3": 303300.0},
        "change": {"median": 300000.0, "q1": 290100.0, "q3": 310000.0},
        "ratio": 1.025, "wins": 8, "pairs": 10, "verdict": "unchanged",
        "source": "changelog"}
    assert (second["pr"], second["wins"], second["pairs"]) == (10, None,
                                                                None)
    assert bench_history.check_row(first) == []


@pytest.mark.parametrize("edit", [
    lambda rows: rows[0]["change"].update(median=1.0),
    lambda rows: rows.pop(0),
    lambda rows: rows.insert(0, copy.deepcopy(rows[-1])),
], ids=["rewritten", "dropped", "inserted"])
def test_only_appends_pass_the_since_check(rows, edit):
    base = rows[:5]
    assert bench_history.appended_only(base, rows) == []
    edited = copy.deepcopy(rows)
    edit(edited)
    assert bench_history.appended_only(base, edited)
