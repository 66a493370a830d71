"""Tests for the SLO load-test harness (repro.slo).

The quick preset keeps these fast (~seconds): schema stability,
bit-identical determinism, the under-capacity goodput property, fault
plans striking mid-run, and the CI gate evaluation.
"""

import numpy as np
import pytest

from repro.faults import FaultEvent, FaultPlan
from repro.report import gate_failures
from repro.slo import (
    DEFAULT_LOAD_FACTORS,
    GATES,
    SloConfig,
    render_summary,
    run_loadtest,
    write_report,
)


@pytest.fixture(scope="module")
def quick_report():
    return run_loadtest(SloConfig.quick())


class TestConfig:
    def test_defaults(self):
        config = SloConfig()
        assert config.load_factors == DEFAULT_LOAD_FACTORS
        assert config.capacity_rps == pytest.approx(4000.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="entry_switches"):
            SloConfig(switches=4, entry_switches=5)
        with pytest.raises(ValueError, match="priority_mix"):
            SloConfig(priority_mix=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="load factor"):
            SloConfig(load_factors=())


class TestReport:
    def test_schema(self, quick_report):
        assert quick_report["format"] == "gred-loadtest-v1"
        assert quick_report["capacity_rps"] == pytest.approx(300.0)
        assert len(quick_report["points"]) == 2
        for point in quick_report["points"]:
            assert point["offered"] == 400
            assert point["admitted"] + point["shed"] == point["offered"]
            assert 0.0 <= point["goodput"] <= 1.0
            assert point["latency_ms"]["p99"] is not None
            assert "resilience_metrics" in point
        # No wall-clock field anywhere: only interpreter versions.
        assert set(quick_report["environment"]) == {"python", "numpy"}

    def test_deterministic(self, quick_report):
        again = run_loadtest(SloConfig.quick())
        assert again == quick_report

    def test_goodput_under_capacity(self, quick_report):
        below = quick_report["points"][0]
        assert below["load_factor"] == 0.8
        assert below["goodput"] >= 0.99
        assert below["availability"] == 1.0

    def test_overload_sheds_not_collapses(self, quick_report):
        above = quick_report["points"][1]
        assert above["load_factor"] == 1.5
        # Admitted traffic still meets its SLO; the excess is shed.
        assert above["slo_attainment"] >= 0.95
        assert above["latency_ms"]["p99"] <= 250.0

    def test_fault_plan_mid_run(self):
        config = SloConfig.quick()
        plan = FaultPlan([
            FaultEvent(time=0.2, kind="switch_crash", switch=0),
        ])
        config.plan = plan
        report = run_loadtest(config)
        assert report["config"]["fault_events"] == 1
        for point in report["points"]:
            # Force-opened at t=0.2; by run end a recovery probe may
            # have moved it to half-open, but it never closes (the
            # switch stays dead).
            assert point["breakers"].get("switch:0") in (
                "open", "half_open")

    def test_write_report_stable(self, quick_report, tmp_path):
        path = str(tmp_path / "report.json")
        write_report(quick_report, path)
        import json

        with open(path) as handle:
            assert json.load(handle) == quick_report


class TestGates:
    def test_gates_pass(self, quick_report):
        assert gate_failures(GATES, quick_report,
                             {"min_goodput": 0.99,
                              "min_attainment": 0.95}) == []

    def test_goodput_gate_only_below_capacity(self, quick_report):
        # An impossible goodput gate fails the 0.8x point but is not
        # applied to the 1.5x point (shedding is the design there).
        failures = gate_failures(GATES, quick_report,
                                 {"min_goodput": 1.01})
        assert len(failures) == 1
        assert "0.8x" in failures[0]

    def test_attainment_gate_applies_everywhere(self, quick_report):
        failures = gate_failures(GATES, quick_report,
                                 {"min_attainment": 1.01})
        assert len(failures) == 2


class TestSummary:
    def test_render(self, quick_report):
        text = render_summary(quick_report)
        assert "SLO loadtest" in text
        assert "0.80x" in text
        assert "1.50x" in text
        assert "goodput" in text
