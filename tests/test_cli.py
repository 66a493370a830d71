"""Tests for the command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import main


@pytest.fixture
def net_file(tmp_path):
    path = str(tmp_path / "net.json")
    code = main(["generate", "--switches", "12", "--servers", "2",
                 "--cvt-iterations", "5", "--seed", "1", "-o", path])
    assert code == 0
    return path


class TestGenerate:
    def test_generate_writes_snapshot(self, net_file, capsys):
        with open(net_file) as handle:
            snapshot = json.load(handle)
        assert snapshot["format"] == "gred-snapshot-v1"
        assert len(snapshot["nodes"]) == 12


class TestPlaceRetrieve:
    def test_place_then_retrieve(self, net_file, capsys):
        code = main(["place", "-n", net_file, "doc-1",
                     "--payload", '{"size": 42}', "--entry", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "placed doc-1 on server" in out

        code = main(["retrieve", "-n", net_file, "doc-1",
                     "--entry", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "found doc-1" in out
        assert '{"size": 42}' in out

    def test_retrieve_missing_fails(self, net_file, capsys):
        code = main(["retrieve", "-n", net_file, "ghost"])
        assert code == 1
        assert "not found" in capsys.readouterr().out

    def test_place_with_copies(self, net_file, capsys):
        code = main(["place", "-n", net_file, "multi",
                     "--copies", "3", "--entry", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("placed ") == 3

    def test_delete(self, net_file, capsys):
        main(["place", "-n", net_file, "temp", "--entry", "0"])
        capsys.readouterr()
        code = main(["delete", "-n", net_file, "temp"])
        assert code == 0
        assert "deleted 1" in capsys.readouterr().out
        code = main(["delete", "-n", net_file, "temp"])
        assert code == 1

    def test_persistence_across_invocations(self, net_file, capsys):
        main(["place", "-n", net_file, "persist-1", "--entry", "0"])
        capsys.readouterr()
        code = main(["retrieve", "-n", net_file, "persist-1"])
        assert code == 0


class TestStats:
    def test_stats_output(self, net_file, capsys):
        main(["place", "-n", net_file, "s-1", "--entry", "0"])
        capsys.readouterr()
        code = main(["stats", "-n", net_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "switches          : 12" in out
        assert "servers           : 24" in out
        assert "stored items      : 1" in out
        assert "avg table entries" in out

    def test_stats_json(self, net_file, capsys):
        main(["place", "-n", net_file, "s-2", "--entry", "0"])
        capsys.readouterr()
        code = main(["stats", "-n", net_file, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["switches"] == 12
        assert payload["servers"] == 24
        assert payload["stored_items"] == 1
        assert payload["load_balance"]["max_avg"] >= 1.0
        assert payload["avg_table_entries"] > 0


class TestMetricsCommand:
    def test_metrics_from_network_prometheus_text(self, net_file,
                                                  capsys):
        code = main(["metrics", "-n", net_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE gred_controlplane_recomputes counter" in out
        assert "gred_controlplane_table_entries" in out
        assert "gred_edge_server_load" in out
        assert "gred_controlplane_phase_rule_install_bucket" in out

    def test_metrics_json_flag(self, net_file, capsys):
        code = main(["metrics", "-n", net_file, "--json"])
        assert code == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["format"] == "gred-metrics-v1"
        names = {h["name"] for h in dump["histograms"]}
        assert "controlplane.phase.rule_install" in names

    def test_metrics_without_source_fails(self, capsys):
        code = main(["metrics"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_metrics_does_not_leak_enabled_registry(self, net_file,
                                                    capsys):
        from repro import obs

        main(["metrics", "-n", net_file])
        capsys.readouterr()
        assert obs.default_registry().enabled is False


class TestExtension:
    def test_extend_and_retract(self, net_file, capsys):
        code = main(["extend", "-n", net_file, "0", "0"])
        assert code == 0
        assert "extended (0, 0)" in capsys.readouterr().out
        code = main(["retract", "-n", net_file, "0", "0"])
        assert code == 0
        assert "retracted (0, 0)" in capsys.readouterr().out

    def test_double_extend_fails_cleanly(self, net_file, capsys):
        main(["extend", "-n", net_file, "0", "0"])
        capsys.readouterr()
        code = main(["extend", "-n", net_file, "0", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestErrors:
    def test_missing_network_file(self, capsys):
        code = main(["stats", "-n", "/nonexistent/net.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestRender:
    def test_render_writes_svg(self, net_file, tmp_path, capsys):
        out = str(tmp_path / "space.svg")
        code = main(["render", "-n", net_file, "-o", out])
        assert code == 0
        with open(out) as handle:
            content = handle.read()
        assert content.startswith("<svg")

    def test_render_with_voronoi_and_route(self, net_file, tmp_path,
                                           capsys):
        out = str(tmp_path / "space.svg")
        code = main(["render", "-n", net_file, "-o", out, "--voronoi",
                     "--data", "a", "b",
                     "--route", "a", "--entry", "0"])
        assert code == 0
        with open(out) as handle:
            content = handle.read()
        assert "stroke-dasharray" in content  # voronoi boundaries


class TestTraceCommand:
    def test_trace_renders_decisions(self, net_file, capsys):
        main(["place", "-n", net_file, "tr-1", "--entry", "0"])
        capsys.readouterr()
        code = main(["trace", "-n", net_file, "tr-1", "--entry", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ingress" in out
        assert "destination switch" in out


class TestVerifyCommand:
    def test_verify_clean_network(self, net_file, capsys):
        code = main(["verify", "-n", net_file])
        assert code == 0
        assert "consistent" in capsys.readouterr().out


class TestExperimentCommand:
    def test_experiment_fig7a_prints_table(self, capsys):
        code = main(["experiment", "fig7a"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig 7(a)" in out
        assert "GRED" in out
        assert "GRED-NoCVT" in out

    def test_experiment_metrics_out(self, tmp_path, capsys):
        out_file = str(tmp_path / "m.json")
        code = main(["experiment", "fig7a", "--metrics-out", out_file])
        assert code == 0
        assert "wrote metrics" in capsys.readouterr().out
        with open(out_file) as handle:
            dump = json.load(handle)
        counters = {c["name"] for c in dump["counters"]}
        assert "controlplane.recomputes" in counters
        assert "dataplane.requests_routed" in counters
        hists = {h["name"]: h for h in dump["histograms"]}
        assert hists["dataplane.hops_per_request"]["count"] > 0
        assert hists["controlplane.phase.m_position"]["count"] > 0

    def test_metrics_from_saved_dump(self, tmp_path, capsys):
        out_file = str(tmp_path / "m.json")
        main(["experiment", "fig7a", "--metrics-out", out_file])
        capsys.readouterr()
        code = main(["metrics", "--from", out_file])
        assert code == 0
        text = capsys.readouterr().out
        assert "gred_dataplane_hops_per_request_bucket" in text
        assert "# TYPE gred_controlplane_recomputes counter" in text


    def test_experiment_runs_any_catalog_table(self, capsys):
        # A4 had no `gred` spelling before the catalog.
        code = main(["experiment", "A4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== A4: classical MDS vs SMACOF ==" in out
        assert "smacof" in out

    def test_experiment_runs_a_group(self, capsys):
        code = main(["experiment", "fig7"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.index("Fig 7(a)") < out.index("Fig 7(b)")


class TestLoadtest:
    def test_quick_run_writes_report(self, tmp_path, capsys):
        out = str(tmp_path / "slo.json")
        code = main(["loadtest", "--quick", "-o", out])
        assert code == 0
        assert "SLO loadtest" in capsys.readouterr().out
        with open(out) as handle:
            report = json.load(handle)
        assert report["format"] == "gred-loadtest-v1"
        assert len(report["points"]) == 2
        # The CLI's --quick flag overrides are SloConfig.quick().
        import dataclasses

        from repro.slo import SloConfig

        quick = dataclasses.asdict(SloConfig.quick())
        del quick["plan"]
        assert {key: report["config"][key] for key in quick} == {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in quick.items()}

    def test_json_output(self, tmp_path, capsys):
        out = str(tmp_path / "slo.json")
        code = main(["loadtest", "--quick", "--json", "-o", out])
        assert code == 0
        stdout = capsys.readouterr().out
        # JSON, then a "wrote" line.
        body, wrote = stdout.rsplit("\n", 2)[0], stdout.strip().split(
            "\n")[-1]
        payload = json.loads(body)
        assert payload["format"] == "gred-loadtest-v1"
        assert wrote.startswith("wrote ")

    def test_gates_pass_and_fail(self, tmp_path, capsys):
        out = str(tmp_path / "slo.json")
        code = main(["loadtest", "--quick", "-o", out,
                     "--min-goodput", "0.99",
                     "--min-attainment", "0.95"])
        assert code == 0
        capsys.readouterr()
        code = main(["loadtest", "--quick", "-o", out,
                     "--min-goodput", "1.01"])
        assert code == 1
        assert "min-goodput" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_deadline_is_refused(self, tmp_path, capsys,
                                            value):
        out = tmp_path / "slo.json"
        code = main(["loadtest", "--deadline", value, "-o", str(out)])
        assert code == 2
        assert "deadline must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_slow_links_reach_the_latency(self, tmp_path):
        """A plan that makes every link 50x slower moves the modelled
        latency: the pipeline charges each probe through the same
        latency model the fault state slows."""
        from repro.slo import SloConfig, _build_network

        topology = _build_network(SloConfig.quick()).topology
        plan = tmp_path / "slow.json"
        plan.write_text(json.dumps({"events": [
            {"time": 0.0, "kind": "slow_link", "u": u, "v": v,
             "factor": 50.0} for u, v, _ in topology.edges()]}))
        p99 = {}
        for name, extra in (("nominal", []),
                            ("slow", ["--plan", str(plan)])):
            out = tmp_path / f"{name}.json"
            assert main(["loadtest", "--quick", "-o", str(out)]
                        + extra) == 0
            report = json.loads(out.read_text())
            p99[name] = [point["latency_ms"]["p99"]
                         for point in report["points"]]
        assert all(slow > nominal for slow, nominal
                   in zip(p99["slow"], p99["nominal"]))


class TestChaosGate:
    def test_min_availability_gate(self, capsys):
        args = ["chaos", "--switches", "12", "--servers", "2",
                "--items", "10", "--requests", "20",
                "--cvt-iterations", "5", "--seed", "0"]
        code = main(args + ["--min-availability", "0.5"])
        assert code == 0
        capsys.readouterr()
        code = main(args + ["--min-availability", "1.01"])
        assert code == 1
        assert "min-availability" in capsys.readouterr().err

    def test_max_items_lost_gate_fails_a_run_that_loses_data(self, capsys):
        """Two switches, three copies: the crash takes every replica of
        some items, yet the survivors are all available — only the
        lost-items gate fails the run."""
        args = ["chaos", "--switches", "2", "--min-availability", "1"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--max-items-lost", "0"]) == 1
        err = capsys.readouterr().err
        assert "item(s) lost, above the --max-items-lost gate 0" in err
        assert "min-availability" not in err

    @staticmethod
    def chaos(tmp_path, capsys, flag, events):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"events": events}))
        assert main(["chaos", "--switches", "12", "--items", "16",
                     "--requests", "25", "--cvt-iterations", "5",
                     "--seed", "3", flag, str(plan), "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_planned_crashes_recover(self, tmp_path, capsys):
        report = self.chaos(tmp_path, capsys, "--plan", [
            {"time": 0.4, "kind": "switch_crash", "switch": 3},
            {"time": 0.6, "kind": "server_crash", "switch": 0,
             "serial": 0}])
        assert report["availability"] == 1.0, report["availability"]
        assert report["verifier_violations"] == 0
        assert {"items_lost", "re_replicated", "hop_inflation",
                "recovery_time", "faults_metrics"} <= set(report)

    def test_lossy_southbound_reconciles(self, tmp_path, capsys):
        report = self.chaos(tmp_path, capsys, "--control-plan", [
            {"time": 0.0, "kind": "control_drop", "probability": 0.25},
            {"time": 0.0, "kind": "control_dup", "probability": 0.05},
            {"time": 0.0, "kind": "control_reorder", "window": 4},
            {"time": 0.4, "kind": "switch_crash", "switch": 3}])
        assert report["verifier_violations"] == 0
        southbound = report["southbound"]
        assert southbound["channel"]["dropped"] > 0, southbound["channel"]
        assert southbound["reconcile"]["converged"], southbound["reconcile"]
        assert report["post_reconcile_divergence"] == 0


class TestStatsExtensions:
    def test_fastpath_blockers_reported(self, net_file, capsys):
        code = main(["stats", "-n", net_file, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fastpath_blockers"] == []
        assert payload["scalar_engine"] == "compiled"
        assert payload["scalar_standdown"] is None

    def test_unabsorbed_faults_reported(self, net_file, capsys):
        """``gred stats`` names what holds the plane down — and stops
        naming it once the controller has absorbed it, although the
        fault state still lists the switch as crashed."""
        from repro.faults import FaultInjector
        from repro.io import load_network, save_network

        net = load_network(net_file)
        injector = FaultInjector(net)
        u, v, _ = net.topology.edges()[0]
        injector.crash_switch(7)
        injector.link_down(u, v)
        save_network(net, net_file)
        assert main(["stats", "-n", net_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fastpath_blockers"] == ["unabsorbed routing fault"]
        assert payload["scalar_standdown"] == "unabsorbed routing fault"
        assert payload["unabsorbed_faults"] == {
            "crashed_switches": [7], "down_links": [sorted((u, v))],
            "partitioned_switches": []}
        assert main(["stats", "-n", net_file]) == 0
        text = capsys.readouterr().out
        assert "scalar engine     : reference (unabsorbed routing" in text
        assert "crashed switches still installed: [7] -> absorb" in text
        assert "down links still in the topology" in text
        assert "partitioned" not in text

        net.controller.absorb_failures([7], [(u, v)])
        save_network(net, net_file)
        assert main(["stats", "-n", net_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fastpath_blockers"] == []
        assert payload["scalar_engine"] == "compiled"
        assert not any(payload["unabsorbed_faults"].values())

    def test_sweep_reports_overload_events(self, net_file, capsys):
        code = main(["stats", "-n", net_file, "--json", "--sweep"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overload_events"] == []


class TestChurn:
    def test_churn_writes_report(self, tmp_path, capsys):
        out = str(tmp_path / "churn.json")
        code = main(["churn", "--sizes", "30", "60", "--joins", "3",
                     "--cvt-iterations", "5", "--seed", "0",
                     "--max-touched", "25", "-o", out])
        assert code == 0
        with open(out) as handle:
            report = json.load(handle)
        assert report["format"] == "gred-churn-v1"
        assert len(report["rows"]) == 2
        for row in report["rows"]:
            assert row["avg_delta_messages"] < \
                row["avg_full_reinstall_messages"]
            assert row["index_builds_during_joins"] == 0
            assert row["untouched_generations_preserved"]
        assert "wrote" in capsys.readouterr().out

    def test_churn_locality_gate_fails(self, tmp_path, capsys):
        out = str(tmp_path / "churn.json")
        code = main(["churn", "--sizes", "12", "--joins", "1",
                     "--cvt-iterations", "3", "--seed", "0",
                     "--max-touched", "0", "-o", out])
        assert code == 1
        assert "max-touched" in capsys.readouterr().err

    def test_churn_json_output(self, tmp_path, capsys):
        out = str(tmp_path / "churn.json")
        code = main(["churn", "--sizes", "12", "--joins", "1",
                     "--cvt-iterations", "3", "--seed", "0",
                     "--json", "-o", out])
        assert code == 0
        stdout = capsys.readouterr().out
        payload = json.loads(stdout[:stdout.rindex("}") + 1])
        assert payload["format"] == "gred-churn-v1"

    def test_churn_federated_regions(self, tmp_path, capsys):
        out = str(tmp_path / "churn.json")
        for size, joins, iterations, regions in [(24, 2, 3, 3),
                                                 (48, 4, 5, 4)]:
            code = main(["churn", "--sizes", str(size),
                         "--joins", str(joins),
                         "--cvt-iterations", str(iterations),
                         "--seed", "0", "--regions", str(regions),
                         "--max-foreign-touched", "0", "-o", out])
            assert code == 0
            with open(out) as handle:
                report = json.load(handle)
            assert report["regions"] == regions
            row = report["rows"][0]
            assert row["regions"] == regions
            assert row["avg_foreign_touched"] == 0
            assert row["avg_foreign_messages"] == 0
            assert len(row["join_events"]) == joins
            for event in row["join_events"]:
                touched = set(event["touched_per_region"])
                assert touched <= {str(event["home_region"])}
            assert "wrote" in capsys.readouterr().out


class TestFederate:
    def test_federate_quick_writes_report(self, tmp_path, capsys):
        out = str(tmp_path / "federation.json")
        code = main(["federate", "--quick", "--seed", "0",
                     "--max-foreign-touched", "0", "-o", out])
        assert code == 0
        with open(out) as handle:
            report = json.load(handle)
        assert report["format"] == "gred-federate-v1"
        assert len(report["rows"]) == 2
        for row in report["rows"]:
            assert row["regions"] >= 4
            assert row["foreign_messages"] == 0
            assert row["retrieved_found"] == row["requests"]
        differential = report["single_region_differential"]
        assert all(value is True
                   for key, value in differential.items()
                   if key != "switches"), differential
        assert "wrote" in capsys.readouterr().out
        pinned = [
            {"regions": 4, "requests": 96, "retrieved_found": 96,
             "foreign_messages": 0, "cross_region_fraction": 0.7708,
             "avg_cross_place_hops": 5.135, "avg_intra_place_hops": 1.432},
            {"regions": 8, "requests": 96, "retrieved_found": 96,
             "foreign_messages": 0, "cross_region_fraction": 0.901,
             "avg_cross_place_hops": 7.676, "avg_intra_place_hops": 1.421}]
        assert [{key: row[key] for key in want} for row, want
                in zip(report["rows"], pinned)] == pinned


class TestTraceRecording:
    def test_trace_spans_out_round_trips(self, net_file, tmp_path,
                                         capsys):
        from repro.obs import spans as ospans

        main(["place", "-n", net_file, "rec-1", "--entry", "0",
              "--copies", "2"])
        capsys.readouterr()
        spans_file = str(tmp_path / "spans.jsonl")
        chrome_file = str(tmp_path / "trace.json")
        code = main(["trace", "-n", net_file, "rec-1", "--entry", "3",
                     "--spans-out", spans_file,
                     "--chrome-out", chrome_file, "--summary"])
        assert code == 0
        out = capsys.readouterr().out
        assert "traced 1 request(s)" in out
        assert "recorded traces" in out
        assert "request.retrieve" in out
        spans = ospans.load_jsonl(spans_file)
        assert spans
        tree = ospans.reconstruct(spans, spans[0].trace_id)
        assert tree["span"].name == "request.retrieve"
        # Telemetry never selects the engine: the traced request stays
        # on the compiled plane, which narrates its own hops.
        root, = (s for s in spans if s.name == "request.retrieve")
        assert root.attrs["engine"] == "compiled", root.attrs
        assert "standdown" not in root.attrs, root.attrs
        assert any(s.name == "hop.deliver" and s.trace_id == root.trace_id
                   for s in spans), [s.name for s in spans]
        chrome = ospans.load_chrome(chrome_file)
        assert {s.span_id for s in chrome} == \
            {s.span_id for s in spans}

    def test_trace_workload_without_data_id(self, net_file, capsys):
        main(["place", "-n", net_file, "w-1", "--entry", "0"])
        main(["place", "-n", net_file, "w-2", "--entry", "0"])
        capsys.readouterr()
        code = main(["trace", "-n", net_file, "--summary",
                     "--requests", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "traced 2 request(s)" in out
        assert "dataplane.hops_per_request" in out

    def test_trace_without_target_or_flags_fails(self, net_file,
                                                 capsys):
        code = main(["trace", "-n", net_file])
        assert code == 2
        assert "data_id" in capsys.readouterr().err

    def test_trace_does_not_leak_recorder(self, net_file, capsys):
        from repro.obs import spans as ospans

        main(["place", "-n", net_file, "leak-1", "--entry", "0"])
        capsys.readouterr()
        main(["trace", "-n", net_file, "leak-1", "--summary"])
        assert ospans.default_recorder() is None


class TestLoadtestTraceOut:
    def test_trace_out_writes_jsonl(self, tmp_path, capsys):
        from repro.obs import spans as ospans

        report_file = str(tmp_path / "slo.json")
        trace_file = str(tmp_path / "traces.jsonl")
        code = main(["loadtest", "--quick", "--seed", "0",
                     "--min-goodput", "0.99", "--min-attainment", "0.95",
                     "-o", report_file, "--trace-out", trace_file,
                     "--trace-sample", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace(s)" in out
        spans = ospans.load_jsonl(trace_file)
        assert spans
        groups = ospans.traces(spans)
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == len(groups), "a trace is missing its root"
        assert all(r.name.startswith("request.") for r in roots)
        assert ospans.reconstruct(spans, next(iter(groups))) is not None
        with open(report_file) as handle:
            report = json.load(handle)
        assert report["format"] == "gred-loadtest-v1"
        points = report["points"]
        assert len(points) == 2, points
        assert points[0]["goodput"] >= 0.99
        assert all(p["slo_attainment"] >= 0.95 for p in points)
        assert all("burn_rates" in p for p in points)
        assert report["trace_summary"]["traces"] > 0
        assert report["trace_summary"]["spans"] == len(spans)
        assert report["config"]["trace_sample_rate"] == 0.1


@pytest.fixture
def used_net_file(net_file, capsys):
    """A snapshot that has seen placements and deletions, rewritten
    compactly: the same deployment in different bytes, so a test can
    tell that a command wrote it back (and wrote the same snapshot)."""
    for i in range(6):
        main(["place", "-n", net_file, f"item/{i}", "--entry", str(i),
              "--payload", f'"p{i}"', "--copies", "2"])
    for i in (2, 4):
        main(["delete", "-n", net_file, f"item/{i}", "--copies", "2"])
    capsys.readouterr()
    with open(net_file) as handle:
        canonical = handle.read()
    with open(net_file, "w") as handle:
        json.dump(json.loads(canonical), handle)
    return net_file, canonical


class TestReconcile:
    def test_quick_writes_report_and_passes_gate(self, tmp_path, capsys):
        out = str(tmp_path / "conv.json")
        code = main(["reconcile", "--quick", "--max-divergence", "0",
                     "-o", out])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "oracle match       : True" in stdout
        assert stdout.endswith(f"wrote {out}\n")
        with open(out) as handle:
            report = json.load(handle)
        assert report["format"] == "gred-convergence-v1"
        assert (report["config"]["switches"],
                report["config"]["events"]) == (24, 8)
        assert report["oracle_match"], report["mismatched_switches"]
        assert report["divergence"]["after_reconcile"] == 0
        assert report["channel"]["dropped"] > 0, report["channel"]
        assert report["verifier_violations"] == 0

    def test_failed_gates_are_named_in_order(self, tmp_path, capsys,
                                             monkeypatch):
        out = str(tmp_path / "conv.json")
        args = ["reconcile", "--quick", "--max-divergence", "-1",
                "-o", out]
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: 0 switch(es) stay divergent")
        assert err[0].endswith("--max-divergence gate -1")

        with open(out) as handle:
            doctored = json.load(handle)
        doctored.update(oracle_match=False, mismatched_switches=[3],
                        verifier_violations=2)
        monkeypatch.setattr("repro.experiments.convergence."
                            "run_convergence", lambda config: doctored)
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3
        assert "stay divergent after reconcile" in err[0]
        assert err[1] == ("error: switches [3] diverge from the "
                          "install_all_rules oracle")
        assert err[2] == "error: 2 verifier violation(s) after reconcile"

    def test_snapshot_mode(self, used_net_file, capsys):
        net_file, canonical = used_net_file
        code = main(["reconcile", "-n", net_file,
                     "--max-divergence", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "divergent switches : 0" in out
        assert "still divergent    : none" in out
        assert "wrote" not in out
        with open(net_file) as handle:
            assert handle.read() == canonical  # written back, unchanged
        code = main(["reconcile", "-n", net_file, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert main(["reconcile", "-n", net_file,
                     "--max-divergence", "-1"]) == 1
        assert "--max-divergence gate -1" in capsys.readouterr().err


class TestScrub:
    def test_quick_writes_report_and_passes_gate(self, tmp_path, capsys):
        out = str(tmp_path / "dur.json")
        code = main(["scrub", "--quick", "--max-divergence", "0",
                     "-o", out])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "oracle match       : True" in stdout
        assert stdout.endswith(f"wrote {out}\n")
        with open(out) as handle:
            report = json.load(handle)
        assert report["format"] == "gred-durability-v1"
        assert (report["config"]["switches"], report["config"]["items"],
                report["config"]["ops"]) == (24, 60, 40)
        assert report["oracle_match"], tuple(report[key] for key in (
            "resurrected", "lost", "stale", "unavailable"))
        assert report["divergence"]["after_scrub"] == 0
        assert report["divergence"]["before_scrub"] > 0
        assert report["workload"]["crash_fraction_actual"] >= 0.2
        assert report["workload"]["hints_parked_pre_scrub"] > 0
        assert report["scrub"]["converged"], report["scrub"]

    def test_failed_gates_are_named_in_order(self, tmp_path, capsys,
                                             monkeypatch):
        out = str(tmp_path / "dur.json")
        args = ["scrub", "--quick", "--max-divergence", "-1", "-o", out]
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: 0 (server, range) pair(s) stay")
        assert err[0].endswith("--max-divergence gate -1")

        with open(out) as handle:
            doctored = json.load(handle)
        doctored.update(oracle_match=False, lost=["item-0001"])
        monkeypatch.setattr("repro.experiments.durability."
                            "run_durability", lambda config: doctored)
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert "stay divergent after scrub" in err[0]
        assert err[1] == (
            "error: storage plane diverges from the fault-free oracle: "
            "0 resurrected, 1 lost, 0 stale, 0 unavailable")

    def test_snapshot_mode(self, used_net_file, capsys):
        net_file, canonical = used_net_file
        code = main(["scrub", "-n", net_file, "--max-divergence", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "repairs            : 0" in out
        assert "still divergent    : 0" in out
        assert "wrote" not in out
        with open(net_file) as handle:
            assert handle.read() == canonical  # written back, unchanged
        code = main(["scrub", "-n", net_file, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert main(["scrub", "-n", net_file,
                     "--max-divergence", "-1"]) == 1
        assert "--max-divergence gate -1" in capsys.readouterr().err


DATA = Path(__file__).resolve().parent / "data"


def parser_snapshot():
    """Per subcommand (``""`` for ``gred`` itself): its help text and,
    per action, the option strings, default, type, nargs, choices and
    required flag, as JSON values."""
    from repro.cli import _build_parser

    parser = _build_parser()
    commands, = (action.choices for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction))
    # Python < 3.11 titles the flag group "optional arguments".
    return json.loads(json.dumps({
        name: {
            "help": cmd.format_help().replace("optional arguments:",
                                              "options:"),
            "actions": [{
                "options": action.option_strings,
                "default": action.default,
                "type": getattr(action.type, "__name__", action.type),
                "nargs": action.nargs,
                "choices": (list(action.choices)
                            if action.choices is not None else None),
                "required": action.required,
            } for action in cmd._actions
                if not isinstance(action, argparse._SubParsersAction)],
        } for name, cmd in [("", parser), *commands.items()]}))


def test_parser_snapshot(monkeypatch):
    """No flag is added, dropped, renamed or re-typed, and no help text
    moves: every parser matches the snapshot in
    ``tests/data/cli_parser.json`` (80 columns)."""
    monkeypatch.setenv("COLUMNS", "80")
    want = json.loads((DATA / "cli_parser.json").read_text())
    got = parser_snapshot()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


def test_report_renderers_match_the_captured_text():
    """Renderers are pure functions of the report dict: each committed
    report, and a seeded chaos report, renders to the text held in
    ``tests/data/rendered_reports.json``."""
    from repro import slo
    from repro.experiments import (control_churn, convergence, durability,
                                   federation)
    from repro.faults import harness

    root = DATA.parent.parent
    renderers = {
        root / "CHURN_report.json": control_churn.render_churn,
        root / "FEDERATION_report.json": federation.render_federation,
        root / "CONVERGENCE_report.json": convergence.render_convergence,
        root / "DURABILITY_report.json": durability.render_durability,
        root / "SLO_report.json": slo.render_summary,
        DATA / "chaos_report.json": harness.render_chaos,
    }
    golden = json.loads((DATA / "rendered_reports.json").read_text())
    assert sorted(golden) == sorted(path.name for path in renderers)
    for path, render in renderers.items():
        report = json.loads(path.read_text())
        assert render(report) + "\n" == golden[path.name], path.name


@pytest.mark.parametrize("argv, field", [
    (["federate", "--sizes", "48", "--per-region", "0"],
     "switches_per_region"),
    (["scrub", "--quick", "--partition-fraction", "2"],
     "partition_fraction"),
    (["scrub", "--quick", "--crash-fraction", "-0.5"], "crash_fraction"),
    (["scrub", "--quick", "--crash-fraction", "1.5"], "crash_fraction"),
    (["scrub", "--ops", "-5"], "ops"),
    (["reconcile", "--events", "-3"], "events"),
    (["churn", "--sizes", "30", "--joins", "-2"], "num_joins"),
])
def test_bad_report_inputs_exit_2_naming_the_field(argv, field, tmp_path,
                                                   capsys):
    """A config rejects its bad input before any run.  (``--quick``
    would replace ``--per-region``, ``--ops`` and ``--events``.)"""
    out = tmp_path / "report.json"
    assert main(argv + ["-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be "), err
    assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (["--cvt-iterations", "-1"], "cvt_iterations"),
    (["--duration", "nan"], "duration"),
    (["--detection-interval", "0"], "detection_interval"),
    (["--min-degree", "0"], "min_degree"),
    (["--servers", "0"], "servers_per_switch"),
])
def test_bad_chaos_inputs_exit_2_naming_the_field(argv, field, capsys):
    """``gred chaos`` refuses a bad value before it builds anything."""
    assert main(["chaos", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {field} must be "), captured.err
    assert captured.out == ""


def test_quick_replaces_only_the_shape_flags():
    from repro.cli import _build_parser, _config, _reports

    row = _reports()["reconcile"]
    args = _build_parser().parse_args(
        ["reconcile", "--quick", "--switches", "99", "--drop", "0.3",
         "--seed", "7"])
    config = _config(row, args)
    assert (config.switches, config.events, config.cvt_iterations) == (
        24, 8, 5)
    assert (config.drop, config.seed) == (0.3, 7)
