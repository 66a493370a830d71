"""Tests for the extension experiments (mobility, failures, trade-off)."""

from repro.experiments import (
    run_failure_availability,
    run_mobility,
    run_state_stretch_tradeoff,
)


class TestMobility:
    def test_more_copies_never_hurt(self):
        rows = run_mobility(copies_list=(1, 4), num_switches=30,
                            walk_length=10, working_set=10)
        one = next(r for r in rows if r["copies"] == 1)
        four = next(r for r in rows if r["copies"] == 4)
        assert four["mean_request_hops"] <= \
            one["mean_request_hops"] + 0.2

    def test_row_shape(self, catalogued):
        rows = run_mobility(copies_list=(2,), num_switches=20,
                            walk_length=5, working_set=5)
        catalogued("X1", rows)
        assert len(rows) == 1
        assert rows[0]["mean_request_hops"] >= 0


class TestFailureAvailability:
    def test_availability_monotone_in_copies(self):
        rows = run_failure_availability(
            copies_list=(1, 3), failure_fractions=(0.2,),
            num_switches=40, num_items=500,
        )
        one = next(r for r in rows if r["copies"] == 1)
        three = next(r for r in rows if r["copies"] == 3)
        assert three["availability"] >= one["availability"]

    def test_availability_decreases_with_failures(self):
        rows = run_failure_availability(
            copies_list=(1,), failure_fractions=(0.05, 0.4),
            num_switches=40, num_items=500,
        )
        light = next(r for r in rows if r["failed_fraction"] == 0.05)
        heavy = next(r for r in rows if r["failed_fraction"] == 0.4)
        assert heavy["availability"] <= light["availability"]

    def test_availability_in_unit_interval(self, catalogued):
        rows = run_failure_availability(
            copies_list=(2,), failure_fractions=(0.1,),
            num_switches=30, num_items=300,
        )
        catalogued("X2", rows)
        assert 0.0 <= rows[0]["availability"] <= 1.0


class TestStateStretchTradeoff:
    def test_design_space_shape(self, catalogued):
        rows = run_state_stretch_tradeoff(sizes=(30,), num_items=50)
        catalogued("X3", rows)
        gred = next(r for r in rows if r["protocol"] == "GRED")
        chord = next(r for r in rows if r["protocol"] == "Chord")
        onehop = next(r for r in rows if r["protocol"] == "OneHop-CH")
        # One-hop: optimal stretch, O(n) state.
        assert onehop["stretch_mean"] == 1.0
        assert onehop["state_per_node"] == 300  # 30 switches x 10
        # GRED: near-optimal stretch at tiny state.
        assert gred["stretch_mean"] < 2.0
        assert gred["state_per_node"] < 40
        # Chord: compact state but large stretch.
        assert chord["stretch_mean"] > 3.0

    def test_gred_state_grows_sublinearly(self):
        rows = run_state_stretch_tradeoff(sizes=(20, 80), num_items=40)
        gred = [r for r in rows if r["protocol"] == "GRED"]
        small = next(r for r in gred if r["switches"] == 20)
        large = next(r for r in gred if r["switches"] == 80)
        assert large["state_per_node"] < 2.5 * small["state_per_node"]


class TestLinkUtilization:
    def test_gred_uses_less_bandwidth(self):
        from repro.experiments import run_link_utilization

        rows = run_link_utilization(num_switches=30, num_requests=200)
        gred = next(r for r in rows if r["protocol"] == "GRED")
        chord = next(r for r in rows if r["protocol"] == "Chord")
        assert gred["total_link_traversals"] < \
            chord["total_link_traversals"] / 2
        assert gred["max_link_load"] <= chord["max_link_load"]

    def test_mean_consistent_with_total(self, catalogued):
        from repro.experiments import run_link_utilization

        rows = run_link_utilization(num_switches=20, num_requests=100)
        catalogued("X4", rows)
        for row in rows:
            assert row["mean_link_load"] <= row["max_link_load"]
            assert row["links_used"] > 0


class TestControlChurn:
    def test_both_protocols_local(self):
        from repro.experiments import run_control_churn

        rows = run_control_churn(num_switches=30, num_joins=3)
        for row in rows:
            # A join touches a neighborhood, not the whole population.
            assert row["avg_nodes_touched"] < row["population"] / 2
            assert row["avg_entries_changed"] > 0

    def test_row_shape(self, catalogued):
        from repro.experiments import run_control_churn

        rows = run_control_churn(num_switches=20, num_joins=2)
        catalogued("X6", rows)
        assert {r["protocol"] for r in rows} == {"GRED", "Chord"}


class TestAdaptiveReplicationExperiment:
    def test_skew_helps_adaptive(self):
        from repro.experiments import run_adaptive_replication

        rows = run_adaptive_replication(
            zipf_exponents=(1.2,), num_switches=20, num_items=60,
            num_requests=1000, promote_threshold=10,
        )
        row = rows[0]
        assert row["adaptive_mean_hops"] <= row["static_mean_hops"]
        assert 0.0 <= row["storage_overhead"] < 3.0

    def test_uniform_workload_no_regression(self, catalogued):
        from repro.experiments import run_adaptive_replication

        rows = run_adaptive_replication(
            zipf_exponents=(0.0,), num_switches=20, num_items=60,
            num_requests=600, promote_threshold=10,
        )
        catalogued("X7", rows)
        row = rows[0]
        assert row["adaptive_mean_hops"] <= \
            row["static_mean_hops"] + 0.2


class TestGhtComparison:
    def test_gred_dominates_ght_on_stretch(self, catalogued):
        from repro.experiments import run_ght_comparison

        rows = run_ght_comparison(num_switches=30, num_items=120)
        catalogued("X8", rows)
        for topology in ("unit-disk", "waxman"):
            at = [r for r in rows if r["topology"] == topology]
            ght = next(r for r in at if r["protocol"] == "GHT")
            gred = next(r for r in at if r["protocol"] == "GRED")
            assert gred["delivery_rate"] == 1.0
            assert ght["delivery_rate"] <= 1.0
            if ght["delivery_rate"] > 0:
                # Perimeter walks make GHT's successful routes far
                # longer than GRED's greedy-on-embedded-DT routes.
                assert gred["stretch_mean"] < ght["stretch_mean"]


class TestTopologyFamilies:
    def test_headline_results_hold_everywhere(self, catalogued):
        from repro.experiments import run_topology_families

        rows = run_topology_families(num_items=50, load_items=8000)
        catalogued("A5", rows)
        assert len(rows) == 5
        for row in rows:
            assert row["gred_stretch"] < 0.5 * row["chord_stretch"], \
                row["family"]
            assert row["gred_max_avg"] < row["chord_max_avg"], \
                row["family"]
            assert row["gred_stretch"] < 2.0, row["family"]


class TestOverflowProtection:
    def test_management_eliminates_rejections(self, catalogued):
        from repro.experiments import run_overflow_protection

        rows = run_overflow_protection(small_fractions=(0.2,),
                                       num_switches=20, num_items=350)
        catalogued("X9", rows)
        row = rows[0]
        assert row["rejected_unmanaged"] > 0
        assert row["rejected_managed"] < row["rejected_unmanaged"]
        assert row["extensions_used"] > 0
