"""Tests for the experiment harness: each figure runner must produce the
paper's qualitative shape at reduced scale."""

import re

import pytest

from repro.experiments import (
    GROUPS,
    TABLES,
    build_chord,
    build_gred,
    build_topology,
    chord_load_vector,
    format_table,
    gred_load_vector,
    run_chord_virtual_nodes,
    run_cvt_samples,
    run_embedding_quality,
    run_fig7a,
    run_fig7b,
    run_fig8,
    run_fig9a,
    run_fig9b,
    run_fig9c,
    run_fig9d,
    run_fig10a,
    run_fig10b,
    run_fig10c,
    show,
)
from repro.metrics import max_avg_ratio


def by_protocol(rows, protocol):
    return [r for r in rows if r["protocol"] == protocol]


class TestBuilders:
    def test_build_topology_connected(self):
        from repro.graph import is_connected

        topo = build_topology(20, 3, seed=0)
        assert topo.num_nodes() == 20
        assert is_connected(topo)

    def test_load_vectors_cover_all_servers(self):
        topo = build_topology(10, 3, seed=0)
        gred = build_gred(topo, 4, cvt_iterations=5, seed=0)
        chord = build_chord(topo, 4)
        g_loads = gred_load_vector(gred, 500)
        c_loads = chord_load_vector(chord, 500)
        assert len(g_loads) == 40
        assert len(c_loads) == 40
        assert sum(g_loads) == 500
        assert sum(c_loads) == 500

    def test_gred_load_vector_matches_real_placement(self):
        """The closed-form load vector must equal actually routing and
        storing every item."""
        topo = build_topology(8, 3, seed=1)
        gred = build_gred(topo, 2, cvt_iterations=5, seed=0)
        vector = gred_load_vector(gred, 200)
        for i in range(200):
            gred.place(f"data-{i}", entry_switch=0)
        assert gred.load_vector() == vector


class TestFig7:
    def test_fig7a_stretch_near_one(self, catalogued):
        rows = run_fig7a(num_items=60)
        catalogued("fig7a", rows)
        for row in rows:
            assert row["stretch_mean"] < 1.5

    def test_fig7b_cvt_improves_balance(self, catalogued):
        rows = run_fig7b(num_items=800)
        catalogued("fig7b", rows)
        nocvt = by_protocol(rows, "GRED-NoCVT")[0]["max_avg"]
        gred = by_protocol(rows, "GRED")[0]["max_avg"]
        assert gred <= nocvt
        assert gred < 2.0


class TestFig8:
    def test_delay_flat_in_request_count(self, catalogued):
        rows = run_fig8(request_counts=(50, 200, 400), num_items=50)
        catalogued("fig8", rows)
        for protocol in ("GRED", "GRED-NoCVT"):
            delays = [r["avg_delay_ms"]
                      for r in by_protocol(rows, protocol)]
            assert max(delays) < 2 * min(delays)  # "modest change"

    def test_small_sweep_is_pinned(self):
        """Fig. 8's numbers on a small sweep, request hops exact and
        delays to 1e-12 relative: the 200-request points queue at the
        servers, the 50-request points do not."""
        pinned = [
            ("GRED-NoCVT", 50, 0.3703999999999699, 1.42),
            ("GRED-NoCVT", 200, 0.34927293521889796, 1.23),
            ("GRED", 50, 0.38719999999998006, 1.56),
            ("GRED", 200, 0.3547012369670127, 1.28),
        ]
        rows = run_fig8(request_counts=(50, 200), num_items=40)
        assert [(r["protocol"], r["requests"]) for r in rows] == [
            (protocol, requests) for protocol, requests, _, _ in pinned]
        for row, (_, _, delay_ms, hops) in zip(rows, pinned):
            assert row["avg_request_hops"] == hops
            assert row["avg_delay_ms"] == pytest.approx(delay_ms,
                                                         rel=1e-12)


class TestFig9:
    def test_fig9a_ordering(self, catalogued):
        rows = run_fig9a(sizes=(20, 40), num_items=60)
        catalogued("fig9a", rows)
        for size in (20, 40):
            sized = [r for r in rows if r["switches"] == size]
            chord = by_protocol(sized, "Chord")[0]["stretch_mean"]
            gred = by_protocol(sized, "GRED")[0]["stretch_mean"]
            nocvt = by_protocol(sized, "GRED-NoCVT")[0]["stretch_mean"]
            assert chord > 2.5
            assert gred < 2.0
            assert nocvt < 2.0
            assert gred < chord / 2

    def test_fig9b_gred_beats_chord(self, catalogued):
        rows = run_fig9b(degrees=(3,), num_switches=20, num_items=40)
        catalogued("fig9b", rows)
        assert by_protocol(rows, "GRED")[0]["stretch_mean"] < \
            by_protocol(rows, "Chord")[0]["stretch_mean"]

    def test_fig9c_extension_costs_a_little(self, catalogued):
        rows = run_fig9c(sizes=(20,), num_items=60)
        catalogued("fig9c", rows)
        gred = by_protocol(rows, "GRED")[0]["stretch_mean"]
        ext = by_protocol(rows, "extended-GRED")[0]["stretch_mean"]
        assert gred <= ext <= gred + 2.0

    def test_fig9d_tables_grow_sublinearly(self, catalogued):
        rows = run_fig9d(sizes=(20, 60))
        catalogued("fig9d", rows)
        small = rows[0]["avg_entries"]
        large = rows[1]["avg_entries"]
        assert large < small * 3  # 3x nodes, < 3x entries
        assert all(r["avg_entries"] > 0 for r in rows)


class TestFig10:
    def test_fig10a_ordering(self, catalogued):
        rows = run_fig10a(server_counts=(200, 400), num_items=20_000)
        catalogued("fig10a", rows)
        for servers in (200, 400):
            sized = [r for r in rows if r["servers"] == servers]
            t10 = by_protocol(sized, "GRED (T=10)")[0]["max_avg"]
            t50 = by_protocol(sized, "GRED (T=50)")[0]["max_avg"]
            assert t50 <= t10 * 1.25
            assert t50 < 2.5

    def test_fig10b_gred_beats_chord(self, catalogued):
        rows = run_fig10b(data_counts=(20_000,), num_servers=200)
        catalogued("fig10b", rows)
        assert by_protocol(rows, "GRED (T=50)")[0]["max_avg"] < \
            by_protocol(rows, "Chord")[0]["max_avg"]

    def test_fig10c_gred_improves_with_t(self, catalogued):
        rows = run_fig10c(iterations=(0, 30), num_servers=300,
                          num_items=20_000)
        catalogued("fig10c", rows)
        gred = {r["T"]: r["max_avg"]
                for r in by_protocol(rows, "GRED")}
        assert gred[30] < gred[0]
        flat = {r["T"]: r["max_avg"]
                for r in by_protocol(rows, "Chord")}
        assert flat[0] == flat[30]  # Chord independent of T


class TestAblations:
    def test_cvt_samples_rows(self, catalogued):
        rows = run_cvt_samples(sample_counts=(100, 1000), iterations=31,
                               num_switches=20)
        catalogued("A1", rows)
        assert len(rows) == 2
        for row in rows:
            assert row["energy_final"] <= row["energy_at_10"] * 1.5

    def test_embedding_quality_rows(self, catalogued):
        rows = run_embedding_quality(sizes=(20,), num_items=40)
        catalogued("A2", rows)
        assert len(rows) == 2
        for row in rows:
            assert 0 <= row["stress"] < 1.0
            assert row["stretch_mean"] >= 1.0

    def test_chord_vnodes_improve_balance(self, catalogued):
        rows = run_chord_virtual_nodes(
            virtual_node_counts=(1, 8), num_switches=20,
            num_items=20_000)
        catalogued("A3", rows)
        assert rows[1]["max_avg"] < rows[0]["max_avg"]


class TestCatalog:
    def test_every_runner_is_a_table_or_a_report_experiment(self):
        """A ``run_*`` the package exports but the catalog does not
        know cannot be run, labelled or laid out from ``gred``."""
        import repro.experiments as experiments

        exported = {name for name in experiments.__all__
                    if name.startswith("run_")}
        tables = {table.run.__name__ for table in TABLES.values()}
        assert len(tables) == len(TABLES) == 24
        assert exported == tables | {
            "run_convergence", "run_durability",
            "run_federation_scaling"}
        for members in GROUPS.values():
            assert set(members) <= TABLES.keys()

    def test_experiments_md_names_every_table_and_group(self):
        import pathlib

        text = (pathlib.Path(__file__).parent.parent
                / "EXPERIMENTS.md").read_text()
        names = re.search(r"<!-- catalog -->(.*?)<!-- /catalog -->",
                          text, re.S).group(1)
        assert re.findall(r"`([\w]+)`", names) == [*TABLES, *GROUPS]

    def test_show_runs_with_kwargs_or_prints_held_rows(self, capsys):
        show("A3", virtual_node_counts=(1, 2), num_switches=10,
             num_items=500)
        ran = capsys.readouterr().out
        assert "== A3: Chord virtual nodes vs load balance ==" in ran
        assert len(ran.strip().splitlines()) == 5
        show("fig9c", [{"switches": 7, "protocol": "held",
                        "stretch_mean": 1.0}])
        assert "held" in capsys.readouterr().out


class TestFormatTable:
    def test_every_cell_ends_under_its_header(self):
        """Columns named in more than 14 characters used to push their
        header right of their cells (all of ``gred churn`` /
        ``gred federate``, X4, X6)."""
        columns = ["switches", "avg_full_reinstall_messages",
                   "mean_shard_recompute_s", "total_link_traversals",
                   "protocol", "missing"]
        rows = [
            {"switches": 30, "avg_full_reinstall_messages": 694.0,
             "mean_shard_recompute_s": 0.008,
             "total_link_traversals": 910, "protocol": "GRED",
             "missing": None},
            {"switches": 400, "avg_full_reinstall_messages": 12345.678,
             "mean_shard_recompute_s": 1.5,
             "total_link_traversals": 3105,
             "protocol": "GRED-NoCVT", "missing": True},
        ]
        title, header, rule, *body = format_table(
            rows, columns, "wide").strip("\n").splitlines()
        assert title == "== wide =="
        assert rule == "-" * len(header)

        def right_edges(line):
            return [match.end() for match in re.finditer(r"\S+", line)]

        assert len(right_edges(header)) == len(columns)
        for line in body:
            assert right_edges(line) == right_edges(header)
        # Narrow columns keep the 14-character layout.
        assert right_edges(header)[0] == 14
        assert "694.000" in body[0] and "12345.678" in body[1]
