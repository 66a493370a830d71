"""Tests for the southbound message layer."""

import pytest

from repro.controlplane import (
    Controller,
    ControllerConfig,
    RecordingChannel,
    apply_delta,
    apply_message,
    diff_plans,
)
from repro.controlplane.southbound import (
    InstallExtension,
    InstallVirtual,
    RemoveExtension,
    SetPosition,
)
from repro.edge import attach_uniform
from repro.experiments.control_churn import ChurnConfig, run_churn_scaling
from repro.experiments.convergence import blank_switches
from repro.topology import grid_graph


@pytest.fixture
def controller():
    topology = grid_graph(3, 3)
    return Controller(
        topology, attach_uniform(topology.nodes(), 2),
        config=ControllerConfig(cvt_iterations=5, seed=0),
    )


class TestChannel:
    def test_channel_records_all_messages(self, controller):
        channel = RecordingChannel()
        sent = apply_delta(blank_switches(controller),
                           diff_plans(None, controller.desired_plan()),
                           channel=channel)
        assert channel.count() == sent
        assert channel.count(SetPosition) == 9
        per_switch = channel.per_switch()
        assert set(per_switch) == set(controller.topology.nodes())
        assert all(v >= 2 for v in per_switch.values())

    def test_channel_clear(self):
        channel = RecordingChannel()
        channel.send(SetPosition(switch=0, position=(0.5, 0.5)))
        channel.clear()
        assert channel.count() == 0


class TestExtensionMessages:
    def test_extension_round_trip(self, controller):
        apply_message(controller.switches, InstallExtension(
            switch=0, local_serial=1, target_switch=1,
            target_serial=0))
        entry = controller.switches[0].table.extension_for(1)
        assert entry is not None
        assert entry.target_switch == 1
        apply_message(controller.switches,
                      RemoveExtension(switch=0, local_serial=1))
        assert controller.switches[0].table.extension_for(1) is None

    def test_unknown_message_type_rejected(self, controller):
        class Bogus:
            switch = 0

        with pytest.raises((TypeError, KeyError)):
            apply_message(controller.switches, Bogus())


class TestVirtualLinkMessage:
    def test_virtual_message_applies(self, controller):
        apply_message(controller.switches, InstallVirtual(
            switch=0, sour=0, pred=None, succ=1, dest=8))
        entry = controller.switches[0].table.virtual_entry(8)
        assert entry is not None
        assert entry.succ == 1


class TestFullReinstallCount:
    """The churn report's full-reinstall column, pinned per row: what a
    clear-and-reinstall of the home controller would write after each
    join (a clear and a position per switch, one write per port, DT
    entry and relay-path node), averaged over the joins."""

    @pytest.mark.parametrize("regions,sizes,want", [
        (1, (12, 30), [620 / 3, 2058 / 3]),
        (3, (24, 36), [334 / 3, 578 / 3]),
    ])
    def test_rows_are_pinned(self, regions, sizes, want):
        report = run_churn_scaling(ChurnConfig(
            sizes=sizes, num_joins=3, cvt_iterations=3, regions=regions))
        assert [row["avg_full_reinstall_messages"]
                for row in report["rows"]] == want
