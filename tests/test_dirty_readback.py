"""A scoped event reads back and diffs only the switches it may have to
change.

That its delta is the full diff taken just before the apply, after
every kind of event, is the control-plane model's invariant
(``test_controlplane_model.py``).  Here: a switch counts as clean only
while its ``revision`` holds still, so every mutator moves it, and a
corrupted switch the next event does not change is still repaired.
"""

import numpy as np
import pytest

from repro.controlplane import (
    Controller,
    ControllerConfig,
    FaultyChannel,
    apply_message,
)
from repro.controlplane.southbound import RemoveVirtual
from repro.dataplane import GredSwitch, VirtualLinkEntry
from repro.edge import attach_uniform
from repro.obs import MetricsRegistry, set_default_registry
from repro.topology import brite_waxman_graph, grid_graph
from test_controlplane_model import join, spy


def populated_switch():
    switch = GredSwitch(0, (0.0, 0.0), num_servers=1)
    switch.install_physical_neighbor(1, 0, (0.5, 0.5))
    switch.install_dt_neighbor(2, (0.9, 0.9))
    switch.table.install_virtual(VirtualLinkEntry(0, None, 1, 2))
    return switch


MUTATORS = {
    "position": lambda s: setattr(s, "position", (0.3, 0.3)),
    "install_position": lambda s: s.install_position((0.3, 0.3)),
    "num_servers": lambda s: setattr(s, "num_servers", 0),
    "install_physical_neighbor":
        lambda s: s.install_physical_neighbor(3, 1, (0.2, 0.2)),
    "remove_physical_neighbor": lambda s: s.remove_physical_neighbor(1),
    "install_dt_neighbor": lambda s: s.install_dt_neighbor(3, (0.2, 0.2)),
    "remove_dt_neighbor": lambda s: s.remove_dt_neighbor(2),
    "clear_dt_state": lambda s: s.clear_dt_state(),
    "table.install_physical": lambda s: s.table.install_physical(3, 1),
    "table.remove_physical": lambda s: s.table.remove_physical(1),
    "table.install_virtual": lambda s: s.table.install_virtual(
        VirtualLinkEntry(0, None, 1, 3)),
    "table.remove_virtual": lambda s: s.table.remove_virtual(2),
    "table.clear_virtual": lambda s: s.table.clear_virtual(),
}


@pytest.mark.parametrize("mutator", sorted(MUTATORS))
def test_every_mutator_moves_the_revision(mutator):
    switch = populated_switch()
    revision = switch.revision
    MUTATORS[mutator](switch)
    assert switch.revision > revision


def test_neighbor_maps_are_read_only_views():
    switch = populated_switch()
    for name in ("physical_neighbor_positions", "dt_neighbor_positions"):
        view = getattr(switch, name)
        with pytest.raises(TypeError):
            view[5] = (0.1, 0.1)
        with pytest.raises(AttributeError):
            setattr(switch, name, {})
    assert switch.dt_neighbor_positions == {2: (0.9, 0.9)}


CORRUPTIONS = {
    "table.remove_virtual": lambda controller, switch:
        switch.table.remove_virtual(switch.table.virtual_entries()[0].dest),
    "install_dt_neighbor": lambda controller, switch:
        switch.install_dt_neighbor(*next(
            (n, p) for n, p in sorted(controller.positions.items())
            if n != switch.switch_id
            and n not in switch.dt_neighbor_positions)),
    "num_servers = 0": lambda controller, switch:
        setattr(switch, "num_servers", 0),
}


def waxman_controller():
    topology, _ = brite_waxman_graph(40, min_degree=2,
                                     rng=np.random.default_rng(2))
    return Controller(topology, attach_uniform(topology.nodes(), 2),
                      config=ControllerConfig(cvt_iterations=3, seed=0))


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_scoped_event_repairs_drift_it_does_not_change(corruption):
    """A switch whose plan the join carries over by reference, but
    whose table was written out of band, is read back and repaired
    with the full diff's messages."""
    twin = waxman_controller()
    before = twin._plan.plans
    join(twin, 100, links=[0, 1])
    victim = next(n for n, plan in sorted(twin._plan.plans.items())
                  if plan is before.get(n) and plan.virtuals)
    controller = waxman_controller()
    calls = spy(controller)
    CORRUPTIONS[corruption](controller, controller.switches[victim])
    assert controller.divergent_switches() == {victim}
    carried = controller._plan.plans[victim]
    join(controller, 100, links=[0, 1])
    delta, full = calls[-1]
    assert controller._plan.plans[victim] is carried
    assert delta == full
    assert victim in delta.touched
    assert controller.divergent_switches() == set()


class AcksButLosesTheLast(FaultyChannel):
    """Acks every message of a transmission but never delivers its last
    one — what a reordered remove/install pair does to a switch."""

    def ship(self, switches, messages):
        for message in messages[:-1]:
            apply_message(switches, message)
        return [True] * len(messages)


def test_acked_is_not_converged_over_a_transport():
    """A switch a delta reached over a transport stays dirty until a
    read finds it converged: the next event, which changes none of the
    switches the first one left wrong, still repairs them all."""
    controller = waxman_controller()
    controller.attach_transport(AcksButLosesTheLast())
    calls = spy(controller)
    join(controller, 100, links=[0, 1])
    wrong = controller.divergent_switches()
    assert wrong
    before = controller._plan.plans
    controller.add_link(*max(
        (u, v) for u in (30, 31, 32) for v in (37, 38, 39)
        if not controller.topology.has_edge(u, v)))
    delta, full = calls[-1]
    assert delta == full
    changed = {n for n, plan in controller._plan.plans.items()
               if plan is not before.get(n)}
    assert wrong - changed <= full.touched
    assert wrong - changed


def test_a_late_message_during_an_apply_is_seen_by_the_next_event():
    """A switch read and found converged is recorded at the revision it
    was read at, so a delayed message that lands on it while the delta
    ships leaves it dirty for the next event."""
    twin = waxman_controller()
    before = twin._plan.plans
    join(twin, 100, links=[0, 1])
    twin.remove_switch(100)
    victim = next(n for n, plan in sorted(twin._plan.plans.items())
                  if plan is before.get(n) and plan.virtuals
                  and plan.dt_neighbors)
    controller = waxman_controller()
    channel = FaultyChannel()
    controller.attach_transport(channel)
    calls = spy(controller)
    switch = controller.switches[victim]
    # A write of what it already holds: read back, nothing to send.
    switch.install_dt_neighbor(*next(iter(switch.dt_neighbor_positions
                                          .items())))
    channel._holdover.append(RemoveVirtual(
        switch=victim, dest=switch.table.virtual_entries()[0].dest))
    join(controller, 100, links=[0, 1])
    assert victim not in calls[-1][0].touched
    assert controller.divergent_switches() == {victim}
    controller.remove_switch(100)
    delta, full = calls[-1]
    assert delta == full
    assert victim in delta.touched


def test_absorb_failures_counts_links_given_as_a_generator():
    topology = grid_graph(3, 3)
    controller = Controller(topology, attach_uniform(topology.nodes(), 2),
                            config=ControllerConfig(cvt_iterations=3))
    registry = MetricsRegistry()
    restore = set_default_registry(registry)
    try:
        controller.absorb_failures(
            dead_links=(link for link in [(0, 1), (4, 5)]))
    finally:
        set_default_registry(restore)
    event, = registry.event_log.events("failures_absorbed")
    assert event.fields["dead_links"] == 2
    assert not controller.topology.has_edge(0, 1)
    assert not controller.topology.has_edge(4, 5)
