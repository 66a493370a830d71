"""One model of the control plane.

Everything the controller derives — the DT, the ``RulePlan``, every
installed table — is a function of topology, positions, servers and
range extensions.  The state machine walks every control-plane event
(membership, links, table drift, extensions, reconcile, a lossy
southbound, snapshot restore) and checks after each step that the live
controller equals :func:`fresh_twin`, one rebuilt from those inputs.
CI's churn smoke imports :func:`check_plane` and :class:`Watch`
(``PYTHONPATH=src:tests``); ``--hypothesis-profile=deep`` walks longer.
"""

import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import GredNetwork
from repro.controlplane import (
    ControlPlaneError,
    Controller,
    ControllerConfig,
    FaultyChannel,
    diff_plans,
    snapshot_plan,
    verify_installed_state,
)
from repro.edge import EdgeServer, attach_uniform
from repro.experiments.convergence import mismatched_switches
from repro.io import from_snapshot, to_snapshot
from repro.obs import MetricsRegistry, default_registry, set_default_registry
from repro.topology import brite_waxman_graph, grid_graph


def fresh_twin(controller):
    """A controller built from ``controller``'s inputs alone, with its
    live range extensions re-installed."""
    twin = Controller(controller.topology, controller.server_map,
                      controller.config, positions=controller.positions)
    for sid, entry in extensions(controller):
        twin.switches[sid].table.install_extension(entry)
    return twin


def extensions(controller):
    return {(sid, entry) for sid, switch in controller.switches.items()
            for entry in switch.table.extensions()}


def dt_edges(controller):
    """The DT as edges between positions, not switch ids."""
    positions = controller.positions
    return {frozenset((positions[u], positions[v]))
            for u, nbrs in controller.dt_adjacency().items() for v in nbrs}


def check_plane(controller, converged=True):
    """The plan is a fresh compile and the twin's, the DT the twin's,
    the twin's tables ``install_all_rules``'; while the plane should be
    converged, the live tables are the twin's and pass the verifier."""
    twin = fresh_twin(controller)
    assert controller._plan == controller.desired_plan() == twin._plan
    assert dt_edges(controller) == dt_edges(twin)
    assert mismatched_switches(twin) == []
    if converged:
        assert snapshot_plan(controller.switches) == \
            snapshot_plan(twin.switches)
        assert audit(controller) == []


def audit(controller, desired_plan=None):
    """``verify_installed_state`` less one open defect: a link loss
    withdraws no range extension across it, which the verifier reports
    as ``bad-extension`` (``test_link_loss_leaves_no_detached_extension``)."""
    detached = {sid for sid, entry in extensions(controller)
                if not controller.topology.has_edge(sid, entry.target_switch)}
    return [v for v in verify_installed_state(controller,
                                              desired_plan=desired_plan)
            if not (v.kind == "bad-extension" and v.switch in detached)]


def spy(controller):
    """Per rule install, ``(delta shipped, full diff just before it)``."""
    calls = []
    compile_plan, apply = controller._compile_plan, controller._apply
    desired = []

    def compiled(previous):
        desired.append(compile_plan(previous))
        return desired[-1]

    def applied(delta, *, generation):
        calls.append((delta, diff_plans(snapshot_plan(controller.switches),
                                        desired[-1])))
        apply(delta, generation=generation)

    controller._compile_plan = compiled
    controller._apply = applied
    return calls


class Watch:
    """Checks events of ``controller`` as they run: each shipped delta
    is the full diff taken just before the apply, and the compile builds
    exactly the switch plans that change (on the enabled registry)."""

    def __init__(self, controller):
        self.controller = controller
        self.calls = spy(controller)

    def event(self, call):
        controller = self.controller
        built = default_registry().counter(
            "controlplane.plan.switch_plans", outcome="built")
        before, plans, installs = (built.value, controller._plan.plans,
                                   len(self.calls))
        call()
        for delta, full in self.calls[installs:]:
            assert delta == full
        assert built.value - before == sum(
            plan != plans.get(n)
            for n, plan in controller._plan.plans.items())


def join(controller, switch_id, links, num_servers=2):
    controller.add_switch(
        switch_id, links=links,
        servers=[EdgeServer(switch_id, s) for s in range(num_servers)])


def drift(controller, switch, pick):
    """One out-of-band write to ``switch``, chosen by ``pick``."""
    entries = switch.table.virtual_entries()
    neighbors = sorted(switch.table.physical_neighbors())
    kind = pick % 4
    if kind == 0 and entries:
        switch.table.remove_virtual(entries[pick % len(entries)].dest)
    elif kind == 1:
        others = sorted(set(controller.switches) - {switch.switch_id})
        bogus = others[pick % len(others)]
        switch.install_dt_neighbor(bogus, controller.positions[bogus])
    elif kind == 2:
        switch.num_servers = 0 if switch.num_servers else 3
    elif neighbors:
        switch.remove_physical_neighbor(neighbors[pick % len(neighbors)])


@lru_cache(maxsize=None)
def base_snapshot(shape):
    """A data-free deployment as snapshot JSON: a Waxman-40 on CVT
    positions with relay-only switches 5 and 6, or a 5x5 grid on
    integer positions (cocircular ties everywhere)."""
    if shape == "waxman":
        topology, _ = brite_waxman_graph(40, min_degree=2,
                                         rng=np.random.default_rng(2))
    else:
        topology = grid_graph(5, 5)
    servers = attach_uniform(topology.nodes(), 2)
    if shape == "waxman":
        servers[5] = servers[6] = []
    net = GredNetwork(topology, servers, cvt_iterations=3, seed=0)
    if shape == "grid":
        net.controller.recompute(positions={
            n: (float(n % 5), float(n // 5)) for n in topology.nodes()})
    return json.dumps(to_snapshot(net))


PICK = st.integers(0, 10 ** 6)


def kept_state(controller):
    """What a snapshot round trip keeps besides the four inputs."""
    return (controller.epoch, controller.version, controller.generations,
            controller.pending_deltas, controller.ack_generations)


class ControlPlaneMachine(RuleBasedStateMachine):
    """The model keeps what the inputs cannot say: the extensions it
    installed, and whether the plane should be converged — after any
    event or reconcile over a perfect channel (the next event repairs
    a drifted switch), and over a lossy one after a reconcile that
    reaches every switch."""

    shape = None

    def __init__(self):
        super().__init__()
        self.restore_registry = set_default_registry(MetricsRegistry())
        self.channel = None
        self.ext = set()
        self.next_id = 1000
        self.adopt(from_snapshot(json.loads(base_snapshot(self.shape))))

    def teardown(self):
        set_default_registry(self.restore_registry)

    def adopt(self, net):
        """Take ``net`` as the deployment, freshly installed."""
        self.net, controller = net, net.controller
        if self.channel is not None:
            controller.attach_transport(self.channel)
        self.watch = Watch(controller)
        self.dt = controller._dt
        self.converged = True
        self.rebase()

    @property
    def controller(self):
        return self.net.controller

    def rebase(self):
        """The baseline ``changes_since`` must answer for."""
        controller = self.controller
        self.base = (controller.version, controller._plan.plans,
                     controller.generations)

    def pick(self, pick):
        ids = sorted(self.controller.switches)
        return ids[pick % len(ids)]

    def edges(self):
        return sorted((min(u, v), max(u, v)) for u, v, _
                      in self.controller.topology.edges())

    def event(self, call):
        """Run one membership or link event; a refused one changes
        nothing."""
        controller, channel = self.controller, self.channel
        version = controller.version
        perfect = channel is None or (channel.faultless and
                                      not channel.unreachable_switches)
        try:
            self.watch.event(call)
        except ControlPlaneError:
            assert controller.version == version
            return
        self.converged = perfect
        alive = controller.switches.keys()
        self.ext = {(sid, entry) for sid, entry in self.ext
                    if {sid, entry.target_switch} <= alive}

    @rule(servers=st.integers(0, 3),
          links=st.lists(PICK, min_size=1, max_size=3))
    def join(self, servers, links):
        switch_id, self.next_id = self.next_id, self.next_id + 1
        self.event(lambda: join(self.controller, switch_id,
                                sorted({self.pick(p) for p in links}),
                                servers))

    @rule(pick=PICK, newest=st.booleans())
    def leave(self, pick, newest):
        leaver = self.next_id - 1 if newest else self.pick(pick)
        if leaver in self.controller.switches:
            self.event(lambda: self.controller.remove_switch(leaver))

    @rule(pick=PICK, switch=st.booleans(), link=st.booleans())
    def crash(self, pick, switch, link):
        edges = self.edges()
        self.event(lambda: self.controller.absorb_failures(
            dead_switches=[self.pick(pick)] if switch else [],
            dead_links=[edges[pick % len(edges)]] if link and edges
            else []))

    @rule(u=PICK, v=PICK)
    def add_link(self, u, v):
        u, v = self.pick(u), self.pick(v)
        if u != v and not self.controller.topology.has_edge(u, v):
            self.event(lambda: self.controller.add_link(u, v))

    @precondition(lambda self: self.controller.topology.num_edges())
    @rule(pick=PICK)
    def remove_link(self, pick):
        edges = self.edges()
        self.event(lambda: self.controller.remove_link(
            *edges[pick % len(edges)]))

    @rule(pick=PICK)
    def drift(self, pick):
        drift(self.controller, self.controller.switches[self.pick(pick)],
              pick // 5)
        self.converged = False

    @rule(pick=PICK)
    def extend(self, pick):
        switch = self.pick(pick)
        try:
            entry = self.controller.extend_range(switch, pick % 2)
        except ControlPlaneError:
            return  # relay-only, extended already, or no neighbour
        self.ext.add((switch, entry))

    @precondition(lambda self: self.ext)
    @rule(pick=PICK)
    def retract(self, pick):
        switch, entry = sorted(self.ext, key=str)[pick % len(self.ext)]
        self.controller.retract_range(switch, entry.local_serial)
        self.ext.discard((switch, entry))

    @rule(drop=st.booleans(), dup=st.booleans(), delay=st.booleans(),
          reorder=st.booleans())
    def configure(self, drop, dup, delay, reorder):
        if self.channel is None:
            self.channel = FaultyChannel(seed=7)
            self.controller.attach_transport(self.channel)
        self.channel.configure(drop=0.2 * drop, dup=0.1 * dup,
                               delay=0.1 * delay,
                               reorder_window=3 if reorder else 1)

    @precondition(lambda self: self.channel is not None)
    @rule(pick=PICK, sever=st.booleans())
    def reachability(self, pick, sever):
        if sever:
            self.channel.mark_unreachable(self.pick(pick))
        else:
            for switch in self.channel.unreachable_switches:
                self.channel.mark_reachable(switch)

    @rule()
    def reconcile(self):
        controller = self.controller
        report = controller.reconcile(max_sweeps=16)
        unreachable = (self.channel.unreachable_switches
                       if self.channel is not None else set())
        assert report.divergent_final <= unreachable
        assert not controller.pending_deltas.keys() - unreachable
        if not unreachable:
            assert audit(controller, controller.desired_plan()) == []
            self.converged = True

    @rule()
    def restore(self):
        kept = kept_state(self.controller)
        positions = self.controller.positions
        self.adopt(from_snapshot(json.loads(json.dumps(
            to_snapshot(self.net)))))
        assert kept_state(self.controller) == kept
        assert self.controller.positions == positions

    @invariant()
    def plane(self):
        controller = self.controller
        check_plane(controller, self.converged)
        assert extensions(controller) == self.ext
        assert controller._dt is self.dt  # a leave has no rebuild path
        version, plans, generations = self.base
        touched = controller.changes_since(version)
        if touched is not None:
            now = controller._plan.plans
            assert {n for n in now.keys() | plans.keys()
                    if now.get(n) != plans.get(n)} <= touched
            assert all(generation == generations[n] for n, generation
                       in controller.generations.items() if n not in touched)
        if self.converged:
            self.rebase()


#: Tier-1 walks 10 x 25 steps per shape; ``deep`` its own length.
WALK = settings(
    settings.default if settings.get_current_profile_name() == "deep"
    else settings(max_examples=10, stateful_step_count=25),
    deadline=None, suppress_health_check=[HealthCheck.too_slow])


class WaxmanMachine(ControlPlaneMachine):
    shape = "waxman"


class GridMachine(ControlPlaneMachine):
    shape = "grid"


TestWaxmanPlane = WaxmanMachine.TestCase
TestGridPlane = GridMachine.TestCase
TestWaxmanPlane.settings = TestGridPlane.settings = WALK


@pytest.mark.xfail(strict=True, reason="open defect (ROADMAP item 4): a "
                   "link loss withdraws no range extension across it")
def test_link_loss_leaves_no_detached_extension():
    """The model's first counter-example: a range extension outlives
    the link to its takeover switch, and the verifier reports
    ``bad-extension`` (the data plane still serves it, hops away)."""
    topology = grid_graph(3, 3)
    controller = Controller(topology, attach_uniform(topology.nodes(), 2),
                            config=ControllerConfig(cvt_iterations=3))
    entry = controller.extend_range(4, 0)
    controller.remove_link(4, entry.target_switch)
    assert verify_installed_state(controller) == []
