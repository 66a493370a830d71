"""One model of the control plane.

Everything the controller derives — the DT, the ``RulePlan``, every
installed table — is a function of topology, positions, servers and
range extensions.  The state machine walks every control-plane event
(membership, links, table drift, extensions, reconcile, a lossy
southbound, snapshot restore) and checks after each step that the live
controller equals :func:`fresh_twin`, one rebuilt from those inputs.
``test_churn_moves_locally`` runs :func:`check_plane` and
:class:`Watch` over data-carrying churn; ``--hypothesis-profile=deep``
walks longer.
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
from repro.edge import EdgeServer, StorageFull, attach_uniform
from repro.experiments.convergence import mismatched_switches
from repro.io import from_snapshot, to_snapshot
from repro.obs import (MetricsRegistry, default_registry, scoped_registry,
                       set_default_registry)
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


def check_plane(controller, converged=True, full=frozenset()):
    """The plan is a fresh compile and the twin's, the DT the twin's,
    the twin's tables ``install_all_rules``'; while the plane should be
    converged, the live tables are the twin's and pass the verifier
    (see :func:`check_findings` for ``full``)."""
    twin = fresh_twin(controller)
    assert controller._plan == controller.desired_plan() == twin._plan
    assert dt_edges(controller) == dt_edges(twin)
    assert mismatched_switches(twin) == []
    if converged:
        assert snapshot_plan(controller.switches) == \
            snapshot_plan(twin.switches)
        check_findings(controller, verify_installed_state(controller),
                       full)


def check_findings(controller, findings, full):
    """The verifier finds nothing but one ``detached-extension`` per
    extension across a lost link, and those only where the model made
    the home full: ``full`` holds the ``(switch, serial)`` whose move
    home was refused."""
    detached = {(sid, entry.local_serial)
                for sid, entry in extensions(controller)
                if not controller.topology.has_edge(sid, entry.target_switch)}
    assert detached <= full
    assert sorted((v.kind, v.switch, getattr(v, "serial", None))
                  for v in findings) == sorted(
        ("detached-extension", sid, serial) for sid, serial in detached)


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
        self.full = set()
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

    def home(self, full):
        """A lost link's ``admit``: the move home of what an extension
        redirected, refused when the home is ``full``."""
        def admit(switch, entry):
            if full:
                self.full.add((switch, entry.local_serial))
                raise StorageFull(switch, 0)
            self.ext.discard((switch, entry))
        return admit

    @rule(pick=PICK, switch=st.booleans(), link=st.booleans(),
          full=st.booleans())
    def crash(self, pick, switch, link, full):
        edges = self.edges()
        self.event(lambda: self.controller.absorb_failures(
            dead_switches=[self.pick(pick)] if switch else [],
            dead_links=[edges[pick % len(edges)]] if link and edges
            else [], admit=self.home(full)))

    @rule(u=PICK, v=PICK)
    def add_link(self, u, v):
        u, v = self.pick(u), self.pick(v)
        if u != v and not self.controller.topology.has_edge(u, v):
            self.event(lambda: self.controller.add_link(u, v))

    @precondition(lambda self: self.controller.topology.num_edges())
    @rule(pick=PICK, full=st.booleans(), across=st.booleans())
    def remove_link(self, pick, full, across):
        """``across``: a link under a range extension, if there is one."""
        topology = self.controller.topology
        edges = [(sid, entry.target_switch)
                 for sid, entry in sorted(self.ext, key=str)
                 if across and topology.has_edge(sid, entry.target_switch)
                 ] or self.edges()
        self.event(lambda: self.controller.remove_link(
            *edges[pick % len(edges)], admit=self.home(full)))

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
            check_findings(controller, verify_installed_state(
                controller, desired_plan=controller.desired_plan()),
                self.full)
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
        check_plane(controller, self.converged, self.full)
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


def test_link_loss_leaves_no_detached_extension():
    """The model's first counter-example: a range extension outlived
    the link to its takeover switch, served hops away.  A controller
    that holds no data moves nothing home, so its ``admit`` accepts;
    without one the extension stays, reported as detached."""
    topology = grid_graph(3, 3)
    controller = Controller(topology, attach_uniform(topology.nodes(), 2),
                            config=ControllerConfig(cvt_iterations=3))
    entry = controller.extend_range(4, 0)
    controller.remove_link(4, entry.target_switch)
    assert [v.kind for v in verify_installed_state(controller)] == [
        "detached-extension"]
    controller.add_link(4, entry.target_switch)
    controller.remove_link(4, entry.target_switch,
                           admit=lambda switch, entry: None)
    assert verify_installed_state(controller) == []


def test_churn_moves_locally(monkeypatch):
    """Ten join + leave cycles on a 100-switch Waxman holding 4,000
    items, on CVT positions and on an integer grid (cocircular ties
    in every leaver's hole), each event under :class:`Watch` and
    :func:`check_plane`.  The leaves carry more relay trees forward
    than they walk and together read back under a quarter of 20 x
    the switch count; the joins move items with ``_place_one``
    raising (a move routes nothing); a bounded joiner that cannot fit
    is refused with the version and every server unchanged."""
    def refuse(*args, **kwargs):
        raise AssertionError("a move must not route item by item")

    def storage(net):
        return {s.server_id: {d: (s.retrieve(d), s.stamp_of(d))
                              for d in s.stored_ids()}
                for s in net.servers()}

    monkeypatch.setattr(GredNetwork, "_place_one", refuse)
    topology, _ = brite_waxman_graph(100, min_degree=3,
                                     rng=np.random.default_rng(0))
    trees = {"walked": 0, "reused": 0}

    def walks():
        return {o: registry.counter("controlplane.plan.relay_trees",
                                    outcome=o).value for o in trees}

    leave_reads = moved = 0
    with scoped_registry() as registry:
        reads = registry.counter("controlplane.delta.switches_read",
                                 scope="scoped")
        for grid in (False, True):
            net = GredNetwork(topology, servers_per_switch=4,
                              cvt_iterations=5, seed=0)
            controller = net.controller
            if grid:
                controller.recompute(positions={
                    n: (float(n % 10), float(n // 10))
                    for n in topology.nodes()})
            ids = [f"smoke/{i}" for i in range(4000)]
            net.place_many(ids, payloads=ids, rng=np.random.default_rng(1))
            watch = Watch(controller)
            rng = np.random.default_rng(0)
            nodes = sorted(controller.topology.nodes())
            for cycle in range(10):
                links = [nodes[i] for i in rng.choice(100, 3, replace=False)]
                watch.event(lambda: net.add_switch(
                    1000 + cycle, links, servers_per_switch=4))
                moved += sum(s.load for s in net.server_map[1000 + cycle])
                check_plane(controller)
                before, read = walks(), reads.value
                watch.event(lambda: net.remove_switch(1000 + cycle))
                leave_reads += reads.value - read
                for o, value in walks().items():
                    trees[o] += value - before[o]
                check_plane(controller)
            assert sum(net.load_vector()) == len(ids)
            if grid:
                continue  # (no item sits near a grid joiner)
            version, before = controller.version, storage(net)
            with pytest.raises(StorageFull):
                net.add_switch(5000, links, servers=[
                    EdgeServer(5000, i, capacity=1) for i in range(4)])
            assert controller.version == version
            assert storage(net) == before
            check_plane(controller)
    assert trees["reused"] > trees["walked"], trees
    assert leave_reads < 0.25 * 20 * len(controller.switches)
    assert moved > 0, "the joins moved no item"
