"""The SDN controller of the software-defined edge network (SDEN).

The controller centralizes the GRED control plane (paper Section III):

1. discover the switch topology and the attached edge servers;
2. compute virtual positions with the M-position algorithm (classical
   MDS over the all-pairs hop matrix);
3. refine the positions of DT-participating switches toward a CVT with
   C-regulation (``cvt_iterations = 0`` yields the GRED-NoCVT variant);
4. build the Delaunay triangulation of the refined positions;
5. compile and install per-switch forwarding state (greedy candidates,
   multi-hop relay tuples);
6. serve range-extension requests from overloaded switches;
7. absorb network dynamics (switch join/leave) with incremental DT
   updates.

The controller is proactive: all rules are pushed before any data-plane
traffic, so switches never consult the controller per packet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from ..dataplane import ExtensionEntry, GredSwitch
from ..edge import EdgeServer, ServerMap
from ..embedding import c_regulation, m_position
from ..geometry import (
    DelaunayTriangulation,
    Point,
    deduplicate_points,
    euclidean,
)
from ..graph import (
    Graph,
    all_pairs_hop_matrix,
    connected_components,
    is_connected,
)
from ..obs import EventLevel, default_registry
from .apply import (ApplyReport, RetryPolicy, TransactionalApplier,
                    apply_delta)
from .diff import RuleDelta, diff_plans
from .plan import RulePlan, compile_plan, plan_digests, snapshot_plan
from .routing_index import RoutingIndex

#: Retained per-event touched-switch history; ``changes_since`` answers
#: queries within this window, older baselines fall back to a full
#: rebuild.
_CHANGELOG_CAP = 256


class ControlPlaneError(Exception):
    """Raised for invalid control-plane requests or inconsistent state."""


def _join_residuals(q, xs: np.ndarray, ys: np.ndarray,
                    targets: np.ndarray) -> np.ndarray:
    """A joiner at ``q`` against its anchors: embedded distance to each
    anchor ``(xs[i], ys[i])`` minus its target.  ``math.hypot``, not
    ``np.hypot``: the two differ in the last bit (see ``TIE_BAND``) and
    the committed CHURN / FEDERATION reports pin the solved position
    (DESIGN.md §5g)."""
    return np.fromiter(map(math.hypot, (q[0] - xs).tolist(),
                           (q[1] - ys).tolist()),
                       np.float64, len(targets)) - targets


#: The relative step of scipy's two-point difference (its
#: ``_eps_for_method`` for float64).
_SQRT_EPS = np.finfo(np.float64).eps ** 0.5


def _join_jacobian(q, xs: np.ndarray, ys: np.ndarray,
                   targets: np.ndarray) -> np.ndarray:
    """The Jacobian of :func:`_join_residuals` at ``q`` as
    ``least_squares``' default ``jac="2-point"`` estimates it, bit for
    bit: step ``h = sqrt(eps) * s * max(1, |q|)`` (``s`` the sign of
    ``q``, +1 at zero), column ``i`` ``(f(q + h_i e_i) - f(q)) / ((q_i +
    h_i) - q_i)`` — with the residual and both stepped residuals in one
    ``math.hypot`` pass, laid out as scipy lays its estimate out."""
    step = (_SQRT_EPS * ((q >= 0).astype(float) * 2 - 1)
            * np.maximum(1.0, np.abs(q)))
    qx, qy = q[0] + step[0], q[1] + step[1]
    dx, dy = (q[0] - xs).tolist(), (q[1] - ys).tolist()
    n = len(targets)
    f = np.fromiter(map(math.hypot, dx + (qx - xs).tolist() + dx,
                        dy + dy + (qy - ys).tolist()),
                    np.float64, 3 * n).reshape(3, n) - targets
    jt = np.empty((2, n))
    jt[0] = (f[1] - f[0]) / (qx - q[0])
    jt[1] = (f[2] - f[0]) / (qy - q[1])
    return jt.T


def _check_positions(positions: Dict[int, Point],
                     participants: List[int]) -> None:
    """Refuse positions the DT cannot triangulate: a non-finite
    coordinate, or two participants on one point."""
    bad = sorted(n for n, p in positions.items()
                 if not (math.isfinite(p[0]) and math.isfinite(p[1])))
    if bad:
        raise ControlPlaneError(f"non-finite positions of switches {bad}")
    owner: Dict[Point, int] = {}
    for node in participants:
        other = owner.setdefault(positions[node], node)
        if other != node:
            raise ControlPlaneError(
                f"switches {other} and {node} share the position "
                f"{positions[node]}")


@dataclass
class ControllerConfig:
    """Tunables of the control plane.

    ``cvt_iterations`` is the paper's ``T``; 0 disables C-regulation
    (GRED-NoCVT).  ``samples_per_iteration`` is the Monte-Carlo sample
    count (paper: 1000).  ``density_sampler`` optionally realizes a
    non-uniform data-position density rho for C-regulation (paper
    Equation 2); ``None`` means uniform (SHA-256 positions).
    """

    cvt_iterations: int = 50
    samples_per_iteration: int = 1000
    relaxation: float = 1.0
    margin: float = 0.05
    seed: int = 0
    density_sampler: Optional[object] = None
    #: Embedding back end: "classical" (the paper's M-position) or
    #: "smacof" (stress majorization, ablation A4).
    embedding: str = "classical"


@dataclass
class ReconcileReport:
    """Outcome of one anti-entropy reconciliation run.

    ``sweeps`` counts the digest sweeps that shipped at least one
    resync; ``divergence_window`` (the histogram) observes the same
    number — how long (in sweeps) divergent state survived.
    """

    sweeps: int = 0
    #: Switches diverging from the desired plan when the run started.
    divergent_initial: int = 0
    #: Switch resyncs shipped (a switch resynced twice counts twice).
    resynced: int = 0
    #: Message retransmissions during resyncs.
    retries: int = 0
    #: Southbound transmissions during resyncs.
    messages: int = 0
    #: Pending-queue entries drained by this run.
    drained: int = 0
    #: Switches skipped because their control channel is severed.
    unreachable: FrozenSet[int] = frozenset()
    #: Switches still divergent when the run ended (unreachable ones,
    #: or ``max_sweeps`` ran out).
    divergent_final: FrozenSet[int] = frozenset()

    @property
    def converged(self) -> bool:
        return not self.divergent_final

    def to_dict(self) -> Dict[str, object]:
        return {
            "sweeps": self.sweeps,
            "divergent_initial": self.divergent_initial,
            "resynced": self.resynced,
            "retries": self.retries,
            "messages": self.messages,
            "drained": self.drained,
            "unreachable": sorted(self.unreachable),
            "divergent_final": sorted(self.divergent_final),
            "converged": self.converged,
        }


class Controller:
    """The GRED control plane.

    Parameters
    ----------
    topology:
        Physical switch graph (must be connected).
    server_map:
        Edge servers attached to each switch; switches absent from the
        map (or mapped to an empty list) are relay-only and do not
        participate in the DT.
    config:
        Control-plane tunables.
    positions:
        Optional precomputed virtual positions, as for
        :meth:`recompute` (a snapshot restore passes the saved ones).
    """

    def __init__(self, topology: Graph, server_map: ServerMap,
                 config: Optional[ControllerConfig] = None,
                 positions: Optional[Dict[int, Point]] = None) -> None:
        if not is_connected(topology):
            raise ControlPlaneError("the switch topology must be connected")
        unknown = [s for s in server_map if not topology.has_node(s)]
        if unknown:
            raise ControlPlaneError(
                f"server map references unknown switches: {unknown}"
            )
        self.config = config or ControllerConfig()
        self.topology = topology.copy()
        self.server_map: ServerMap = {
            node: list(server_map.get(node, []))
            for node in topology.nodes()
        }
        self.positions: Dict[int, Point] = {}
        self.switches: Dict[int, GredSwitch] = {}
        self._dt: Optional[DelaunayTriangulation] = None
        self._dt_vertex_to_switch: Dict[int, int] = {}
        self._dt_switch_to_vertex: Dict[int, int] = {}
        #: DT rows in switch-id space, kept from the stars of inserted
        #: and deleted vertices; ``dt_adjacency()`` reads the DT itself.
        self._dt_rows: Dict[int, Set[int]] = {}
        self._rng = np.random.default_rng(self.config.seed)
        #: Last applied plan (what the controller believes installed).
        self._plan: Optional[RulePlan] = None
        #: Bumps on every applied change, global or scoped.
        self._version = 0
        #: Bumps only on :meth:`recompute` — the one event that moves
        #: every position and invalidates everything.
        self._global_epoch = 0
        #: switch id -> version of the last change that touched it.
        self._generations: Dict[int, int] = {}
        #: Ascending ``(version, touched_or_None)`` history; ``None``
        #: marks a global event.
        self._changelog: List[tuple] = []
        #: Optional southbound RecordingChannel observing every
        #: rule-install message (control-traffic accounting).
        self.southbound_channel = None
        #: Optional lossy transport (a :class:`~repro.controlplane.
        #: channel.FaultyChannel`); when attached, deltas are applied
        #: transactionally through it with acks and retries.
        self.transport = None
        self._applier: Optional[TransactionalApplier] = None
        #: switch id -> generation of the delta it failed to ack (the
        #: pending queue; drained by :meth:`reconcile`).
        self._pending_deltas: Dict[int, int] = {}
        #: switch id -> generation of the last fully-acked delta.
        self._ack_generations: Dict[int, int] = {}
        #: switch id -> (switch object, its revision) when it was last
        #: known to hold its plan in ``_plan`` (see :meth:`_dirty`); a
        #: new object under a known id never matches.
        self._converged: Dict[int, Tuple[GredSwitch, int]] = {}
        #: Outcome of the last transactional apply, for introspection.
        self.last_apply_report = None
        self._routing_index: Optional[RoutingIndex] = None
        #: Full index (re)builds — the churn experiment asserts joins
        #: leave this flat.
        self._index_builds = 0
        self.recompute(positions)

    # ------------------------------------------------------------------
    # main pipeline
    # ------------------------------------------------------------------
    def attach_transport(self, channel,
                         policy: Optional[RetryPolicy] = None) -> None:
        """Route all southbound traffic through a (possibly lossy)
        control channel.

        ``channel`` is a :class:`~repro.controlplane.channel.
        FaultyChannel` (or anything with its ``ship``/``is_reachable``
        surface).  From here on every delta is applied by a
        :class:`~repro.controlplane.apply.TransactionalApplier`:
        per-switch transactions with acks, bounded jittered retries,
        and a pending queue for switches that fail to converge —
        drained by :meth:`reconcile`.
        """
        self.transport = channel
        self._applier = TransactionalApplier(
            channel, policy=policy, seed=self.config.seed + 3)

    def dt_participants(self) -> List[int]:
        """Switches that host at least one edge server (DT members)."""
        return [node for node in self.topology.nodes()
                if self.server_map.get(node)]

    def recompute(self, positions: Optional[Dict[int, Point]] = None
                  ) -> None:
        """Run the full control-plane pipeline and install all rules.

        Parameters
        ----------
        positions:
            Optional precomputed virtual positions (e.g. restored from a
            snapshot).  When given, the embedding and CVT stages are
            skipped and the DT/rules are built over these positions;
            every topology switch must be covered.

        Raises
        ------
        ControlPlaneError
            If no switch hosts a server, ``positions`` misses a
            switch, holds a non-finite coordinate or puts two DT
            participants on one point, or C-regulation refuses its
            input (a ``density_sampler`` batch that is not finite or
            not inside the unit square).  Nothing has changed then.
        """
        registry = default_registry()
        registry.counter("controlplane.recomputes").inc()
        participants = self.dt_participants()
        if not participants:
            raise ControlPlaneError(
                "at least one switch must host an edge server"
            )
        if positions is not None:
            missing = [n for n in self.topology.nodes()
                       if n not in positions]
            if missing:
                raise ControlPlaneError(
                    f"precomputed positions missing switches: {missing}"
                )
            positions = {n: (float(p[0]), float(p[1]))
                         for n, p in positions.items()}
        else:
            positions = self._compute_positions(participants)
        _check_positions(positions, participants)
        self.positions = positions
        with registry.timer("controlplane.phase.dt_build"):
            self._build_dt(participants)
        self._install_rules()

    def _compute_positions(
        self, participants: List[int]
    ) -> Dict[int, Point]:
        registry = default_registry()
        order = self.topology.nodes()
        with registry.timer("controlplane.phase.m_position"):
            matrix, order = all_pairs_hop_matrix(self.topology,
                                                 order=order)
            if self.config.embedding == "classical":
                embedded = m_position(matrix, margin=self.config.margin)
            elif self.config.embedding == "smacof":
                from ..embedding import smacof_position

                embedded = smacof_position(matrix,
                                           margin=self.config.margin)
            else:
                raise ControlPlaneError(
                    f"unknown embedding back end "
                    f"{self.config.embedding!r}; expected 'classical' or "
                    f"'smacof'"
                )
        positions = dict(zip(order, embedded))
        participant_sites = [positions[node] for node in participants]
        if self.config.cvt_iterations > 0:
            with registry.timer("controlplane.phase.c_regulation"):
                try:
                    result = c_regulation(
                        participant_sites,
                        iterations=self.config.cvt_iterations,
                        samples_per_iteration=(
                            self.config.samples_per_iteration),
                        relaxation=self.config.relaxation,
                        rng=np.random.default_rng(self.config.seed + 1),
                        sampler=self.config.density_sampler,
                    )
                except ValueError as exc:
                    raise ControlPlaneError(
                        f"C-regulation refused: {exc}") from exc
            participant_sites = result.sites
        participant_sites = deduplicate_points(participant_sites)
        for node, site in zip(participants, participant_sites):
            positions[node] = site
        return positions

    def _build_dt(self, participants: List[int]) -> None:
        sites = [self.positions[node] for node in participants]
        self._dt = DelaunayTriangulation(sites)
        # DelaunayTriangulation assigns vertex id == input index.
        self._dt_vertex_to_switch = dict(enumerate(participants))
        self._dt_switch_to_vertex = {
            switch: vertex
            for vertex, switch in self._dt_vertex_to_switch.items()
        }
        self._dt_rows = self.dt_adjacency()

    def _drop_from_dt(self, leavers: List[int]) -> Set[int]:
        """Delete the leaving DT participants from the live DT and
        return the survivors of their stars (their kept rows): a
        deletion adds edges only inside its star, so no other switch's
        DT row changes.

        The DT is a function of its sites, so the result is the one
        :meth:`recompute` would build over the survivors.  Leavers that
        host no server are not in it.
        """
        for switch in leavers:
            vertex = self._dt_switch_to_vertex.pop(switch, None)
            if vertex is not None:
                self._dt.remove_point(vertex)
                del self._dt_vertex_to_switch[vertex]
        star = set().union(*(self._dt_rows.pop(s, ()) for s in leavers))
        return star.difference(leavers)

    def _star(self, switch: int) -> Set[int]:
        """The switches of DT participant ``switch``'s neighbours, read
        off the DT from an edge of its kept row if one remains."""
        vertices = self._dt_switch_to_vertex
        near = next((vertices[n] for n in self._dt_rows.get(switch, ())
                     if n in vertices), None)
        return {self._dt_vertex_to_switch[v]
                for v in self._dt.neighbors(vertices[switch], near)}

    def dt_adjacency(self) -> Dict[int, Set[int]]:
        """DT neighbor sets in switch-id space."""
        if self._dt is None:
            raise ControlPlaneError("control plane has not been computed")
        adjacency: Dict[int, Set[int]] = {}
        for vertex, nbrs in self._dt.neighbor_map().items():
            switch = self._dt_vertex_to_switch[vertex]
            adjacency[switch] = {
                self._dt_vertex_to_switch[v] for v in nbrs
            }
        return adjacency

    def _build_switches(self) -> None:
        """Sync the switch-object population to the topology.

        Existing switches are reused untouched — their state (including
        ``num_servers``, driven by ``SetServerCount`` messages) is
        converged by the plan/diff/apply pipeline, not reset here.
        """
        existing = self.switches
        self.switches = {}
        for node in self.topology.nodes():
            switch = existing.get(node)
            if switch is None:
                switch = GredSwitch(
                    switch_id=node,
                    position=self.positions[node],
                    num_servers=len(self.server_map.get(node, [])),
                )
            self.switches[node] = switch

    def _install_rules(self, ends: Optional[Set[int]] = None,
                       star: Set[int] = frozenset()) -> RuleDelta:
        """Converge the data plane to the desired plan.

        The plan/diff/apply pipeline: compile the desired per-switch
        state (pure), diff it against what is actually installed, and
        ship only the difference southbound.  No ``changed`` marks a
        full :meth:`recompute` — every position may have moved, so the
        global epoch advances and every scoped cache (routing index,
        compiled fast path, route caches) rebuilds.  Scoped events
        (joins, leaves, link changes, failure absorption) pass the
        switches they touched — the ``ends`` whose port rows or
        membership changed and the ``star`` of survivors whose DT rows
        did, which are re-read — and bump only the version and the
        generations of the touched switches; the routing index is
        updated in place, the plan is compiled from the last one
        (``compile_plan``'s ``changed``), and only the :meth:`_dirty`
        switches are read back and diffed — the delta is the full
        diff's all the same.
        """
        registry = default_registry()
        global_event = ends is None
        changed = None if global_event else ends | star
        if global_event:
            self._global_epoch += 1
            self._routing_index = None
        for sid in star:
            self._dt_rows[sid] = self._star(sid)
        self._build_switches()
        desired = self._compile_plan(
            previous=None if global_event else self._plan, changed=changed)
        last = {} if self._plan is None else self._plan.plans
        removed = frozenset(sid for sid in (last if global_event else changed)
                            if sid in last and sid not in desired.plans)
        only = None if global_event else self._dirty(desired)
        read = (self.switches if only is None
                else {sid: self.switches[sid] for sid in only})
        seen = {sid: (switch, switch.revision)
                for sid, switch in read.items()}
        delta = diff_plans(snapshot_plan(read), desired, only=only)
        with registry.timer("controlplane.phase.rule_install"):
            self._apply(delta, generation=self._version + 1)
        # A switch read and sent nothing held its plan when read.  One
        # sent a delta holds it now, unless a lossy transport carried
        # it: a reordered pair can leave it wrong though acked, so it
        # stays dirty until a later read finds it converged.
        self._converged.update(seen)
        for sid in delta.touched:
            switch = self.switches[sid]
            if self._applier is None:
                self._converged[sid] = (switch, switch.revision)
            else:
                del self._converged[sid]
        for sid in removed:
            self._pending_deltas.pop(sid, None)
            self._ack_generations.pop(sid, None)
            self._converged.pop(sid, None)
        self._plan = desired
        self._version += 1
        if global_event:
            self._generations = {
                sid: self._version for sid in self.switches}
            self._log_change(None)
        else:
            # A new plan counts as touching its switch even where an
            # out-of-band write had put it in place already.
            touched = delta.touched | {
                sid for sid in only if desired.plans[sid] is not last.get(sid)}
            for sid in touched:
                self._generations[sid] = self._version
            for sid in removed:
                self._generations.pop(sid, None)
            self._log_change(frozenset(touched | removed))
            self._sync_routing_index(changed)
        if registry.enabled:
            total = sum(s.table.num_entries()
                        for s in self.switches.values())
            if global_event:
                registry.counter("controlplane.rules_installed").inc(
                    total)
            else:
                registry.counter("controlplane.rules_installed").inc(
                    len(delta.messages))
            registry.gauge("controlplane.table_entries").set(total)
            registry.gauge("controlplane.switches").set(
                len(self.switches))
            registry.counter(
                "controlplane.delta.switches_read",
                help="Switches read back and diffed per rule install",
                scope="full" if only is None else "scoped").inc(len(read))
        return delta

    def _dirty(self, desired: RulePlan) -> FrozenSet[int]:
        """The switches a scoped event must read back and diff: its
        desired plan is not the last plan's object, or it is not known
        converged — never recorded, or its revision moved since (an
        out-of-band write, a late message).  Every other switch holds
        the last plan's ``SwitchPlan``, which is ``desired``'s, so its
        diff would be empty.  A pending delta needs no clause of its
        own (DESIGN.md §5a)."""
        last = self._plan.plans
        converged = self._converged
        return frozenset(
            sid for sid, switch in self.switches.items()
            if desired.plans[sid] is not last.get(sid)
            or converged.get(sid) != (switch, switch.revision))

    def desired_plan(self) -> RulePlan:
        """Compile the desired plan from the current control view (the
        DT itself, not the rows the controller keeps)."""
        return self._compile_plan(None, dt_rows=self.dt_adjacency())

    def _compile_plan(self, previous: Optional[RulePlan],
                      changed: Optional[Set[int]] = None,
                      dt_rows: Optional[Dict[int, Set[int]]] = None
                      ) -> RulePlan:
        return compile_plan(
            self.topology, self.positions,
            self._dt_rows if dt_rows is None else dt_rows,
            server_counts={node: len(self.server_map.get(node, []))
                           for node in self.topology.nodes()},
            previous=previous, changed=changed,
        )

    def _ship(self, delta: RuleDelta,
              generation: int) -> Optional[ApplyReport]:
        """Ship one delta southbound, observed by
        ``southbound_channel``: the perfect synchronous ``apply_delta``
        without a transport (returns ``None``), per-switch transactions
        through it with one attached (returns their report)."""
        if self._applier is None:
            apply_delta(self.switches, delta,
                        channel=self.southbound_channel)
            return None
        self.transport.observer = self.southbound_channel
        return self._applier.apply(self.switches, delta,
                                   generation=generation)

    def _apply(self, delta: RuleDelta, *, generation: int) -> None:
        """Ship one event's delta (:meth:`_ship`).  Over a transport,
        fully-acked switches advance their ack generation, unconverged
        ones land on the pending queue (their data plane keeps serving
        stale rules until :meth:`reconcile` or a later delta converges
        them).
        """
        report = self._ship(delta, generation)
        if report is None:
            return
        self.last_apply_report = report
        for sid in report.acked:
            self._ack_generations[sid] = generation
            self._pending_deltas.pop(sid, None)
        for sid in report.pending:
            self._pending_deltas[sid] = generation
        for sid in report.departed:
            self._pending_deltas.pop(sid, None)
            self._ack_generations.pop(sid, None)

    def _log_change(self, touched: Optional[frozenset]) -> None:
        self._changelog.append((self._version, touched))
        if len(self._changelog) > _CHANGELOG_CAP:
            del self._changelog[:len(self._changelog) - _CHANGELOG_CAP]

    def _sync_routing_index(self, changed: Set[int]) -> None:
        """Bring the (lazily built) routing index's membership in line
        with the current DT participants, in place.

        Scoped events never move surviving positions, and only
        ``changed`` switches join or leave the DT, so insert/remove of
        those is sufficient; a missing index stays missing until
        queried.
        """
        index = self._routing_index
        if index is None:
            return
        current = {node for node in changed if node in index}
        desired = {node for node in changed if self.server_map.get(node)}
        for node in sorted(current - desired):
            index.remove(node)
        for node in sorted(desired - current):
            index.insert(node, self.positions[node])

    # ------------------------------------------------------------------
    # anti-entropy reconciliation
    # ------------------------------------------------------------------
    def divergent_switches(
            self, want: Optional[Dict[int, str]] = None) -> Set[int]:
        """Switches whose installed digest differs from the desired
        one (either direction: wrong state, or state with no desired
        counterpart).  ``want`` is the desired plan's digests, compiled
        afresh when not given."""
        if want is None:
            want = plan_digests(self.desired_plan())
        have = plan_digests(snapshot_plan(self.switches))
        return {sid for sid in set(want) | set(have)
                if have.get(sid) != want.get(sid)}

    def reconcile(self, max_sweeps: int = 8) -> ReconcileReport:
        """Digest-based anti-entropy: converge live switches to the
        desired plan.

        Each sweep compares per-switch SHA-256 digests of the desired
        plan against a fresh snapshot of the live switches and re-ships
        (via :func:`~repro.controlplane.diff.diff_plans` restricted to
        the divergent set) exactly the switches that differ — the
        repair path for faults that survive ack/retry, e.g. a reordered
        remove/install pair where every message was acked but the final
        state is wrong, or a delayed stale message clobbering newer
        rules.  Sweeps repeat until one finds no reachable divergence
        or ``max_sweeps`` runs out (a resync round over a lossy
        transport can itself be reordered).  Unreachable switches are
        skipped — their pending deltas stay queued and drain on a later
        run after recovery.
        """
        from contextlib import nullcontext

        from ..obs.spans import default_recorder

        registry = default_registry()
        recorder = default_recorder()
        span = (recorder.span("controlplane.reconcile",
                              max_sweeps=max_sweeps)
                if recorder is not None else nullcontext())
        report = ReconcileReport()
        with span:
            # Reconcile against the freshly compiled desired plan, not
            # the remembered one — the remembered plan is only what the
            # controller *believes* it installed.
            desired = self.desired_plan()
            want = plan_digests(desired)
            unreachable = (set(self.transport.unreachable_switches)
                           if self.transport is not None else set())
            divergent = self.divergent_switches(want)
            report.divergent_initial = len(divergent)
            sweeps = 0
            while divergent - unreachable and sweeps < max_sweeps:
                reachable = frozenset(divergent - unreachable)
                delta = diff_plans(snapshot_plan(self.switches),
                                   desired, only=reachable)
                shipped = self._ship(delta, self._version)
                if shipped is None:
                    report.messages += len(delta.messages)
                else:
                    report.retries += shipped.retries
                    report.messages += shipped.transmissions
                report.resynced += len(reachable)
                sweeps += 1
                if registry.enabled:
                    registry.counter(
                        "controlplane.southbound.resyncs").inc(
                            len(reachable))
                divergent = self.divergent_switches(want)
            report.sweeps = sweeps
            report.unreachable = frozenset(unreachable)
            report.divergent_final = frozenset(divergent)
            # Drain the pending queue: a reachable switch that now
            # matches its desired digest has caught up with every delta
            # it ever missed.
            for sid in sorted(self._pending_deltas):
                if sid not in self.switches:
                    self._pending_deltas.pop(sid)
                    continue
                if sid not in divergent and sid not in unreachable:
                    self._pending_deltas.pop(sid)
                    self._ack_generations[sid] = self._version
                    report.drained += 1
        if registry.enabled:
            registry.histogram(
                "controlplane.southbound.divergence_window",
                help="Anti-entropy sweeps needed to reconverge",
                buckets=(0, 1, 2, 3, 4, 6, 8, 12),
            ).observe(sweeps)
            registry.event("reconcile",
                           sweeps=sweeps,
                           divergent_initial=report.divergent_initial,
                           resynced=report.resynced,
                           drained=report.drained,
                           converged=report.converged)
        return report

    @property
    def pending_deltas(self) -> Dict[int, int]:
        """Switches with an unacked delta: id -> the generation whose
        transaction failed to converge (copy)."""
        return dict(self._pending_deltas)

    @property
    def ack_generations(self) -> Dict[int, int]:
        """Per-switch generation of the last fully-acked transactional
        delta (copy; empty until a transport is attached)."""
        return dict(self._ack_generations)

    # ------------------------------------------------------------------
    # range extension (paper Section V-B)
    # ------------------------------------------------------------------
    def extend_range(self, switch_id: int, serial: int,
                     admit=None) -> ExtensionEntry:
        """Offload an overloaded server to a neighboring switch.

        Picks, among the physical neighbors' servers, the one with the
        most remaining capacity (unbounded servers count as infinite,
        broken by lowest current load), installs the rewrite entry at the
        overloaded switch, and returns it.  ``admit(takeover server)``,
        when given, runs before the install; if it raises, nothing is
        installed.

        Raises
        ------
        ControlPlaneError
            If the switch/serial is unknown, an extension is already
            active for that server, or no neighbor hosts any server.
        """
        servers = self.server_map.get(switch_id)
        if servers is None or serial >= len(servers):
            raise ControlPlaneError(
                f"unknown server ({switch_id}, {serial})"
            )
        table = self.switches[switch_id].table
        if table.extension_for(serial) is not None:
            raise ControlPlaneError(
                f"server ({switch_id}, {serial}) already has an active "
                f"range extension"
            )
        candidate = self._pick_takeover_server(switch_id)
        if candidate is None:
            raise ControlPlaneError(
                f"no physical neighbor of switch {switch_id} hosts a "
                f"server to take over"
            )
        if admit is not None:
            admit(candidate)
        entry = ExtensionEntry(
            local_serial=serial,
            target_switch=candidate.switch,
            target_serial=candidate.serial,
        )
        table.install_extension(entry)
        registry = default_registry()
        registry.counter("controlplane.extensions_installed").inc()
        registry.counter("controlplane.rules_rewritten").inc()
        registry.event("range_extension_installed", switch=switch_id,
                       serial=serial, target_switch=candidate.switch,
                       target_serial=candidate.serial)
        return entry

    def _pick_takeover_server(self,
                              switch_id: int) -> Optional[EdgeServer]:
        best: Optional[EdgeServer] = None
        best_key = None
        for neighbor in sorted(self.topology.neighbors(switch_id)):
            for server in self.server_map.get(neighbor, []):
                if server.capacity is None:
                    remaining = float("inf")
                else:
                    remaining = server.capacity - server.load
                    if remaining <= 0:
                        continue
                key = (-remaining, server.load, server.switch, server.serial)
                if best_key is None or key < best_key:
                    best_key = key
                    best = server
        return best

    def retract_range(self, switch_id: int, serial: int) -> None:
        """Remove an active range extension (after its data migrated
        back, paper Section V-B end)."""
        table = self.switches[switch_id].table
        if table.extension_for(serial) is None:
            raise ControlPlaneError(
                f"server ({switch_id}, {serial}) has no active extension"
            )
        table.remove_extension(serial)
        registry = default_registry()
        registry.counter("controlplane.extensions_retracted").inc()
        registry.event("range_extension_retracted", switch=switch_id,
                       serial=serial)

    # ------------------------------------------------------------------
    # network dynamics (paper Section VI)
    # ------------------------------------------------------------------
    def add_switch(self, switch_id: int, links: List[int],
                   servers: List[EdgeServer], admit=None):
        """A new switch joins the network.

        The new switch's virtual position is computed *locally* — the
        existing switches keep their positions (the paper: a new node
        "only affects its neighbors") — by minimizing the squared error
        between embedded and network distances against all existing
        switches, then the DT is extended incrementally and rules are
        recompiled.

        The join is a pure solve (:meth:`_solve_join`: checks, the
        topology with the joiner, its position) and a commit.  Between
        them the joiner's DT vertex is inserted and, when given,
        ``admit(dt_neighbours, position)`` runs; if it raises, the
        vertex is deleted again — the DT is a function of its sites —
        and the join is refused with nothing else touched: no topology,
        plan, table or version change.  Returns what ``admit``
        returned.
        """
        topology, position = self._solve_join(switch_id, links, servers)
        star: Set[int] = set()
        if servers:
            vertex = self._dt.insert_point(position)
            self._dt_vertex_to_switch[vertex] = switch_id
            self._dt_switch_to_vertex[switch_id] = vertex
            star = self._dt_rows[switch_id] = self._star(switch_id)
        admitted = None
        if admit is not None:
            try:
                # dt_adjacency()'s set: a join moves items in its order.
                admitted = admit(self.dt_adjacency().get(switch_id, set()),
                                 position)
            except BaseException:
                self._drop_from_dt([switch_id])
                raise
        self.topology = topology
        self.server_map[switch_id] = list(servers)
        self.positions[switch_id] = position
        self._install_rules({switch_id, *links}, star)
        registry = default_registry()
        registry.counter("controlplane.switch_joins").inc()
        registry.event("switch_join", switch=switch_id,
                       links=len(links), servers=len(servers))
        return admitted

    def _solve_join(self, switch_id: int, links: List[int],
                    servers: List[EdgeServer]) -> Tuple[Graph, Point]:
        """Check a join and solve it without changing anything: the
        topology with the joiner linked in, and the joiner's position
        (deduplicated against every existing one)."""
        if self.topology.has_node(switch_id):
            raise ControlPlaneError(f"switch {switch_id} already exists")
        if not links:
            raise ControlPlaneError("a joining switch needs at least one "
                                    "physical link")
        for peer in links:
            if not self.topology.has_node(peer):
                raise ControlPlaneError(f"unknown link peer {peer}")
        # Placement names the serving server (switch, H(d) mod s): a
        # server of another switch would take items it cannot serve.
        ids = [(server.switch, server.serial) for server in servers]
        if ids != [(switch_id, serial) for serial in range(len(ids))]:
            raise ControlPlaneError(
                f"servers of joining switch {switch_id} must be "
                f"({switch_id}, 0), ({switch_id}, 1), ... in order; "
                f"got {ids}")
        topology = self.topology.copy()
        topology.add_node(switch_id)
        for peer in links:
            topology.add_edge(switch_id, peer)
        position = self._solve_join_position(switch_id, topology)
        position = deduplicate_points(
            [self.positions[n] for n in topology.nodes()
             if n != switch_id] + [position]
        )[-1]
        return topology, position

    def _solve_join_position(self, switch_id: int,
                             topology: Graph) -> Point:
        """Least-squares position for a joining switch against the
        existing embedding, over ``topology`` (the joiner linked in).
        A solve that fails or is not finite raises
        :class:`ControlPlaneError`."""
        from ..graph import bfs_distances

        # BFS discovery order is the residual vector's order.
        hop = bfs_distances(topology, switch_id)
        anchors = [node for node, d in hop.items()
                   if node != switch_id and node in self.positions and d > 0]
        if not anchors:
            return (0.5, 0.5)
        scale = self._embedding_scale(topology)
        xs, ys = np.array([self.positions[n] for n in anchors]).T
        targets = scale * np.array([hop[n] for n in anchors],
                                   dtype=np.float64)
        neighbor_positions = [
            self.positions[n] for n in topology.neighbors(switch_id)
            if n in self.positions
        ]
        if neighbor_positions:
            x0 = (
                sum(p[0] for p in neighbor_positions)
                / len(neighbor_positions),
                sum(p[1] for p in neighbor_positions)
                / len(neighbor_positions),
            )
        else:
            x0 = (0.5, 0.5)
        from scipy.optimize import least_squares

        # Fail closed: the join is still a pure solve here, so a
        # refusal changes nothing (no fallback position is guessed).
        try:
            x, y = (float(v) for v in least_squares(
                _join_residuals, x0=list(x0), jac=_join_jacobian,
                args=(xs, ys, targets)).x)
        except Exception as exc:
            raise ControlPlaneError(
                f"join of switch {switch_id}: the position solve "
                f"failed ({exc})") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ControlPlaneError(
                f"join of switch {switch_id}: the position solve gave "
                f"a non-finite point ({x}, {y})")
        return (x, y)

    def _embedding_scale(self, topology: Graph) -> float:
        """Least-squares factor mapping hop distances over ``topology``
        to embedded distances, over a sample of existing pairs: the
        first 20 positioned nodes against every positioned node, each
        pair's ``e * d`` and ``d * d`` folded left to right in that
        row-major order (DESIGN.md §5g)."""
        nodes = [n for n in topology.nodes() if n in self.positions]
        if len(nodes) < 2:
            return 0.1
        from ..graph import HopRows

        hops = HopRows(topology)
        sample = nodes[:20]
        rows = hops.rows(sample)[:, [hops.column[n] for n in nodes]]
        reach = rows > 0  # not itself, not unreachable
        d = rows[reach].astype(np.float64)
        xs, ys = np.array([self.positions[n] for n in nodes]).T
        e = np.fromiter(map(
            math.hypot, (xs[: len(sample), None] - xs)[reach].tolist(),
            (ys[: len(sample), None] - ys)[reach].tolist()),
            np.float64, len(d))
        den = reduce(add, (d * d).tolist(), 0.0)
        if den == 0.0:
            return 0.1
        return reduce(add, (e * d).tolist(), 0.0) / den

    def add_link(self, u: int, v: int) -> None:
        """A new physical link comes up between two known switches.

        Positions and the DT are unchanged (the virtual space reflects
        distances only approximately and the paper recomputes the
        embedding on its own schedule); the rule compiler re-derives
        ports, greedy candidates and relay paths so the new link is
        used immediately.
        """
        if not self.topology.has_node(u) or not self.topology.has_node(v):
            raise ControlPlaneError(f"unknown link endpoint in ({u}, {v})")
        if self.topology.has_edge(u, v):
            raise ControlPlaneError(f"link ({u}, {v}) already exists")
        self.topology.add_edge(u, v)
        self._install_rules({u, v})
        registry = default_registry()
        registry.counter("controlplane.links_added").inc()
        registry.event("link_up", u=u, v=v)

    def remove_link(self, u: int, v: int, admit=None) -> None:
        """A physical link fails.

        The topology must stay connected (a partition cannot be routed
        around).  Relay paths that crossed the failed link are
        recompiled over the surviving topology; positions and the DT
        are kept.  A range extension across the link is withdrawn
        only once ``admit`` has moved its items home
        (:meth:`_drop_detached_extensions`).
        """
        if not self.topology.has_edge(u, v):
            raise ControlPlaneError(f"no link ({u}, {v})")
        candidate = self.topology.copy()
        candidate.remove_edge(u, v)
        if not is_connected(candidate):
            raise ControlPlaneError(
                f"removing link ({u}, {v}) would partition the network"
            )
        self.topology = candidate
        self._install_rules({u, v})
        self._drop_detached_extensions(admit)
        registry = default_registry()
        registry.counter("controlplane.links_removed").inc()
        registry.event("link_down", level=EventLevel.WARNING, u=u, v=v)

    def remove_switch(self, switch_id: int, admit=None):
        """A switch leaves (or fails).

        The remaining positions are kept.  A leaver that hosts servers
        is deleted from the live DT (see :meth:`_drop_from_dt`); a
        relay-only leaver leaves the DT untouched.  The rules are then
        recompiled from the last plan.

        Range extensions whose takeover server sits on the leaver are
        withdrawn before the rules are reinstalled, so what they
        redirected re-delivers to its home server and none dangles.

        ``admit()``, when given, runs once the leave is accepted and
        before anything changes; if it raises, so does the leave, with
        nothing changed.  Returns what it returned.

        Raises
        ------
        ControlPlaneError
            If removing the switch would disconnect the topology or
            remove the last DT participant.  Nothing has changed then.
        """
        if not self.topology.has_node(switch_id):
            raise ControlPlaneError(f"unknown switch {switch_id}")
        candidate = self.topology.copy()
        candidate.remove_node(switch_id)
        if candidate.num_nodes() and not is_connected(candidate):
            raise ControlPlaneError(
                f"removing switch {switch_id} would disconnect the network"
            )
        if not any(self.server_map.get(node)
                   for node in candidate.nodes()):
            raise ControlPlaneError(
                "cannot remove the last server-hosting switch"
            )
        admitted = None if admit is None else admit()
        ends = {switch_id, *self.topology.neighbors(switch_id)}
        self.topology = candidate
        self.server_map.pop(switch_id, None)
        self.positions.pop(switch_id, None)
        self.switches.pop(switch_id, None)
        self._drop_dead_extensions()
        self._install_rules(ends, self._drop_from_dt([switch_id]))
        registry = default_registry()
        registry.counter("controlplane.switch_leaves").inc()
        registry.event("switch_leave", level=EventLevel.WARNING,
                       switch=switch_id)
        return admitted

    def absorb_failures(self, dead_switches=(), dead_links=(),
                        admit=None) -> List[int]:
        """Repair the control plane after *unannounced* failures.

        Unlike :meth:`remove_switch` (a graceful leave that refuses to
        partition the network), a crash has already happened — the
        controller's job is to keep serving with whatever survives.
        Dead switches and failed links are pruned in one pass; if that
        partitions the topology, the component with the most DT
        participants (ties: most switches, then lowest id) stays under
        management and the rest is stranded — returned to the caller
        and dropped from the controller's view.  Surviving positions
        are kept (the DT is repaired incrementally: dead and stranded
        participants are deleted from it, as in :meth:`remove_switch`),
        extensions pointing at dead targets are withdrawn, and the
        rules are recompiled from the last plan; then extensions across
        a lost link are withdrawn once ``admit`` has moved their items
        home (:meth:`_drop_detached_extensions`).

        Raises
        ------
        ControlPlaneError
            If no switch, or no server-hosting switch, survives.  The
            controller state is untouched in that case.
        """
        dead = sorted({s for s in dead_switches
                       if self.topology.has_node(s)})
        dead_links = list(dead_links)  # may be a one-shot iterator
        candidate = self.topology.copy()
        for switch_id in dead:
            candidate.remove_node(switch_id)
        for u, v in dead_links:
            if candidate.has_edge(u, v):
                candidate.remove_edge(u, v)
        if candidate.num_nodes() == 0:
            raise ControlPlaneError(
                "cannot absorb failures: every switch is dead")
        components = connected_components(candidate)

        def component_key(component):
            participants = sum(1 for n in component
                               if self.server_map.get(n))
            return (participants, len(component), -min(component))

        keep = max(components, key=component_key)
        if not any(self.server_map.get(n) for n in keep):
            raise ControlPlaneError(
                "cannot absorb failures: no server-hosting switch "
                "survives"
            )
        stranded = sorted(n for component in components
                          if component is not keep for n in component)
        for switch_id in stranded:
            candidate.remove_node(switch_id)
        ends = {n for switch_id in dead + stranded
                for n in self.topology.neighbors(switch_id)}
        ends.update(dead + stranded, *dead_links)
        self.topology = candidate
        for switch_id in dead + stranded:
            self.server_map.pop(switch_id, None)
            self.positions.pop(switch_id, None)
            self.switches.pop(switch_id, None)
        self._drop_dead_extensions()
        self._install_rules(ends, self._drop_from_dt(dead + stranded))
        self._drop_detached_extensions(admit)
        registry = default_registry()
        if registry.enabled:
            registry.counter("controlplane.failures_absorbed").inc()
            if stranded:
                registry.counter("controlplane.switches_stranded").inc(
                    len(stranded))
        registry.event("failures_absorbed", level=EventLevel.WARNING,
                       dead_switches=len(dead),
                       dead_links=len(dead_links),
                       stranded=len(stranded))
        return stranded

    def _drop_dead_extensions(self) -> None:
        """Withdraw range extensions whose takeover server's switch no
        longer exists (its data is unreachable; re-replication is the
        repair path)."""
        for switch in self.switches.values():
            for entry in list(switch.table.extensions()):
                if entry.target_switch not in self.server_map:
                    switch.table.remove_extension(entry.local_serial)

    def _drop_detached_extensions(self, admit=None) -> None:
        """Withdraw each range extension whose takeover switch is no
        longer a physical neighbour (a lost link) once ``admit(switch,
        entry)`` has moved what it redirected home.  Without ``admit``
        nothing can move, and if it raises (the move does not fit) the
        extension stays: what it redirected is served on, and the
        verifier reports a ``detached-extension``."""
        if admit is None:
            return
        for switch_id, switch in self.switches.items():
            for entry in list(switch.table.extensions()):
                if self.topology.has_edge(switch_id, entry.target_switch):
                    continue
                try:
                    admit(switch_id, entry)
                except Exception:
                    continue
                switch.table.remove_extension(entry.local_serial)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def switch_position(self, switch_id: int) -> Point:
        if switch_id not in self.positions:
            raise ControlPlaneError(f"unknown switch {switch_id}")
        return self.positions[switch_id]

    @property
    def epoch(self) -> int:
        """Monotone counter advanced only by :meth:`recompute` — the
        one event that moves every position.  Globally-scoped caches
        rebuild when it advances; scoped events (joins, leaves, link
        changes, failure absorption) advance :attr:`version` instead."""
        return self._global_epoch

    @property
    def version(self) -> int:
        """Monotone counter advanced on *every* applied change, global
        or scoped.  ``changes_since`` maps a version interval back to
        the set of touched switches for scoped cache invalidation."""
        return self._version

    def generation(self, switch_id: int) -> int:
        """The version of the last change that touched ``switch_id``
        (its rules, its membership, or its server count)."""
        if switch_id not in self._generations:
            raise ControlPlaneError(f"unknown switch {switch_id}")
        return self._generations[switch_id]

    @property
    def generations(self) -> Dict[int, int]:
        """Per-switch generation counters (copy)."""
        return dict(self._generations)

    def changes_since(self, version: int) -> Optional[Set[int]]:
        """Switches touched by every change after ``version``.

        Returns ``None`` when the interval cannot be answered scoped —
        it contains a global event (recompute) or predates the retained
        changelog — meaning the caller must invalidate everything.
        Removed switches are included in the returned set.
        """
        if version >= self._version:
            return set()
        if not self._changelog or self._changelog[0][0] > version + 1:
            return None
        touched: Set[int] = set()
        for entry_version, entry_touched in self._changelog:
            if entry_version <= version:
                continue
            if entry_touched is None:
                return None
            touched |= entry_touched
        return touched

    def routing_index(self) -> RoutingIndex:
        """The grid index over current participant positions (built
        lazily, updated in place on scoped events, rebuilt on
        ``recompute``)."""
        index = self._routing_index
        if index is None:
            index = RoutingIndex(self.dt_participants(), self.positions)
            self._routing_index = index
            self._index_builds += 1
        return index

    @property
    def index_builds(self) -> int:
        """Full routing-index builds so far (scoped events update the
        existing index in place and do not count)."""
        return self._index_builds

    def closest_switch(self, point: Point) -> int:
        """The DT participant whose position is nearest to ``point``
        (ties: lowest x, then y — the paper's rule).

        Served by the epoch-scoped grid index; the exhaustive scan is
        kept as :meth:`closest_switch_bruteforce` (the index's
        correctness oracle in the test suite)."""
        index = self.routing_index()
        if not len(index):
            return None
        return index.closest(point)

    def closest_switch_bruteforce(self, point: Point) -> int:
        """Reference O(participants) scan with the same tie-break."""
        participants = self.dt_participants()
        best = None
        best_key = None
        for node in participants:
            pos = self.positions[node]
            key = (euclidean(pos, point), pos[0], pos[1])
            if best_key is None or key < best_key:
                best_key = key
                best = node
        return best
