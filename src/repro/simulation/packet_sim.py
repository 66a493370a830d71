"""Packet-level network simulation with link contention.

Every hop costs what :class:`~repro.simulation.latency.LatencyModel`
says, plus the *store-and-forward* behavior of the switch plane: every
directed link has a bandwidth and a FIFO output queue, so concurrent
requests contend for links and the response delay grows with offered
load until the network saturates.  At unbounded bandwidth
(``math.inf``) serialization takes no time, no packet ever waits for a
link, and only the servers queue: the per-hop delay model of Fig. 8.

Routes themselves are deterministic (precomputed through the deployed
protocol); what is simulated is their transmission:

* per-hop: the switch delay, then queueing on the output link (a
  packet starts serializing when the link is free), serialization
  ``size / bandwidth``, then the link delay;
* at the server: FIFO queue with a fixed service time;
* the response travels the physical shortest path back, contending for
  links like any other packet.

This powers the throughput/saturation experiment (X5): GRED's shorter
paths consume less aggregate bandwidth per request than Chord's, so it
sustains a higher request rate before the response delay blows up.

With a :class:`repro.faults.FaultState` attached, the simulator also
models failures in flight: packets are dropped on crashed switches,
downed links, lossy links (Bernoulli draws from a dedicated RNG) and
dead servers, and each dropped request is retransmitted with
exponential backoff up to ``max_attempts`` times before it is recorded
as failed.  A :class:`repro.faults.FaultPlan` can be woven into the
event timeline so faults strike mid-trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..dataplane import ForwardingError
from ..graph import bfs_path
from ..obs import default_registry
from ..workloads import RetrievalRequest
from .events import Simulator
from .latency import LatencyModel

#: The simulator's default hop: 5 µs a link, 2 µs a switch, 100 µs of
#: server service (at 10 Gbps, :data:`DEFAULT_BANDWIDTH`).
DEFAULT_MODEL = LatencyModel(link_delay=5e-6, switch_delay=2e-6,
                             server_service_time=100e-6)
#: 10 Gbps, in bytes per second.
DEFAULT_BANDWIDTH = 1.25e9


@dataclass
class PacketCompletion:
    """One finished request with its delay breakdown."""

    request: RetrievalRequest
    request_hops: int
    response_hops: int
    response_delay: float
    link_wait: float  # total time spent queued on links


@dataclass
class PacketFailure:
    """One request that exhausted its retransmission budget."""

    request: RetrievalRequest
    reason: str
    attempts: int


class PacketLevelSimulator:
    """Simulates a retrieval trace with per-link contention.

    Parameters
    ----------
    net:
        A deployed protocol network exposing ``route_for`` and
        ``topology`` (GRED, Chord, or a baseline).
    model:
        Per-hop link and switch delays and the server service time
        (default :data:`DEFAULT_MODEL`).
    bandwidth_bytes_per_s:
        Every link's bandwidth; ``math.inf`` makes serialization free.
    fault_state:
        Optional :class:`repro.faults.FaultState`; defaults to the
        network's own (``net.fault_state``) when one is attached.
    loss_rng:
        RNG (``random()`` method) for packet-loss draws; required only
        when the fault state carries lossy links.
    max_attempts:
        Injection attempts per request, including the first (1 = no
        retransmission).
    retry_backoff:
        Base retransmission delay; attempt ``n`` retries after
        ``retry_backoff * 2**(n-1)`` seconds.
    """

    def __init__(self, net, model: Optional[LatencyModel] = None,
                 bandwidth_bytes_per_s: float = DEFAULT_BANDWIDTH,
                 fault_state=None, loss_rng=None,
                 max_attempts: int = 1,
                 retry_backoff: float = 0.01) -> None:
        if not bandwidth_bytes_per_s > 0:
            raise ValueError(f"bandwidth_bytes_per_s must be positive, "
                             f"got {bandwidth_bytes_per_s!r}")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        self.net = net
        self.model = model or DEFAULT_MODEL
        self.bandwidth_bytes_per_s = bandwidth_bytes_per_s
        self.fault_state = fault_state if fault_state is not None \
            else getattr(net, "fault_state", None)
        self.loss_rng = loss_rng
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        self._link_busy: Dict[Tuple[int, int], float] = {}
        self._server_busy: Dict[object, float] = {}
        self.completed: List[PacketCompletion] = []
        self.failed: List[PacketFailure] = []

    # ------------------------------------------------------------------
    def _route_switch_path(self, request: RetrievalRequest
                           ) -> Tuple[List[int], object]:
        """Full physical switch path and the server-queue key."""
        route = self.net.route_for(request.data_id,
                                   request.entry_switch)
        if hasattr(route, "delivery"):
            # GRED (behavioral or P4): trace is the physical path.
            path = list(route.trace) or [request.entry_switch]
            server_key = (route.destination_switch,
                          route.delivery.primary_serial)
        elif hasattr(route, "overlay_path"):
            # Chord: expand the overlay path host-to-host.
            hosts = [self.net.ring.node_of_owner(o).host_switch
                     for o in route.overlay_path]
            expanded: List[int] = [hosts[0]] if hosts else [
                request.entry_switch]
            for a, b in zip(hosts, hosts[1:]):
                segment = bfs_path(self.net.topology, a, b)
                expanded.extend(segment[1:])
            path = expanded
            server_key = route.owner
        else:
            # One-hop baselines: trace is already physical.
            path = list(getattr(route, "trace", [])) or [
                request.entry_switch, route.destination_switch]
            server_key = getattr(route, "owner",
                                 route.destination_switch)
        return path, server_key

    # ------------------------------------------------------------------
    def run(self, trace: Sequence[RetrievalRequest],
            request_size: int = 256,
            response_size: int = 4096,
            injector=None, plan=None) -> List[PacketCompletion]:
        """Simulate the whole trace; returns completions sorted by
        injection time.

        Parameters
        ----------
        injector:
            Optional :class:`repro.faults.FaultInjector`; its fault
            state becomes the simulator's when none was configured.
        plan:
            Optional :class:`repro.faults.FaultPlan` whose events are
            applied through ``injector`` at their scheduled times,
            interleaved with the request trace (faults at time *t*
            strike before requests injected at *t*).
        """
        sim = Simulator()
        self._link_busy = {}
        self._server_busy = {}
        self.completed = []
        self.failed = []
        if plan is not None and injector is None:
            raise ValueError("a fault plan needs an injector")
        if injector is not None and self.fault_state is None:
            self.fault_state = injector.state
        if plan is not None:
            for event in plan.events:
                sim.schedule_at(
                    event.time,
                    lambda ev=event: injector.apply(ev))
        for request in trace:
            sim.schedule_at(request.time,
                            self._make_injection(sim, request,
                                                 request_size,
                                                 response_size))
        sim.run()
        self.completed.sort(key=lambda c: c.request.time)
        return self.completed

    def _make_injection(self, sim: Simulator,
                        request: RetrievalRequest,
                        request_size: int, response_size: int,
                        attempt: int = 1):
        def inject() -> None:
            registry = default_registry()
            if registry.enabled:
                registry.counter("simulation.packets_injected").inc()
                registry.gauge("simulation.inflight_packets").inc()
            fault_state = self.fault_state
            if fault_state is not None and \
                    not fault_state.switch_alive(request.entry_switch):
                self._drop(sim, request, request_size, response_size,
                           attempt, "entry switch crashed")
                return
            try:
                forward_path, server_key = \
                    self._route_switch_path(request)
            except ForwardingError as exc:
                self._drop(sim, request, request_size, response_size,
                           attempt, f"no route: {exc}")
                return
            state = {"wait": 0.0}

            def fail(reason: str) -> None:
                self._drop(sim, request, request_size, response_size,
                           attempt, reason)

            def after_forward() -> None:
                if fault_state is not None and \
                        isinstance(server_key, tuple) and \
                        len(server_key) == 2 and \
                        not fault_state.server_alive(server_key):
                    fail(f"server {server_key} crashed")
                    return
                busy = self._server_busy.get(server_key, 0.0)
                start = max(sim.now, busy)
                finish = start + self.model.server_service_time
                self._server_busy[server_key] = finish
                dest = forward_path[-1]
                return_path = bfs_path(self.net.topology, dest,
                                       request.entry_switch)

                def after_service() -> None:
                    self._send_along(
                        sim, return_path, response_size, state,
                        lambda: self._complete(
                            sim, request,
                            len(forward_path) - 1,
                            len(return_path) - 1,
                            state["wait"],
                        ),
                        fail,
                    )

                sim.schedule(finish - sim.now, after_service)

            self._send_along(sim, forward_path, request_size, state,
                             after_forward, fail)

        return inject

    def _drop(self, sim: Simulator, request: RetrievalRequest,
              request_size: int, response_size: int,
              attempt: int, reason: str) -> None:
        """Handle one lost packet: retransmit with backoff or fail."""
        registry = default_registry()
        if registry.enabled:
            registry.counter("faults.packets_dropped").inc()
            registry.gauge("simulation.inflight_packets").dec()
        if attempt < self.max_attempts:
            if registry.enabled:
                registry.counter("faults.retransmissions").inc()
            backoff = self.retry_backoff * (2 ** (attempt - 1))
            sim.schedule(backoff, self._make_injection(
                sim, request, request_size, response_size,
                attempt + 1))
            return
        if registry.enabled:
            registry.counter("faults.requests_failed").inc()
        self.failed.append(PacketFailure(
            request=request, reason=reason, attempts=attempt))

    def _send_along(self, sim: Simulator, path: List[int], size: int,
                    state: Dict[str, float], done,
                    fail=None) -> None:
        """Move one packet along ``path`` hop by hop with queueing.

        ``fail(reason)`` is invoked instead of ``done`` when the packet
        is lost to a fault mid-path; with no fault state the path is
        always completed.
        """
        if len(path) <= 1:
            sim.schedule(0.0, done)
            return
        registry = default_registry()
        backlog_hist = (
            registry.histogram("simulation.link_backlog_seconds")
            if registry.enabled else None
        )
        fault_state = self.fault_state
        if fault_state is None and \
                self.bandwidth_bytes_per_s == math.inf:
            # No packet ever waits for a link here (each link's last
            # start is never after a later packet's ready time), so
            # the hops are taken in the clock's own arithmetic and one
            # event ends the path.
            now = sim.now
            for _ in range(len(path) - 1):
                if backlog_hist is not None:
                    backlog_hist.observe(0.0)
                arrival = now + self.model.switch_delay \
                    + self.model.link_delay
                now = now + (arrival - now)
            sim.schedule_at(now, done)
            return

        def hop(index: int) -> None:
            if index >= len(path) - 1:
                done()
                return
            u, v = path[index], path[index + 1]
            factor = 1.0
            if fault_state is not None and fail is not None:
                # Faults are evaluated when the hop is taken, so a
                # crash mid-flight catches packets already en route.
                if not fault_state.can_forward(u, v):
                    fail(f"link {u}-{v} failed in flight")
                    return
                loss = fault_state.loss_probability(u, v)
                if loss > 0.0 and self.loss_rng is not None and \
                        self.loss_rng.random() < loss:
                    fail(f"packet lost on link {u}-{v}")
                    return
                factor = fault_state.delay_factor(u, v)
            link = (u, v)
            ready = sim.now + self.model.switch_delay
            busy = self._link_busy.get(link, 0.0)
            start_tx = max(ready, busy)
            state["wait"] += start_tx - ready
            if backlog_hist is not None:
                backlog_hist.observe(max(0.0, busy - ready))
            end_tx = start_tx + self.serialization(size) * factor
            self._link_busy[link] = end_tx
            arrival = end_tx + self.model.link_delay * factor
            sim.schedule(arrival - sim.now, lambda: hop(index + 1))

        hop(0)

    def _complete(self, sim: Simulator, request: RetrievalRequest,
                  request_hops: int, response_hops: int,
                  link_wait: float) -> None:
        response_delay = sim.now - request.time
        self.completed.append(PacketCompletion(
            request=request,
            request_hops=request_hops,
            response_hops=response_hops,
            response_delay=response_delay,
            link_wait=link_wait,
        ))
        registry = default_registry()
        if registry.enabled:
            registry.counter("simulation.packets_completed").inc()
            registry.gauge("simulation.inflight_packets").dec()
            registry.histogram(
                "simulation.response_delay_seconds").observe(
                response_delay)
            registry.histogram(
                "simulation.link_wait_seconds").observe(link_wait)

    # ------------------------------------------------------------------
    def serialization(self, size_bytes: int) -> float:
        """Seconds to put ``size_bytes`` on one link."""
        return size_bytes / self.bandwidth_bytes_per_s

    def average_response_delay(self) -> float:
        if not self.completed:
            raise ValueError("run a trace first")
        return sum(c.response_delay for c in self.completed) \
            / len(self.completed)

    def p99_response_delay(self) -> float:
        if not self.completed:
            raise ValueError("run a trace first")
        delays = sorted(c.response_delay for c in self.completed)
        index = min(len(delays) - 1, int(0.99 * len(delays)))
        return delays[index]
