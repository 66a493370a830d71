"""Fault injection, failure detection and resilience for GRED.

The paper's dynamics section (Section VI) only covers *graceful*
switch join/leave: ``GredNetwork.remove_switch`` migrates every stored
item before the switch disappears.  A production SDN must also survive
the ungraceful case — a switch that crashes without warning loses the
data on its servers, links fail, packets are dropped.  This package
adds the three layers such a deployment needs:

* **Injection** (:mod:`plan`, :mod:`injector`): a declarative,
  seedable :class:`FaultPlan` of timed events (switch crash, server
  crash, link down/up, packet loss, slow link) applied to a
  :class:`~repro.core.GredNetwork` by the :class:`FaultInjector` and
  honored by the data plane and the packet-level simulator.
* **Detection & repair** (:mod:`detector`): a controller-side
  heartbeat sweep (:class:`FailureDetector`) that discovers dead
  switches and links, repairs the DT and reinstalls rules over the
  surviving topology, replaces crashed servers, and re-replicates
  items whose surviving replica count dropped below target.
* **Timelines** (:mod:`timeline`): one engine applies a run's events
  (fault plan kinds, writes, crash windows, a load window, repair,
  reconcile, scrub, retrieval passes) to one deployment and logs a row
  per event.
* **Harness** (:mod:`harness`): the ``gred chaos`` experiment —
  replay a workload under a fault plan and report availability, lost
  items, re-replication and hop inflation through ``faults.*``
  telemetry; a timeline and a reducer over its log.

Everything is deterministic under a fixed seed: two runs of the same
plan and workload produce identical reports.
"""

from .detector import DetectionReport, FailureDetector, RepairReport
from .harness import ChaosConfig, run_chaos
from .injector import FaultInjector
from .plan import FAULT_KINDS, FaultEvent, FaultPlan, FaultPlanError
from .state import FaultState
from .timeline import Timeline

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultPlanError",
    "FaultState",
    "FaultInjector",
    "FailureDetector",
    "DetectionReport",
    "RepairReport",
    "ChaosConfig",
    "run_chaos",
    "Timeline",
]
