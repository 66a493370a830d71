"""Control plane: the SDN controller (discovery, embedding, DT, rule
installation, range extension, dynamics), the rule compiler, and the
incremental plan/diff/apply pipeline."""

from .controller import (
    ControlPlaneError,
    Controller,
    ControllerConfig,
    ReconcileReport,
)
from .routing_index import RoutingIndex
from .verification import (
    DetachedExtension,
    Violation,
    verify_installed_state,
    verify_region_scope,
)
from .region import RegionError, RegionMap
from .federation import (
    FederatedController,
    FederatedNetwork,
    RegionShard,
)
from .southbound import (
    RecordingChannel,
    SouthboundMessage,
    apply_message,
    compile_messages,
    install_via_messages,
)
from .channel import ChannelStats, ControlChannelError, FaultyChannel
from .rules import (
    average_table_entries,
    bfs_parent_tree,
    compile_port_map,
    install_all_rules,
    path_toward,
    table_entry_counts,
)
from .plan import (
    RulePlan,
    SwitchPlan,
    compile_plan,
    plan_digests,
    snapshot_plan,
    switch_digest,
)
from .diff import RuleDelta, diff_plans
from .apply import (
    ApplyReport,
    RetryPolicy,
    TransactionalApplier,
    apply_delta,
    install_plan,
)

__all__ = [
    "Controller",
    "ControllerConfig",
    "ControlPlaneError",
    "RoutingIndex",
    "install_all_rules",
    "compile_port_map",
    "bfs_parent_tree",
    "path_toward",
    "average_table_entries",
    "table_entry_counts",
    "verify_installed_state",
    "verify_region_scope",
    "DetachedExtension",
    "Violation",
    "RegionMap",
    "RegionError",
    "RegionShard",
    "FederatedController",
    "FederatedNetwork",
    "SouthboundMessage",
    "RecordingChannel",
    "compile_messages",
    "apply_message",
    "install_via_messages",
    "RulePlan",
    "SwitchPlan",
    "compile_plan",
    "snapshot_plan",
    "RuleDelta",
    "diff_plans",
    "apply_delta",
    "install_plan",
    "switch_digest",
    "plan_digests",
    "FaultyChannel",
    "ChannelStats",
    "ControlChannelError",
    "TransactionalApplier",
    "RetryPolicy",
    "ApplyReport",
    "ReconcileReport",
]
