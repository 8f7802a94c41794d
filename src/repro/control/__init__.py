"""repro.control — the cluster control plane, inside the simulation.

The data-plane packages (`repro.ebs`, `repro.net`, `repro.storage`) model
what the paper's §3–4 build; this package models what §5 *operates*: a
deterministic control plane that watches the fleet, reacts to failures,
live-migrates virtual disks, and rolls stack upgrades through waves of
servers under live load.

Modules:

* :mod:`~repro.control.health` — heartbeat + I/O-hang health monitor
  declaring :class:`Incident`\\ s;
* :mod:`~repro.control.failover` — the Table 2 recovery playbook as one
  policy-driven orchestrator (re-route + re-replicate through the
  `repro.rebuild` planner + record);
* :mod:`~repro.control.migration` — VD live migration with
  pause → drain → attach phase accounting;
* :mod:`~repro.control.cluster` — per-stack rigs sharing one clock,
  modelled as a fleet of logical servers;
* :mod:`~repro.control.upgrade` — the rolling-upgrade engine producing a
  simulated Figure 7 rollout;
* :mod:`~repro.control.drill` — upgrade drills as cacheable
  `repro.lab` experiment points.
"""

from .cluster import FLEET_DEPLOYMENT, ControlledCluster, LogicalServer
from .drill import build_cluster, execute_upgrade_point, result_to_artifact
from .failover import FailoverOrchestrator, FailoverPolicy, RecoveryRecord
from .health import (
    HEARTBEAT_LOSS,
    IO_HANG,
    TELEMETRY_ALERT,
    HealthMonitor,
    HealthPolicy,
    Incident,
)
from .migration import (
    DEFAULT_ATTACH_NS,
    LiveMigration,
    MigrationAbortedError,
    MigrationReport,
)
from .upgrade import (
    RollingUpgradeEngine,
    UpgradeResult,
    WaveReport,
    check_rollout_consistency,
    partition_waves,
)

__all__ = [
    "FLEET_DEPLOYMENT",
    "ControlledCluster",
    "LogicalServer",
    "build_cluster",
    "execute_upgrade_point",
    "result_to_artifact",
    "FailoverOrchestrator",
    "FailoverPolicy",
    "RecoveryRecord",
    "HEARTBEAT_LOSS",
    "IO_HANG",
    "TELEMETRY_ALERT",
    "HealthMonitor",
    "HealthPolicy",
    "Incident",
    "DEFAULT_ATTACH_NS",
    "LiveMigration",
    "MigrationAbortedError",
    "MigrationReport",
    "RollingUpgradeEngine",
    "UpgradeResult",
    "WaveReport",
    "check_rollout_consistency",
    "partition_waves",
]
