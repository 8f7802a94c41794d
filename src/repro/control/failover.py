"""Orchestrated failover: incidents in, segment re-routing out.

Table 2 and §5 describe one recovery playbook used across every failure
scenario: detect the dead component, move the segments it hosted to
healthy block/chunk servers, and push the new mapping to the agents.  The
:class:`FailoverOrchestrator` packages it as a single policy-driven loop
on top of the health monitor, and hands every node death to a
:class:`~repro.rebuild.planner.RebuildPlanner`, which re-routes the
segments at once and re-copies the lost replicas as real backend-network
traffic.  A drill is "inject fault, run, read the recovery records".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..ebs.deployment import EbsDeployment
from ..sim.events import MS
from .health import HEARTBEAT_LOSS, HealthMonitor, Incident


@dataclass(frozen=True)
class FailoverPolicy:
    """How aggressively the orchestrator converts incidents to re-routes.

    ``reroute_delay_ns`` models the control plane's decision + table-push
    time between an incident being declared and the new segment mapping
    taking effect fleet-wide.
    """

    reroute_delay_ns: int = 50 * MS

    def __post_init__(self) -> None:
        if self.reroute_delay_ns < 0:
            raise ValueError(f"negative reroute delay: {self.reroute_delay_ns}")


@dataclass(frozen=True)
class RecoveryRecord:
    """One completed evacuation, with its end-to-end timeline."""

    node: str
    detected_ns: int
    rerouted_ns: int
    segments_moved: int
    vds_touched: Tuple[str, ...]

    @property
    def recovery_ns(self) -> int:
        """Incident declaration to mapping push — the Table 2 clock."""
        return self.rerouted_ns - self.detected_ns


class FailoverOrchestrator:
    """Reacts to heartbeat-loss incidents by evacuating the dead server."""

    def __init__(
        self,
        deployment: EbsDeployment,
        monitor: HealthMonitor,
        planner,
        policy: FailoverPolicy = FailoverPolicy(),
        node_prefix: str = "",
    ):
        self.deployment = deployment
        self.sim = deployment.sim
        self.monitor = monitor
        #: The :class:`~repro.rebuild.planner.RebuildPlanner` (duck typed,
        #: no import cycle).  A node failure updates the segment table
        #: immediately (reads keep working off survivors) while the new
        #: replicas fill at data-plane speed.
        self.planner = planner
        self.policy = policy
        #: Disambiguates probe names when several deployments (which reuse
        #: the same host names, e.g. ``sp/r0/h0`` per stack) share one
        #: monitor — e.g. ``"solar/"``.  Incident nodes carry the prefix;
        #: this orchestrator only reacts to (and strips) its own.
        self.node_prefix = node_prefix
        self.records: List[RecoveryRecord] = []
        self._evacuated: set = set()
        monitor.subscribe(self._on_incident)
        monitor.subscribe_resolved(self._on_resolved)

    # ------------------------------------------------------------------
    def watch_storage(self) -> None:
        """Register every storage server's reachability as its heartbeat.

        A server whose every uplink is down (ToR death, cable cut, host
        power loss) stops heartbeating; a data-plane blackhole with PHYs
        up does *not* — exactly the asymmetry that made Table 2's silent
        failures the hard rows, which is why the monitor also consumes
        I/O-hang signals.
        """
        topology = self.deployment.topology
        for name in sorted(self.deployment.storage_servers):
            host = topology.hosts[name]
            self.monitor.register(
                f"{self.node_prefix}{name}",
                lambda h=host: any(ch.up for ch in h.uplinks),
            )

    def _alive(self, name: str) -> bool:
        host = self.deployment.topology.hosts[name]
        return any(ch.up for ch in host.uplinks)

    # ------------------------------------------------------------------
    def _node_of(self, incident: Incident) -> Optional[str]:
        """Map an incident to one of this deployment's storage servers,
        or ``None`` when it belongs to another orchestrator/kind."""
        if incident.kind != HEARTBEAT_LOSS:
            return None
        if not incident.node.startswith(self.node_prefix):
            return None
        node = incident.node[len(self.node_prefix):]
        if node not in self.deployment.storage_servers:
            return None
        return node

    def _on_incident(self, incident: Incident) -> None:
        node = self._node_of(incident)
        if node is None or node in self._evacuated:
            return
        self._evacuated.add(node)
        self.sim.schedule_fire(
            self.policy.reroute_delay_ns, self._reroute, node, incident
        )

    def _on_resolved(self, incident: Incident) -> None:
        """Heartbeat back on an evacuated node: lift its quarantine so it
        rejoins the placement pool and future incidents re-evacuate it."""
        node = self._node_of(incident)
        if node is None or node not in self._evacuated:
            return
        self._evacuated.discard(node)
        self.deployment.segment_table.restore(node)
        self.planner.on_node_recovered(node)

    def _reroute(self, node: str, incident: Incident) -> None:
        if node not in self._evacuated:
            return  # recovered during the reroute delay
        healthy = [
            name
            for name in sorted(self.deployment.storage_servers)
            if name != node and self._alive(name)
        ]
        changed = self.planner.on_node_failure(node, healthy)
        for vd_id in sorted(changed):
            self.deployment.refresh_vd(vd_id)
        self.records.append(
            RecoveryRecord(
                node=node,
                detected_ns=incident.detected_ns,
                rerouted_ns=self.sim.now,
                segments_moved=sum(changed.values()),
                vds_touched=tuple(sorted(changed)),
            )
        )

    # ------------------------------------------------------------------
    @property
    def segments_moved(self) -> int:
        return sum(record.segments_moved for record in self.records)
