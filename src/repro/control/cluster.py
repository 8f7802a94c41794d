"""A controlled fleet: per-stack deployments side by side on one clock.

The rollout experiments of Figure 7 need something no single
:class:`~repro.ebs.deployment.EbsDeployment` provides: servers running
*different* FN stacks at the same simulated instant, with the control
plane moving virtual disks between them while guests keep issuing I/O.
:class:`ControlledCluster` builds one :class:`~repro.lab.rig.Rig` per
stack, each joined to the first rig's clock and health monitor, and
models the fleet as logical servers — each a VD plus an open-loop paced
writer — that the upgrade engine migrates from stack to stack.  Each
I/O is hang-watched by the rig of the stack its server is on when the
I/O is issued.

Determinism: rigs are constructed in :data:`UPGRADE_ORDER`, server
state is touched only from simulator events, and every recorded sample is
simulated-time data, so a cluster run is a pure function of its spec and
seed (the property `repro.lab` caching relies on).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ebs.deployment import DeploymentSpec
from ..ebs.virtual_disk import VirtualDisk
# The module, not the class: lab.rig imports control.health, so whichever
# of the two packages loads first finds the other partly initialised.
from ..lab import rig as lab_rig
from ..lab.spec import UPGRADE_ORDER, ExperimentSpec
from .health import HealthPolicy
from .migration import DEFAULT_ATTACH_NS, LiveMigration, MigrationReport

#: Compact per-stack deployment shape for fleet drills: enough compute
#: hosts to spread the logical servers, a small Clos, four storage hosts.
FLEET_DEPLOYMENT = DeploymentSpec(
    compute_racks=2,
    compute_hosts_per_rack=4,
    storage_racks=1,
    storage_hosts_per_rack=4,
)


@dataclass
class LogicalServer:
    """One fleet member: its VD, current stack, and per-server counters."""

    index: int
    name: str
    stack: str
    vd: VirtualDisk
    issued: int = 0
    completed: int = 0
    failed: int = 0
    #: Guest submissions held back while the VD was paused for migration.
    deferred: int = 0
    migrations: int = 0
    migrating: bool = False
    #: Closed [start, end) spans during which the server was unavailable.
    pause_intervals: List[Tuple[int, int]] = field(default_factory=list)

    def downtime_in(self, start_ns: int, end_ns: int) -> int:
        """Unavailable time overlapping the [start_ns, end_ns) window."""
        total = 0
        for lo, hi in self.pause_intervals:
            total += max(0, min(hi, end_ns) - max(lo, start_ns))
        return total


class ControlledCluster:
    """Per-stack rigs + logical servers + live load on one clock.

    Each rig runs ``spec`` on its own stack; all join the first rig, whose
    health monitor follows ``health_policy``.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        stacks: Sequence[str],
        servers: int,
        seed: int = 0,
        health_policy: HealthPolicy = HealthPolicy(),
        attach_latency_ns: int = DEFAULT_ATTACH_NS,
        drain_timeout_ns: Optional[int] = None,
    ):
        if not stacks:
            raise ValueError("cluster needs at least one stack")
        unknown = [s for s in stacks if s not in UPGRADE_ORDER]
        if unknown:
            raise ValueError(f"stacks {unknown} not in {UPGRADE_ORDER}")
        if servers < 1:
            raise ValueError(f"need at least one server, got {servers}")
        self.rigs: Dict[str, lab_rig.Rig] = {}
        first = None
        for stack in (s for s in UPGRADE_ORDER if s in stacks):  # fixed order
            deployment = dataclasses.replace(spec.deployment, stack=stack)
            self.rigs[stack] = lab_rig.Rig(dataclasses.replace(spec, deployment=deployment),
                                           seed, health_policy, join=first)
            first = first or self.rigs[stack]
        self.sim = first.sim
        self.health = first.health
        self.migrator = LiveMigration(
            self.sim, attach_latency_ns, drain_timeout_ns=drain_timeout_ns
        )
        initial = first.spec.deployment.stack
        hosts = first.deployment.compute_host_names()
        self.servers: List[LogicalServer] = [
            LogicalServer(index=i, name=f"srv{i}", stack=initial,
                          vd=first.add_vd(f"srv{i}-vd", hosts[i % len(hosts)]))
            for i in range(servers)
        ]
        self.migration_reports: List[MigrationReport] = []
        #: Migrations rolled back by the drain timeout (fault mid-drain).
        self.aborted_migrations: List[MigrationReport] = []
        #: Completed-I/O samples: (issue_ns, latency_ns, server_index).
        self.samples: List[Tuple[int, int, int]] = []
        self._load_until_ns: Optional[int] = None

    # ------------------------------------------------------------------
    # Live load
    # ------------------------------------------------------------------
    def start_load(self, until_ns: int, io_gap_ns: int, io_size_bytes: int) -> None:
        """Start one paced open-loop writer per server (an
        ``io_size_bytes`` write every ``io_gap_ns``), issuing until
        ``until_ns``.  Deferred ticks (VD paused for migration) count as
        queued guest I/O, never as errors."""
        if self._load_until_ns is not None:
            raise RuntimeError("cluster load already started")
        self._load_until_ns = until_ns
        self._io_gap_ns = io_gap_ns
        self._io_size_bytes = io_size_bytes
        for server in self.servers:
            self.sim.call_soon(self._tick, server)

    def _tick(self, server: LogicalServer) -> None:
        if self.sim.now >= self._load_until_ns:
            return
        vd = server.vd
        if vd.paused or vd.detached:
            server.deferred += 1
        else:
            span = vd.size_bytes - self._io_size_bytes
            offset = (server.issued * self._io_size_bytes) % span if span > 0 else 0
            offset -= offset % 4096
            issued_at = self.sim.now
            io = vd.write(
                offset,
                self._io_size_bytes,
                lambda done, s=server, t=issued_at: self._io_done(s, t, done),
            )
            self.rigs[server.stack].hangs.watch(io)
            server.issued += 1
        self.sim.schedule_fire(self._io_gap_ns, self._tick, server)

    def _io_done(self, server: LogicalServer, issued_at: int, io) -> None:
        if io.trace is not None and io.trace.ok:
            server.completed += 1
            self.samples.append((issued_at, self.sim.now - issued_at, server.index))
        else:
            server.failed += 1

    # ------------------------------------------------------------------
    # Control-plane actions
    # ------------------------------------------------------------------
    def upgrade_server(
        self,
        server: LogicalServer,
        to_stack: str,
        on_done: Optional[Callable[[LogicalServer, MigrationReport], None]] = None,
        on_abort: Optional[Callable[[LogicalServer, MigrationReport], None]] = None,
    ) -> None:
        """Hot-upgrade one server: live-migrate its VD to ``to_stack``.

        If the cluster's migrator has a drain timeout and a fault strands
        the drain, the migration aborts: the server stays on its current
        stack with its VD resumed, the stall is booked as a pause
        interval, and ``on_abort`` (if given) observes the rollback.
        """
        if server.migrating:
            raise RuntimeError(f"{server.name} is already migrating")
        target = self.rigs[to_stack].deployment
        hosts = target.compute_host_names()
        target_host = hosts[server.index % len(hosts)]
        server.migrating = True

        def finish(new_vd: VirtualDisk, report: MigrationReport) -> None:
            server.vd = new_vd
            server.stack = to_stack
            server.migrations += 1
            server.migrating = False
            server.pause_intervals.append((report.started_ns, report.attached_ns))
            self.migration_reports.append(report)
            if on_done is not None:
                on_done(server, report)

        def aborted(vd: VirtualDisk, report: MigrationReport) -> None:
            server.migrating = False
            server.pause_intervals.append((report.started_ns, report.aborted_ns))
            self.aborted_migrations.append(report)
            if on_abort is not None:
                on_abort(server, report)

        self.migrator.migrate(server.vd, target, target_host, finish, aborted)

    # ------------------------------------------------------------------
    # Fleet accounting
    # ------------------------------------------------------------------
    def mix(self) -> Dict[str, float]:
        """Current fraction of the fleet on each stack."""
        counts: Dict[str, int] = {}
        for server in self.servers:
            counts[server.stack] = counts.get(server.stack, 0) + 1
        return {
            stack: counts.get(stack, 0) / len(self.servers)
            for stack in self.rigs
        }

    def availability(self, start_ns: int, end_ns: int) -> float:
        """1 - (fleet downtime / fleet time) over a window."""
        window = end_ns - start_ns
        if window <= 0:
            raise ValueError(f"empty window [{start_ns}, {end_ns})")
        down = sum(s.downtime_in(start_ns, end_ns) for s in self.servers)
        return 1.0 - down / (window * len(self.servers))

    @property
    def issued(self) -> int:
        return sum(s.issued for s in self.servers)

    @property
    def completed(self) -> int:
        return sum(s.completed for s in self.servers)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.servers)

    @property
    def deferred(self) -> int:
        return sum(s.deferred for s in self.servers)

    @property
    def hangs(self) -> int:
        return sum(rig.hangs.hangs for rig in self.rigs.values())

    @property
    def watched(self) -> int:
        return sum(rig.hangs.watched for rig in self.rigs.values())
