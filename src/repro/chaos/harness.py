"""The live chaos harness: one controlled cluster, fault levers, books.

:class:`ChaosHarness` stands up the full operational stack on one
simulator — a multi-stack :class:`~repro.control.cluster.ControlledCluster`
whose per-stack rigs bring a shared
:class:`~repro.control.health.HealthMonitor` and one
:class:`~repro.telemetry.plane.TelemetryPlane` each, per-stack
:class:`~repro.control.failover.FailoverOrchestrator`\\ s handing node
deaths to :class:`~repro.rebuild.planner.RebuildPlanner`\\ s, and a
:class:`~repro.faults.fpga_errors.BitFlipInjector` on every SOLAR
offload — then exposes a small vocabulary of *actions* (write, read,
fail/heal a node or ToR, kill a rebuild source, flip FPGA bits, start a
migration, advance the clock) that both the hypothesis state machine and the scenario replayer
drive through one code path, :meth:`apply`.

Every applied action is logged, so any run — including the shrunken
counterexample of a failed property hunt — exports as a
:class:`~repro.chaos.scenario.ChaosScenario` and replays deterministically.
The bookkeeping the :class:`~repro.chaos.invariants.InvariantSuite` audits
(acked-write payloads, fault start times, offline hang tallies, migration
starts) lives here, parallel to — never inside — the control plane it is
checking.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..agent.base import IoRequest
from ..control.cluster import ControlledCluster, LogicalServer
from ..control.failover import FailoverOrchestrator
from ..control.health import HealthPolicy, Incident
from ..control.migration import MigrationReport
from ..ebs.deployment import DeploymentSpec
from ..faults.fpga_errors import BitFlipInjector
from ..lab.spec import ExperimentSpec, RebuildSpec, TelemetrySpec
from ..net.failures import FailureScenario, node_failure, switch_failure
from ..profiles import BLOCK_SIZE
from ..rebuild import RebuildPlanner, build_recovery
from ..rebuild.throttle import REBUILD_POLICIES
from ..sim.events import MS, US
from .invariants import InvariantSuite, InvariantViolation
from .scenario import ChaosAction, ChaosScenario

MIB = 1024 * 1024


@dataclass(frozen=True)
class ChaosConfig:
    """Shape and timing constants of one chaos run.

    The defaults are deliberately small and fast: 6 storage hosts per
    stack (so two concurrent node deaths always leave a legal evacuation
    pool), 3 logical servers, short detection/reroute timers so a few
    hundred milliseconds of simulated time exercises the whole
    detect → evacuate → restore loop.  Everything is JSON scalars so a
    config round-trips through scenario files losslessly.
    """

    seed: int = 0
    stacks: Tuple[str, ...] = ("luna", "solar")
    servers: int = 3
    vd_size_bytes: int = 8 * 1024 * 1024
    io_size_bytes: int = BLOCK_SIZE
    compute_racks: int = 1
    compute_hosts_per_rack: int = 2
    storage_racks: int = 2
    storage_hosts_per_rack: int = 3
    #: One "advance" tick of simulated time.
    tick_ns: int = 5 * MS
    hang_threshold_ns: int = 20 * MS
    heartbeat_interval_ns: int = 5 * MS
    miss_threshold: int = 3
    reroute_delay_ns: int = 5 * MS
    scrape_interval_ns: int = 5 * MS
    slo_ns: int = 500 * US
    #: Migration drain bound; must sit inside the downtime budget.
    drain_timeout_ns: int = 30 * MS
    attach_latency_ns: int = 500 * US
    migration_budget_ns: int = 40 * MS
    #: Extra slack on top of detection + reroute before the replica
    #: invariant demands a dead node be fully drained.
    grace_slack_ns: int = 20 * MS
    #: Fault-free settling time the quiesce phase runs before the final
    #: (auto-resolution) checks.
    quiesce_ns: int = 150 * MS
    max_node_faults_per_stack: int = 2
    #: Throttle policy ("static"/"deadline"/"reactive") of the
    #: `repro.rebuild` executor every node failover runs through: lost
    #: replicas are re-copied as real backend-network traffic that the
    #: fail_rebuild_source action can then attack.
    rebuild_policy: str = "static"
    rebuild_rate_gbps: int = 8
    rebuild_swarm: int = 1
    rebuild_chunk_kb: int = 64

    def __post_init__(self) -> None:
        if len(self.stacks) < 2:
            raise ValueError("chaos needs >= 2 stacks to migrate between")
        if self.io_size_bytes != BLOCK_SIZE:
            # Chaos I/Os are one block each; any other size would be ignored.
            raise ValueError(f"io_size_bytes must be {BLOCK_SIZE}, got {self.io_size_bytes}")
        if self.vd_size_bytes <= 0 or self.vd_size_bytes % MIB:
            raise ValueError(f"vd_size_bytes must be whole MiB, got {self.vd_size_bytes}")
        if self.rebuild_policy not in REBUILD_POLICIES:
            raise ValueError(
                f"rebuild_policy {self.rebuild_policy!r} must be one of "
                f"{REBUILD_POLICIES}"
            )
        if self.rebuild_rate_gbps <= 0 or self.rebuild_chunk_kb <= 0:
            raise ValueError("rebuild rate and chunk size must be positive")
        if self.drain_timeout_ns + self.attach_latency_ns > self.migration_budget_ns:
            raise ValueError(
                "drain timeout + attach latency must fit the migration "
                f"budget: {self.drain_timeout_ns} + {self.attach_latency_ns} "
                f"> {self.migration_budget_ns}"
            )

    @property
    def grace_ns(self) -> int:
        """How long a node may be dead before it must be evacuated."""
        return (
            self.heartbeat_interval_ns * self.miss_threshold
            + self.reroute_delay_ns
            + self.grace_slack_ns
        )

    def to_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["stacks"] = list(self.stacks)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ChaosConfig":
        payload = dict(payload)
        payload["stacks"] = tuple(payload.get("stacks", ("luna", "solar")))
        return cls(**payload)


def block_payload(vd_id: str, lba: int, seq: int) -> bytes:
    """Deterministic, write-unique 4KB payload (hash-expanded)."""
    seed = hashlib.blake2b(
        f"{vd_id}|{lba}|{seq}".encode(), digest_size=32
    ).digest()
    return (seed * (BLOCK_SIZE // len(seed) + 1))[:BLOCK_SIZE]


class ChaosHarness:
    """A controlled cluster plus fault levers plus audit books."""

    def __init__(self, config: ChaosConfig):
        self.config = config
        spec = ExperimentSpec(
            deployment=DeploymentSpec(
                compute_racks=config.compute_racks,
                compute_hosts_per_rack=config.compute_hosts_per_rack,
                storage_racks=config.storage_racks,
                storage_hosts_per_rack=config.storage_hosts_per_rack,
            ),
            seeds=(config.seed,),
            vd_size_mb=config.vd_size_bytes // MIB,
            hang_threshold_ns=config.hang_threshold_ns,
            telemetry=TelemetrySpec(config.scrape_interval_ns, config.slo_ns),
        )
        self.cluster = ControlledCluster(
            spec,
            config.stacks,
            config.servers,
            seed=config.seed,
            health_policy=HealthPolicy(
                heartbeat_interval_ns=config.heartbeat_interval_ns,
                miss_threshold=config.miss_threshold,
            ),
            attach_latency_ns=config.attach_latency_ns,
            drain_timeout_ns=config.drain_timeout_ns,
        )
        self.sim = self.cluster.sim
        self.monitor = self.cluster.health
        # One rebuild executor + planner and orchestrator per stack, on
        # that stack's rig and plane; deployments reuse host names, so
        # probes register under a per-stack prefix.
        self.orchestrators: Dict[str, FailoverOrchestrator] = {}
        self.rebuild_planners: Dict[str, RebuildPlanner] = {}
        recovery = RebuildSpec(
            policy=config.rebuild_policy,
            mode="swarm" if config.rebuild_swarm else "unicast",
            rate_gbps=config.rebuild_rate_gbps,
            chunk_kb=config.rebuild_chunk_kb,
        )
        for stack in config.stacks:
            rig = self.cluster.rigs[stack]
            orchestrator = build_recovery(
                rig.deployment, self.monitor, recovery, config.reroute_delay_ns,
                plane=rig.plane, node_prefix=f"{stack}/",
            )
            self.orchestrators[stack] = orchestrator
            self.rebuild_planners[stack] = orchestrator.planner
            rig.plane.start()  # unbounded: a replay runs past the rig's bound
            # Hangs go to the rig's plane (online) and the ledger (offline).
            rig.hangs.on_hang = functools.partial(self._on_hang, rig.hangs.on_hang)
        self.monitor.start()
        # FPGA bit-flip lever, armed at rate 0 on every SOLAR offload.
        self.injector = BitFlipInjector(self.sim.rng.stream("chaos-bitflip"))
        for stack in config.stacks:
            for offload in self._deployment(stack).solar_offloads.values():
                offload.fault_injector = self.injector
        # Audit books.
        self.log: List[ChaosAction] = []
        self.suite = InvariantSuite(self)
        self._faults: Dict[Tuple[str, str, str], Tuple[FailureScenario, int]] = {}
        self._durable: Dict[Tuple[str, str, int], bytes] = {}
        self._pending: Dict[Tuple[str, str, int], int] = {}
        self._ios: Dict[int, IoRequest] = {}
        self.offline_hangs: Dict[str, int] = {}
        self._migration_started: Dict[int, int] = {}
        self.writes_issued = 0
        self.reads_issued = 0
        self.deferred_actions = 0
        self.quiesced = False

    # ------------------------------------------------------------------
    # Properties the invariant suite reads
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        return self.sim.now

    @property
    def grace_ns(self) -> int:
        return self.config.grace_ns

    def failed_nodes(self, stack: str) -> Dict[str, int]:
        """Currently-failed storage nodes of one stack: name -> fail time."""
        return {
            name: applied_ns
            for (kind, fault_stack, name), (_s, applied_ns) in self._faults.items()
            if kind == "node" and fault_stack == stack
        }

    def durable_writes(self):
        """Acked-clean writes in deterministic order: ((stack, vd, lba), bytes)."""
        for key in sorted(self._durable):
            yield key, self._durable[key]

    def write_pending(self, stack: str, vd_id: str, lba: int) -> bool:
        return self._pending.get((stack, vd_id, lba), 0) > 0

    def migrations_in_flight(self) -> Dict[int, int]:
        return dict(self._migration_started)

    def integrity_events(self) -> int:
        total = 0
        for stack in self.config.stacks:
            for client in self._deployment(stack).solar_clients.values():
                total += client.integrity_events
        return total

    def stuck_hang_io_ids(self) -> set:
        """Hung I/Os that genuinely never completed (cause never cleared)."""
        stuck = set()
        for io_id in self.monitor.open_hangs():
            io = self._ios.get(io_id)
            if io is None or io.trace is None or io.trace.complete_ns is None:
                stuck.add(io_id)
        return stuck

    def incident_io_id(self, incident: Incident) -> Optional[int]:
        for io_id, open_incident in self.monitor.open_hangs().items():
            if open_incident is incident:
                return io_id
        return None

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _deployment(self, stack: str):
        return self.cluster.rigs[stack].deployment

    def _on_hang(self, to_plane, io: IoRequest) -> None:
        to_plane(io)
        self.offline_hangs[io.vd_id] = self.offline_hangs.get(io.vd_id, 0) + 1

    def _io_done(
        self,
        io: IoRequest,
        stack: str,
        vd_id: str,
        lba: int,
        payload: Optional[bytes],
    ) -> None:
        key = (stack, vd_id, lba)
        if self._pending.get(key, 0) > 0:
            self._pending[key] -= 1
        self.cluster.rigs[stack].hangs.note_completion(io)
        self.monitor.note_io_completed(io)
        trace = io.trace
        if (
            io.kind == "write"
            and payload is not None
            and trace is not None
            and trace.ok
            and not trace.error
        ):
            # Acked clean: from here on, these bytes must stay readable.
            self._durable[key] = payload

    # ------------------------------------------------------------------
    # Action dispatch (the one code path machine + replay share)
    # ------------------------------------------------------------------
    def apply(self, rule: str, **args) -> None:
        action = ChaosAction(rule, dict(args))
        self.log.append(action)
        getattr(self, f"_do_{rule}")(**args)

    def verify(self) -> None:
        self.suite.verify()

    def verify_final(self) -> None:
        self.suite.verify_final()

    # -- clock ----------------------------------------------------------
    def _do_advance(self, ticks: int) -> None:
        ticks = max(1, int(ticks))
        self.sim.run(until=self.sim.now + ticks * self.config.tick_ns)

    # -- foreground I/O -------------------------------------------------
    def _server(self, server: int) -> LogicalServer:
        return self.cluster.servers[server % len(self.cluster.servers)]

    def _do_write(self, server: int) -> None:
        srv = self._server(server)
        vd = srv.vd
        if vd.paused or vd.detached or srv.migrating:
            self.deferred_actions += 1
            return
        total_blocks = vd.size_bytes // BLOCK_SIZE
        seq = self.writes_issued
        lba = seq % total_blocks
        stack = srv.stack
        payload = block_payload(vd.vd_id, lba, seq)
        key = (stack, vd.vd_id, lba)
        self._pending[key] = self._pending.get(key, 0) + 1
        io = vd.write(
            lba * BLOCK_SIZE,
            BLOCK_SIZE,
            lambda done, s=stack, v=vd.vd_id, b=lba, p=payload: self._io_done(
                done, s, v, b, p
            ),
            data=payload,
        )
        self._ios[io.io_id] = io
        self.cluster.rigs[stack].hangs.watch(io)
        self.writes_issued += 1

    def _do_read(self, server: int, block: int) -> None:
        srv = self._server(server)
        vd = srv.vd
        if vd.paused or vd.detached or srv.migrating:
            self.deferred_actions += 1
            return
        total_blocks = vd.size_bytes // BLOCK_SIZE
        lba = block % total_blocks
        stack = srv.stack
        io = vd.read(
            lba * BLOCK_SIZE,
            BLOCK_SIZE,
            lambda done, s=stack, v=vd.vd_id, b=lba: self._io_done(
                done, s, v, b, None
            ),
        )
        self._ios[io.io_id] = io
        self.cluster.rigs[stack].hangs.watch(io)
        self.reads_issued += 1

    # -- node and switch faults ----------------------------------------
    def _storage_name(self, stack: str, node: int) -> str:
        names = sorted(self._deployment(stack).storage_servers)
        return names[node % len(names)]

    def _known_stack(self, stack: str) -> bool:
        if stack in self.config.stacks:
            return True
        self.deferred_actions += 1
        return False

    def _do_fail_node(self, stack: str, node: int) -> None:
        if not self._known_stack(stack):
            return
        name = self._storage_name(stack, node)
        key = ("node", stack, name)
        if key in self._faults:
            self.deferred_actions += 1
            return
        active = len(self.failed_nodes(stack))
        if active >= self.config.max_node_faults_per_stack:
            self.deferred_actions += 1
            return
        scenario = node_failure(name)
        scenario.apply(self._deployment(stack).topology)
        self._faults[key] = (scenario, self.sim.now)

    def _do_clear_node(self, stack: str, node: int) -> None:
        if not self._known_stack(stack):
            return
        name = self._storage_name(stack, node)
        key = ("node", stack, name)
        entry = self._faults.pop(key, None)
        if entry is None:
            self.deferred_actions += 1
            return
        entry[0].revert(self._deployment(stack).topology)

    def _do_fail_tor(self, stack: str, index: int) -> None:
        if not self._known_stack(stack):
            return
        topology = self._deployment(stack).topology
        tors = topology.switches_by_tier("tor")
        slot = str(index % len(tors))
        key = ("tor", stack, slot)
        if key in self._faults:
            self.deferred_actions += 1
            return
        # Data-plane death with PHYs up: heartbeats survive, I/Os hang —
        # the silent failure mode that motivates the hang monitor.
        scenario = switch_failure("tor", index % len(tors), link_down=False)
        scenario.apply(topology)
        self._faults[key] = (scenario, self.sim.now)

    def _do_clear_tor(self, stack: str, index: int) -> None:
        if not self._known_stack(stack):
            return
        topology = self._deployment(stack).topology
        tors = topology.switches_by_tier("tor")
        slot = str(index % len(tors))
        entry = self._faults.pop(("tor", stack, slot), None)
        if entry is None:
            self.deferred_actions += 1
            return
        entry[0].revert(topology)

    # -- rebuild storms -------------------------------------------------
    def _do_fail_rebuild_source(self, stack: str, node: int) -> None:
        """Kill a node that is actively *seeding* a rebuild, forcing the
        executor's source-loss path (reserve promotion in unicast, stream
        retirement in swarm, or a re-stall when no holder is left).  Books
        under the same ("node", ...) fault key, so ``clear_node`` heals it
        and the node-fault cap applies across both kill flavours."""
        if not self._known_stack(stack):
            return
        failed = set(self.failed_nodes(stack))
        sources = [
            s for s in self.rebuild_planners[stack].executor.active_source_nodes()
            if s not in failed
        ]
        if not sources or len(failed) >= self.config.max_node_faults_per_stack:
            self.deferred_actions += 1
            return
        name = sources[node % len(sources)]
        scenario = node_failure(name)
        scenario.apply(self._deployment(stack).topology)
        self._faults[("node", stack, name)] = (scenario, self.sim.now)

    # -- FPGA corruption ------------------------------------------------
    def _do_set_bitflip(self, permille: int) -> None:
        rate = min(max(int(permille), 0), 1000) / 1000.0
        self.injector.payload_flip_rate = rate
        self.injector.crc_flip_rate = rate

    # -- live migration -------------------------------------------------
    def _do_migrate(self, server: int) -> None:
        srv = self._server(server)
        if srv.migrating or srv.vd.detached:
            self.deferred_actions += 1
            return
        stacks = self.config.stacks
        to_stack = stacks[(stacks.index(srv.stack) + 1) % len(stacks)]
        self._migration_started[srv.index] = self.sim.now

        def done(s: LogicalServer, report: MigrationReport) -> None:
            self._migration_started.pop(s.index, None)

        def aborted(s: LogicalServer, report: MigrationReport) -> None:
            self._migration_started.pop(s.index, None)

        self.cluster.upgrade_server(srv, to_stack, on_done=done, on_abort=aborted)

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------
    def quiesce(self) -> None:
        """Clear every fault, zero the injector, let the cluster settle.

        After this, every incident's cause has cleared — the state the
        final (auto-resolution) invariants are defined over.  Idempotent.
        """
        for key in sorted(self._faults):
            scenario, _applied_ns = self._faults[key]
            scenario.revert(self._deployment(key[1]).topology)
        self._faults.clear()
        self._do_set_bitflip(0)
        self.sim.run(until=self.sim.now + self.config.quiesce_ns)
        self.quiesced = True

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def scenario(self, name: str, description: str = "") -> ChaosScenario:
        """Freeze this run's applied actions as a replayable scenario."""
        return ChaosScenario(
            name=name,
            config=self.config.to_dict(),
            actions=list(self.log),
            description=description,
        )

    def report(self) -> Dict[str, Any]:
        """Deterministic run summary (canonical-JSON-safe, simulated time
        only): identical content for identical scenarios, byte for byte."""
        resolved = sum(1 for i in self.monitor.incidents if not i.open)
        return {
            "final_ns": self.sim.now,
            "actions": len(self.log),
            "deferred_actions": self.deferred_actions,
            "writes_issued": self.writes_issued,
            "reads_issued": self.reads_issued,
            "durable_blocks": len(self._durable),
            "hangs": self.cluster.hangs,
            "incidents": len(self.monitor.incidents),
            "incidents_resolved": resolved,
            "evacuations": {
                stack: len(self.orchestrators[stack].records)
                for stack in self.config.stacks
            },
            "segments_moved": {
                stack: self.orchestrators[stack].segments_moved
                for stack in self.config.stacks
            },
            "migrations_completed": len(self.cluster.migration_reports),
            "migrations_aborted": len(self.cluster.aborted_migrations),
            "bitflips_injected": self.injector.total_injected,
            "integrity_events": self.integrity_events(),
            "rebuild_ledgers": {
                stack: self.rebuild_planners[stack].audit()
                for stack in self.config.stacks
            },
            "rebuild_bytes": {
                stack: self.rebuild_planners[stack].executor.bytes_done
                for stack in self.config.stacks
            },
            "invariant_checks": self.suite.checks_run,
        }


def replay_scenario(scenario: ChaosScenario) -> Dict[str, Any]:
    """Re-run one scenario action by action, invariants after every step.

    Returns a deterministic report: the harness counters plus every
    invariant violation hit (the first per-step violation stops the
    action stream — post-violation state is not meaningful — but the
    final checks still run so regression output is complete).
    """
    config = ChaosConfig.from_dict(scenario.config)
    harness = ChaosHarness(config)
    violations: List[Dict[str, str]] = []
    steps_applied = 0
    for action in scenario.actions:
        harness.apply(action.rule, **action.args)
        steps_applied += 1
        try:
            harness.verify()
        except InvariantViolation as violation:
            violations.append(
                {"check": violation.check, "detail": violation.detail,
                 "after_step": steps_applied}
            )
            break
    if not violations:
        harness.quiesce()
        try:
            harness.verify_final()
        except InvariantViolation as violation:
            violations.append(
                {"check": violation.check, "detail": violation.detail,
                 "after_step": steps_applied}
            )
    report = harness.report()
    report["scenario"] = scenario.name
    report["digest"] = scenario.digest
    report["steps_applied"] = steps_applied
    report["violations"] = violations
    return report
