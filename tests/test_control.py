"""Tests for the repro.control cluster control plane."""

import pytest

from repro.control import (
    FLEET_DEPLOYMENT,
    ControlledCluster,
    FailoverOrchestrator,
    HEARTBEAT_LOSS,
    HealthMonitor,
    HealthPolicy,
    IO_HANG,
    LiveMigration,
    MigrationAbortedError,
    RollingUpgradeEngine,
    check_rollout_consistency,
    execute_upgrade_point,
    partition_waves,
)
from repro.control.drill import artifact_to_result, build_cluster
from repro.ebs import DeploymentSpec, EbsDeployment, VirtualDisk
from repro.ebs.evolution import DEFAULT_ROLLOUT, QUARTERS
from repro.ebs.virtual_disk import VdStateError
from repro.faults import IoHangMonitor
from repro.lab.spec import ExperimentSpec, UpgradeSpec, canonical_json
from repro.rebuild import RebuildExecutor, RebuildPlanner, StaticCapPolicy
from repro.sim import MS, SECOND, US, Simulator


def small_deployment(stack="luna", seed=7, **kw):
    return EbsDeployment(DeploymentSpec(stack=stack, seed=seed, **kw))


def orchestrator(dep, monitor, node_prefix=""):
    """A failover orchestrator whose rebuild planner copies at a static cap."""
    planner = RebuildPlanner(
        dep, RebuildExecutor(dep, StaticCapPolicy()), monitor,
        node_prefix=node_prefix,
    )
    return FailoverOrchestrator(dep, monitor, planner, node_prefix=node_prefix)


def fleet_cluster(stacks, servers):
    """A controlled cluster on the fleet deployment shape, seed 0."""
    spec = ExperimentSpec(deployment=FLEET_DEPLOYMENT, vd_size_mb=64)
    return ControlledCluster(spec, stacks, servers, seed=0)


def drill_spec(**upgrade_kw) -> ExperimentSpec:
    defaults = dict(from_stack="kernel", to_stack="luna", servers=4, waves=2)
    defaults.update(upgrade_kw)
    return ExperimentSpec(
        name="test-drill", upgrade=UpgradeSpec(**defaults), seeds=(0, 1), vd_size_mb=32
    )


# ----------------------------------------------------------------------
# DEFAULT_ROLLOUT properties (the analytic table the drill validates
# against)
# ----------------------------------------------------------------------
def rollout_share(stack):
    """One stack's fleet share, quarter by quarter, from the analytic table."""
    return [DEFAULT_ROLLOUT[q].get(stack, 0.0) for q in QUARTERS]


class TestRolloutTable:
    def test_quarters_sum_to_one(self):
        for quarter in QUARTERS:
            assert sum(DEFAULT_ROLLOUT[quarter].values()) == pytest.approx(1.0)

    def test_kernel_share_monotone_non_increasing(self):
        kernel = rollout_share("kernel")
        assert all(a >= b for a, b in zip(kernel, kernel[1:]))
        assert kernel[-1] == 0.0

    def test_userspace_stacks_never_regress(self):
        # LUNA+SOLAR combined only ever grows: upgrades move servers off
        # the kernel stack, never back onto it.
        luna = rollout_share("luna")
        solar = rollout_share("solar")
        combined = [a + b for a, b in zip(luna, solar)]
        assert all(a <= b + 1e-9 for a, b in zip(combined, combined[1:]))
        # SOLAR alone also never regresses.
        assert all(a <= b + 1e-9 for a, b in zip(solar, solar[1:]))

    def test_simulated_terminal_mix_matches_analytic_kernel_retirement(self):
        # The analytic table retires the kernel stack by 21Q1; a simulated
        # kernel->solar rollout must land on the same terminal state.
        spec = ExperimentSpec(
            name="terminal",
            upgrade=UpgradeSpec(from_stack="kernel", to_stack="solar",
                                servers=4, waves=2),
            seeds=(0,),
            vd_size_mb=32,
        )
        artifact = execute_upgrade_point(spec, 0)
        terminal = artifact["waves"][-1]["mix"]
        assert terminal["kernel"] == rollout_share("kernel")[-1] == 0.0
        assert terminal["solar"] == 1.0


# ----------------------------------------------------------------------
# Health monitor
# ----------------------------------------------------------------------
class TestHealthMonitor:
    def test_declares_after_miss_threshold(self):
        sim = Simulator(seed=1)
        policy = HealthPolicy(heartbeat_interval_ns=10 * MS, miss_threshold=3)
        monitor = HealthMonitor(sim, policy)
        alive = [True]
        monitor.register("node-a", lambda: alive[0])
        sim.schedule_at(25 * MS, lambda: alive.__setitem__(0, False))
        monitor.start(until_ns=200 * MS)
        sim.run()
        incidents = monitor.incidents_of(HEARTBEAT_LOSS)
        assert [i.node for i in incidents] == ["node-a"]
        # Dies between sweeps 2 and 3; misses at 30/40/50ms -> declared at
        # the third missed heartbeat.
        assert incidents[0].detected_ns == 50 * MS

    def test_recovery_resolves_incident(self):
        sim = Simulator(seed=1)
        monitor = HealthMonitor(
            sim, HealthPolicy(heartbeat_interval_ns=10 * MS, miss_threshold=2)
        )
        alive = [False]
        monitor.register("node-a", lambda: alive[0])
        sim.schedule_at(45 * MS, lambda: alive.__setitem__(0, True))
        monitor.start(until_ns=100 * MS)
        sim.run()
        incidents = monitor.incidents_of(HEARTBEAT_LOSS)
        assert len(incidents) == 1
        assert incidents[0].resolved_ns == 50 * MS
        assert not monitor.open_incidents()

    def test_duplicate_probe_rejected(self):
        monitor = HealthMonitor(Simulator(), HealthPolicy())
        monitor.register("n", lambda: True)
        with pytest.raises(ValueError):
            monitor.register("n", lambda: True)

    def test_double_start_rejected(self):
        sim = Simulator()
        monitor = HealthMonitor(sim, HealthPolicy())
        monitor.start(until_ns=1 * MS)
        with pytest.raises(RuntimeError):
            monitor.start(until_ns=1 * MS)

    def test_hang_reports_become_incidents(self):
        dep = small_deployment()
        monitor = HealthMonitor(dep.sim, HealthPolicy())
        hang_mon = IoHangMonitor(
            dep.sim, threshold_ns=10 * MS, on_hang=monitor.report_hang
        )
        # An I/O that never completes: watch a request we never submit.
        from repro.agent.base import IoRequest

        io = IoRequest("write", "vd0", 0, 4096, lambda io: None)
        hang_mon.watch(io)
        dep.sim.run()
        assert hang_mon.hangs == 1
        assert len(monitor.incidents_of(IO_HANG)) == 1

    def test_subscriber_sees_incident(self):
        sim = Simulator()
        monitor = HealthMonitor(
            sim, HealthPolicy(heartbeat_interval_ns=MS, miss_threshold=1)
        )
        seen = []
        monitor.subscribe(seen.append)
        monitor.register("dead", lambda: False)
        monitor.start(until_ns=5 * MS)
        sim.run()
        assert seen and seen[0].node == "dead"


# ----------------------------------------------------------------------
# Failover orchestration
# ----------------------------------------------------------------------
class TestFailover:
    def _kill(self, dep, name):
        host = dep.topology.hosts[name]
        for channel in host.uplinks:
            channel.set_up(False)

    def test_evacuates_dead_storage_server(self):
        dep = small_deployment()
        vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 64 * 1024 * 1024)
        monitor = HealthMonitor(dep.sim, HealthPolicy())
        orch = orchestrator(dep, monitor)
        orch.watch_storage()
        victim = sorted(dep.storage_servers)[0]
        before = len(dep.segment_table.segments_on(victim))
        assert before > 0
        dep.sim.schedule_at(50 * MS, self._kill, dep, victim)
        monitor.start(until_ns=1 * SECOND)
        dep.sim.run()

        assert len(orch.records) == 1
        record = orch.records[0]
        assert record.node == victim
        assert record.segments_moved == before
        assert record.recovery_ns == 50 * MS  # the reroute delay
        assert dep.segment_table.segments_on(victim) == []
        assert "vd0" in record.vds_touched

    def test_io_succeeds_after_recovery(self):
        dep = small_deployment(stack="solar")
        vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 64 * 1024 * 1024)
        monitor = HealthMonitor(dep.sim, HealthPolicy())
        orch = orchestrator(dep, monitor)
        orch.watch_storage()
        victim = sorted(dep.storage_servers)[0]
        dep.sim.schedule_at(10 * MS, self._kill, dep, victim)
        monitor.start(until_ns=1 * SECOND)
        done = []

        def late_io():
            # Issued well after the evacuation completed: must route to a
            # healthy replacement even on SOLAR's hardware tables.
            for i in range(16):
                vd.write(i * 4096 * 64, 4096, done.append)

        dep.sim.schedule_at(600 * MS, late_io)
        dep.sim.run()
        assert orch.records and orch.records[0].node == victim
        assert dep.segment_table.rebuilding == {}
        assert len(done) == 16
        assert all(io.trace is not None and io.trace.ok for io in done)

    def test_ignores_non_storage_incidents(self):
        dep = small_deployment()
        monitor = HealthMonitor(dep.sim, HealthPolicy())
        orch = orchestrator(dep, monitor)
        monitor.declare(HEARTBEAT_LOSS, "not-a-storage-server", "test")
        dep.sim.run()
        assert orch.records == []

    def test_one_evacuation_per_node(self):
        dep = small_deployment()
        monitor = HealthMonitor(dep.sim, HealthPolicy())
        orch = orchestrator(dep, monitor)
        victim = sorted(dep.storage_servers)[0]
        self._kill(dep, victim)
        monitor.declare(HEARTBEAT_LOSS, victim, "test")
        monitor.declare(HEARTBEAT_LOSS, victim, "test again")
        dep.sim.run()
        assert len(orch.records) == 1


# ----------------------------------------------------------------------
# VD pause/drain/detach + live migration
# ----------------------------------------------------------------------
class TestVdLifecycle:
    def test_paused_vd_rejects_io(self):
        dep = small_deployment()
        vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 32 * 1024 * 1024)
        vd.pause()
        with pytest.raises(VdStateError):
            vd.write(0, 4096, lambda io: None)
        vd.resume()
        done = []
        vd.write(0, 4096, done.append)
        dep.sim.run()
        assert done and done[0].trace.ok

    def test_detached_vd_cannot_resume(self):
        dep = small_deployment()
        vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 32 * 1024 * 1024)
        vd.detach()
        with pytest.raises(VdStateError):
            vd.resume()

    def test_when_drained_waits_for_inflight(self):
        dep = small_deployment()
        vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 32 * 1024 * 1024)
        drained_at = []
        completions = []
        vd.write(0, 4096, completions.append)
        assert len(vd.inflight) == 1
        vd.pause()
        vd.when_drained(lambda: drained_at.append(dep.sim.now))
        dep.sim.run()
        assert len(completions) == 1
        # Drain fires only once the in-flight I/O has fully completed.
        assert len(drained_at) == 1
        assert drained_at[0] >= completions[0].trace.complete_ns
        assert not vd.inflight

    def test_when_drained_fires_immediately_if_idle(self):
        dep = small_deployment()
        vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 32 * 1024 * 1024)
        fired = []
        vd.when_drained(lambda: fired.append(True))
        dep.sim.run()
        assert fired == [True]


class TestLiveMigration:
    def test_cross_stack_migration_phases(self):
        sim = Simulator(seed=3)
        src = EbsDeployment(DeploymentSpec(stack="kernel", seed=3), sim=sim)
        dst = EbsDeployment(DeploymentSpec(stack="solar", seed=3), sim=sim)
        vd = VirtualDisk(src, "vd0", src.compute_host_names()[0], 32 * 1024 * 1024)
        migrator = LiveMigration(sim)
        finished = []
        vd.write(0, 4096, lambda io: None)  # in flight at pause time
        report = migrator.migrate(
            vd, dst, dst.compute_host_names()[0],
            lambda new_vd, rep: finished.append((new_vd, rep)),
        )
        assert report.inflight_at_pause == 1
        sim.run()
        assert migrator.completed == 1
        new_vd, rep = finished[0]
        assert rep.source_stack == "kernel" and rep.target_stack == "solar"
        assert rep.started_ns <= rep.drained_ns < rep.attached_ns
        assert rep.attach_ns == migrator.attach_latency_ns
        assert rep.downtime_ns == rep.drain_ns + rep.attach_ns
        assert rep.phase_ns() == {
            "pause": 0, "drain": rep.drain_ns, "attach": rep.attach_ns
        }
        # The old attachment is gone; the new one serves I/O on SOLAR.
        assert vd.detached
        done = []
        new_vd.write(4096, 4096, done.append)
        sim.run()
        assert done and done[0].trace.ok

    def test_migrating_detached_vd_rejected(self):
        dep = small_deployment()
        vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 32 * 1024 * 1024)
        vd.detach()
        migrator = LiveMigration(dep.sim)
        with pytest.raises(ValueError):
            migrator.migrate(vd, dep, dep.compute_host_names()[0], lambda v, r: None)

    def test_unknown_target_host_rejected(self):
        dep = small_deployment()
        vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 32 * 1024 * 1024)
        migrator = LiveMigration(dep.sim)
        with pytest.raises(KeyError):
            migrator.migrate(vd, dep, "no/such/host", lambda v, r: None)


# ----------------------------------------------------------------------
# Controlled cluster + rolling upgrade engine
# ----------------------------------------------------------------------
class TestPartitionWaves:
    def test_contiguous_and_exhaustive(self):
        cluster = fleet_cluster(["kernel"], 5)
        groups = partition_waves(cluster.servers, 2)
        assert [len(g) for g in groups] == [3, 2]
        flat = [s.index for g in groups for s in g]
        assert flat == [0, 1, 2, 3, 4]

    def test_bad_wave_count_rejected(self):
        cluster = fleet_cluster(["kernel"], 2)
        with pytest.raises(ValueError):
            partition_waves(cluster.servers, 3)


class TestUpgradeEngine:
    def test_small_drill_shape(self):
        spec = drill_spec()
        cluster = build_cluster(spec, seed=0)
        result = RollingUpgradeEngine(cluster, spec.upgrade).run()
        plan = spec.upgrade

        assert len(result.waves) == plan.total_waves
        assert [w.kind for w in result.waves] == (
            ["baseline"] + ["upgrade"] * 2 + ["settle"]
        )
        assert result.waves[0].mix == {"kernel": 1.0, "luna": 0.0}
        assert result.terminal_mix() == {"kernel": 0.0, "luna": 1.0}
        assert result.hangs == 0
        assert result.failed == 0
        assert result.migrations == plan.servers
        # Migration downtime shows up as sub-100% availability exactly in
        # the upgrade waves.
        for w in result.waves:
            if w.kind == "upgrade":
                assert w.availability < 1.0
            else:
                assert w.availability == 1.0
        assert check_rollout_consistency(result) == []

    def test_latency_improves_monotonically(self):
        spec = drill_spec(servers=6, waves=3)
        cluster = build_cluster(spec, seed=1)
        result = RollingUpgradeEngine(cluster, spec.upgrade).run()
        lats = result.latency_curve_ns()
        assert all(b <= a * 1.02 for a, b in zip(lats, lats[1:]))
        assert lats[-1] < lats[0]

    def test_engine_validates_plan_against_cluster(self):
        spec = drill_spec()
        cluster = fleet_cluster(["kernel", "luna"], 3)
        with pytest.raises(ValueError):
            RollingUpgradeEngine(cluster, spec.upgrade)  # 3 != 4 servers
        cluster2 = fleet_cluster(["kernel"], 4)
        with pytest.raises(ValueError):
            RollingUpgradeEngine(cluster2, spec.upgrade)  # luna missing

    def test_cluster_rejects_unknown_stack(self):
        with pytest.raises(ValueError):
            fleet_cluster(["tcp"], 2)

    def test_cluster_load_cannot_start_twice(self):
        cluster = fleet_cluster(["kernel"], 1)
        cluster.start_load(1 * MS, 500 * US, 4096)
        with pytest.raises(RuntimeError):
            cluster.start_load(1 * MS, 500 * US, 4096)


class TestDrillDeterminism:
    def test_artifact_bytes_stable_across_runs(self):
        spec = drill_spec()
        a = canonical_json(execute_upgrade_point(spec, 0))
        b = canonical_json(execute_upgrade_point(spec, 0))
        assert a == b

    def test_sweep_serial_vs_parallel_identical(self, tmp_path):
        from repro.lab.runner import run_sweep
        from repro.lab.store import ResultStore

        spec = drill_spec()
        serial = ResultStore(str(tmp_path / "serial"))
        parallel = ResultStore(str(tmp_path / "parallel"))
        run_sweep(spec, jobs=1, store=serial)
        run_sweep(spec, jobs=2, store=parallel)
        for _spec, _seed, digest in spec.points():
            assert serial.get(digest) is not None
            assert serial.get(digest) == parallel.get(digest)

    def test_artifact_roundtrips_to_result(self):
        spec = drill_spec()
        artifact = execute_upgrade_point(spec, 1)
        result = artifact_to_result(spec, artifact)
        assert result.completed == artifact["completed"]
        assert len(result.waves) == spec.upgrade.total_waves
        assert check_rollout_consistency(result) == []


# ----------------------------------------------------------------------
# Migration abort: a fault mid-drain surfaces a typed error instead of
# wedging the VD in a paused state forever
# ----------------------------------------------------------------------
class TestMigrationAbort:
    def _stranded_vd(self, dep):
        """A VD with one write that can never complete: every storage
        uplink is down before the I/O is issued."""
        vd = VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 32 * 1024 * 1024)
        for name in dep.storage_servers:
            for channel in dep.topology.hosts[name].uplinks:
                channel.set_up(False)
        vd.write(0, 4096, lambda io: None)
        assert vd.inflight
        return vd

    def test_invalid_drain_timeout_rejected(self):
        with pytest.raises(ValueError):
            LiveMigration(Simulator(), drain_timeout_ns=0)
        with pytest.raises(ValueError):
            LiveMigration(Simulator(), drain_timeout_ns=-5)

    def test_timeout_raises_typed_error_without_handler(self):
        dep = small_deployment()
        vd = self._stranded_vd(dep)
        migrator = LiveMigration(dep.sim, drain_timeout_ns=20 * MS)
        report = migrator.migrate(
            vd, dep, dep.compute_host_names()[0], lambda v, r: None
        )
        with pytest.raises(MigrationAbortedError):
            dep.sim.run()
        assert report.aborted
        assert migrator.aborted == 1 and migrator.completed == 0
        # MigrationAbortedError is a VdStateError, so existing callers
        # that guard VD lifecycle errors also catch aborts.
        assert issubclass(MigrationAbortedError, VdStateError)

    def test_abort_handler_fires_and_vd_resumes(self):
        dep = small_deployment()
        vd = self._stranded_vd(dep)
        migrator = LiveMigration(dep.sim, drain_timeout_ns=20 * MS)
        started = dep.sim.now
        aborts = []
        migrator.migrate(
            vd, dep, dep.compute_host_names()[0], lambda v, r: None,
            on_abort=lambda v, r: aborts.append(r),
        )
        dep.sim.run()
        assert len(aborts) == 1
        report = aborts[0]
        assert report.aborted and report.aborted_ns == started + 20 * MS
        # The abort un-wedges the VD: it is resumed, not paused/detached,
        # and serves I/O again once the fault clears.
        assert not vd.paused and not vd.detached
        for name in dep.storage_servers:
            for channel in dep.topology.hosts[name].uplinks:
                channel.set_up(True)
        done = []
        vd.write(4096, 4096, done.append)
        dep.sim.run()
        assert done and done[0].trace.ok

    def test_clean_migration_unaffected_by_timeout(self):
        sim = Simulator(seed=3)
        src = EbsDeployment(DeploymentSpec(stack="kernel", seed=3), sim=sim)
        dst = EbsDeployment(DeploymentSpec(stack="solar", seed=3), sim=sim)
        vd = VirtualDisk(src, "vd0", src.compute_host_names()[0], 32 * 1024 * 1024)
        migrator = LiveMigration(sim, drain_timeout_ns=200 * MS)
        finished = []
        vd.write(0, 4096, lambda io: None)
        migrator.migrate(
            vd, dst, dst.compute_host_names()[0],
            lambda new_vd, rep: finished.append(rep),
        )
        sim.run()
        assert migrator.completed == 1 and migrator.aborted == 0
        assert finished and not finished[0].aborted


# ----------------------------------------------------------------------
# Health monitor: overlapping faults on the same node
# ----------------------------------------------------------------------
class TestOverlappingIncidents:
    def test_heartbeat_and_hang_incidents_resolve_independently(self):
        from repro.agent.base import IoRequest

        sim = Simulator(seed=1)
        monitor = HealthMonitor(
            sim, HealthPolicy(heartbeat_interval_ns=10 * MS, miss_threshold=2)
        )
        alive = [True]
        monitor.register("node-a", lambda: alive[0])
        hang_mon = IoHangMonitor(
            sim, threshold_ns=5 * MS, on_hang=monitor.report_hang
        )
        # Two overlapping faults on the same node: a hung I/O (declared
        # at 5ms) and a heartbeat loss (node dies at 12ms, declared at
        # 30ms after two misses).
        io = IoRequest("write", "node-a", 0, 4096, lambda io: None)
        hang_mon.watch(io)
        sim.schedule_at(12 * MS, lambda: alive.__setitem__(0, False))
        # Causes clear at different times: the I/O answers at 40ms, the
        # node recovers at 55ms.
        sim.schedule_at(40 * MS, monitor.note_io_completed, io)
        sim.schedule_at(55 * MS, lambda: alive.__setitem__(0, True))
        monitor.start(until_ns=100 * MS)
        sim.run()

        hangs = monitor.incidents_of(IO_HANG)
        losses = monitor.incidents_of(HEARTBEAT_LOSS)
        assert [i.node for i in hangs] == ["node-a"]
        assert [i.node for i in losses] == ["node-a"]
        # Each incident resolved when *its* cause cleared, not when the
        # other one's did.
        assert hangs[0].resolved_ns == 40 * MS
        assert losses[0].resolved_ns == 60 * MS  # first healthy sweep
        assert not monitor.open_incidents()
        assert monitor.open_hangs() == {}

    def test_completion_without_hang_is_noop(self):
        from repro.agent.base import IoRequest

        sim = Simulator()
        monitor = HealthMonitor(sim, HealthPolicy())
        io = IoRequest("write", "vd0", 0, 4096, lambda io: None)
        monitor.note_io_completed(io)  # never hung: must not raise
        assert monitor.incidents == []

    def test_resolve_is_idempotent_and_stampable(self):
        sim = Simulator()
        monitor = HealthMonitor(sim, HealthPolicy())
        resolved = []
        monitor.subscribe_resolved(resolved.append)
        incident = monitor.declare(HEARTBEAT_LOSS, "node-a", "test")
        monitor.resolve(incident, at_ns=7 * MS)
        monitor.resolve(incident, at_ns=9 * MS)  # second call: no-op
        assert incident.resolved_ns == 7 * MS
        assert len(resolved) == 1


# ----------------------------------------------------------------------
# Failover: per-stack probe prefixes + quarantine lift on recovery
# ----------------------------------------------------------------------
class TestFailoverScoping:
    def _kill(self, dep, name, up=False):
        for channel in dep.topology.hosts[name].uplinks:
            channel.set_up(up)

    def test_node_prefix_scopes_incidents_to_one_deployment(self):
        sim = Simulator(seed=3)
        dep_a = EbsDeployment(DeploymentSpec(stack="luna", seed=3), sim=sim)
        dep_b = EbsDeployment(DeploymentSpec(stack="solar", seed=3), sim=sim)
        VirtualDisk(dep_a, "vd-a", dep_a.compute_host_names()[0], 32 * 1024 * 1024)
        VirtualDisk(dep_b, "vd-b", dep_b.compute_host_names()[0], 32 * 1024 * 1024)
        monitor = HealthMonitor(sim, HealthPolicy())
        orch_a = orchestrator(dep_a, monitor, node_prefix="a/")
        orch_b = orchestrator(dep_b, monitor, node_prefix="b/")
        orch_a.watch_storage()
        orch_b.watch_storage()
        victim = sorted(dep_a.storage_servers)[0]
        sim.schedule_at(50 * MS, self._kill, dep_a, victim)
        monitor.start(until_ns=1 * SECOND)
        sim.run()
        # The same host name exists in both deployments; only the one
        # registered under the "a/" prefix is actually dead.
        assert [r.node for r in orch_a.records] == [victim]
        assert orch_b.records == []
        assert dep_b.segment_table.evacuated == frozenset()

    def test_quarantine_lifts_when_node_recovers(self):
        dep = small_deployment()
        VirtualDisk(dep, "vd0", dep.compute_host_names()[0], 64 * 1024 * 1024)
        monitor = HealthMonitor(dep.sim, HealthPolicy())
        orch = orchestrator(dep, monitor)
        orch.watch_storage()
        victim = sorted(dep.storage_servers)[0]
        quarantined = []
        dep.sim.schedule_at(50 * MS, self._kill, dep, victim)
        dep.sim.schedule_at(
            400 * MS,
            lambda: quarantined.append(victim in dep.segment_table.evacuated),
        )
        dep.sim.schedule_at(500 * MS, self._kill, dep, victim, True)
        monitor.start(until_ns=1 * SECOND)
        dep.sim.run()
        assert len(orch.records) == 1
        # Dead: the victim was quarantined.  Recovered: the quarantine
        # lifted, so new provisions may use it again.
        assert quarantined == [True]
        assert victim not in dep.segment_table.evacuated
