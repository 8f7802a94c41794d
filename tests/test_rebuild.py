"""Tests for the repro.rebuild re-replication subsystem."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.control.health import HealthMonitor, HealthPolicy
from repro.ebs import DeploymentSpec, EbsDeployment, VirtualDisk
from repro.lab.spec import (
    ExperimentSpec,
    RebuildSpec,
    WorkloadSpec,
    canonical_json,
)
from repro.net.failures import node_failure
from repro.rebuild import (
    REBUILD_STUCK,
    DeadlinePolicy,
    ReactivePolicy,
    RebuildExecutor,
    RebuildPlanner,
    StaticCapPolicy,
    make_policy,
)
from repro.rebuild.drill import execute_rebuild_point
from repro.sim import MS


def small_deployment(stack="luna", seed=7):
    return EbsDeployment(DeploymentSpec(stack=stack, seed=seed))


def storm_fixture(replicas=3, swarm=False, policy=None, vd_mb=4, seed=7):
    """Deployment + VD + executor + planner, ready to kill a node."""
    dep = small_deployment(seed=seed)
    vd = VirtualDisk(
        dep, "vd0", dep.compute_host_names()[0], vd_mb * 1024 * 1024,
        replicas=replicas,
    )
    executor = RebuildExecutor(
        dep, policy or StaticCapPolicy(rate_bps=20e9),
        swarm=swarm, chunk_bytes=128 * 1024,
    )
    monitor = HealthMonitor(dep.sim, HealthPolicy())
    planner = RebuildPlanner(dep, executor, monitor)
    return dep, vd, executor, planner


def pick_victim(dep):
    """A storage node that actually holds chunk replicas."""
    for name in sorted(dep.storage_servers):
        if dep.segment_table.segments_on(name):
            return name
    raise AssertionError("no storage node holds segments")


def kill(dep, planner, name, scenarios=None):
    """Topology death + control-plane notification, as failover would."""
    scenario = node_failure(name)
    scenario.apply(dep.topology)
    if scenarios is not None:
        scenarios[name] = scenario
    healthy = [
        s for s in sorted(dep.storage_servers)
        if s != name and s not in dep.segment_table.evacuated
    ]
    return planner.on_node_failure(name, healthy)


# ----------------------------------------------------------------------
# Planner + executor end to end
# ----------------------------------------------------------------------
class TestRebuildEndToEnd:
    def test_node_failure_rebuilds_all_lost_replicas(self):
        dep, vd, executor, planner = storm_fixture()
        victim = pick_victim(dep)
        lost = len(dep.segment_table.segments_on(victim))
        changed = kill(dep, planner, victim)
        assert sum(changed.values()) == lost
        assert planner.started == lost
        dep.run()
        ledger = planner.audit()
        assert ledger == {
            "started": lost, "completed": lost, "requeued": 0,
            "active": 0, "stalled": 0,
        }
        assert not dep.segment_table.rebuilding
        assert victim not in {
            r for seg in dep.segment_table.segments_of(vd.vd_id)
            for r in seg.replicas
        }
        assert executor.bytes_done == executor.bytes_planned > 0

    def test_rebuilt_data_matches_survivors(self):
        dep, vd, executor, planner = storm_fixture()
        payload = bytes(range(256)) * 16
        done = []
        vd.write(0, 4096, done.append, data=payload)
        dep.run()
        assert done and done[0].trace.ok
        victim = dep.segment_table.lookup(vd.vd_id, 0).replicas[0]
        kill(dep, planner, victim)
        dep.run()
        seg = dep.segment_table.lookup(vd.vd_id, 0)
        copies = [
            dep.chunk_servers[r].store.get((seg.segment_id, 0))
            for r in seg.replicas
        ]
        assert all(c is not None and c[0] == payload for c in copies)

    def test_recovery_ns_spans_plan_to_last_byte(self):
        dep, _vd, _executor, planner = storm_fixture()
        victim = pick_victim(dep)
        kill(dep, planner, victim)
        assert planner.recovery_ns() is None  # still copying
        dep.run()
        assert planner.recovery_ns() is not None and planner.recovery_ns() > 0

    def test_metadata_only_failure_completes_instantly(self):
        dep, _vd, _executor, planner = storm_fixture()
        # A node with no chunk replicas (block-server roles only, or
        # nothing at all) must not leave an open record.
        for name in sorted(dep.storage_servers):
            held = dep.segment_table.segments_on(name)
            if all(seg.block_server == name for _v, _i, seg in held):
                kill(dep, planner, name)
                assert not planner.busy
                return
        pytest.skip("every storage node holds chunk replicas in this layout")


# ----------------------------------------------------------------------
# Satellite: destination dies mid-rebuild -> transfers re-queued
# ----------------------------------------------------------------------
class TestDestinationDeath:
    def test_destination_death_requeues_in_flight_transfers(self):
        dep, _vd, executor, planner = storm_fixture()
        victim = pick_victim(dep)
        kill(dep, planner, victim)
        started = planner.started
        # Let the storm get some chunks in flight, then kill one of the
        # pending destinations mid-copy.
        dep.run(until_ns=dep.sim.now + 100_000)
        rebuilding = dep.segment_table.rebuilding
        assert rebuilding, "no rebuild in flight to attack"
        dest = sorted(d for dests in rebuilding.values() for d in dests)[0]
        kill(dep, planner, dest)
        assert planner.requeued >= 1
        ledger = planner.audit()
        assert ledger["started"] == (
            ledger["completed"] + ledger["requeued"]
            + ledger["active"] + ledger["stalled"]
        )
        dep.run()
        final = planner.audit()
        assert final["active"] == final["stalled"] == 0
        assert final["completed"] == final["started"] - final["requeued"]
        assert final["started"] > started  # replacement transfers planned
        assert not dep.segment_table.rebuilding
        # Neither dead node may appear in any membership.
        for seg in dep.segment_table.segments_of("vd0"):
            assert victim not in seg.replicas and dest not in seg.replicas

    def test_requeued_item_never_sources_from_partial_destination(self):
        dep, _vd, _executor, planner = storm_fixture()
        victim = pick_victim(dep)
        kill(dep, planner, victim)
        dep.run(until_ns=dep.sim.now + 100_000)
        rebuilding = dep.segment_table.rebuilding
        dest = sorted(d for dests in rebuilding.values() for d in dests)[0]
        kill(dep, planner, dest)
        dep.run()
        # The dead destination held only partial bytes; had it been used
        # as a source the rebuilt copies would be incomplete and the
        # ledger could not have fully completed.
        final = planner.audit()
        assert final["completed"] + final["requeued"] == final["started"]


# ----------------------------------------------------------------------
# Satellite: zero survivors -> typed incident, then recovery
# ----------------------------------------------------------------------
class TestUnrecoverableSegments:
    def test_zero_survivors_declares_typed_incident_not_hang(self):
        dep, vd, executor, planner = storm_fixture(replicas=2)
        monitor = planner.monitor
        seg = dep.segment_table.lookup(vd.vd_id, 0)
        first, second = seg.replicas[0], seg.replicas[1]
        kill(dep, planner, first)
        # Kill the sole surviving holder before (or while) it seeds.
        kill(dep, planner, second)
        dep.run()
        assert planner.stalled_count >= 1
        stuck = monitor.incidents_of(REBUILD_STUCK)
        assert stuck and all(i.open for i in stuck)
        ledger = planner.audit()
        assert ledger["started"] == (
            ledger["completed"] + ledger["requeued"]
            + ledger["active"] + ledger["stalled"]
        )

    def test_rejoined_holder_unstalls_and_resolves_incident(self):
        dep, vd, executor, planner = storm_fixture(replicas=2)
        monitor = planner.monitor
        seg = dep.segment_table.lookup(vd.vd_id, 0)
        first, second = seg.replicas[0], seg.replicas[1]
        scenarios = {}
        kill(dep, planner, first, scenarios)
        kill(dep, planner, second, scenarios)
        dep.run()
        assert planner.stalled_count >= 1
        # The second node rejoins: its chunk store survived the outage.
        scenarios[second].revert(dep.topology)
        dep.segment_table.restore(second)
        retried = planner.on_node_recovered(second)
        assert retried >= 1
        dep.run()
        assert planner.stalled_count == 0
        assert all(not i.open for i in monitor.incidents_of(REBUILD_STUCK))
        final = planner.audit()
        assert final["completed"] + final["requeued"] == final["started"]

    def test_executor_rejects_sourceless_transfer(self):
        dep, _vd, executor, _planner = storm_fixture()
        from repro.rebuild import RebuildTransfer

        with pytest.raises(ValueError):
            executor.start(RebuildTransfer(
                transfer_id=1, vd_id="vd0", segment_id="s", start_lba=0,
                num_blocks=1, destination="d", sources=(), planned_ns=0,
            ))


# ----------------------------------------------------------------------
# Throttle policies
# ----------------------------------------------------------------------
class TestThrottlePolicies:
    def test_static_cap_is_flat(self):
        policy = StaticCapPolicy(rate_bps=5e9)
        assert policy.rate_bps(0, 10**9) == 5e9
        assert policy.rate_bps(10**12, 1) == 5e9

    def test_deadline_paces_to_remaining_window(self):
        policy = DeadlinePolicy(deadline_ns=10 * MS, max_rate_bps=64e9)
        policy.on_plan(0, 10 * 1024 * 1024)
        need = policy.rate_bps(0, 10 * 1024 * 1024)
        assert need == pytest.approx(10 * 1024 * 1024 * 8 * 1e9 / (10 * MS))
        # Half the bytes gone at half time: required rate unchanged.
        assert policy.rate_bps(5 * MS, 5 * 1024 * 1024) == pytest.approx(need)
        assert not policy.deadline_missed

    def test_deadline_shorter_than_min_transfer_clamps_and_flags(self):
        # 10MB in 1us needs 80 Pbit/s; the policy must clamp at the
        # ceiling and flag the miss instead of exploding the rate.
        policy = DeadlinePolicy(deadline_ns=1_000, max_rate_bps=64e9)
        policy.on_plan(0, 10 * 1024 * 1024)
        assert policy.rate_bps(0, 10 * 1024 * 1024) == 64e9
        assert policy.deadline_missed
        # Past the deadline with work remaining: still the ceiling.
        assert policy.rate_bps(5_000, 1024) == 64e9

    def test_deadline_infeasible_drill_still_completes(self):
        art = run_drill("deadline", "unicast", deadline_ms=1)
        rb = art["rebuild"]
        assert rb["complete"]
        assert rb["policy"]["deadline_missed"] is True
        assert rb["recovery_ns"] > 1 * MS

    def test_reactive_idle_windows_are_additive_increase(self):
        policy = ReactivePolicy(
            target_p99_ns=500_000, max_rate_bps=8e9,
            start_rate_bps=1e9, increase_bps=1e9,
        )
        for _ in range(20):
            policy.observe_window(None)  # empty sketch window: no p99
        assert policy.rate_bps(0, 1) == 8e9  # ramped to ceiling, no error
        assert policy.windows_observed == 20
        assert policy.backoffs == 0

    def test_reactive_backs_off_multiplicatively_and_floors(self):
        policy = ReactivePolicy(
            target_p99_ns=500_000, min_rate_bps=1e9, max_rate_bps=8e9,
            start_rate_bps=8e9,
        )
        policy.observe_window(1_000_000.0)
        assert policy.rate_bps(0, 1) == 4e9
        for _ in range(10):
            policy.observe_window(1_000_000.0)
        assert policy.rate_bps(0, 1) == 1e9  # floored, never zero
        assert policy.backoffs == 11

    def test_make_policy_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            make_policy("bittorrent")


# ----------------------------------------------------------------------
# Swarm vs unicast
# ----------------------------------------------------------------------
def run_drill(policy, mode, replicas=4, rate_gbps=40.0, deadline_ms=2,
              seed=0):
    spec = ExperimentSpec(
        name=f"test-rebuild/{policy}/{mode}",
        workload=WorkloadSpec(mode="fio", runtime_ns=20 * MS),
        seeds=(seed,),
        vd_size_mb=8,
        rebuild=RebuildSpec(
            policy=policy, mode=mode, rate_gbps=rate_gbps,
            deadline_ms=deadline_ms, replicas=replicas,
            fail_at_ns=5 * MS, node_index=1,
        ),
    )
    return execute_rebuild_point(spec, seed)


class TestSwarmMode:
    def test_swarm_strictly_beats_unicast_with_three_seeds(self):
        uni = run_drill("static", "unicast")
        swarm = run_drill("static", "swarm")
        assert uni["rebuild"]["complete"] and swarm["rebuild"]["complete"]
        assert swarm["rebuild"]["recovery_ns"] < uni["rebuild"]["recovery_ns"]
        # Same work either way — swarm only changes who seeds it.
        assert (
            swarm["rebuild"]["bytes_rebuilt"] == uni["rebuild"]["bytes_rebuilt"]
        )


# ----------------------------------------------------------------------
# Lab integration: spec, digest, determinism
# ----------------------------------------------------------------------
class TestRebuildSpec:
    def test_roundtrip_preserves_digest(self):
        spec = ExperimentSpec(
            name="t", seeds=(0,),
            rebuild=RebuildSpec(policy="deadline", mode="swarm"),
        )
        again = ExperimentSpec.from_dict(json.loads(
            canonical_json(spec.to_dict()).decode()
        ))
        assert again.rebuild == spec.rebuild
        assert again.point_digest(0) == spec.point_digest(0)

    def test_rebuild_changes_digest(self):
        base = ExperimentSpec(name="t", seeds=(0,))
        with_rebuild = dataclasses.replace(base, rebuild=RebuildSpec())
        assert base.point_digest(0) != with_rebuild.point_digest(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RebuildSpec(policy="torrent")
        with pytest.raises(ValueError):
            RebuildSpec(mode="broadcast")
        with pytest.raises(ValueError):
            RebuildSpec(replicas=1)
        with pytest.raises(ValueError):
            RebuildSpec(rate_gbps=0)
        with pytest.raises(ValueError):
            RebuildSpec(chunk_kb=3)

    def test_rebuild_excludes_upgrade(self):
        from repro.lab.spec import UpgradeSpec

        with pytest.raises(ValueError):
            ExperimentSpec(
                name="t", seeds=(0,),
                rebuild=RebuildSpec(),
                upgrade=UpgradeSpec(from_stack="kernel", to_stack="luna"),
            )

    def test_artifact_byte_identical_across_runs(self):
        a = canonical_json(run_drill("static", "unicast", seed=3))
        b = canonical_json(run_drill("static", "unicast", seed=3))
        assert a == b

    def test_runner_dispatches_rebuild_points(self):
        from repro.lab.runner import execute_point

        spec = ExperimentSpec(
            name="t-dispatch",
            workload=WorkloadSpec(mode="fio", runtime_ns=10 * MS),
            seeds=(0,), vd_size_mb=8,
            rebuild=RebuildSpec(node_index=1, fail_at_ns=2 * MS),
        )
        art = execute_point(spec, 0)
        assert art["workload_mode"] == "rebuild"
        assert art["rebuild"]["ledger"]["started"] > 0


class TestDrillOnTheRig:
    """A rebuild point honours the spec's faults and telemetry like any
    other point: a spine blackhole moves the artifact, and the plane
    counts every hang the hang monitor does."""

    @staticmethod
    def _spec(faults=()):
        from repro.lab.spec import TelemetrySpec

        return ExperimentSpec(
            name="t-drill-faults",
            deployment=DeploymentSpec(stack="luna"),
            seeds=(0,),
            vd_size_mb=8,
            hang_threshold_ns=20 * MS,
            telemetry=TelemetrySpec(),
            rebuild=RebuildSpec(),
            faults=faults,
        )

    @pytest.fixture(scope="class")
    def artifacts(self):
        from repro.lab.spec import FaultSpec

        blackhole = FaultSpec("switch_blackhole", "spine", 1.0,
                              start_ns=5 * MS, end_ns=15 * MS)
        return (execute_rebuild_point(self._spec(), 0),
                execute_rebuild_point(self._spec(faults=(blackhole,)), 0))

    def test_spec_faults_are_scheduled(self, artifacts):
        plain, faulted = (dict(a, digest=None) for a in artifacts)
        assert faulted != plain
        assert faulted["hangs"] > plain["hangs"]

    def test_telemetry_counts_every_hang(self, artifacts):
        for artifact in artifacts:
            assert artifact["hangs"] > 0
            assert artifact["telemetry"]["hangs"] == artifact["hangs"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
REBUILD_SPEC = Path(__file__).resolve().parent.parent / "examples" / "specs" / "rebuild.json"


def rebuild_args(*extra):
    """``run`` on the committed rebuild spec, shrunk to CI's drill."""
    return [
        "run", str(REBUILD_SPEC), "--set", "rebuild.node_index=1",
        "--set", "vd_size_mb=8", "--set", "workload.runtime_ns=20000000",
        "--no-store", *extra,
    ]


class TestRebuildCli:
    def test_cli_json_is_canonical_and_exits_zero(self, capsys):
        from repro.__main__ import main

        code = main(rebuild_args("--json"))
        assert code == 0
        out = capsys.readouterr().out
        artifact = json.loads(out)
        assert artifact["rebuild"]["complete"] is True
        assert canonical_json(artifact).decode().rstrip("\n") == out.rstrip("\n")

    def test_cli_human_summary(self, capsys):
        from repro.__main__ import main

        code = main(rebuild_args("--set", "rebuild.policy=reactive",
                                 "--set", "rebuild.mode=swarm"))
        assert code == 0
        out = capsys.readouterr().out
        assert "reactive/swarm" in out and "recovery" in out
