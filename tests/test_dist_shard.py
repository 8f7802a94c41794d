"""The fleet plane: fleet specs, independent deployment points, digest
determinism.

The headline guarantee under test: a fleet's result digest is a pure
function of its spec — every deployment runs alone, in any process, and
the merged result is byte-identical for every worker count.
"""

import dataclasses

import pytest

from repro.dist import (
    FleetEvent,
    FleetSpec,
    reference_fleet,
    run_fleet,
)
from repro.dist.shardsim import DeploymentSim, ShardState, run_deployment
from repro.lab.spec import FaultSpec, RebuildSpec, TelemetrySpec, UpgradeSpec, WorkloadSpec
from repro.sim import MS

#: A fleet small enough for CI: 4 deployments, short runtime, trimmed
#: drain window — still exercising every cross-deployment event kind.
def small_fleet(deployments=4, runtime_ns=3 * MS):
    spec = reference_fleet(deployments=deployments, runtime_ns=runtime_ns)
    return dataclasses.replace(spec, drain_ns=3 * MS)


def member(runtime_ns=20 * MS, **fields):
    """A reference-fleet member (SOLAR, 1x2 compute, 1x4 storage, 64MB VD,
    fio at iodepth 8) with ``fields`` replaced."""
    base = reference_fleet(deployments=2, runtime_ns=runtime_ns).deployments[0]
    return dataclasses.replace(base, **fields)


# ----------------------------------------------------------------------
# Spec layer
# ----------------------------------------------------------------------
def test_fleet_spec_roundtrip_and_digest():
    spec = small_fleet()
    again = FleetSpec.from_json(spec.to_json())
    assert again == spec
    assert again.digest() == spec.digest()
    # The name is presentation-only: renaming must not move the digest.
    renamed = dataclasses.replace(spec, name="other")
    assert renamed.digest() == spec.digest()
    # Any load-bearing knob must move it.
    rewired = dataclasses.replace(spec, crossing_ns=spec.crossing_ns * 2)
    assert rewired.digest() != spec.digest()
    # A field the spec does not know, such as the removed ``trace_rows``,
    # makes the spec malformed rather than being ignored.
    payload = spec.to_dict()
    payload["deployments"][0]["trace_rows"] = [[0, "read", 0, 4096]]
    with pytest.raises(ValueError, match="malformed fleet spec"):
        FleetSpec.from_dict(payload)


def test_fleet_spec_validation():
    dep = member()
    with pytest.raises(ValueError, match="at least one deployment"):
        FleetSpec(deployments=())
    with pytest.raises(ValueError, match="crossing_ns"):
        FleetSpec(deployments=(dep, dep), crossing_ns=0)
    with pytest.raises(ValueError, match="only 2"):
        FleetSpec(
            deployments=(dep, dep),
            events=(FleetEvent(at_ns=0, kind="node_fault", src=0, dst=5),),
        )
    with pytest.raises(ValueError, match="distinct src/dst"):
        FleetEvent(at_ns=0, kind="migration", src=1, dst=1)
    with pytest.raises(ValueError, match="kind"):
        FleetEvent(at_ns=0, kind="meteor", src=0, dst=1)
    with pytest.raises(ValueError, match="past the fleet horizon"):
        FleetSpec(
            deployments=(dep, dep),
            events=(FleetEvent(at_ns=10**12, kind="incident", src=0, dst=1),),
        )


def test_oversized_migration_rejected():
    # A migrated I/O larger than the destination VD has no slot to land
    # in; the spec must refuse it instead of the destination dividing
    # by zero slots mid-run.
    small, big = member(vd_size_mb=1), member(vd_size_mb=64)
    oversized = FleetEvent(at_ns=MS, kind="migration", src=1, dst=0, size_kb=2048)
    with pytest.raises(ValueError, match="exceeds"):
        FleetSpec(deployments=(small, big), events=(oversized,))
    # The same I/O fits a larger destination, and a VD-sized one fits.
    FleetSpec(deployments=(big, small), events=(oversized,))
    FleetSpec(deployments=(small, big),
              events=(dataclasses.replace(oversized, size_kb=1024),))


# ----------------------------------------------------------------------
# Independent deployment points
# ----------------------------------------------------------------------
def test_each_deployment_runs_alone():
    """Every deployment run by itself yields the artifact it has in the
    full fleet run: no deployment depends on another's simulation."""
    spec = small_fleet()
    fleet = run_fleet(spec, shards=1)
    for index in range(len(spec.deployments)):
        alone = run_deployment(spec.to_json(), index)
        assert alone == fleet.artifacts[index]
        assert alone["end_ns"] == spec.effective_horizon_ns


def test_same_ns_inbound_applies_in_at_src_spec_order(monkeypatch):
    # Three events reach deployment 0 at the same instant, listed out of
    # order; the destination applies them by (at_ns, src), ties in spec
    # order.
    dep = member(runtime_ns=2 * MS)
    events = (
        FleetEvent(at_ns=MS, kind="migration", src=2, dst=0, count=1),
        FleetEvent(at_ns=MS, kind="incident", src=1, dst=0),
        FleetEvent(at_ns=MS, kind="migration", src=1, dst=0, count=2),
        FleetEvent(at_ns=MS // 2, kind="node_fault", src=2, dst=0),
    )
    spec = FleetSpec(deployments=(dep, dep, dep), events=events)
    applied = []
    monkeypatch.setattr(
        DeploymentSim, "_apply_event",
        lambda self, event: applied.append((self.sim.now, events.index(event))),
    )
    sim = DeploymentSim(spec, 0)
    sim.run()
    half, one = MS // 2 + spec.crossing_ns, MS + spec.crossing_ns
    assert applied == [(half, 3), (one, 1), (one, 2), (one, 0)]
    assert sim.finish()["messages_in"] == 4


# ----------------------------------------------------------------------
# Determinism across worker layouts
# ----------------------------------------------------------------------
def test_digest_identical_across_shard_counts_in_process():
    """Any in-process grouping of deployments — one set or one per
    deployment — gives the fleet run's artifacts."""
    spec = small_fleet()
    reference = run_fleet(spec, shards=1)
    for layout in ([[0, 2], [1, 3]], [[3], [1], [0], [2]]):
        artifacts = {}
        for indices in layout:
            state = ShardState(spec, indices)
            state.run()
            artifacts.update(state.finish())
        assert [artifacts[i] for i in sorted(artifacts)] == reference.artifacts
    # The run did real cross-deployment work, so the equality is meaningful.
    assert reference.messages_routed == 3
    assert reference.windows == 1
    assert reference.summary["remote_incidents"] == 1
    assert reference.summary["injected_completed"] > 0
    assert reference.summary["completed"] > 0


def test_digest_identical_under_multiprocess_pool():
    spec = small_fleet(deployments=2)
    serial = run_fleet(spec, shards=1)
    finished = []
    pooled = run_fleet(spec, shards=2, progress=lambda *a: finished.append(a))
    assert pooled.shards == 2
    assert pooled.digest == serial.digest
    assert pooled.artifacts == serial.artifacts
    assert sorted(finished) == [(1, 2), (2, 2)]


def test_effect_landing_past_the_horizon_is_refused():
    # An event so close to the horizon its effect could never land: the
    # spec refuses it rather than the run dropping it.
    dep = member(runtime_ns=2 * MS)
    late = FleetEvent(at_ns=int(3.5 * MS), kind="migration", src=0, dst=1)
    with pytest.raises(ValueError, match="lands past the fleet horizon"):
        FleetSpec(deployments=(dep, dep), events=(late,), drain_ns=2 * MS)
    # An effect landing exactly at the horizon is still applied.
    spec = FleetSpec(deployments=(dep, dep), drain_ns=2 * MS,
                     events=(dataclasses.replace(late, at_ns=3 * MS),))
    result = run_fleet(spec, shards=1)
    assert result.messages_dropped == 0
    assert result.messages_routed == 1
    assert result.artifacts[0]["messages_out"] == 1
    assert result.artifacts[1]["messages_in"] == 1


# ----------------------------------------------------------------------
# Members are lab points
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fields", [
    dict(seeds=(1, 2)),
    dict(workload=WorkloadSpec(mode="isolated")),
    dict(until_ns=5 * MS),
    dict(upgrade=UpgradeSpec()),
    dict(rebuild=RebuildSpec()),
    dict(telemetry=TelemetrySpec()),
], ids=["two-seeds", "isolated", "until_ns", "upgrade", "rebuild", "telemetry"])
def test_member_inputs_the_fleet_would_drop_are_refused(fields):
    with pytest.raises(ValueError, match="deployment 1"):
        FleetSpec(deployments=(member(), member(**fields)))


def test_member_name_is_not_part_of_the_digest():
    spec = small_fleet()
    renamed = dataclasses.replace(spec, deployments=(
        dataclasses.replace(spec.deployments[0], name="other"),
    ) + spec.deployments[1:])
    assert renamed.digest() == spec.digest()
    reseeded = dataclasses.replace(spec, deployments=(
        dataclasses.replace(spec.deployments[0], seeds=(7,)),
    ) + spec.deployments[1:])
    assert reseeded.digest() != spec.digest()


def test_member_fault_schedule_is_applied():
    spec = small_fleet(deployments=2)
    blackhole = FaultSpec(kind="switch_blackhole", target="spine", param=0.5, start_ns=0)
    faulted = dataclasses.replace(spec, deployments=(
        dataclasses.replace(spec.deployments[0], faults=(blackhole,)),
        spec.deployments[1],
    ))
    clean = run_deployment(spec.to_json(), 0)
    hit = run_deployment(faulted.to_json(), 0)
    assert hit["completed"] < clean["completed"]
    assert run_deployment(faulted.to_json(), 1) == run_deployment(spec.to_json(), 1)
