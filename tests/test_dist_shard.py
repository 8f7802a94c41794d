"""The shard plane: fleet specs, fabric boundaries, digest determinism.

The headline guarantee under test: a fleet's result digest is a pure
function of its spec — byte-identical across shard counts 1/2/4 and
across in-process and multi-process execution.
"""

import dataclasses
import json

import pytest

from repro.dist import (
    FleetDeployment,
    FleetEvent,
    FleetSpec,
    SerialExecutor,
    partition,
    reference_fleet,
    run_fleet,
)
from repro.net.fabric import FabricBoundary, ShardMessage, message_sort_key
from repro.sim import MS, Simulator
from repro.sim.engine import SimulationError

#: A fleet small enough for CI: 4 deployments, short runtime, trimmed
#: drain window — still exercising every cross-shard event kind.
def small_fleet(deployments=4, runtime_ns=3 * MS):
    spec = reference_fleet(deployments=deployments, runtime_ns=runtime_ns)
    return dataclasses.replace(spec, drain_ns=3 * MS)


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
    rewired = dataclasses.replace(spec, window_ns=spec.window_ns // 2)
    assert rewired.digest() != spec.digest()


def test_fleet_spec_validation():
    dep = FleetDeployment()
    with pytest.raises(ValueError, match="at least one deployment"):
        FleetSpec(deployments=())
    with pytest.raises(ValueError, match="lookahead"):
        FleetSpec(deployments=(dep, dep), window_ns=2 * MS, crossing_ns=1 * MS)
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


def test_partition_round_robin():
    assert partition(4, 1) == [[0, 1, 2, 3]]
    assert partition(4, 2) == [[0, 2], [1, 3]]
    assert partition(4, 4) == [[0], [1], [2], [3]]
    # More shards than deployments: clamped, never an empty shard.
    assert partition(2, 4) == [[0], [1]]
    with pytest.raises(ValueError):
        partition(4, 0)


def test_windows_cover_horizon_exactly():
    spec = small_fleet()
    horizons = spec.windows()
    assert horizons[-1] == spec.effective_horizon_ns
    assert all(b - a <= spec.window_ns for a, b in zip(horizons, horizons[1:]))
    assert horizons == sorted(set(horizons))


# ----------------------------------------------------------------------
# Fabric boundary
# ----------------------------------------------------------------------
def test_fabric_boundary_enforces_lookahead():
    sim = Simulator(seed=1)
    boundary = FabricBoundary(sim, src=0, crossing_ns=1000)
    msg = boundary.export("rebuild", 1, {"size_kb": 4})
    assert msg.deliver_at_ns == 1000
    with pytest.raises(ValueError, match="lookahead"):
        boundary.export("rebuild", 1, {}, deliver_at_ns=999)
    later = boundary.export("rebuild", 1, {}, deliver_at_ns=5000)
    assert boundary.drain() == [msg, later]
    assert boundary.drain() == []
    assert boundary.exported == 2


def test_shard_message_total_order_and_roundtrip():
    msgs = [
        ShardMessage(200, 1, 0, 0, "rebuild", {}),
        ShardMessage(100, 2, 0, 0, "rebuild", {}),
        ShardMessage(100, 1, 1, 0, "rebuild", {}),
        ShardMessage(100, 1, 0, 0, "rebuild", {}),
    ]
    ordered = sorted(msgs, key=message_sort_key)
    assert [message_sort_key(m) for m in ordered] == sorted(
        message_sort_key(m) for m in msgs
    )
    again = ShardMessage.from_dict(json.loads(json.dumps(msgs[0].to_dict())))
    assert again == msgs[0]


def test_run_window_never_overshoots_past_ghosts():
    # A cancelled timer heading the queue must not let a live event past
    # the horizon fire inside this window.
    sim = Simulator(seed=0)
    fired = []
    ghost = sim.schedule(500, fired.append, "ghost")
    sim.schedule(2000, fired.append, "late")
    ghost.cancel()
    sim.run_window(1000)
    assert sim.now == 1000
    assert fired == []
    sim.run_window(3000)
    assert fired == ["late"]
    with pytest.raises(SimulationError, match="past"):
        sim.run_window(10)


# ----------------------------------------------------------------------
# Determinism across shard layouts
# ----------------------------------------------------------------------
def test_digest_identical_across_shard_counts_in_process():
    """Shard counts 1/2/4 — same digest, same artifacts, same rollup.

    In-process executors keep this case fast; the multi-process identity
    is pinned separately below and in CI's dist --check smoke.
    """
    spec = small_fleet()
    results = {
        shards: run_fleet(spec, shards=shards, executor=SerialExecutor())
        for shards in (1, 2, 4)
    }
    digests = {r.digest for r in results.values()}
    assert len(digests) == 1, digests
    reference = results[1]
    for r in results.values():
        assert r.artifacts == reference.artifacts
        assert r.summary == reference.summary
        assert r.events_processed == reference.events_processed
    # The run did real cross-shard work, so the equality is meaningful.
    assert reference.messages_routed == 3
    assert reference.summary["remote_incidents"] == 1
    assert reference.summary["injected_completed"] > 0
    assert reference.summary["completed"] > 0


def test_digest_identical_under_multiprocess_pool():
    spec = small_fleet(deployments=2)
    serial = run_fleet(spec, shards=1)
    pooled = run_fleet(spec, shards=2)  # LocalPoolExecutor, spawn workers
    assert pooled.shards == 2
    assert pooled.digest == serial.digest
    assert pooled.artifacts == serial.artifacts


def test_dropped_messages_are_counted():
    # An event so close to the horizon its message can never land.
    dep = FleetDeployment(runtime_ns=2 * MS)
    spec = FleetSpec(
        deployments=(dep, dep),
        events=(
            FleetEvent(at_ns=int(3.5 * MS), kind="migration", src=0, dst=1),
        ),
        drain_ns=2 * MS,
    )
    result = run_fleet(spec, shards=1)
    assert result.messages_dropped == 1
    assert result.messages_routed == 0
