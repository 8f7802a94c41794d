"""Upgrade drills as lab experiment points.

:func:`execute_upgrade_point` is the control-plane twin of
:func:`repro.lab.runner.execute_point`: a pure function from
(:class:`~repro.lab.spec.ExperimentSpec` with an ``upgrade``, seed) to a
JSON-ready artifact.  The artifact carries the same aggregate-facing keys
as a plain workload point (``latency_ns``, ``completed``,
``component_ns``, ...) so ``repro.lab.results.aggregate`` and the result
store work unchanged, plus the rollout-specific ``waves`` and
``migrations`` tables that the CLI and ``bench_upgrade_drill`` render.

Everything in the artifact derives from the simulation, never from wall
clocks, so a drill point is byte-identical under ``canonical_json``
across processes and across serial vs parallel sweeps.
"""

from __future__ import annotations

from typing import Any, Dict

from ..lab import rig as lab_rig  # the module: see control/cluster.py
from ..lab.spec import UPGRADE_ORDER, ExperimentSpec
from .cluster import ControlledCluster
from .upgrade import RollingUpgradeEngine, UpgradeResult, WaveReport


def build_cluster(spec: ExperimentSpec, seed: int) -> ControlledCluster:
    """Construct the controlled fleet an upgrade spec describes."""
    plan = spec.upgrade
    if plan is None:
        raise ValueError(f"spec {spec.name!r} has no upgrade plan")
    lo = UPGRADE_ORDER.index(plan.from_stack)
    hi = UPGRADE_ORDER.index(plan.to_stack)
    return ControlledCluster(spec, UPGRADE_ORDER[lo : hi + 1], plan.servers, seed)


def result_to_artifact(
    spec: ExperimentSpec, seed: int, cluster: ControlledCluster, result: UpgradeResult
) -> Dict[str, Any]:
    """Flatten an :class:`UpgradeResult` into the lab artifact layout:
    the keys every lab artifact shares, read off the cluster's rigs, plus
    the rollout's own."""
    plan = result.plan
    artifact = lab_rig.lab_artifact(
        spec, seed, cluster.rigs.values(), "upgrade", result.issued,
        result.completed, result.failed, result.completed * plan.io_size_bytes,
        plan.total_waves * plan.wave_window_ns,
        [latency for _issue, latency, _srv in cluster.samples],
    )
    artifact.update({
        "stack": f"{plan.from_stack}->{plan.to_stack}",
        "deferred": result.deferred,
        "servers": result.servers,
        "migrations": [
            {
                "vd_id": r.vd_id,
                "source_stack": r.source_stack,
                "target_stack": r.target_stack,
                "source_host": r.source_host,
                "target_host": r.target_host,
                "started_ns": r.started_ns,
                "drained_ns": r.drained_ns,
                "attached_ns": r.attached_ns,
                "inflight_at_pause": r.inflight_at_pause,
                "downtime_ns": r.downtime_ns,
            }
            for r in cluster.migration_reports
        ],
        "waves": [
            {
                "index": w.index,
                "kind": w.kind,
                "start_ns": w.start_ns,
                "end_ns": w.end_ns,
                "mix": w.mix,
                "completed": w.completed,
                "mean_latency_ns": w.mean_latency_ns,
                "iops_per_server": w.iops_per_server,
                "availability": w.availability,
                "migrations": w.migrations,
            }
            for w in result.waves
        ],
    })
    return artifact


def execute_upgrade_point(spec: ExperimentSpec, seed: int) -> Dict[str, Any]:
    """Run one rolling-upgrade drill point and return its artifact."""
    cluster = build_cluster(spec, seed)
    engine = RollingUpgradeEngine(cluster, spec.upgrade)
    result = engine.run()
    return result_to_artifact(spec, seed, cluster, result)


def artifact_to_result(spec: ExperimentSpec, artifact: Dict[str, Any]) -> UpgradeResult:
    """Rehydrate an :class:`UpgradeResult` from a stored artifact.

    The inverse of :func:`result_to_artifact` (modulo per-migration
    detail), so cached drill points can be re-validated and re-rendered
    without re-simulating.
    """
    plan = spec.upgrade
    if plan is None:
        raise ValueError(f"spec {spec.name!r} has no upgrade plan")
    waves = [
        WaveReport(
            index=w["index"],
            kind=w["kind"],
            start_ns=w["start_ns"],
            end_ns=w["end_ns"],
            mix=dict(w["mix"]),
            completed=w["completed"],
            mean_latency_ns=w["mean_latency_ns"],
            iops_per_server=w["iops_per_server"],
            availability=w["availability"],
            migrations=w["migrations"],
        )
        for w in artifact["waves"]
    ]
    return UpgradeResult(
        plan=plan,
        servers=artifact["servers"],
        waves=waves,
        issued=artifact["issued"],
        completed=artifact["completed"],
        failed=artifact["failed"],
        deferred=artifact["deferred"],
        hangs=artifact["hangs"],
        watched=artifact["watched"],
        migrations=len(artifact["migrations"]),
    )
