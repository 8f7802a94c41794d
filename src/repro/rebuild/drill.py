"""Rebuild drills as lab experiment points.

:func:`execute_rebuild_point` is the re-replication twin of
:func:`repro.lab.runner.execute_point`: a pure function from
(:class:`~repro.lab.spec.ExperimentSpec` with a ``rebuild``, seed) to a
JSON-ready artifact.  The drill runs the spec's closed-loop fio workload
as the *foreground*, kills one storage node at ``fail_at_ns``, lets the
failover orchestrator hand the failure to a
:class:`~repro.rebuild.planner.RebuildPlanner`, and keeps simulating
until the storm drains (bounded).  The artifact carries the standard
aggregate keys plus a ``rebuild`` section: the recovery timeline, the
transfer ledger and the foreground p99 measured *during* the storm — one
(recovery-time, foreground-impact) observation per point, which is the
row `bench_rebuild_storm` plots.

Everything derives from simulated time only, so artifacts are
byte-identical across processes and across ``REPRO_JOBS`` values.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, List, Optional, Tuple

from ..control.failover import FailoverOrchestrator, FailoverPolicy
from ..control.health import HEARTBEAT_LOSS, HealthMonitor, HealthPolicy
from ..ebs import EbsDeployment, VirtualDisk
from ..faults import IoHangMonitor
from ..lab.runner import DRAIN_NS
from ..lab.spec import SCHEMA_VERSION, ExperimentSpec
from ..net.failures import node_failure
from ..sim import MS, SECOND
from ..workloads import FioJob, FioSpec
from .executor import RebuildExecutor
from .planner import RebuildPlanner
from .throttle import make_policy

#: Detection cadence for the drill's health monitor: tight, so the
#: recovery clock is dominated by data movement, not heartbeat misses.
_HEARTBEAT_NS = 1 * MS
_MISS_THRESHOLD = 2
#: Control-plane decision + table-push latency before the plan runs.
_REROUTE_DELAY_NS = 2 * MS
#: Hard ceiling on how long the drill waits for the storm to drain.
_STORM_BOUND_NS = 5 * SECOND
_STORM_STEP_NS = 10 * MS


def _percentile(samples: List[int], q: float) -> Optional[int]:
    if not samples:
        return None
    ordered = sorted(samples)
    idx = max(0, min(len(ordered) - 1, math.ceil(q / 100 * len(ordered)) - 1))
    return ordered[idx]


def execute_rebuild_point(spec: ExperimentSpec, seed: int) -> Dict[str, Any]:
    """Run one re-replication storm drill point and return its artifact."""
    rb = spec.rebuild
    if rb is None:
        raise ValueError(f"spec {spec.name!r} has no rebuild plan")
    w = spec.workload

    dep = EbsDeployment(dataclasses.replace(spec.deployment, seed=seed))
    host = dep.compute_host_names()[0]
    vd = VirtualDisk(
        dep, "lab-vd0", host, spec.vd_size_mb * 1024 * 1024, replicas=rb.replicas
    )
    hang_monitor = IoHangMonitor(dep.sim, threshold_ns=spec.hang_threshold_ns)
    health = HealthMonitor(
        dep.sim,
        HealthPolicy(
            heartbeat_interval_ns=_HEARTBEAT_NS, miss_threshold=_MISS_THRESHOLD
        ),
    )
    policy = make_policy(
        rb.policy,
        rate_bps=rb.rate_gbps * 1e9,
        deadline_ns=rb.deadline_ms * MS,
        target_p99_ns=rb.target_p99_us * 1_000,
    )
    executor = RebuildExecutor(
        dep,
        policy,
        swarm=(rb.mode == "swarm"),
        chunk_bytes=rb.chunk_kb * 1024,
        max_active_transfers=rb.max_active_transfers,
    )
    planner = RebuildPlanner(dep, executor, health)
    orchestrator = FailoverOrchestrator(
        dep,
        health,
        planner,
        FailoverPolicy(reroute_delay_ns=_REROUTE_DELAY_NS),
    )
    orchestrator.watch_storage()

    plane = None
    if spec.telemetry is not None or rb.policy == "reactive":
        # The reactive policy is *fed by* telemetry sketches — the plane is
        # part of its control loop, not optional equipment.
        from ..telemetry.plane import TelemetryPlane

        t = spec.telemetry
        plane = TelemetryPlane(
            dep,
            interval_ns=t.interval_ns if t is not None else 1 * MS,
            slo_ns=t.slo_ns if t is not None else 500_000,
            relative_accuracy=t.relative_accuracy if t is not None else 0.01,
        )
        plane.watch_vd(vd)
        plane.watch_rebuild(executor)

    # Timestamped foreground completions, for the during-storm p99 window.
    fg_samples: List[Tuple[int, int]] = []

    def observe(io) -> None:
        if io.trace is not None and io.trace.ok:
            fg_samples.append((dep.sim.now, io.trace.total_ns))

    vd.subscribe(observe)

    # The fault: one storage node dies (all uplinks down -> heartbeats stop).
    victims = sorted(dep.storage_servers)
    victim = victims[rb.node_index % len(victims)]
    scenario = node_failure(victim)
    dep.sim.schedule_at(rb.fail_at_ns, scenario.apply, dep.topology)

    until = spec.until_ns
    if until is None:
        until = w.horizon_ns + DRAIN_NS + spec.hang_threshold_ns
    bound = max(until, rb.fail_at_ns) + _STORM_BOUND_NS
    health.start(until_ns=bound)
    if plane is not None:
        plane.start(until_ns=bound)

    job = FioJob(
        dep.sim,
        vd,
        FioSpec(
            block_sizes=w.block_sizes,
            iodepth=w.iodepth,
            read_fraction=w.read_fraction,
            runtime_ns=w.runtime_ns,
            pattern=w.pattern,
            name="rebuild-fg",
        ),
        on_issue=hang_monitor.watch,
    )
    job.start()
    dep.run(until_ns=until)
    # Let the storm drain past the workload horizon (bounded): the sweep
    # and scrape timers keep the heap non-empty, so run in fixed steps.
    while executor.busy and dep.sim.now < bound:
        dep.run(until_ns=min(bound, dep.sim.now + _STORM_STEP_NS))

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    heartbeat_incidents = [
        i for i in health.incidents_of(HEARTBEAT_LOSS) if i.node == victim
    ]
    detected_ns = (
        heartbeat_incidents[0].detected_ns if heartbeat_incidents else None
    )
    planned_ns = min(
        (r.planned_ns for r in planner.records), default=None
    )
    completed_ns = None
    if planner.records and all(
        r.done and r.completed_ns is not None for r in planner.records
    ):
        completed_ns = max(r.completed_ns for r in planner.records)
    complete = (
        completed_ns is not None
        and not executor.busy
        and planner.stalled_count == 0
    )
    storm_end = completed_ns if completed_ns is not None else dep.sim.now
    during = [
        lat for (t, lat) in fg_samples if rb.fail_at_ns <= t <= storm_end
    ]
    overall = [lat for (_t, lat) in fg_samples]

    ok_traces = dep.collector.completed()
    component_ns = {
        c: sum(t.components[c] for t in ok_traces) for c in ("sa", "fn", "bn", "ssd")
    }
    artifact: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "digest": spec.point_digest(seed),
        "name": spec.name,
        "stack": spec.deployment.stack,
        "seed": seed,
        "workload_mode": "rebuild",
        "issued": job.issues,
        "completed": job.completed,
        "failed": job.failed,
        "hangs": hang_monitor.hangs,
        "watched": hang_monitor.watched,
        "bytes_moved": job.bytes_moved,
        "duration_ns": job.result().duration_ns,
        "sim_ns": dep.sim.now,
        "events": dep.sim.events_processed,
        "latency_ns": list(job.latency.samples),
        "component_ns": component_ns,
        "component_count": len(ok_traces),
        "rebuild": {
            "policy": policy.describe(),
            "mode": rb.mode,
            "victim": victim,
            "chunk_kb": rb.chunk_kb,
            "replicas": rb.replicas,
            "fail_at_ns": rb.fail_at_ns,
            "detected_ns": detected_ns,
            "planned_ns": planned_ns,
            "completed_ns": completed_ns,
            "recovery_ns": planner.recovery_ns(),
            "complete": complete,
            "ledger": planner.audit(),
            "bytes_rebuilt": executor.bytes_done,
            "chunks_copied": executor.chunks_copied,
            "rebuild_reads": sum(
                cs.rebuild_reads_served for cs in dep.chunk_servers.values()
            ),
            "rebuild_writes": sum(
                cs.rebuild_writes_served for cs in dep.chunk_servers.values()
            ),
            "foreground": {
                "samples": len(overall),
                "samples_during_storm": len(during),
                "p50_ns": _percentile(overall, 50),
                "p99_ns": _percentile(overall, 99),
                "p99_during_storm_ns": _percentile(during, 99),
                "max_during_storm_ns": max(during) if during else None,
            },
        },
    }
    if spec.telemetry is not None and plane is not None:
        artifact["telemetry"] = plane.summary()
    return artifact
