"""Rebuild drills as lab experiment points.

:func:`execute_rebuild_point` is the re-replication twin of
:func:`repro.lab.runner.execute_point`: a pure function from
(:class:`~repro.lab.spec.ExperimentSpec` with a ``rebuild``, seed) to a
JSON-ready artifact.  The drill runs on the point's
:class:`~repro.lab.rig.Rig` — so the spec's faults and telemetry apply as
they do to any point — with the spec's closed-loop fio workload as the
*foreground*.  It kills one storage node at ``fail_at_ns``, lets the
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

import math
from typing import Any, Dict, List, Optional, Tuple

from ..control.health import HEARTBEAT_LOSS, HealthPolicy
from ..lab.rig import Rig
from ..lab.spec import ExperimentSpec
from ..net.failures import node_failure
from ..sim import MS, SECOND
from .planner import build_recovery

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
    rig = Rig(
        spec,
        seed,
        health_policy=HealthPolicy(
            heartbeat_interval_ns=_HEARTBEAT_NS, miss_threshold=_MISS_THRESHOLD
        ),
    )
    dep, health = rig.deployment, rig.health
    vd = rig.add_vd("lab-vd0")
    orchestrator = build_recovery(
        dep, health, rb, reroute_delay_ns=_REROUTE_DELAY_NS, plane=rig.plane
    )
    planner = orchestrator.planner
    executor = planner.executor

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
    dep.sim.schedule_at_fire(rb.fail_at_ns, scenario.apply, dep.topology)

    bound = max(rig.until_ns, rb.fail_at_ns) + _STORM_BOUND_NS
    health.start(until_ns=bound)
    rig.start(until_ns=bound)
    job = rig.fio_job(vd, "rebuild-fg")
    job.start()
    rig.run()
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

    return {
        **rig.artifact("rebuild", job.issues, job.completed, job.failed,
                       job.bytes_moved, job.result().duration_ns,
                       job.latency.samples),
        "rebuild": {
            "policy": executor.policy.describe(),
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
