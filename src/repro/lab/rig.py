"""One rig: a single deployment wired for one run.

Every run in the package — a lab point, a drill, a fleet member, a controlled
cluster's stack, a CLI command — runs the paper's one SA → FN → BN → SSD
path watched for I/O hangs.  :class:`Rig` makes each wiring decision of
that assembly once, from an :class:`~repro.lab.spec.ExperimentSpec` and a
seed.  Hang routing: a hung I/O goes to the telemetry plane when there
is one (which counts and diagnoses it, then reports it to the health
monitor), otherwise straight to the health monitor.  A rig that joins
another shares its clock and health monitor; the rest is its own.
Callers keep their VD ids and job names (they key RNG streams), when the
load starts, and their read-out.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, Optional, Sequence

from ..control.health import HealthMonitor, HealthPolicy
from ..ebs import EbsDeployment, VirtualDisk
from ..faults import IoHangMonitor, TimedFault
from ..sim import MS
from ..workloads import FioJob, FioSpec
from .spec import SCHEMA_VERSION, ExperimentSpec, TelemetrySpec

#: Simulated-time slack past the workload horizon for in-flight I/Os.
DRAIN_NS = 100 * MS


class Rig:
    """One deployment with its monitors, plane and faults, ready to load."""

    def __init__(self, spec: ExperimentSpec, seed: int,
                 health_policy: HealthPolicy = HealthPolicy(),
                 drain_ns: int = DRAIN_NS, recorder=None,
                 join: Optional[Rig] = None):
        self.spec = spec
        self.seed = seed
        self.deployment = EbsDeployment(
            dataclasses.replace(spec.deployment, seed=seed),
            sim=None if join is None else join.sim,
        )
        self.sim = self.deployment.sim
        self.health = HealthMonitor(self.sim, health_policy) if join is None else join.health
        telemetry = spec.telemetry
        if telemetry is None and spec.rebuild is not None and spec.rebuild.policy == "reactive":
            # The reactive throttle is fed by the plane's sketches: the
            # plane is part of its control loop, not optional equipment.
            telemetry = TelemetrySpec()
        self.plane = None
        if telemetry is not None:
            # Lazy import: the plane is optional equipment, and a run
            # without one never loads it.
            from ..telemetry.plane import TelemetryPlane

            self.plane = TelemetryPlane(
                self.deployment, telemetry.interval_ns, telemetry.slo_ns,
                telemetry.relative_accuracy, health=self.health, recorder=recorder,
            )
        self.hangs = IoHangMonitor(
            self.sim, spec.hang_threshold_ns,
            on_hang=self.health.report_hang if self.plane is None else self.plane.on_hang,
        )
        for fault in spec.faults:
            TimedFault(fault.build(), fault.start_ns, fault.end_ns).schedule(
                self.sim, self.deployment.topology
            )
        until = spec.until_ns
        if until is None:
            until = spec.workload.horizon_ns + drain_ns
            # Hang checks fire one threshold after issue; only pay for
            # that window when a fault or a node kill can cause hangs.
            if spec.faults or spec.rebuild is not None:
                until += spec.hang_threshold_ns
        self.until_ns = until

    def add_vd(self, vd_id: str, host: Optional[str] = None) -> VirtualDisk:
        """Provision one VD (on the first compute host by default) and show
        it to the plane.  A rebuild drill's VD gets the drill's replicas."""
        if host is None:
            host = self.deployment.compute_host_names()[0]
        rb = self.spec.rebuild
        vd = VirtualDisk(
            self.deployment, vd_id, host, self.spec.vd_size_mb * 1024 * 1024,
            replicas=3 if rb is None else rb.replicas,
        )
        if self.plane is not None:
            self.plane.watch_vd(vd)
        return vd

    def fio_job(self, vd: VirtualDisk, name: str) -> FioJob:
        """The spec's fio workload on ``vd``, every I/O hang-watched."""
        w = self.spec.workload
        fio = FioSpec(block_sizes=w.block_sizes, iodepth=w.iodepth,
                      read_fraction=w.read_fraction, runtime_ns=w.runtime_ns,
                      pattern=w.pattern, name=name)
        return FioJob(self.sim, vd, fio, on_issue=self.hangs.watch)

    def start(self, until_ns: Optional[int] = None) -> None:
        """Start the plane's scrapes, bounded by the run (or ``until_ns``)."""
        if self.plane is not None:
            self.plane.start(until_ns=self.until_ns if until_ns is None else until_ns)

    def run(self) -> None:
        self.deployment.run(until_ns=self.until_ns)

    def artifact(self, *measured) -> Dict[str, Any]:
        """:func:`lab_artifact` of this rig's point, plus ``telemetry``
        when the spec asked for it."""
        artifact = lab_artifact(self.spec, self.seed, [self], *measured)
        if self.spec.telemetry is not None:
            artifact["telemetry"] = self.plane.summary()
        return artifact


def lab_artifact(spec: ExperimentSpec, seed: int, rigs: Iterable[Rig], mode: str,
                 issued: int, completed: int, failed: int, bytes_moved: int,
                 duration_ns: int, latency_ns: Sequence[int]) -> Dict[str, Any]:
    """The keys every lab artifact shares, for the (spec, seed) point run
    on ``rigs`` (one clock; hangs and trace time are summed over them).
    Simulated values only, so the same point always yields the same bytes."""
    rigs = list(rigs)
    sim = rigs[0].sim
    ok_traces = [t for rig in rigs for t in rig.deployment.collector.completed()]
    return {
        "schema": SCHEMA_VERSION,
        "digest": spec.point_digest(seed),
        "name": spec.name,
        "stack": spec.deployment.stack,
        "seed": seed,
        "workload_mode": mode,
        "issued": issued,
        "completed": completed,
        "failed": failed,
        "hangs": sum(rig.hangs.hangs for rig in rigs),
        "watched": sum(rig.hangs.watched for rig in rigs),
        "bytes_moved": bytes_moved,
        "duration_ns": duration_ns,
        "sim_ns": sim.now,
        "events": sim.events_processed,
        "latency_ns": list(latency_ns),
        "component_ns": {
            c: sum(t.components[c] for t in ok_traces)
            for c in ("sa", "fn", "bn", "ssd")
        },
        "component_count": len(ok_traces),
    }
