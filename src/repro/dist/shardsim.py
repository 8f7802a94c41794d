"""Deployment simulation: one fleet deployment as an independent point.

Each deployment runs in its **own** :class:`~repro.sim.Simulator` — a
:class:`DeploymentSim` bundles the member's :class:`~repro.lab.rig.Rig`
(the EBS deployment, hang/health monitoring, faults, the VD and its fio
load) with the effects of the fleet's cross-deployment events.  Those
effects are a function of the spec alone (an event lands on its
destination at ``at_ns + crossing_ns`` carrying its own fields), so
both ends are scheduled when the deployment is built and the deployment
then runs to the horizon without ever hearing from its peers.

:func:`run_deployment` is the point function: picklable arguments in,
one JSON-ready artifact out, in whichever process runs it.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..lab.rig import Rig
from ..net.failures import switch_blackhole
from ..rebuild.planner import spillover_schedule
from ..telemetry.sketch import QuantileSketch
from .fleet import FleetEvent, FleetSpec

#: Chunk size for injected cross-deployment streams (rebuild spillover
#: and migrated rebuild reads) — one BN-friendly unit, block aligned.
INJECT_CHUNK_BYTES = 64 * 1024


class DeploymentSim:
    """One fleet deployment in its own simulator, every event of its
    fleet that touches it already scheduled."""

    def __init__(self, fleet: FleetSpec, index: int):
        self.fleet = fleet
        self.index = index
        member = fleet.deployments[index]
        rig = Rig(member, member.seeds[0])
        self.deployment = rig.deployment
        self.sim = rig.sim
        self.health = rig.health
        self.hangs = rig.hangs
        self.vd = rig.add_vd(f"dist-vd{index}")
        self.job = rig.fio_job(self.vd, f"dist-d{index}")
        self.injected_issued = 0
        self.injected_completed = 0
        self.injected_failed = 0
        self.injected_bytes = 0
        self._inject_cursor = 0
        self.sim.call_soon(self.job.start)
        outbound = [e for e in fleet.events if e.src == index]
        for event in outbound:
            self.sim.schedule_at_fire(event.at_ns, self._fire_event, event)
        # Inbound effects in (at_ns, src) order, stable over spec order:
        # one destination applies same-instant arrivals in that order.
        inbound = sorted(
            (e for e in fleet.events if e.dst == index),
            key=lambda e: (e.at_ns, e.src),
        )
        for event in inbound:
            self.sim.schedule_at_fire(
                event.at_ns + fleet.crossing_ns, self._apply_event, event
            )
        self.messages_out = len(outbound)
        self.messages_in = len(inbound)

    # -- source-side event effects --------------------------------------
    def _fire_event(self, event: FleetEvent) -> None:
        if event.kind == "node_fault":
            # The dead node's segments are re-read from survivors here
            # (paced at the rebuild rate) while the re-replication write
            # stream spills over to the destination deployment's BN.
            self.health.declare(
                "node-fault", f"d{self.index}", detail=f"rebuild -> d{event.dst}"
            )
            for at_ns, size in spillover_schedule(
                event.size_kb * 1024,
                INJECT_CHUNK_BYTES,
                event.rate_gbps,
                start_ns=self.sim.now,
            ):
                self.sim.schedule_at_fire(at_ns, self._inject, "read", size)
        elif event.kind == "migration":
            # The guest leaves: its load stops being ours the moment the
            # destination picks it up.  Locally that is only a ledger
            # entry — the paced write burst happens at the destination.
            self.health.declare(
                "migration-out", f"d{self.index}", detail=f"vd -> d{event.dst}"
            )
        else:  # incident
            scenario = switch_blackhole("spine", event.param, 0)
            scenario.apply(self.deployment.topology)
            self.sim.schedule_fire(
                event.duration_ns, scenario.revert, self.deployment.topology
            )
            self.health.declare(
                "fabric-incident",
                f"d{self.index}",
                detail=f"spine blackhole {event.param:.0%}",
            )

    # -- destination-side event effects ---------------------------------
    def _apply_event(self, event: FleetEvent) -> None:
        if event.kind == "node_fault":
            # Remote re-replication lands as real paced BN writes.
            for at_ns, size in spillover_schedule(
                event.size_kb * 1024,
                INJECT_CHUNK_BYTES,
                event.rate_gbps,
                start_ns=self.sim.now,
            ):
                self.sim.schedule_at_fire(at_ns, self._inject, "write", size)
        elif event.kind == "migration":
            # The migrated guest's write stream resumes here.
            size = event.size_kb * 1024
            for k in range(event.count):
                self.sim.schedule_at_fire(
                    self.sim.now + k * event.gap_ns, self._inject, "write", size
                )
        else:  # incident
            self.health.report_remote(
                f"d{event.src}", event.kind, detail=f"spine blackhole {event.param}"
            )
            scenario = switch_blackhole(
                "spine", event.param, 0, salt=f"remote{event.src}"
            )
            scenario.apply(self.deployment.topology)
            self.sim.schedule_fire(
                event.duration_ns, scenario.revert, self.deployment.topology
            )

    def _inject(self, kind: str, size: int) -> None:
        slots = self.vd.size_bytes // size
        offset = (self._inject_cursor % slots) * size
        self._inject_cursor += 1
        self.injected_issued += 1
        if kind == "read":
            io = self.vd.read(offset, size, self._injected_done)
        else:
            io = self.vd.write(offset, size, self._injected_done)
        self.hangs.watch(io)

    def _injected_done(self, io) -> None:
        if io.trace is not None and io.trace.ok:
            self.injected_completed += 1
            self.injected_bytes += io.size_bytes
        else:
            self.injected_failed += 1

    def run(self) -> None:
        """Run to the fleet horizon."""
        self.sim.run(until=self.fleet.effective_horizon_ns)

    def finish(self) -> Dict[str, Any]:
        """The deployment's artifact — simulated data only, so it is
        byte-identical in every process."""
        sketch = QuantileSketch()
        for sample in self.job.latency.samples:
            sketch.add(sample)
        return {
            "index": self.index,
            "stack": self.fleet.deployments[self.index].deployment.stack,
            "issued": self.job.issues,
            "completed": self.job.completed,
            "failed": self.job.failed,
            "bytes_moved": self.job.bytes_moved,
            "hangs": self.hangs.hangs,
            "incidents": len(self.health.incidents),
            "remote_incidents": len(self.health.incidents_of("remote-incident")),
            "messages_out": self.messages_out,
            "messages_in": self.messages_in,
            "injected_issued": self.injected_issued,
            "injected_completed": self.injected_completed,
            "injected_failed": self.injected_failed,
            "injected_bytes": self.injected_bytes,
            "events_processed": self.sim.events_processed,
            "end_ns": self.sim.now,
            "latency": sketch.to_dict(),
        }


class ShardState:
    """A set of a fleet's deployments, built in this process."""

    def __init__(self, fleet: FleetSpec, indices: List[int]):
        self.fleet = fleet
        self.indices = list(indices)
        self.sims = {index: DeploymentSim(fleet, index) for index in self.indices}

    def run(self) -> None:
        for index in self.indices:
            self.sims[index].run()

    def finish(self) -> Dict[int, Dict[str, Any]]:
        return {index: self.sims[index].finish() for index in self.indices}


def run_deployment(spec_json: str, index: int) -> Dict[str, Any]:
    """Point function: build deployment ``index`` of the fleet, run it
    to the horizon and return its artifact."""
    state = ShardState(FleetSpec.from_json(spec_json), [index])
    state.run()
    return state.finish()[index]
