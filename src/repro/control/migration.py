"""VD live migration: pause → drain → re-attach, with phase accounting.

The paper's hot-upgrade mechanism (§5) moves a virtual disk's frontend
between FN stacks without failing guest I/O: admission stops, in-flight
I/Os drain, and the VD re-attaches through the new stack.  The guest
perceives only a short submission stall — never an error — so the Table 2
metric (I/Os unanswered ≥ 1s) stays at zero as long as the drain is fast.

:class:`LiveMigration` reproduces those phases as simulator events and
reports per-phase latency, which the rolling-upgrade engine aggregates
into per-wave availability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..ebs.deployment import EbsDeployment
from ..ebs.virtual_disk import VdStateError, VirtualDisk
from ..sim.engine import Simulator
from ..sim.events import US, format_ns

#: Default control-plane cost of re-attaching a VD through a new frontend
#: stack (table installation + NVMe namespace re-plumb).  A tunable
#: control constant, not a calibrated profile value.
DEFAULT_ATTACH_NS = 500 * US

PHASES = ("pause", "drain", "attach")


class MigrationAbortedError(VdStateError):
    """A migration drain exceeded its timeout with no abort handler.

    Raised (inside the simulation event) when a fault strands in-flight
    I/O mid-drain and the caller gave no ``on_abort`` — the typed surface
    for what used to be a silent wedge: a VD paused forever waiting for
    an I/O that a dead node will never answer.
    """


@dataclass
class MigrationReport:
    """Timeline of one completed VD migration."""

    vd_id: str
    source_host: str
    target_host: str
    source_stack: str
    target_stack: str
    started_ns: int
    drained_ns: int = 0
    attached_ns: int = 0
    inflight_at_pause: int = 0
    #: Set when the drain timed out (fault mid-drain) and the migration
    #: was rolled back: the source VD resumed, nothing re-attached.
    aborted: bool = False
    aborted_ns: int = 0

    @property
    def drain_ns(self) -> int:
        return self.drained_ns - self.started_ns

    @property
    def attach_ns(self) -> int:
        return self.attached_ns - self.drained_ns

    @property
    def downtime_ns(self) -> int:
        """Guest-visible submission stall: pause to re-attach."""
        return self.attached_ns - self.started_ns

    def phase_ns(self) -> Dict[str, int]:
        """Per-phase latency; ``pause`` is the instantaneous marker."""
        return {"pause": 0, "drain": self.drain_ns, "attach": self.attach_ns}


class LiveMigration:
    """Executes pause → drain → attach sequences on one simulator.

    ``drain_timeout_ns`` bounds the drain phase: a fault that strands
    in-flight I/O on the source must not leave the VD wedged half-migrated
    (paused forever, guest stalled).  When the timeout fires before the
    drain completes, the migration aborts — the source VD resumes
    admission and ``on_abort`` (or :class:`MigrationAbortedError`)
    surfaces the failure as a typed event the control plane can react to.
    ``None`` disables the timeout (the pre-chaos behavior).
    """

    def __init__(
        self,
        sim: Simulator,
        attach_latency_ns: int = DEFAULT_ATTACH_NS,
        drain_timeout_ns: Optional[int] = None,
    ):
        if attach_latency_ns < 0:
            raise ValueError(f"negative attach latency: {attach_latency_ns}")
        if drain_timeout_ns is not None and drain_timeout_ns <= 0:
            raise ValueError(f"drain timeout must be positive: {drain_timeout_ns}")
        self.sim = sim
        self._timers = sim.timers()
        self.attach_latency_ns = attach_latency_ns
        self.drain_timeout_ns = drain_timeout_ns
        self.completed: int = 0
        self.aborted: int = 0

    def migrate(
        self,
        vd: VirtualDisk,
        target: EbsDeployment,
        target_host: str,
        on_done: Callable[[VirtualDisk, MigrationReport], None],
        on_abort: Optional[Callable[[VirtualDisk, MigrationReport], None]] = None,
    ) -> MigrationReport:
        """Move ``vd`` onto ``target_host`` of the ``target`` deployment.

        The target may be the same deployment (host-to-host migration) or
        a different FN stack sharing the simulator (hot upgrade).  Calls
        ``on_done(new_vd, report)`` when the new attachment is live, or
        ``on_abort(vd, report)`` if the drain timed out (the source VD is
        already resumed by then).
        """
        if vd.detached:
            raise ValueError(f"VD {vd.vd_id!r} is already detached")
        if target_host not in target.compute_servers:
            raise KeyError(
                f"{target_host!r} is not a compute host of the target; "
                f"options: {target.compute_host_names()}"
            )
        report = MigrationReport(
            vd_id=vd.vd_id,
            source_host=vd.host_name,
            target_host=target_host,
            source_stack=vd.deployment.spec.stack,
            target_stack=target.spec.stack,
            started_ns=self.sim.now,
            inflight_at_pause=len(vd.inflight),
        )
        vd.pause()
        timer = None
        if self.drain_timeout_ns is not None:
            timer = self._timers.add(
                self.drain_timeout_ns, self._drain_timeout, vd, report, on_abort
            )
        vd.when_drained(
            lambda: self._drained(vd, target, target_host, report, on_done, timer)
        )
        return report

    # ------------------------------------------------------------------
    def _drain_timeout(
        self,
        vd: VirtualDisk,
        report: MigrationReport,
        on_abort: Optional[Callable[[VirtualDisk, MigrationReport], None]],
    ) -> None:
        if report.drained_ns or report.aborted:
            return  # drained in time; stale timer
        report.aborted = True
        report.aborted_ns = self.sim.now
        self.aborted += 1
        # Roll back: re-admit guest I/O on the source.  The stuck I/Os
        # stay in flight (the hang monitor owns that story); the guest
        # sees a bounded stall instead of an indefinite wedge.
        vd.resume()
        if on_abort is not None:
            on_abort(vd, report)
        else:
            raise MigrationAbortedError(
                f"migration of VD {report.vd_id!r} "
                f"{report.source_stack}->{report.target_stack} aborted: "
                f"{len(vd.inflight)} I/O(s) still in flight after "
                f"{format_ns(self.drain_timeout_ns)} drain timeout"
            )

    def _drained(
        self,
        vd: VirtualDisk,
        target: EbsDeployment,
        target_host: str,
        report: MigrationReport,
        on_done: Callable[[VirtualDisk, MigrationReport], None],
        timer,
    ) -> None:
        if report.aborted:
            return  # the drain finally completed, but the abort won
        if timer is not None:
            self._timers.cancel(timer)
        report.drained_ns = self.sim.now
        self.sim.schedule_fire(
            self.attach_latency_ns,
            self._attach, vd, target, target_host, report, on_done,
        )

    def _attach(
        self,
        vd: VirtualDisk,
        target: EbsDeployment,
        target_host: str,
        report: MigrationReport,
        on_done: Callable[[VirtualDisk, MigrationReport], None],
    ) -> None:
        vd.detach()
        new_vd = VirtualDisk(
            target,
            vd.vd_id,
            target_host,
            vd.size_bytes,
            # Re-visiting a deployment the VD lived on before (e.g. a
            # rollback) must not re-provision its segments.
            provision=not target.has_vd(vd.vd_id),
        )
        target.refresh_vd(vd.vd_id)
        report.attached_ns = self.sim.now
        self.completed += 1
        on_done(new_vd, report)
