"""NVMe command interface between the guest OS and the hypervisor/DPU.

Guests see EBS virtual disks as NVMe PCIe devices (§3.3: "VM views EBS as
a PCIe device"), so every I/O enters the SA as an NVMe command and is
completed by ringing a doorbell back to the guest (Figure 12/13).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim.engine import Simulator


class NvmeError(RuntimeError):
    """Raised when the submission queue overflows (guest sees device busy)."""


class NvmeQueue:
    """A guest-visible NVMe submission/completion queue pair."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        submit_latency_ns: int = 1_500,
        doorbell_ns: int = 400,
        queue_depth: int = 1024,
    ):
        self.sim = sim
        self.name = name
        self.submit_latency_ns = submit_latency_ns
        self.doorbell_ns = doorbell_ns
        self.queue_depth = queue_depth
        self.inflight = 0
        self.submitted = 0
        self.completed = 0

    def submit(self, command: Any, handler: Callable[[Any], None]) -> None:
        """Guest posts a command; ``handler`` (the SA) receives it after the
        submission latency."""
        if self.inflight >= self.queue_depth:
            raise NvmeError(
                f"{self.name}: submission queue full ({self.queue_depth} inflight)"
            )
        self.inflight += 1
        self.submitted += 1
        self.sim.schedule_fire(self.submit_latency_ns, handler, command)

    def complete(
        self, command: Any, callback: Optional[Callable[[Any], None]] = None
    ) -> None:
        """Device rings the completion doorbell back to the guest."""
        if self.inflight <= 0:
            raise NvmeError(f"{self.name}: completion without a submission")
        self.inflight -= 1
        self.completed += 1
        if callback is not None:
            self.sim.schedule_fire(self.doorbell_ns, callback, command)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NvmeQueue {self.name} inflight={self.inflight}>"
