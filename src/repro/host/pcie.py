"""PCIe interconnect model.

§4.2: ALI-DPU's internal PCIe is "far less than 100Gbps" while the NIC is
2x25GE, so a datapath that crosses it twice (LUNA and RDMA in Figure 10)
hits the "PCIe goodput bottleneck" line of Figure 14.  The model is a
serial bandwidth resource: transfers serialize at the configured rate and
pay a fixed per-transfer latency.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..profiles import bytes_time_ns
from ..sim.engine import Simulator


class PcieLink:
    """A shared serial bandwidth resource (both directions contend)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        gbps: float,
        per_transfer_latency_ns: int = 900,
    ):
        if gbps <= 0:
            raise ValueError(f"PCIe bandwidth must be positive: {gbps}")
        self.sim = sim
        self.name = name
        self.gbps = gbps
        self.per_transfer_latency_ns = per_transfer_latency_ns
        self.busy_until = 0
        self.bytes_moved = 0
        self.transfers = 0

    def transfer(
        self,
        size_bytes: int,
        callback: Optional[Callable[..., Any]] = None,
        *args: Any,
        not_before: int = 0,
    ) -> int:
        """Move ``size_bytes`` across the link, starting no earlier than
        ``not_before``; returns the completion time."""
        if size_bytes < 0:
            raise ValueError(f"negative transfer size: {size_bytes}")
        start = max(self.sim.now, not_before, self.busy_until)
        done = start + bytes_time_ns(size_bytes, self.gbps) + self.per_transfer_latency_ns
        self.busy_until = done
        self.bytes_moved += size_bytes
        self.transfers += 1
        if callback is not None:
            self.sim.schedule_at_fire(done, callback, *args)
        return done

    def goodput_gbps(self, window_ns: int) -> float:
        """Achieved goodput over a window, in Gbps."""
        if window_ns <= 0:
            return 0.0
        return self.bytes_moved * 8 / window_ns  # bytes*8 / ns == Gbps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PcieLink {self.name} {self.gbps}G busy_until={self.busy_until}>"
