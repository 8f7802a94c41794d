"""Trace-driven workloads: replay recorded I/O streams anywhere.

Production analyses (like the paper's Figures 3-6) run the *same*
workload across stack generations.  An :class:`IoRecord` is one recorded
I/O's timing and shape; :func:`replay` re-issues a stream of them,
preserving inter-arrival times, against any deployment.

The on-disk format lives in the scenario plane: `repro.scenario.trace`
stores streams of these records in the digest-keyed :class:`FleetTrace`
container, and `repro.scenario.record` captures whole deployments into
one through the telemetry subscribe hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..agent.base import IoRequest
from ..ebs.virtual_disk import VirtualDisk
from ..metrics.stats import LatencyStats
from ..sim.engine import Simulator


@dataclass(frozen=True, order=True)
class IoRecord:
    """One recorded I/O: timing and shape, no payload.  Records order by
    (arrival, kind, offset, size), the canonical trace order."""

    at_ns: int
    kind: str
    offset_bytes: int
    size_bytes: int

    def __post_init__(self) -> None:
        if self.kind not in ("read", "write"):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.at_ns < 0 or self.size_bytes <= 0 or self.offset_bytes < 0:
            raise ValueError(f"invalid record: {self}")


class ReplayResult:
    def __init__(self) -> None:
        self.latency = LatencyStats("replay")
        self.issued = 0
        self.completed = 0
        self.failed = 0
        #: Total bytes scheduled for issue, after size scaling/clamping.
        self.issued_bytes = 0


def replay(
    sim: Simulator,
    vd: VirtualDisk,
    records: Iterable[IoRecord],
    time_scale: float = 1.0,
    size_scale: float = 1.0,
    on_each: Optional[Callable[[IoRequest], None]] = None,
    on_issue: Optional[Callable[[IoRequest], None]] = None,
) -> ReplayResult:
    """Schedule every record against ``vd`` with original inter-arrivals
    (scaled by ``time_scale``); caller runs the simulator afterwards.

    ``time_scale`` stretches inter-arrival gaps (0.5 = twice the arrival
    rate) and ``size_scale`` multiplies I/O sizes (re-aligned to 4KB, at
    least one block), so one captured trace sweeps a load envelope.
    ``on_issue`` observes each I/O the moment it is submitted (e.g. an
    ``IoHangMonitor.watch``); ``on_each`` observes completions.
    """
    if time_scale <= 0:
        raise ValueError(f"non-positive time scale: {time_scale}")
    if size_scale <= 0:
        raise ValueError(f"non-positive size scale: {size_scale}")
    result = ReplayResult()

    def finish(io: IoRequest) -> None:
        if io.trace is not None and io.trace.ok:
            result.completed += 1
            result.latency.record(io.trace.total_ns)
        else:
            result.failed += 1
        if on_each is not None:
            on_each(io)

    def issue(kind: str, offset: int, size: int) -> None:
        op = vd.read if kind == "read" else vd.write
        io = op(offset, size, finish)
        if on_issue is not None:
            on_issue(io)

    for record in records:
        size = record.size_bytes
        if size_scale != 1.0:
            size = max(4096, int(size * size_scale) // 4096 * 4096)
        size = min(size, vd.size_bytes)
        offset = min(record.offset_bytes, vd.size_bytes - size)
        offset -= offset % 4096
        result.issued += 1
        result.issued_bytes += size
        sim.schedule_fire(int(record.at_ns * time_scale), issue, record.kind, offset, size)
    return result
