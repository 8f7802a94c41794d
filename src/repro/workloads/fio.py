"""A fio-like closed-loop workload driver.

Reproduces the testbed methodology of Figures 14/15 and Table 2: a fixed
I/O depth of outstanding operations per job, fixed or mixed block sizes,
a read/write ratio, random aligned offsets, and summary statistics
(IOPS, throughput, latency percentiles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..agent.base import IoRequest
from ..ebs.virtual_disk import VirtualDisk
from ..metrics.stats import LatencyStats
from ..profiles import BLOCK_SIZE
from ..sim.engine import Simulator


@dataclass(frozen=True)
class FioSpec:
    """One fio job description."""

    block_sizes: Sequence[int] = (4096,)
    iodepth: int = 32
    read_fraction: float = 1.0  # 1.0 = pure read, 0.0 = pure write
    #: Stop issuing after this simulated time; in-flight I/Os may drain.
    runtime_ns: int = 20_000_000  # 20 ms of simulated time
    name: str = "fio"
    #: Offset pattern: "random" (fio's randread/randwrite), "sequential",
    #: or "zipfian" (skewed hot set) — see repro.workloads.patterns.
    pattern: str = "random"

    def __post_init__(self) -> None:
        if self.iodepth < 1:
            raise ValueError(f"iodepth must be >= 1, got {self.iodepth}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read fraction out of range: {self.read_fraction}")
        if not self.block_sizes:
            raise ValueError("need at least one block size")
        if any(b <= 0 or b % BLOCK_SIZE for b in self.block_sizes):
            raise ValueError(f"block sizes must be positive multiples of {BLOCK_SIZE}")
        if self.pattern not in ("random", "sequential", "zipfian"):
            raise ValueError(f"unknown access pattern {self.pattern!r}")


@dataclass
class FioResult:
    """Job summary, fio-style."""

    completed: int
    failed: int
    duration_ns: int
    bytes_moved: int
    latency: LatencyStats

    @property
    def iops(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.completed / (self.duration_ns / 1e9)

    @property
    def throughput_mbps(self) -> float:
        """Goodput in MB/s (the Figure 14a unit)."""
        if self.duration_ns <= 0:
            return 0.0
        return self.bytes_moved / (1024 * 1024) / (self.duration_ns / 1e9)


class FioJob:
    """Closed-loop driver keeping ``iodepth`` I/Os outstanding on one VD."""

    def __init__(
        self,
        sim: Simulator,
        vd: VirtualDisk,
        spec: FioSpec,
        on_issue: Optional[Callable[[IoRequest], None]] = None,
    ):
        self.sim = sim
        self.vd = vd
        self.spec = spec
        #: Observer called with each IoRequest as it is submitted — e.g. an
        #: IoHangMonitor's ``watch`` so hangs are counted under faults.
        self.on_issue = on_issue
        self._rng = sim.rng.stream(f"fio/{spec.name}/{vd.vd_id}")
        if spec.pattern == "sequential":
            from .patterns import SequentialPattern

            self._pattern = SequentialPattern(vd.size_bytes)
        elif spec.pattern == "zipfian":
            from .patterns import ZipfianPattern

            self._pattern = ZipfianPattern(vd.size_bytes, self._rng)
        else:
            self._pattern = None  # uniform via _pick_offset
        self.latency = LatencyStats(spec.name)
        self.completed = 0
        self.failed = 0
        self.bytes_moved = 0
        self.inflight = 0
        self._started_ns: Optional[int] = None
        self._deadline_ns: Optional[int] = None
        self._stopped = False
        #: Completion timestamps of I/Os that exceeded the hang threshold —
        #: populated by the deployment-level hang monitor if attached.
        self.issues: int = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started_ns is not None:
            raise RuntimeError("fio job started twice")
        self._started_ns = self.sim.now
        self._deadline_ns = self.sim.now + self.spec.runtime_ns
        for _ in range(self.spec.iodepth):
            self._issue_one()

    def _pick_offset(self, size: int) -> int:
        if self._pattern is not None:
            return self._pattern.next_offset(size)
        max_block = (self.vd.size_bytes - size) // BLOCK_SIZE
        return self._rng.randint(0, max_block) * BLOCK_SIZE

    def _issue_one(self) -> None:
        if self._stopped or self.sim.now >= self._deadline_ns:
            return
        size = self._rng.choice(list(self.spec.block_sizes))
        offset = self._pick_offset(size)
        self.inflight += 1
        self.issues += 1
        if self._rng.random() < self.spec.read_fraction:
            io = self.vd.read(offset, size, self._on_complete)
        else:
            io = self.vd.write(offset, size, self._on_complete)
        if self.on_issue is not None:
            self.on_issue(io)

    def _on_complete(self, io: IoRequest) -> None:
        self.inflight -= 1
        if io.trace is not None and io.trace.ok:
            self.completed += 1
            self.bytes_moved += io.size_bytes
            self.latency.record(io.trace.total_ns)
        else:
            self.failed += 1
        self._issue_one()

    def stop(self) -> None:
        self._stopped = True

    def result(self) -> FioResult:
        if self._started_ns is None:
            raise RuntimeError("fio job never started")
        duration = min(self.sim.now, self._deadline_ns or self.sim.now) - self._started_ns
        # If the run drained early, measure over actual elapsed time.
        duration = max(duration, 1)
        return FioResult(
            self.completed, self.failed, duration, self.bytes_moved, self.latency
        )


def run_fio(
    sim: Simulator,
    vds: List[VirtualDisk],
    spec: FioSpec,
    settle_ns: int = 0,
) -> Dict[str, FioResult]:
    """Run one fio spec across several VDs concurrently; returns per-VD
    results keyed by vd_id.  The simulator is advanced to completion of
    the runtime window plus drain."""
    jobs = [FioJob(sim, vd, spec) for vd in vds]
    for job in jobs:
        sim.schedule_fire(settle_ns, job.start)
    sim.run(until=sim.now + settle_ns + spec.runtime_ns)
    for job in jobs:
        job.stop()
    sim.run(until=sim.now + 50_000_000)  # 50 ms drain budget
    return {job.vd.vd_id: job.result() for job in jobs}
