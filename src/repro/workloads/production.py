"""Production-shaped workload generation (Figures 3, 4, 5).

Two layers:

* :class:`ProductionWorkload` — an open-loop Poisson I/O generator against
  a live deployment, with the Figure 5 size mix and Figure 3 read/write
  ratio.  Used for "under production load" experiments.
* :func:`synthesize_week` / :func:`synthesize_day` — fleet-level traffic
  synthesis for regenerating Figure 3's week of per-server traffic and
  Figure 4's per-minute IOPS day, without simulating 100K servers packet
  by packet (the figures are fleet telemetry, not protocol behaviour).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..agent.base import IoRequest
from ..ebs.virtual_disk import VirtualDisk
from ..metrics.stats import LatencyStats
from ..sim.engine import Simulator
from .distributions import (
    EBS_TX_SHARE,
    READ_FRACTION,
    SizeDistribution,
    diurnal_iops,
    weekly_modulation,
)


class ProductionWorkload:
    """Open-loop Poisson arrivals with the production size/kind mix."""

    def __init__(
        self,
        sim: Simulator,
        vd: VirtualDisk,
        target_iops: float,
        duration_ns: int,
        sizes: Optional[SizeDistribution] = None,
        read_fraction: float = READ_FRACTION,
        name: str = "prod",
    ):
        if target_iops <= 0:
            raise ValueError(f"target IOPS must be positive: {target_iops}")
        self.sim = sim
        self.vd = vd
        self.target_iops = target_iops
        self.duration_ns = duration_ns
        self.sizes = sizes or SizeDistribution()
        self.read_fraction = read_fraction
        self._rng = sim.rng.stream(f"prod/{name}/{vd.vd_id}")
        self.latency = LatencyStats(name)
        self.read_latency = LatencyStats(f"{name}/read")
        self.write_latency = LatencyStats(f"{name}/write")
        self.issued = 0
        self.completed = 0
        self.failed = 0
        self._deadline: Optional[int] = None

    def start(self) -> None:
        self._deadline = self.sim.now + self.duration_ns
        self._schedule_next()

    def _schedule_next(self) -> None:
        gap_ns = int(self._rng.expovariate(self.target_iops) * 1e9)
        self.sim.schedule_fire(gap_ns, self._issue)

    def _issue(self) -> None:
        if self.sim.now >= (self._deadline or 0):
            return
        size = self.sizes.sample(self._rng)
        size = min(size, self.vd.size_bytes)
        max_block = (self.vd.size_bytes - size) // 4096
        offset = self._rng.randint(0, max_block) * 4096
        kind = "read" if self._rng.random() < self.read_fraction else "write"
        self.issued += 1
        if kind == "read":
            self.vd.read(offset, size, self._done)
        else:
            self.vd.write(offset, size, self._done)
        self._schedule_next()

    def _done(self, io: IoRequest) -> None:
        if io.trace is not None and io.trace.ok:
            self.completed += 1
            self.latency.record(io.trace.total_ns)
            (self.read_latency if io.kind == "read" else self.write_latency).record(
                io.trace.total_ns
            )
        else:
            self.failed += 1


# ----------------------------------------------------------------------
# Fleet-telemetry synthesis (Figures 3 and 4)
# ----------------------------------------------------------------------
@dataclass
class TrafficSample:
    """One telemetry bucket of fleet-average per-server traffic."""

    t_hours: float
    ebs_rx_gbps: float
    ebs_tx_gbps: float
    all_rx_gbps: float
    all_tx_gbps: float
    read_iops: float
    write_iops: float


def synthesize_week(
    seed: int = 0,
    buckets_per_day: int = 24,
    mean_io_bytes: Optional[float] = None,
    base_iops: float = 9_000.0,
) -> List[TrafficSample]:
    """A week of hourly fleet-average traffic in the shape of Figure 3.

    ``base_iops`` is the *fleet-average per-server* write+read request
    rate (Figure 3b hovers around 6-10K write IOPS per server on
    average); Figure 4's 200K is a highly-loaded single server, not the
    average.
    """
    rng = random.Random(seed)
    sizes = SizeDistribution()
    mean_bytes = mean_io_bytes if mean_io_bytes is not None else sizes.mean_bytes()
    samples: List[TrafficSample] = []
    for day in range(7):
        for b in range(buckets_per_day):
            hour = 24.0 * b / buckets_per_day
            level = (
                diurnal_iops(hour, base_iops * 0.6, base_iops * 1.4)
                * weekly_modulation(day)
                * rng.uniform(0.93, 1.07)
            )
            write_iops = level * (1 - READ_FRACTION)
            read_iops = level * READ_FRACTION
            # TX from a compute server = WRITE payloads (3 copies are a
            # BN affair); RX = READ payloads.
            ebs_tx = write_iops * mean_bytes * 8 / 1e9
            ebs_rx = read_iops * mean_bytes * 8 / 1e9
            all_tx = ebs_tx / EBS_TX_SHARE
            all_rx = ebs_rx / max(0.25, EBS_TX_SHARE - 0.18)
            samples.append(
                TrafficSample(
                    day * 24 + hour, ebs_rx, ebs_tx, all_rx, all_tx, read_iops, write_iops
                )
            )
    return samples


def synthesize_day(
    seed: int = 0,
    minutes: int = 24 * 60,
    base_iops: float = 60_000.0,
    peak_iops: float = 200_000.0,
) -> List[Tuple[float, float]]:
    """Per-minute IOPS for a highly-loaded server (Figure 4): the diurnal
    curve plus per-minute burst noise and occasional spikes."""
    rng = random.Random(seed)
    series: List[Tuple[float, float]] = []
    for minute in range(minutes):
        hour = (minute / 60.0) % 24.0
        level = diurnal_iops(hour, base_iops, peak_iops)
        level *= rng.lognormvariate(0.0, 0.10)
        if rng.random() < 0.01:  # rare bursts visible in Figure 4
            level *= rng.uniform(1.3, 1.8)
        series.append((minute / 60.0, level))
    return series
