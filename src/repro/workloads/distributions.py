"""Production traffic distributions (§2.3, Figures 3-5).

The paper publishes the shapes directly:

* Figure 5 — I/O and RPC sizes: everything ≤ 256KB, ~40% of RPCs ≤ 4KB,
  modes at 4K/16K/64K;
* Figures 3a/3b — WRITE I/O is 3-4x READ in both volume and rate; EBS is
  ~63% of TX traffic / ~51% of all traffic;
* Figure 4 — a loaded server sees up to ~200K IOPS with a diurnal curve.

These generators re-emit those shapes deterministically from a seed.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

KB = 1024

#: (size_bytes, probability) fitted to Figure 5's I/O-size CDF.
IO_SIZE_PMF: Tuple[Tuple[int, float], ...] = (
    (4 * KB, 0.40),
    (8 * KB, 0.10),
    (16 * KB, 0.22),
    (32 * KB, 0.08),
    (64 * KB, 0.14),
    (128 * KB, 0.04),
    (256 * KB, 0.02),
)

#: Figure 3: WRITE requests are 3-4x READ → ~22% reads.
READ_FRACTION = 0.22

#: Figure 3a: EBS share of server TX traffic.
EBS_TX_SHARE = 0.63


@dataclass
class SizeDistribution:
    """Discrete size sampler with an inverse-CDF and a CDF report."""

    pmf: Sequence[Tuple[int, float]] = IO_SIZE_PMF
    _cum: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        total = sum(p for _s, p in self.pmf)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"size PMF sums to {total}, expected 1.0")
        acc = 0.0
        self._cum = []
        for _size, p in self.pmf:
            acc += p
            self._cum.append(acc)

    def sample(self, rng: random.Random) -> int:
        r = rng.random()
        index = bisect.bisect_left(self._cum, r)
        return self.pmf[min(index, len(self.pmf) - 1)][0]

    def cdf(self) -> List[Tuple[int, float]]:
        """(size, cumulative fraction) pairs — a Figure 5 curve."""
        return [(self.pmf[i][0], self._cum[i]) for i in range(len(self.pmf))]

    def mean_bytes(self) -> float:
        return sum(s * p for s, p in self.pmf)


def diurnal_iops(hour_of_day: float, base_iops: float = 60_000.0,
                 peak_iops: float = 200_000.0) -> float:
    """Figure 4's daily IOPS curve for a highly-loaded server.

    A smooth day/night sinusoid (trough ~04:00, peak ~20:00) between the
    base and peak levels; per-minute burstiness is added by the workload's
    sampling noise, not here.
    """
    if not 0.0 <= hour_of_day < 24.0:
        raise ValueError(f"hour out of range: {hour_of_day}")
    phase = math.cos((hour_of_day - 20.0) / 24.0 * 2 * math.pi)
    level = (phase + 1.0) / 2.0  # 0 at trough, 1 at peak
    return base_iops + (peak_iops - base_iops) * level


def weekly_modulation(day_of_week: int) -> float:
    """Mild weekday/weekend swing for Figure 3's week-long series."""
    if not 0 <= day_of_week < 7:
        raise ValueError(f"day out of range: {day_of_week}")
    return 1.0 if day_of_week < 5 else 0.85
