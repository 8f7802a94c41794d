"""SSD device model (the 'SSD' component of Figure 6).

§2.3 (footnote 1) and §3: chunk-server writes land in the SSD's write
cache without touching NAND — "tens of us", one to two orders of magnitude
faster than kernel TCP — because the LSM-tree and commit aggregation turn
random writes into sequential ones.  Reads usually pay NAND latency
unless they hit the chunk server's cache.

The device is a serial resource: operations serialize behind each other at
the device bandwidth for their data movement, plus a sampled medium
latency (lognormal spread around the profile's base).
"""

from __future__ import annotations

import math
import random
from heapq import heapreplace
from typing import Any, Callable, Optional

from ..profiles import SsdProfile, bytes_time_ns
from ..sim.engine import Simulator


def lognormal_around(rng: random.Random, base_ns: int, sigma: float) -> int:
    """Sample a latency with median ``base_ns`` and lognormal spread."""
    if sigma <= 0:
        return base_ns
    return max(1, int(base_ns * math.exp(rng.gauss(0.0, sigma))))


class SsdDevice:
    """One chunk-server SSD."""

    def __init__(self, sim: Simulator, name: str, profile: SsdProfile):
        self.sim = sim
        self.name = name
        self.profile = profile
        self._rng = sim.rng.stream(f"ssd/{name}")
        #: ``(free_at, index)`` per internal channel (k-server queue), a
        #: min-heap: its top is the channel :meth:`_occupy` takes next.
        self._channels = [(0, i) for i in range(max(1, profile.channels))]
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def _occupy(self, service_ns: int, size_bytes: int, not_before: int) -> int:
        transfer_ns = bytes_time_ns(size_bytes, self.profile.device_gbps)
        # Exact: ``_occupy`` is the heap's only writer, so its top is
        # always the earliest-free channel, the lowest index among ties.
        free_at, index = self._channels[0]
        start = not_before if not_before > free_at else free_at
        done = start + service_ns + transfer_ns
        heapreplace(self._channels, (done, index))
        return done

    def submit_write(
        self, size_bytes: int, not_before: int,
        callback: Optional[Callable[..., Any]] = None, *args: Any,
    ) -> int:
        """Write: lands in the write cache (fast path).  Starts no earlier
        than ``not_before`` (at least ``now``); returns the done-time."""
        if size_bytes <= 0:
            raise ValueError(f"non-positive write size: {size_bytes}")
        service = lognormal_around(
            self._rng, self.profile.write_cache_ns, self.profile.write_cache_sigma
        )
        done = self._occupy(service, size_bytes, not_before)
        self.writes += 1
        self.bytes_written += size_bytes
        if callback is not None:
            self.sim.schedule_at_fire(done, callback, *args)
        return done

    def submit_read(
        self, size_bytes: int, not_before: int,
        callback: Optional[Callable[..., Any]] = None, *args: Any,
    ) -> int:
        """Read: DRAM/SLC cache hit with small probability, NAND otherwise.
        Starts no earlier than ``not_before``, like :meth:`submit_write`."""
        if size_bytes <= 0:
            raise ValueError(f"non-positive read size: {size_bytes}")
        if self._rng.random() < self.profile.read_cache_hit_ratio:
            service = lognormal_around(self._rng, self.profile.read_cache_ns, 0.10)
        else:
            service = lognormal_around(
                self._rng, self.profile.nand_read_ns, self.profile.nand_read_sigma
            )
        done = self._occupy(service, size_bytes, not_before)
        self.reads += 1
        self.bytes_read += size_bytes
        if callback is not None:
            self.sim.schedule_at_fire(done, callback, *args)
        return done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SsdDevice {self.name} r={self.reads} w={self.writes}>"
