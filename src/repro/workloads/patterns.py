"""Access-pattern generators: where on the disk the next I/O lands.

The fio driver defaults to uniform-random aligned offsets; real guests
are rarely uniform.  These samplers provide the two other patterns a
:class:`~repro.workloads.fio.FioSpec` can ask for:

* sequential — log appends, scans, backup streams;
* zipfian — skewed access (hot pages), the pattern that makes chunk-side
  caches and LSM write-staging matter.

Both samplers return block-aligned byte offsets such that
``offset + io_size <= disk_size``.
"""

from __future__ import annotations

import bisect
import math
import random

from ..profiles import BLOCK_SIZE


def _usable_blocks(disk_size: int, io_size: int) -> int:
    blocks = (disk_size - io_size) // BLOCK_SIZE + 1
    if blocks < 1:
        raise ValueError(
            f"I/O of {io_size}B does not fit a {disk_size}B disk"
        )
    return blocks


class SequentialPattern:
    """Monotonic append that wraps at the end of the disk."""

    def __init__(self, disk_size: int, start_offset: int = 0):
        if start_offset % BLOCK_SIZE:
            raise ValueError(f"start offset {start_offset} not block-aligned")
        self.disk_size = disk_size
        self._next = start_offset

    def next_offset(self, io_size: int) -> int:
        _usable_blocks(self.disk_size, io_size)
        if self._next + io_size > self.disk_size:
            self._next = 0
        offset = self._next
        self._next += ((io_size + BLOCK_SIZE - 1) // BLOCK_SIZE) * BLOCK_SIZE
        return offset


class ZipfianPattern:
    """Zipf-distributed block popularity over a shuffled block space.

    ``theta`` in (0, 1): higher = more skew.  Uses the bounded-harmonic
    inverse-CDF method over ``hot_set`` ranks mapped pseudo-randomly onto
    the disk so hot blocks are scattered, not clustered.
    """

    def __init__(self, disk_size: int, rng: random.Random, theta: float = 0.99,
                 hot_set: int = 4096):
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0,1), got {theta}")
        if hot_set < 1:
            raise ValueError("hot_set must be positive")
        self.disk_size = disk_size
        self.rng = rng
        self.theta = theta
        self.hot_set = hot_set
        weights = [1.0 / math.pow(rank, theta) for rank in range(1, hot_set + 1)]
        total = sum(weights)
        self._cdf: list = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)

    def next_offset(self, io_size: int) -> int:
        blocks = _usable_blocks(self.disk_size, io_size)
        rank = bisect.bisect_left(self._cdf, self.rng.random())
        rank = min(rank, self.hot_set - 1)
        # Scatter ranks across the disk deterministically (multiplicative
        # hashing by a large odd constant).
        block = (rank * 2654435761) % blocks
        return block * BLOCK_SIZE
