"""CPU core models.

A :class:`CpuCore` is a serial service resource: work items are executed
FIFO, each occupying the core for its cost.  Queueing on a saturated core
is what turns the software SA into the latency tail of Figure 6, and the
per-core packet budget is what Table 1's "consumed cores" column counts.

:class:`CpuComplex` groups cores with either hash-pinned dispatch (LUNA's
"lock-free and share-nothing thread arrangement", §3.2) or least-loaded
dispatch (the kernel stack's softirq steering approximation).
"""

from __future__ import annotations

import zlib
from heapq import heapreplace
from typing import Any, Callable, List, Optional

from ..sim.engine import Simulator


class CpuCore:
    """A single core: serial FIFO execution with utilization accounting."""

    __slots__ = ("sim", "name", "ghz", "busy_until", "busy_ns_total", "jobs_run")

    def __init__(self, sim: Simulator, name: str, ghz: float = 2.1):
        self.sim = sim
        self.name = name
        self.ghz = ghz
        self.busy_until = 0
        self.busy_ns_total = 0
        self.jobs_run = 0

    def submit(
        self, cost_ns: int, callback: Optional[Callable[..., Any]] = None, *args: Any
    ) -> int:
        """Occupy the core for ``cost_ns``; fire ``callback`` at completion.

        Returns the absolute completion time so callers can also sequence
        on the result without a callback.
        """
        cost_ns = int(cost_ns)
        if cost_ns < 0:
            raise ValueError(f"negative CPU cost: {cost_ns}")
        start = self.busy_until
        now = self.sim.now
        if now > start:
            start = now
        done = start + cost_ns
        self.busy_until = done
        self.busy_ns_total += cost_ns
        self.jobs_run += 1
        if callback is not None:
            self.sim.schedule_at_fire(done, callback, *args)
        return done

    @property
    def queue_delay_ns(self) -> int:
        """How long a job submitted right now would wait before starting."""
        return max(0, self.busy_until - self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CpuCore {self.name} qdelay={self.queue_delay_ns}ns>"


class CpuComplex:
    """A set of cores with pluggable dispatch."""

    def __init__(self, sim: Simulator, name: str, cores: int, ghz: float = 2.1):
        if cores < 1:
            raise ValueError(f"need at least one core, got {cores}")
        self.sim = sim
        self.name = name
        self.cores: List[CpuCore] = [
            CpuCore(sim, f"{name}/c{i}", ghz) for i in range(cores)
        ]
        #: ``(busy_until, index, core)`` per core, a min-heap for
        #: :meth:`least_loaded`; an entry may lag its core (see there).
        self._load = [(0, i, core) for i, core in enumerate(self.cores)]

    def pinned(self, key: str) -> CpuCore:
        """Share-nothing dispatch: a stable key always lands on one core.

        Uses crc32 rather than builtin ``hash`` — string hashing is salted
        per process (PYTHONHASHSEED), which would make core collisions, and
        therefore simulated timings, vary between interpreter invocations.
        Callers on a hot path memoize the result (LUNA does, per
        connection).
        """
        return self.cores[zlib.crc32(key.encode()) % len(self.cores)]

    def least_loaded(self) -> CpuCore:
        """Pick the core that would start new work soonest: the lowest
        ``busy_until``, the lowest index among ties."""
        # Exact: only ``CpuCore.submit`` writes ``busy_until`` and never
        # lowers it, so an entry not refreshed since (after ``pinned()``
        # or a direct submit) can only understate its core; the first
        # top whose key is current is the ``(busy_until, index)`` minimum.
        load = self._load
        busy_until, index, core = load[0]
        while core.busy_until != busy_until:
            heapreplace(load, (core.busy_until, index, core))
            busy_until, index, core = load[0]
        return core

    def total_busy_ns(self) -> int:
        return sum(core.busy_ns_total for core in self.cores)

    def cores_consumed(self, window_ns: int) -> float:
        """Equivalent fully-busy cores over a window — Table 1's metric."""
        if window_ns <= 0:
            return 0.0
        return self.total_busy_ns() / window_ns

    def __len__(self) -> int:
        return len(self.cores)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CpuComplex {self.name} x{len(self.cores)}>"
