"""Event primitives for the discrete-event simulation kernel.

The simulator's clock is an integer count of nanoseconds.  Integer time
makes event ordering exact and reproducible: two events scheduled for the
same instant are delivered in the order they were scheduled (FIFO tie
breaking via a monotonically increasing sequence number), and no
floating-point accumulation error can reorder them.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

#: Convenience time constants (all in integer nanoseconds).
NS = 1
US = 1_000
MS = 1_000_000
SECOND = 1_000_000_000


class Event:
    """A scheduled callback.

    Events are created by :meth:`repro.sim.engine.Simulator.schedule` and
    should not be instantiated directly.  An event may be cancelled before
    it fires; cancelled events stay in the scheduler but are skipped when
    popped (lazy deletion), which keeps cancellation O(1).  While queued
    the event holds its simulator (``_sim``), which counts the ghost so
    cancel-heavy workloads trigger compaction instead of growing the heap
    without bound.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple, sim: Any):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                self._sim = None
                sim._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time}ns {name} {state}>"


def format_ns(ns: Optional[int]) -> str:
    """Render a nanosecond count as a human-friendly string."""
    if ns is None:
        return "∞"
    if ns >= SECOND:
        return f"{ns / SECOND:.3f}s"
    if ns >= MS:
        return f"{ns / MS:.3f}ms"
    if ns >= US:
        return f"{ns / US:.3f}us"
    return f"{ns}ns"
