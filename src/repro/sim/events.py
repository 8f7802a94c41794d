"""Time primitives for the discrete-event simulation kernel.

The simulator's clock is an integer count of nanoseconds.  Integer time
makes event ordering exact and reproducible: two events scheduled for the
same instant are delivered in the order they were scheduled (FIFO tie
breaking via a monotonically increasing sequence number), and no
floating-point accumulation error can reorder them.
"""

from __future__ import annotations

from typing import Optional

#: Convenience time constants (all in integer nanoseconds).
NS = 1
US = 1_000
MS = 1_000_000
SECOND = 1_000_000_000


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
