"""Egress queue: a byte-budget drop-tail FIFO.

§3.1: AliCloud's FN deliberately uses shallow-buffer switches and accepts
loss (the stacks must be loss-tolerant), so every egress port is a
byte-budget drop-tail FIFO with occupancy statistics for INT.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .packet import Packet


class DropTailQueue:
    """FIFO of packets bounded by total byte occupancy."""

    def __init__(self, capacity_bytes: int, name: str = ""):
        if capacity_bytes <= 0:
            raise ValueError(f"queue capacity must be positive: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.name = name
        self._items: Deque[Packet] = deque()
        self.bytes = 0
        self.enqueued = 0
        self.dropped = 0
        self.peak_bytes = 0

    def __len__(self) -> int:
        return len(self._items)

    def offer(self, packet: Packet) -> bool:
        """Enqueue if the byte budget allows; return False (drop) otherwise."""
        if self.bytes + packet.size_bytes > self.capacity_bytes:
            self.dropped += 1
            return False
        self._items.append(packet)
        self.bytes += packet.size_bytes
        self.enqueued += 1
        if self.bytes > self.peak_bytes:
            self.peak_bytes = self.bytes
        return True

    def poll(self) -> Optional[Packet]:
        """Dequeue the head packet, or None when empty."""
        if not self._items:
            return None
        packet = self._items.popleft()
        self.bytes -= packet.size_bytes
        return packet

    def clear(self) -> int:
        """Drop everything queued (e.g. on switch power-cycle); returns count."""
        count = len(self._items)
        self.dropped += count
        self._items.clear()
        self.bytes = 0
        return count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DropTailQueue {self.name!r} {len(self._items)}pkts "
            f"{self.bytes}/{self.capacity_bytes}B drops={self.dropped}>"
        )
