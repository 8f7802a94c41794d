"""Point-to-point links.

A :class:`Link` is a full-duplex cable built from two independent
:class:`Channel` directions.  Each channel models:

* store-and-forward serialization at the configured line rate;
* fixed propagation delay;
* a byte-budget drop-tail egress FIFO (the *sender's* output buffer)
  that fills when the line is busy.  §3.1: the FN uses shallow-buffer
  switches and accepts loss.

A FIFO fixes each frame's serialization start and end when the frame is
sent, so the one event a frame costs is its delivery.

Receivers are any object with ``receive(packet, ingress)`` where ``ingress``
is the channel the packet arrived on, and an ``ingress_delay_ns``: the
receiver's fixed pipeline delay (a switch's forwarding latency, 0 for a
host).  The channel folds it into delivery, so ``receive`` runs when the
receiver is ready to act on the packet and a switch forwards at once.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Protocol, Tuple

from ..profiles import bytes_time_ns
from ..sim.engine import Simulator
from .packet import Packet

#: Monotonic generation counter for link-state-derived caches (the
#: switches' and endpoints' forwarding tables).  Bumped on every
#: channel up/down transition and on (re)wiring; caches stamp the value
#: they were built at and rebuild when it moved.  A single process-wide
#: counter over-invalidates across simulators, which is harmless — the
#: caches are pure functions of current link state.
LINK_STATE_EPOCH = [0]


class Receiver(Protocol):
    name: str
    ingress_delay_ns: int

    def receive(self, packet: Packet, ingress: "Channel") -> None: ...


class Channel:
    """One direction of a link: sender-side drop-tail FIFO + wire.

    ``send`` fixes a frame's ``start = max(now, line free)`` and ``end =
    start + wire`` and schedules its delivery.  Frames not yet finished
    stay in a deque, from which the waiting bytes and tx counters are
    settled when read.

    Same-ns rule: at ``now``, a frame with ``end <= now`` has finished
    (``tx_packets``/``tx_bytes``) and a frame with ``start <= now`` has
    left the queue (:attr:`queue_bytes`: the capacity check and INT).
    ``peak_bytes`` still counts a frame that starts exactly at ``now``.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        src: "Receiver",
        dst: "Receiver",
        gbps: float,
        propagation_ns: int,
        queue_capacity_bytes: int,
    ):
        if queue_capacity_bytes <= 0:
            raise ValueError(f"queue capacity must be positive: {queue_capacity_bytes}")
        self.sim = sim
        self.name = name
        self.src = src
        self.dst = dst
        self.gbps = gbps
        self.propagation_ns = propagation_ns
        #: Wire exit to ``dst.receive``: propagation plus the receiver's
        #: ingress pipeline, one event for both.
        self._deliver_ns = propagation_ns + dst.ingress_delay_ns
        self.capacity_bytes = queue_capacity_bytes
        self.enqueued = 0
        self.dropped = 0
        self.peak_bytes = 0
        self._up = True
        self._free_ns = 0  # when the line finishes the last frame
        #: Unfinished frames as ``[start, end, size, live]``.  ``live``
        #: is cleared by a flush, and follows the up/down flips while
        #: the frame is on the wire: at delivery it says whether the
        #: channel was up when the frame's serialization ended.
        self._frames: Deque[List[int]] = deque()
        self._frame_bytes = 0
        # Accepted, not flushed: less the unfinished frames, the tx counters.
        self._sent_packets = 0
        self._sent_bytes = 0
        #: Bound once: ``send`` schedules it per frame.
        self._deliver_bound = self._deliver

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Queue a packet for transmission.  Returns False if dropped.

        A downed channel silently drops (fail-stop port/cable failure);
        the sender has no signal other than missing ACKs, matching how a
        real fabric fails (§3.3).
        """
        if not self._up:
            return False
        size = packet.size_bytes
        now = self.sim.now
        frames = self._frames
        if self._free_ns <= now:
            # Idle line: every frame has ended, so none waits and the
            # new one starts now.  What ``_settle`` would retire goes at once.
            if size > self.capacity_bytes:
                self.dropped += 1
                return False
            frames.clear()
            self._frame_bytes = size
            if size > self.peak_bytes:
                self.peak_bytes = size
            start = now
        else:
            queued = self._settle() + size
            if queued > self.capacity_bytes:
                self.dropped += 1
                return False
            if frames[0][0] == now:
                queued += frames[0][2]  # starts now: still queued for the peak
            if queued > self.peak_bytes:
                self.peak_bytes = queued
            self._frame_bytes += size
            start = self._free_ns
        self.enqueued += 1
        end = self._free_ns = start + bytes_time_ns(size, self.gbps)
        frame = [start, end, size, True]
        frames.append(frame)
        self._sent_packets += 1
        self._sent_bytes += size
        self.sim.schedule_at_fire(end + self._deliver_ns, self._deliver_bound, packet, frame)
        return True

    def _deliver(self, packet: Packet, frame: List[int]) -> None:
        if frame[3] and self._up:
            self.dst.receive(packet, self)

    def _settle(self) -> int:
        """Retire the frames finished by now; return the waiting bytes."""
        now = self.sim.now
        frames = self._frames
        while frames and frames[0][1] <= now:
            self._frame_bytes -= frames.popleft()[2]
        if frames and frames[0][0] <= now:
            return self._frame_bytes - frames[0][2]
        return self._frame_bytes

    # ------------------------------------------------------------------
    @property
    def queue_bytes(self) -> int:
        """Bytes waiting for the line (the frame on the wire excluded)."""
        return self._settle()

    @property
    def tx_packets(self) -> int:
        self._settle()
        return self._sent_packets - len(self._frames)

    @property
    def tx_bytes(self) -> int:
        self._settle()
        return self._sent_bytes - self._frame_bytes

    def _int_sample(self) -> Tuple[int, int]:
        """``(queue_bytes, tx_bytes)`` from one settle: a switch's INT stamp."""
        queued = self._settle()
        return queued, self._sent_bytes - self._frame_bytes

    @property
    def up(self) -> bool:
        return self._up

    def set_up(self, up: bool) -> None:
        """Administratively enable/disable the channel.

        Going down loses the waiting frames (counted in ``dropped``, as
        on a real port failure).  The frame on the wire still holds the
        line until its end, and is lost if the channel is down then.
        """
        if up == self._up:
            return
        LINK_STATE_EPOCH[0] += 1
        self._up = up
        self._settle()
        frames = self._frames
        if not frames:
            return
        # Frames wait only behind the one on the wire, so after settling
        # the head is on the wire and the rest are waiting.
        frames[0][3] = up
        if not up:
            while len(frames) > 1:
                lost = frames.pop()
                lost[3] = False
                self._frame_bytes -= lost[2]
                self._sent_packets -= 1
                self._sent_bytes -= lost[2]
                self.dropped += 1
            self._free_ns = frames[0][1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self._up else "DOWN"
        return f"<Channel {self.name} {self.gbps}G {state}>"


class Link:
    """Full-duplex link: two mirrored channels."""

    def __init__(
        self,
        sim: Simulator,
        a: "Receiver",
        b: "Receiver",
        gbps: float,
        propagation_ns: int,
        queue_capacity_bytes: int,
    ):
        self.a = a
        self.b = b
        self.ab = Channel(
            sim, f"{a.name}->{b.name}", a, b, gbps, propagation_ns,
            queue_capacity_bytes,
        )
        self.ba = Channel(
            sim, f"{b.name}->{a.name}", b, a, gbps, propagation_ns,
            queue_capacity_bytes,
        )

    def channel_from(self, node: "Receiver") -> Channel:
        if node is self.a:
            return self.ab
        if node is self.b:
            return self.ba
        raise ValueError(f"{node.name} is not an endpoint of this link")

    def other(self, node: "Receiver") -> "Receiver":
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{node.name} is not an endpoint of this link")

    def set_up(self, up: bool) -> None:
        self.ab.set_up(up)
        self.ba.set_up(up)
