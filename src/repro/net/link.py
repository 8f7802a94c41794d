"""Point-to-point links.

A :class:`Link` is a full-duplex cable built from two independent
:class:`Channel` directions.  Each channel models:

* store-and-forward serialization at the configured line rate;
* fixed propagation delay;
* a drop-tail egress queue (the *sender's* output buffer) that fills when
  the line is busy.

Receivers are any object with ``receive(packet, ingress)`` where ``ingress``
is the channel the packet arrived on, and an ``ingress_delay_ns``: the
receiver's fixed pipeline delay (a switch's forwarding latency, 0 for a
host).  The channel folds it into delivery, so ``receive`` runs when the
receiver is ready to act on the packet and a switch forwards at once.
"""

from __future__ import annotations

from typing import Protocol

from ..profiles import bytes_time_ns
from ..sim.engine import Simulator
from .packet import Packet
from .queue import DropTailQueue

#: Monotonic generation counter for link-state-derived caches (switch
#: route candidates, endpoint live-uplink lists).  Bumped on every
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
    """One direction of a link: sender-side queue + wire."""

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
        self.sim = sim
        self.name = name
        self.src = src
        self.dst = dst
        self.gbps = gbps
        self.propagation_ns = propagation_ns
        #: Wire exit to ``dst.receive``: propagation plus the receiver's
        #: ingress pipeline, one event for both.
        self._deliver_ns = propagation_ns + dst.ingress_delay_ns
        self.queue = DropTailQueue(queue_capacity_bytes, name=f"{name}.q")
        self._up = True
        self._transmitting = False
        self.tx_packets = 0
        self.tx_bytes = 0

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Queue a packet for transmission.  Returns False if dropped.

        A downed channel silently drops (fail-stop port/cable failure);
        the sender has no signal other than missing ACKs, matching how a
        real fabric fails (§3.3).
        """
        if not self.up:
            return False
        if not self.queue.offer(packet):
            return False
        if not self._transmitting:
            self._start_next()
        return True

    def _start_next(self) -> None:
        packet = self.queue.poll()
        if packet is None:
            self._transmitting = False
            return
        self._transmitting = True
        wire_ns = bytes_time_ns(packet.size_bytes, self.gbps)
        self.sim.schedule_fire(wire_ns, self._finish_serialize, packet)

    def _finish_serialize(self, packet: Packet) -> None:
        self.tx_packets += 1
        self.tx_bytes += packet.size_bytes
        if self.up:
            self.sim.schedule_fire(self._deliver_ns, self._deliver, packet)
        self._start_next()

    def _deliver(self, packet: Packet) -> None:
        if self.up:
            self.dst.receive(packet, self)

    # ------------------------------------------------------------------
    @property
    def up(self) -> bool:
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        # A property so that direct writes (fault injection shorthand in
        # tests: ``channel.up = False``) keep the cache epoch coherent,
        # same as :meth:`set_up`.
        if value != self._up:
            LINK_STATE_EPOCH[0] += 1
        self._up = value

    def set_up(self, up: bool) -> None:
        """Administratively enable/disable the channel.

        Going down flushes the queue (those frames are lost, as on a real
        port failure).
        """
        if self._up and not up:
            self.queue.clear()
        self.up = up

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "DOWN"
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
