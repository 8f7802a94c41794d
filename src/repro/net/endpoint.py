"""Host network attachment.

An :class:`Endpoint` is a server's set of NIC ports.  Production compute
servers are dual-homed ("even with the ToR switch, we connect each server
to a pair of it", §3.3), so an endpoint may hold several channels and
spreads flows across them by consistent hash — exactly like one more ECMP
stage.  Received packets are demultiplexed to registered protocol handlers
by protocol name, falling back to a default handler.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..sim.engine import Simulator
from .ecmp import pick
from .link import LINK_STATE_EPOCH, Channel
from .packet import FiveTuple, Packet

PacketHandler = Callable[[Packet], None]


class Endpoint:
    """A host's attachment to the fabric (one or more NIC ports)."""

    #: Packets reach the protocol handlers as they come off the wire.
    ingress_delay_ns = 0

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.uplinks: List[Channel] = []
        #: 5-tuple -> uplink (``None``: every uplink is down), cleared
        #: whenever ``LINK_STATE_EPOCH`` moves, like a switch's table.
        self._fib: Dict[FiveTuple, Optional[Channel]] = {}
        self._fib_epoch = -1
        self._handlers: Dict[str, PacketHandler] = {}
        self._default_handler: Optional[PacketHandler] = None
        self.tx_packets = 0
        self.tx_bytes = 0
        self.rx_packets = 0
        self.rx_bytes = 0
        self.tx_dropped = 0

    # ------------------------------------------------------------------
    def add_uplink(self, channel: Channel) -> None:
        self.uplinks.append(channel)
        LINK_STATE_EPOCH[0] += 1

    def on_proto(self, proto: str, handler: PacketHandler) -> None:
        """Register a handler for packets of a given ``proto``."""
        self._handlers[proto] = handler

    def on_default(self, handler: PacketHandler) -> None:
        self._default_handler = handler

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Emit a packet through one healthy uplink (flow-hashed)."""
        fib = self._fib
        if self._fib_epoch != LINK_STATE_EPOCH[0]:
            fib.clear()
            self._fib_epoch = LINK_STATE_EPOCH[0]
        flow = packet.flow
        try:
            channel = fib[flow]
        except KeyError:
            live = [ch for ch in self.uplinks if ch.up]
            channel = fib[flow] = pick(flow, live, salt=self.name) if live else None
        if channel is None:
            self.tx_dropped += 1
            return False
        packet.created_ns = packet.created_ns or self.sim.now
        ok = channel.send(packet)
        if ok:
            self.tx_packets += 1
            self.tx_bytes += packet.size_bytes
        else:
            self.tx_dropped += 1
        return ok

    def receive(self, packet: Packet, ingress: Channel) -> None:
        self.rx_packets += 1
        self.rx_bytes += packet.size_bytes
        handler = self._handlers.get(packet.proto, self._default_handler)
        if handler is None:
            raise RuntimeError(
                f"endpoint {self.name} received {packet.proto!r} packet but has "
                f"no handler (registered: {sorted(self._handlers)})"
            )
        handler(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Endpoint {self.name} uplinks={len(self.uplinks)}>"
