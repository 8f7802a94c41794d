"""Plain datagram socket — the raw substrate SOLAR builds on (§4).

A :class:`DatagramSocket` is fire-and-forget: no connection, no ordering,
no retransmission.  Reliability is SOLAR's job, per-block (§4.4: "each
network packet is a self-contained storage data block").
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..net.endpoint import Endpoint
from ..net.packet import IntRecord, Packet
from ..sim.engine import Simulator

PacketHandler = Callable[[Packet], None]


class DatagramSocket:
    """Unreliable datagram I/O on one endpoint for one protocol tag."""

    def __init__(self, sim: Simulator, endpoint: Endpoint, proto: str = "solar"):
        self.sim = sim
        self.endpoint = endpoint
        self.proto = proto
        self._port_handlers: Dict[int, PacketHandler] = {}
        self._default: Optional[PacketHandler] = None
        endpoint.on_proto(proto, self._demux)

    def bind(self, dport: int, handler: PacketHandler) -> None:
        if dport in self._port_handlers:
            raise ValueError(f"{self.endpoint.name}: port {dport} already bound")
        self._port_handlers[dport] = handler

    def bind_default(self, handler: PacketHandler) -> None:
        self._default = handler

    def send(
        self,
        dst: str,
        sport: int,
        dport: int,
        size_bytes: int,
        headers: Optional[Dict[str, Dict[str, Any]]] = None,
        payload: Optional[bytes] = None,
        int_records: Optional[List[IntRecord]] = None,
    ) -> Packet:
        """Build and emit one datagram; returns it (for tests/inspection).

        Pass ``int_records=[]`` when the receiver reads the switches' INT.
        """
        packet = Packet(
            src=self.endpoint.name,
            dst=dst,
            sport=sport,
            dport=dport,
            proto=self.proto,
            size_bytes=size_bytes,
            headers=headers or {},
            payload=payload,
            int_records=int_records,
        )
        self.endpoint.send(packet)
        return packet

    def _demux(self, packet: Packet) -> None:
        handler = self._port_handlers.get(packet.dport, self._default)
        if handler is None:
            # Unbound port: silently dropped, like a real UDP stack without
            # a listener (no ICMP in the fabric model).
            return
        handler(packet)
