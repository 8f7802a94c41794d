"""Network packet representation.

A :class:`Packet` is the unit moved by links and switches.  It carries:

* the 5-tuple used for ECMP hashing (``src``, ``dst``, ``sport``, ``dport``,
  ``proto``);
* a wire size (headers included) used for serialization/queueing physics;
* a stack of protocol headers (plain mappings keyed by layer name) so the
  transport stacks and SOLAR's pipeline can parse storage semantics out of
  the packet, exactly as §4.4's network/storage fusion requires;
* an optional real ``payload`` (bytes) — integrity experiments flow real
  bytes end to end so CRC arithmetic is genuine, while pure performance
  experiments may leave the payload as ``None`` and carry only a size;
* in-band network telemetry (INT) records appended by switches (§4.5),
  only on packets created with ``int_records=[]``: their receivers read
  the records, and no other packet pays for them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

_packet_ids = itertools.count(1)

FiveTuple = Tuple[str, str, int, int, str]


@dataclass(slots=True)
class IntRecord:
    """One switch's in-band telemetry stamp (HPCC-style, §4.8)."""

    switch: str
    timestamp_ns: int
    queue_bytes: int
    tx_bytes: int
    link_gbps: float


@dataclass(slots=True)
class Packet:
    """A self-describing simulated packet.

    Slotted: the simulator creates one of these per message per hop, so
    the per-instance ``__dict__`` was measurable in both memory and
    attribute-access time.

    ``flow`` is fixed at creation: every switch and endpoint on the path
    reads the same tuple instead of building it per hop.  No module
    reassigns a 5-tuple field afterwards (an AST test guards that), so
    the key stays exact.
    """

    src: str
    dst: str
    sport: int
    dport: int
    proto: str
    size_bytes: int
    headers: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    payload: Optional[bytes] = None
    created_ns: int = 0
    ttl: int = 32
    pkt_id: int = field(default_factory=_packet_ids.__next__)
    #: ``None``: switches stamp nothing.  A list: each switch appends one
    #: :class:`IntRecord` per hop.
    int_records: Optional[List[IntRecord]] = None
    #: The 5-tuple ECMP hashes on.  SOLAR varies ``sport`` per path
    #: (§4.5: 'use different UDP ports as path IDs').
    flow: FiveTuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.size_bytes}")
        if self.payload is not None and len(self.payload) > self.size_bytes:
            raise ValueError(
                f"payload ({len(self.payload)}B) larger than wire size "
                f"({self.size_bytes}B)"
            )
        self.flow = (self.src, self.dst, self.sport, self.dport, self.proto)

    def header(self, layer: str) -> Dict[str, Any]:
        """Return the named header, raising KeyError with context if absent."""
        try:
            return self.headers[layer]
        except KeyError:
            raise KeyError(
                f"packet {self.pkt_id} has no {layer!r} header; "
                f"layers present: {sorted(self.headers)}"
            ) from None

    def reply_shell(self, size_bytes: int, proto: Optional[str] = None) -> "Packet":
        """Build a response packet with src/dst and ports mirrored."""
        return Packet(
            src=self.dst,
            dst=self.src,
            sport=self.dport,
            dport=self.sport,
            proto=proto or self.proto,
            size_bytes=size_bytes,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.pkt_id} {self.proto} {self.src}:{self.sport}->"
            f"{self.dst}:{self.dport} {self.size_bytes}B>"
        )
